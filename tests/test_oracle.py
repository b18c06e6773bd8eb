import numpy as np
import pytest

from vkerr import (FockTruncation, NoLimitCycle, coefficient_set,
                   converged_steady_state, lindblad_steady_state,
                   time_domain_reference, zeroth_order_steady_state)
from vkerr.floquet import STATE
from vkerr.oracle import (_affine_generator, _reduced_rhs, _sample_maps,
                          atom_operators, liouvillian)

from test_dressed import quiet_params, random_params

# published exact-solve reference for the sideband operating point
REF_EXACT = {"rho_11": 0.2082, "rho_pp": 0.2375, "rho_mm": 0.5543,
             "rho_m1": -0.0093 - 0.1755j}


class TestLiouvillian:
    def test_trace_preservation(self, sideband_params):
        trunc = FockTruncation(3)
        L = liouvillian(sideband_params, trunc)
        dim = 3 * (trunc.n_max + 1)
        # functional Tr(L rho) must vanish: contract with vec(identity)
        tr_vec = np.eye(dim).reshape(-1)
        residual = np.abs(tr_vec @ L).max()
        assert residual <= 1e-12 * np.abs(L).max()

    def test_operators(self):
        ops, a = atom_operators(2)
        assert ops[(0, 1)].shape == (9, 9)
        number = a.conj().T @ a
        assert np.allclose(np.diag(number), np.tile([0.0, 1.0, 2.0], 3))
        assert np.allclose(ops[(1, 0)], ops[(0, 1)].conj().T)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            FockTruncation(0)


class TestLindbladSteadyState:
    def test_free_space_resonant_drive(self):
        p = quiet_params(g1=0.0, g2=0.0, delta=0.0)
        ss = lindblad_steady_state(p, FockTruncation(1))
        assert ss.rho_11 == pytest.approx(0.0, abs=1e-9)
        assert ss.rho_mm == pytest.approx(0.5, abs=1e-9)
        assert ss.rho_pp == pytest.approx(0.5, abs=1e-9)
        assert abs(ss.rho_m1) < 1e-9

    def test_sideband_point_matches_reference(self, sideband_params):
        ss = lindblad_steady_state(sideband_params, FockTruncation(4))
        assert ss.rho_11 == pytest.approx(REF_EXACT["rho_11"], abs=2e-3)
        assert ss.rho_pp == pytest.approx(REF_EXACT["rho_pp"], abs=2e-3)
        assert ss.rho_mm == pytest.approx(REF_EXACT["rho_mm"], abs=2e-3)
        assert abs(ss.rho_m1 - REF_EXACT["rho_m1"]) < 2e-3

    def test_cutoff_convergence(self, sideband_params):
        a = lindblad_steady_state(sideband_params, FockTruncation(3))
        b = lindblad_steady_state(sideband_params, FockTruncation(4))
        for name in ("rho_11", "rho_mm", "rho_pp"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-4

    def test_auto_convergence(self, sideband_params):
        ss, trunc = converged_steady_state(sideband_params)
        assert trunc.n_max <= 5
        assert ss.rho_11 == pytest.approx(REF_EXACT["rho_11"], abs=2e-3)

    def test_matches_analytic_within_elimination_error(self, sideband_params):
        numeric = lindblad_steady_state(sideband_params, FockTruncation(4))
        analytic = zeroth_order_steady_state(coefficient_set(sideband_params))
        for name in ("rho_11", "rho_mm", "rho_pp", "rho_m1"):
            assert abs(getattr(numeric, name) - getattr(analytic, name)) <= 4e-3


@pytest.fixture(scope="module")
def gentle_cycle(gentle_params):
    """The gentle-fixture limit cycle at omega_p 1e-3, delta_p 0.2, shared."""
    return time_domain_reference(coefficient_set(gentle_params),
                                 omega_p=1e-3, delta_p=0.2)


class TestTimeDomainReference:
    def test_probe_off_reaches_steady_state(self, gentle_params):
        cs = coefficient_set(gentle_params)
        rec = time_domain_reference(cs, omega_p=0.0, delta_p=0.5)
        ss = zeroth_order_steady_state(cs)
        assert rec.harmonic("mm", 0).real == pytest.approx(ss.rho_mm, abs=1e-8)
        assert rec.harmonic("11", 0).real == pytest.approx(ss.rho_11, abs=1e-8)
        assert rec.harmonic("m1", 0) == pytest.approx(ss.rho_m1, abs=1e-8)
        for n in (-3, -2, -1, 1, 2, 3):
            assert abs(rec.harmonic("mm", n)) < 1e-10

    def test_first_harmonic_matches_recursion(self, gentle_params,
                                              gentle_cycle):
        from vkerr import HarmonicTable
        cs = coefficient_set(gentle_params)
        wp, dp = gentle_cycle.omega_p, gentle_cycle.delta_p
        table = HarmonicTable(cs, dp)
        s, c = cs.basis.s, cs.basis.c
        analytic = wp * (s * table.get("1p", 1, -1) - c * table.get("1m", 1, -1))
        oracle = gentle_cycle.probe_harmonic(-1, c, s)
        assert abs(analytic - oracle) <= 5e-3 * abs(oracle)

    def test_single_element_first_harmonic(self, sideband_params):
        # the small off-resonant rho_{1+} element on its own, DFT amplitude
        # divided by the probe strength
        from vkerr import HarmonicTable
        cs = coefficient_set(sideband_params)
        wp, dp = 1e-3, 0.25
        rec = time_domain_reference(cs, omega_p=wp, delta_p=dp)
        table = HarmonicTable(cs, dp)
        oracle = rec.harmonic("1p", -1) / wp
        analytic = table.get("1p", 1, -1)
        assert abs(analytic - oracle) <= 5e-3 * abs(oracle)

    def test_third_harmonic_scaling(self, gentle_params, gentle_cycle):
        # the cycle is an exact fixed point, so no transient sits under the
        # 1e-10-scale harmonic
        cs = coefficient_set(gentle_params)
        c, s = cs.basis.c, cs.basis.s
        full = time_domain_reference(cs, omega_p=2e-3, delta_p=0.2)
        half = gentle_cycle
        ratio = abs(full.probe_harmonic(-3, c, s)) / abs(half.probe_harmonic(-3, c, s))
        assert ratio == pytest.approx(8.0, rel=0.02)

    def test_normalized_response_probe_independent(self, gentle_params,
                                                   gentle_cycle):
        # chi extracted as amplitude / omega_p^k is the same at both drives
        cs = coefficient_set(gentle_params)
        c, s = cs.basis.c, cs.basis.s
        full = gentle_cycle
        half = time_domain_reference(cs, omega_p=5e-4, delta_p=0.2)
        chi1_full = full.probe_harmonic(-1, c, s) / 1e-3
        chi1_half = half.probe_harmonic(-1, c, s) / 5e-4
        assert chi1_full == pytest.approx(chi1_half, rel=1e-4)

    def test_hermiticity_tracked_redundantly(self, gentle_cycle):
        assert gentle_cycle.hermiticity_error < 1e-9

    def test_limit_cycle_closes_under_independent_integration(
            self, gentle_params, gentle_cycle):
        # an explicit integrator on the reduced equations, started on the
        # cycle, must return to its start after one period and pass through
        # every sampled point on the way
        from scipy.integrate import solve_ivp
        cs = coefficient_set(gentle_params)
        rec = gentle_cycle
        orbit = np.array([rec.trajectory[name] for name in STATE])
        y0 = np.empty(16)
        y0[0::2], y0[1::2] = orbit[:, 0].real, orbit[:, 0].imag
        period = 2.0 * np.pi / rec.delta_p
        sol = solve_ivp(_reduced_rhs(cs, rec.delta_p, rec.omega_p),
                        (0.0, period), y0, method="DOP853",
                        t_eval=np.append(rec.times, period),
                        rtol=1e-10, atol=1e-12)
        assert sol.success
        z = sol.y[0::2] + 1j * sol.y[1::2]
        assert np.abs(z[:, -1] - orbit[:, 0]).max() <= 1e-9
        assert np.abs(z[:, :-1] - orbit).max() <= 1e-9
        assert rec.step_error <= 1e-10 * np.abs(orbit).max()

    def test_chunking_leaves_maps_unchanged(self, gentle_params,
                                            monkeypatch):
        # a chunk smaller than one sample interval splits the interval's
        # product across exponential batches; the maps must not notice
        C, P, M = _affine_generator(coefficient_set(gentle_params), 0.2, 1e-3)
        args = (C, P, M, 0.2, 2.0 * np.pi / 0.2, 96, 8)
        whole = _sample_maps(*args)
        monkeypatch.setattr("vkerr.oracle._EXPM_CHUNK", 5)
        split = _sample_maps(*args)
        assert np.abs(split - whole).max() <= 1e-13

    def test_zero_delta_p_rejected(self, gentle_params):
        cs = coefficient_set(gentle_params)
        with pytest.raises(ValueError):
            time_domain_reference(cs, omega_p=1e-3, delta_p=0.0)

    def test_no_limit_cycle_on_unmeetable_tolerance(self, gentle_params):
        # step doubling can never reach rtol 0, so the doubling cap fires
        cs = coefficient_set(gentle_params)
        with pytest.raises(NoLimitCycle, match="step-doubling"):
            time_domain_reference(cs, omega_p=0.0, delta_p=2.0,
                                  n_samples=32, rtol=0.0)


class TestAffineGenerator:
    def test_reproduces_reduced_rhs(self):
        # C/P/M are read off the closure at real unit states and three clock
        # phases; random complex states at random times check the read-off
        # and the complex linearity it relies on
        rng = np.random.default_rng(7)
        for _ in range(50):
            cs = coefficient_set(random_params(rng))
            dp = rng.uniform(-3.0, 3.0)
            wp = rng.uniform(0.0, 0.5)
            t = rng.uniform(0.0, 50.0)
            y = rng.normal(size=16)
            zt = np.append(y[0::2] + 1j * y[1::2], 1.0)
            C, P, M = _affine_generator(cs, dp, wp)
            ours = (C + np.exp(1j * dp * t) * P + np.exp(-1j * dp * t) * M) @ zt
            ref = _reduced_rhs(cs, dp, wp)(t, y)
            ref = ref[0::2] + 1j * ref[1::2]
            assert np.all(ours[8] == 0.0)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(ours[:8] - ref).max() <= 1e-12 * scale
