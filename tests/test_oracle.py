import math
import re
import tracemalloc

import numpy as np
import pytest

from vkerr import (DegenerateDressing, DegenerateNullSpace, FockTruncation,
                   NoLimitCycle, NonConvergedTruncation, NonHermitianGenerator,
                   coefficient_set, converged_steady_state,
                   lindblad_steady_state, oracle, time_domain_reference,
                   zeroth_order_steady_state)
from vkerr.dressed import coefficient_rows
from vkerr.floquet import STATE, HarmonicTable, reduced_operators
from vkerr.oracle import (_MAX_N_MAX, _T, _T_INV, _THETA13, _expm,
                          _generator, _magnus_matrices, _null_state,
                          _photon_pair_groups, _sample_maps, _trace_row_solve,
                          atom_operators, full_model, liouvillian)
from vkerr.params import ParameterColumns, effective_gamma12

from fullmodel import _dissipator, per_term_liouvillian, real_coordinates
from test_dressed import quiet_params, random_params
from test_floquet import _reduced_rhs, element_rows

# published exact-solve reference for the sideband operating point
REF_EXACT = {"rho_11": 0.2082, "rho_pp": 0.2375, "rho_mm": 0.5543,
             "rho_m1": -0.0093 - 0.1755j}


def _svd_null_state(L, dim):
    """Reference steady state of a complex L: the smallest sigma's vector."""
    rho = np.linalg.svd(L)[2][-1].conj().reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _dense(K, jumps):
    """The whole real generator R: ``liouvillian`` over all d^2 rows."""
    return liouvillian(K, jumps, np.arange(K.shape[0] ** 2))


def _trace_row_system(K, jumps):
    """R with Y_00's row replaced by vec(I), as the steady-state solve sees it."""
    A = _dense(K, jumps)
    A[0] = np.eye(K.shape[0]).reshape(-1)
    return A


def _toy_model(energies, decays):
    """(K, jumps) of a d-level atom, H = diag(energies), jumps |j><i| at rate g.

    ``decays`` holds (g, i, j) for a decay i -> j, and K = -i H - sum g
    |i><i| as ``full_model`` writes it.  The solves take its d^2 unknowns
    as one group.
    """
    d = len(energies)
    jumps = []
    for g, i, j in decays:
        jump = np.zeros((d, d))
        jump[j, i] = 1.0
        jumps.append((g, jump, jump))
    K = -1j * np.diag(np.asarray(energies, dtype=float))
    return K - sum(g * (L2.T @ L1) for g, L1, L2 in jumps), jumps


def _toy_null_state(energies, decays):
    return _null_state(*_toy_model(energies, decays),
                       [np.arange(len(energies) ** 2)])


TWO_SINKS = [(1.0, 1, 0), (1.0, 2, 1), (1.0, 4, 3), (1.0, 5, 4)]


def _draw(request, draw):
    """Parameter sets of the solver checks: two fixtures, three draws."""
    if draw in ("sideband", "gentle"):
        return request.getfixturevalue(f"{draw}_params")
    if draw == "theta":
        return random_params(np.random.default_rng(11)).replace(theta=0.6)
    return random_params(np.random.default_rng(int(draw[-1])))


class TestLiouvillian:
    def test_trace_preservation(self, sideband_params):
        trunc = FockTruncation(3)
        L = _dense(*full_model(sideband_params, trunc))
        dim = 3 * (trunc.n_max + 1)
        # functional Tr(L rho) must vanish: contract with vec(identity)
        tr_vec = np.eye(dim).reshape(-1)
        residual = np.abs(tr_vec @ L).max()
        assert residual <= 1e-12 * np.abs(L).max()

    @pytest.mark.parametrize("draw", ["sideband", "theta"])
    def test_matches_per_term_construction(self, sideband_params, draw):
        # the index-assembled real generator against one kron per
        # dissipator term, taken to Y coordinates; the theta draw switches
        # the cross-damping pair on
        params = sideband_params
        if draw == "theta":
            params = random_params(np.random.default_rng(11))
            params = params.replace(theta=0.6)
            assert effective_gamma12(params) != 0.0
        trunc = FockTruncation(3)
        ours = _dense(*full_model(params, trunc))
        ref = real_coordinates(per_term_liouvillian(params, trunc))
        assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_toy_model_matches_kron_construction(self):
        # the one-group toy models of TestNullState, against the kron
        # superoperators of fullmodel.py
        K, jumps = _toy_model(np.arange(3.0), [(1.0, 1, 0), (0.5, 2, 1)])
        H, eye = np.diag(np.arange(3.0)), np.eye(3)
        L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
        for rate, L1, L2 in jumps:
            L = L + rate * _dissipator(L1, L2)
        assert np.abs(_dense(K, jumps) - real_coordinates(L)).max() <= 1e-15

    def test_row_slabs_are_rows_of_the_generator(self, sideband_params):
        # any subset of rows, in any order, is bit for bit those rows of R
        K, jumps = full_model(sideband_params, FockTruncation(2))
        rows = np.random.default_rng(1).permutation(K.shape[0] ** 2)[:40]
        assert np.array_equal(liouvillian(K, jumps, rows),
                              _dense(K, jumps)[rows])

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    def test_block_tridiagonal_in_photon_pairs(self, sideband_params,
                                               n_max):
        # Y[(a, n), (b, m)] in group (n + m) // 2: outside the trace row,
        # every nonzero of R couples a group to itself or a neighbour, and
        # the groups partition the unknowns with Y_00 first
        params = sideband_params.replace(theta=0.6)
        K, jumps = full_model(params, FockTruncation(n_max))
        groups = _photon_pair_groups(n_max)
        label = np.empty(K.shape[0] ** 2, dtype=int)
        for k, rows in enumerate(groups):
            label[rows] = k
        assert len(groups) == n_max + 1 and groups[0][0] == 0
        assert sorted(np.concatenate(groups)) == list(range(len(label)))
        rows, cols = np.nonzero(_dense(K, jumps)[1:])
        gap = np.abs(label[rows + 1] - label[cols])
        assert gap.max() == 1

    def test_operators(self):
        ops, a = atom_operators(2)
        assert ops[(0, 1)].shape == (9, 9)
        number = a.conj().T @ a
        assert np.allclose(np.diag(number), np.tile([0.0, 1.0, 2.0], 3))
        assert np.allclose(ops[(1, 0)], ops[(0, 1)].conj().T)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            FockTruncation(0)
        with pytest.raises(ValueError):
            FockTruncation(3)._replace(n_max=0)

    @pytest.mark.parametrize("n_max", [2.5, 3.0, True, "3"])
    def test_non_integer_cutoff_refused(self, n_max):
        # a float cutoff would fail deep inside the operator build, and
        # True would run as n_max 1; a NumPy integer is an integer
        with pytest.raises(TypeError, match="n_max must be an integer"):
            FockTruncation(n_max)
        assert FockTruncation(np.int64(3)).n_max == 3

    def test_cutoff_cap_refused_before_allocating(self):
        # the solve's memory grows as ~n_max^3 (0.87 GB at the cap); a
        # cutoff past the cap is refused before anything is built
        FockTruncation(_MAX_N_MAX)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"cap of {_MAX_N_MAX}"):
                FockTruncation(_MAX_N_MAX + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestLindbladSteadyState:
    def test_free_space_resonant_drive(self):
        p = quiet_params(g1=0.0, g2=0.0, delta=0.0)
        ss = lindblad_steady_state(p, FockTruncation(1))
        assert ss.rho_11 == pytest.approx(0.0, abs=1e-9)
        assert ss.rho_mm == pytest.approx(0.5, abs=1e-9)
        assert ss.rho_pp == pytest.approx(0.5, abs=1e-9)
        assert abs(ss.rho_m1) < 1e-9

    def test_degenerate_dressing_raises(self):
        # the undriven atom has a steady state, but no dressed basis to
        # project it on
        p = quiet_params(omega_L_rabi=0.0, delta=0.0, g1=1.0, g2=3.0)
        with pytest.raises(DegenerateDressing, match="omega_L_rabi = 0"):
            lindblad_steady_state(p, FockTruncation(2))

    def test_sideband_point_matches_reference(self, sideband_params):
        ss = lindblad_steady_state(sideband_params, FockTruncation(4))
        assert ss.rho_11 == pytest.approx(REF_EXACT["rho_11"], abs=2e-3)
        assert ss.rho_pp == pytest.approx(REF_EXACT["rho_pp"], abs=2e-3)
        assert ss.rho_mm == pytest.approx(REF_EXACT["rho_mm"], abs=2e-3)
        assert abs(ss.rho_m1 - REF_EXACT["rho_m1"]) < 2e-3

    @pytest.mark.parametrize("n_max", [4, 8])
    def test_matches_svd_null_vector(self, sideband_params, n_max):
        trunc = FockTruncation(n_max)
        dim = 3 * (n_max + 1)
        rho = _null_state(*full_model(sideband_params, trunc),
                          _photon_pair_groups(n_max))
        ref = _svd_null_state(per_term_liouvillian(sideband_params, trunc), dim)
        assert np.abs(rho - ref).max() <= 1e-10

    @pytest.mark.parametrize("draw", ["sideband", "gentle", "theta",
                                      "seed-3", "seed-4"])
    def test_block_solve_matches_dense_solve(self, request, draw):
        # elimination over photon-pair groups against one LU of the whole
        # trace-row system, for the unit trace and both chirp right-hand
        # sides; the column sums of |A| are gathered slab by slab
        params = _draw(request, draw)
        for n_max in (1, 2, 4, 8):
            K, jumps = full_model(params, FockTruncation(n_max))
            A = _trace_row_system(K, jumps)
            k2 = np.arange(len(A), dtype=float) ** 2
            b = np.stack([k2 == 0, np.sin(k2), np.cos(math.sqrt(2.0) * k2)],
                         axis=1) * 1.0
            x, norm = _trace_row_solve(K, jumps, _photon_pair_groups(n_max), b)
            ref = np.linalg.solve(A, b)
            error = np.abs(x - ref).max(axis=0) / np.abs(ref).max(axis=0)
            assert error.max() <= 1e-12
            column_sums = np.abs(A).sum(axis=0)
            assert np.abs(norm - column_sums).max() <= 1e-12 * norm.max()

    def test_memory_below_one_dense_generator(self, sideband_params):
        # the solve builds one photon-pair group's rows at a time; the
        # whole generator at n_max 8 would take d^4 * 8 bytes (4.25 MB)
        trunc = FockTruncation(8)
        lindblad_steady_state(sideband_params, trunc)     # warm caches
        tracemalloc.start()
        try:
            lindblad_steady_state(sideband_params, trunc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (3 * (trunc.n_max + 1)) ** 4 * 8

    def test_cutoff_convergence(self, sideband_params):
        a = lindblad_steady_state(sideband_params, FockTruncation(3))
        b = lindblad_steady_state(sideband_params, FockTruncation(4))
        for name in ("rho_11", "rho_mm", "rho_pp"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-4

    def test_auto_convergence(self, sideband_params):
        ss, trunc = converged_steady_state(sideband_params)
        assert trunc.n_max <= 5
        assert ss.rho_11 == pytest.approx(REF_EXACT["rho_11"], abs=2e-3)

    def test_unconverged_cutoff_raises(self, sideband_params, monkeypatch):
        # stronger couplings need n_max 4 to converge; a limit of 3 stops short
        monkeypatch.setattr(oracle, "_N_MAX_LIMIT", 3)
        with pytest.raises(NonConvergedTruncation) as info:
            converged_steady_state(sideband_params.replace(g1=20.0, g2=40.0))
        assert str(info.value) == "populations still moving by > 0.0001 at n_max = 3"

    def test_matches_analytic_within_elimination_error(self, sideband_params):
        numeric = lindblad_steady_state(sideband_params, FockTruncation(4))
        analytic = zeroth_order_steady_state(coefficient_set(sideband_params))
        for name in ("rho_11", "rho_mm", "rho_pp", "rho_m1"):
            assert abs(getattr(numeric, name) - getattr(analytic, name)) <= 4e-3


class TestNullState:
    # a Liouvillian whose null space is not one-dimensional leaves the
    # trace-row system singular; that must surface as the typed error
    @pytest.mark.parametrize("decays", [[], TWO_SINKS],
                             ids=["pure-hamiltonian", "two-sinks"])
    def test_singular_system_is_typed(self, decays):
        with pytest.raises(DegenerateNullSpace):
            _toy_null_state(np.arange(6.0), decays)

    def test_near_degenerate_system_trips_condition_bound(self):
        # a 1e-12 leak from the second sink into the first makes the steady
        # state unique but the system numerically singular
        with pytest.raises(DegenerateNullSpace, match="condition estimate"):
            _toy_null_state(np.arange(6.0), TWO_SINKS + [(1e-12, 3, 0)])

    @pytest.mark.parametrize("draw", ["sideband", "gentle", "theta",
                                      "seed-3", "seed-4"])
    def test_condition_estimate_share_of_cond_1(self, request, monkeypatch,
                                                draw):
        # the estimate is a lower bound on the true cond_1 of the trace-row
        # system; over these draws at n_max 1, 2, 4, 6, 8 it read 3.09e-2 to
        # 6.17e-1 of it, which puts the 1e10 bound's trip point at a true
        # cond_1 of 1.6e10 to 3.2e11.  A zero bound makes every solve raise
        # with the estimate in its message; the photon-pair solve runs.
        params = _draw(request, draw)
        monkeypatch.setattr(oracle, "_MAX_TRACE_ROW_COND", 0.0)
        for n_max in (1, 2, 4):
            K, jumps = full_model(params, FockTruncation(n_max))
            with pytest.raises(DegenerateNullSpace) as info:
                _null_state(K, jumps, _photon_pair_groups(n_max))
            estimate = float(re.search(r"estimate (\S+)", str(info.value))[1])
            A = _trace_row_system(K, jumps)
            assert 3e-2 <= estimate / np.linalg.cond(A, 1) <= 1.0

    def test_misassembled_generator_is_typed(self, sideband_params,
                                             monkeypatch):
        # Y_{(0,0),(2,0)} damped 1e-3 faster than the master equation says:
        # the solve still yields a unit-trace Hermitian state, which only
        # the operator-form residual, built without R, can reject
        def skewed(K, jumps, rows):
            slab = liouvillian(K, jumps, rows)
            k = 2 * K.shape[0] // 3   # row-major vec index of that element
            slab[rows == k, k] -= 1e-3
            return slab

        monkeypatch.setattr("vkerr.oracle.liouvillian", skewed)
        with pytest.raises(DegenerateNullSpace, match="misses the master"):
            lindblad_steady_state(sideband_params, FockTruncation(2))

    def test_unique_state_of_a_single_sink(self):
        rho = _toy_null_state(np.arange(3.0), [(1.0, 1, 0), (0.5, 2, 1)])
        assert np.abs(rho - np.diag([1.0, 0.0, 0.0])).max() <= 1e-14


def _step_exponents(C, S, Q, delta_p, h, steps):
    """Exponents of Magnus steps ``steps``, M0 + cos(psi) M1 + sin(psi) M2."""
    brackets = C @ S - S @ C, C @ Q - Q @ C, S @ Q - Q @ S
    m = _magnus_matrices(C, S, Q, brackets, delta_p, h)
    psi = (delta_p * h * (steps + 0.5))[:, None, None]
    return m[0] + np.cos(psi) * m[1] + np.sin(psi) * m[2]


def _expm_rel_error(a):
    from scipy.linalg import expm
    ours, ref = _expm(a), expm(a)
    return (np.abs(ours - ref).sum(axis=-2).max(axis=-1)
            / np.abs(ref).sum(axis=-2).max(axis=-1)).max()


class TestExpm:
    def test_sideband_magnus_batch(self, sideband_params):
        # the exponents the oracle itself takes at the sideband point
        cs = coefficient_set(sideband_params)
        (C, S, Q), _ = _generator(cs, 1e-3)
        h = 2.0 / np.abs(np.linalg.eigvals(C[:8, :8])).max()
        omega = _step_exponents(C, S, Q, 0.25, h, np.arange(1024))
        assert np.abs(omega).sum(axis=-2).max() < _THETA13
        assert _expm_rel_error(omega) <= 1e-13

    @pytest.mark.parametrize("lo, hi",
                             [(1e-3, 5.0), (6.0, 50.0), (1e-3, 50.0)],
                             ids=["unscaled", "squared", "mixed"])
    def test_random_batches(self, lo, hi):
        # one scaling exponent per batch: the first batch stays below
        # theta_13 (no squaring), the others are squared up to 2^4 times
        rng = np.random.default_rng(5)
        a = rng.normal(size=(64, 9, 9)) + 1j * rng.normal(size=(64, 9, 9))
        norms = np.exp(rng.uniform(np.log(lo), np.log(hi), 64))
        a *= (norms / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
        assert (np.abs(a).sum(axis=-2).max() > _THETA13) == (hi > _THETA13)
        assert _expm_rel_error(a) <= 1e-13

    def test_zero_is_identity(self):
        # a zero 1-norm takes no logarithm
        identity = _expm(np.zeros((2, 9, 9), dtype=complex))
        assert np.abs(identity - np.eye(9)).max() <= 1e-15


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
        assert rec.harmonics["mm"][0].real == pytest.approx(ss.rho_mm, abs=1e-8)
        assert rec.harmonics["11"][0].real == pytest.approx(ss.rho_11, abs=1e-8)
        assert rec.harmonics["m1"][0] == pytest.approx(ss.rho_m1, abs=1e-8)
        for n in (-3, -2, -1, 1, 2, 3):
            assert abs(rec.harmonics["mm"][n]) < 1e-10

    def test_first_harmonic_matches_recursion(self, gentle_params,
                                              gentle_cycle):
        cs = coefficient_set(gentle_params)
        wp, dp = gentle_cycle.omega_p, gentle_cycle.delta_p
        table = HarmonicTable(cs, dp)
        s, c = cs.basis.s, cs.basis.c
        analytic = wp * (s * element_rows(table, "1p", 1, -1)[0]
                         - c * element_rows(table, "1m", 1, -1)[0])
        oracle = gentle_cycle.probe_harmonic(-1, c, s)
        assert abs(analytic - oracle) <= 5e-3 * abs(oracle)

    def test_single_element_first_harmonic(self, sideband_params):
        # the small off-resonant rho_{1+} element on its own, DFT amplitude
        # divided by the probe strength
        cs = coefficient_set(sideband_params)
        wp, dp = 1e-3, 0.25
        rec = time_domain_reference(cs, omega_p=wp, delta_p=dp)
        table = HarmonicTable(cs, dp)
        oracle = rec.harmonics["1p"][-1] / wp
        analytic = element_rows(table, "1p", 1, -1)[0]
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
        # the orbit is propagated in real coordinates and is hermitian by
        # construction; what is tracked is the generator's defect, i.e.
        # whether each element's equation is the conjugate of its partner's
        assert gentle_cycle.hermiticity_error < 1e-9

    def test_conjugate_defect_is_typed(self, gentle_params, monkeypatch):
        # rho_{1-} damped 1e-6 faster than rho_{-1}: the equations no longer
        # map conjugates onto conjugates, and dropping the imaginary part
        # of the real-coordinate generator would hide it
        def skewed(coeffs):
            ops = reduced_operators(coeffs)
            ops[:, 0, 3, 3] -= 1e-6
            return ops

        monkeypatch.setattr("vkerr.oracle.reduced_operators", skewed)
        cs = coefficient_set(gentle_params)
        with pytest.raises(NonHermitianGenerator, match="hermiticity defect"):
            time_domain_reference(cs, omega_p=1e-3, delta_p=0.2)

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

    def test_maps_are_ordered_step_products(self, gentle_params):
        # interval j's map is the product of its Magnus steps j * 12 + k,
        # step k + 1 to the left of step k, built here one step at a time
        (C, S, Q), _ = _generator(coefficient_set(gentle_params), 1e-3)
        h = 2.0 * np.pi / 0.2 / 96
        ref = np.empty((8, 9, 9))
        for j in range(8):
            acc = np.eye(9)
            for step in range(j * 12, (j + 1) * 12):
                exponent = _step_exponents(C, S, Q, 0.2, h, np.array([step]))
                acc = _expm(exponent)[0] @ acc
            ref[j] = acc
        brackets = C @ S - S @ C, C @ Q - Q @ C, S @ Q - Q @ S
        m = _magnus_matrices(C, S, Q, brackets, 0.2, h)
        maps = _sample_maps(m, 0.2, h, 96, 8)
        assert np.abs(maps - ref).max() <= 1e-13

    def test_memory_of_one_step_per_interval(self, sideband_params):
        # a batch of exponentials holds one step of each of the 256 sample
        # intervals, 166 kB per stack of 9x9 matrices
        cs = coefficient_set(sideband_params)
        time_domain_reference(cs, omega_p=1e-3, delta_p=0.25)  # warm caches
        tracemalloc.start()
        try:
            time_domain_reference(cs, omega_p=1e-3, delta_p=0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20

    def test_zero_delta_p_rejected(self, gentle_params):
        cs = coefficient_set(gentle_params)
        with pytest.raises(ValueError):
            time_domain_reference(cs, omega_p=1e-3, delta_p=0.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"delta_p": math.nan}, "delta_p"), ({"delta_p": math.inf}, "delta_p"),
        ({"omega_p": math.nan}, "omega_p"), ({"omega_p": math.inf}, "omega_p"),
    ], ids=["delta_p-nan", "delta_p-inf", "omega_p-nan", "omega_p-inf"])
    def test_invalid_input_names_the_argument(self, gentle_params, kwargs,
                                              name):
        cs = coefficient_set(gentle_params)
        args = {"omega_p": 1e-3, "delta_p": 0.2, **kwargs}
        with pytest.raises(ValueError, match=name):
            time_domain_reference(cs, **args)

    def test_multi_row_coefficients_rejected(self, gentle_params):
        # the oracle integrates one parameter set; a stack of rows is not
        # read as its first row
        rows, _ = coefficient_rows(
            ParameterColumns.along(gentle_params, "g1", [1.0, 2.0]))
        with pytest.raises(ValueError, match="one coefficient row, got 2"):
            time_domain_reference(rows, omega_p=1e-3, delta_p=0.2)

    @pytest.mark.parametrize("source", ["degenerate-row", "inf-rate"])
    def test_non_finite_coefficients_rejected(self, gentle_params, source):
        # neither is read as a hermiticity defect of nan, and the inf rate
        # is refused before it reaches a product (no RuntimeWarning)
        if source == "degenerate-row":
            coeffs, _ = coefficient_rows(ParameterColumns.along(
                quiet_params(omega_L_rabi=0.0, delta=0.0)))
        else:
            cs = coefficient_set(gentle_params)
            coeffs = cs._replace(rates=cs.rates._replace(
                R_plus_minus=math.inf))
        with pytest.raises(ValueError, match="coefficients must be finite"):
            time_domain_reference(coeffs, omega_p=1e-3, delta_p=0.2)

    def test_step_budget_checked_before_stepping(self, gentle_params):
        # a period of 6e9 would take ~1e12 Magnus steps; the step count is
        # checked before the first one
        cs = coefficient_set(gentle_params)
        with pytest.raises(NoLimitCycle, match="Magnus steps"):
            time_domain_reference(cs, omega_p=1e-3, delta_p=1e-9)

    def test_no_limit_cycle_on_unmeetable_tolerance(self, gentle_params,
                                                    monkeypatch):
        # step doubling can never reach rtol 0, so the doubling cap fires
        monkeypatch.setattr(oracle, "_N_SAMPLES", 32)
        monkeypatch.setattr(oracle, "_RTOL", 0.0)
        cs = coefficient_set(gentle_params)
        with pytest.raises(NoLimitCycle, match="step-doubling"):
            time_domain_reference(cs, omega_p=0.0, delta_p=2.0)

    def test_tolerance_counts_the_upper_dressed_population(self):
        # the atom sits in |+>: rho_pp ~ 0.986 while the eight sampled
        # elements stay below 0.014.  The step error falls 16x per doubling
        # and meets _RTOL of rho_pp, not of the sampled elements alone.
        cs = coefficient_set(random_params(np.random.default_rng(5)))
        rec = time_domain_reference(cs, omega_p=0.1, delta_p=0.3)
        pp = np.abs(rec.trajectory["pp"]).max()
        assert pp > 0.9
        assert rec.step_error <= oracle._RTOL * pp


class TestAffineGenerator:
    def test_reproduces_reduced_rhs(self):
        # C/S/Q are the floquet operators padded to the constant-augmented
        # state, scaled by omega_p and taken to real coordinates; mapped
        # back through T, at random complex states and random times, they
        # must give the independently written equations
        rng = np.random.default_rng(7)
        for _ in range(50):
            cs = coefficient_set(random_params(rng))
            dp = rng.uniform(-3.0, 3.0)
            wp = rng.uniform(0.0, 0.5)
            t = rng.uniform(0.0, 50.0)
            y = rng.normal(size=16)
            zt = np.append(y[0::2] + 1j * y[1::2], 1.0)
            (C, S, Q), _ = _generator(cs, wp)
            real = C + np.cos(dp * t) * S + np.sin(dp * t) * Q
            ours = _T_INV @ real @ _T @ zt
            ref = _reduced_rhs(cs, dp, wp)(t, y)
            ref = ref[0::2] + 1j * ref[1::2]
            assert np.all(ours[8] == 0.0)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(ours[:8] - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("omega_p, dp", [(1e-3, 0.25), (1.0, 0.25),
                                             (1.0, -0.7)],
                             ids=["0.001", "1.0", "1.0-negative-delta_p"])
    def test_magnus_exponent_matches_textbook_form(self, sideband_params,
                                                   omega_p, dp):
        # Omega = h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1] with A(t) formed
        # as a complex matrix at each Gauss node, against the closed-form
        # real-coordinate exponent mapped back through T; at omega_p 1 the
        # [S, Q] term, second order in the probe, is large enough to be
        # checked too, and a negative delta_p pins the sign of the phases
        cs = coefficient_set(sideband_params)
        (C, S, Q), _ = _generator(cs, omega_p)
        ops = np.zeros((3, 9, 9), dtype=complex)
        ops[:, :8] = reduced_operators(cs)[0]
        c0, p0, m0 = ops[0], omega_p * ops[1], omega_p * ops[2]
        h = 2.0 / np.abs(np.linalg.eigvals(C[:8, :8])).max()
        steps = np.arange(1024)
        t1, t2 = (h * (steps + 0.5 + sign * math.sqrt(3.0) / 6.0)
                  for sign in (-1.0, 1.0))
        a1, a2 = (c0 + np.exp(1j * dp * t)[:, None, None] * p0
                  + np.exp(-1j * dp * t)[:, None, None] * m0
                  for t in (t1, t2))
        ref = (0.5 * h * (a1 + a2)
               + math.sqrt(3.0) * h * h / 12.0 * (a2 @ a1 - a1 @ a2))
        ours = _T_INV @ _step_exponents(C, S, Q, dp, h, steps) @ _T
        assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max()
