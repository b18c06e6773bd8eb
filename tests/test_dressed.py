import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkerr import (DegenerateDressing, RegimeAdvisory, SystemParams,
                   coefficient_set, effective_gamma12)
from vkerr.dressed import coefficient_rows
from vkerr.params import ParameterColumns


def quiet_params(**kwargs):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeAdvisory)
        return SystemParams(**kwargs)


def random_params(rng):
    g1, g2 = rng.uniform(0.0, 20.0, 2)
    gamma1, gamma2 = 10.0 ** rng.uniform(-3, 0, 2)
    beta = rng.uniform(-1.0, 1.0)
    return quiet_params(
        gamma1=gamma1, gamma2=gamma2, g1=g1, g2=g2,
        kappa=10.0 ** rng.uniform(1.5, 2.7),
        omega21=rng.uniform(50.0, 400.0),
        omega_L_rabi=rng.uniform(10.0, 400.0),
        delta=rng.uniform(-100.0, 100.0),
        delta_c=rng.uniform(-500.0, 500.0),
        gamma12_override=beta * math.sqrt(gamma1 * gamma2),
    )


def columns_of(draws):
    """ParameterColumns with one row per SystemParams in ``draws``.

    Every draw sets gamma12_override (as random_params does) and no theta.
    """
    return ParameterColumns(**{
        name: np.array([getattr(p, name) for p in draws])
        for name in ParameterColumns._fields if name != "theta"})


def assert_filter_peaks(p, half_width):
    """Assert that each |B_i| peaks where delta_c meets its dressed frequency.

    Each filter's delta_c grid, kappa/25 apart, is one coefficient_rows
    batch, as a delta_c scan runs.  Returns False, checking nothing, where
    c or s is below 0.05.
    """
    b = coefficient_set(p).basis
    if b.c < 0.05 or b.s < 0.05:
        return False
    targets = {"B0": 0.0, "B1": -b.omega_R, "B2": b.omega_R,
               "B3": b.lambda_minus - p.omega21,
               "B4": b.lambda_plus - p.omega21}
    step = p.kappa / 25.0
    for name, loc in targets.items():
        grid = loc + np.arange(-half_width, half_width + 1) * step
        rows, failures = coefficient_rows(
            ParameterColumns.along(p, "delta_c", grid))
        assert not failures
        mags = np.abs(getattr(rows, name))
        assert abs(grid[int(np.argmax(mags))] - loc) <= step + 1e-9, name
    return True


class TestDress:
    def test_resonant_drive_symmetry(self):
        b = coefficient_set(quiet_params(delta=0.0, omega_L_rabi=200.0)).basis
        assert b.c ** 2 == pytest.approx(0.5)
        assert b.s ** 2 == pytest.approx(0.5)
        assert b.omega_R == pytest.approx(400.0)
        assert b.lambda_plus == pytest.approx(200.0)
        assert b.lambda_minus == pytest.approx(-200.0)

    def test_detuned_drive(self):
        # Omega_R = sqrt(300^2 + 4*200^2) = 500
        b = coefficient_set(quiet_params(delta=300.0, omega_L_rabi=200.0)).basis
        assert b.omega_R == pytest.approx(500.0)
        assert b.c ** 2 == pytest.approx(0.8)
        assert b.s ** 2 == pytest.approx(0.2)

    def test_far_detuned_limit(self):
        b = coefficient_set(quiet_params(delta=1e8, omega_L_rabi=200.0)).basis
        assert b.c ** 2 == pytest.approx(1.0, abs=1e-6)
        assert b.s ** 2 == pytest.approx(0.0, abs=1e-6)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDressing):
            coefficient_set(quiet_params(omega_L_rabi=0.0, delta=0.0))

    @given(delta=st.floats(-500, 500), rabi=st.floats(0.1, 500))
    def test_invariants(self, delta, rabi):
        b = coefficient_set(quiet_params(delta=delta, omega_L_rabi=rabi)).basis
        assert b.c ** 2 + b.s ** 2 == pytest.approx(1.0, abs=1e-12)
        assert b.c >= 0.0 and b.s >= 0.0
        assert b.lambda_plus - b.lambda_minus == pytest.approx(b.omega_R)


class TestCavityResponse:
    def test_zero_detuning_is_real_half(self):
        p = quiet_params(delta=0.0, delta_c=0.0, omega_L_rabi=200.0)
        r = coefficient_set(p)
        assert r.B0 == pytest.approx(0.5)

    def test_sideband_point_values(self, sideband_params):
        # B0 = 50/(100 + 200i); degeneracy lambda_+ = omega21 forces B4 = B0
        r = coefficient_set(sideband_params)
        assert r.B0 == pytest.approx(0.1 - 0.2j)
        assert r.B4 == pytest.approx(r.B0, abs=1e-15)
        assert r.B3 == pytest.approx(r.B1, abs=1e-15)

    def test_decoupling_limit(self):
        p = quiet_params(delta_c=1e9, g1=5.0, g2=15.0)
        r = coefficient_set(p)
        for B in (r.B0, r.B1, r.B2, r.B3, r.B4):
            assert abs(B) < 1e-6

    def test_bounds_and_positivity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = coefficient_set(random_params(rng))
            c2, s2 = r.basis.c ** 2, r.basis.s ** 2
            for B, bound in ((r.B0, c2), (r.B1, s2), (r.B2, c2),
                             (r.B3, s2), (r.B4, c2)):
                assert abs(B) <= bound + 1e-12
                assert B.real >= -1e-15

    def test_peak_positions(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert_filter_peaks(random_params(rng), 75)


class TestInterference:
    def test_all_zero_without_cavity_and_cross_damping(self):
        x = coefficient_set(quiet_params(g1=0.0, g2=15.0))
        assert x.x1 == x.x2 == x.x3 == x.x4 == 0.0

    def test_balanced_mixing_kills_x1_cross_damping(self):
        # c^2 = s^2 at delta = 0, so only the cavity part of x1 survives
        p = quiet_params(g1=5.0, g2=15.0, delta=0.0, delta_c=200.0)
        cs = coefficient_set(p)
        gg = p.g1 * p.g2 / p.kappa
        assert cs.x1 == pytest.approx(gg * (cs.B0 - cs.B3.conjugate()))

    def test_free_space_limits(self):
        p = quiet_params(g1=0.0, g2=0.0, delta=0.0, theta=math.pi / 3)
        x = coefficient_set(p)
        g12 = effective_gamma12(p)
        assert x.x1 == pytest.approx(0.0, abs=1e-15)
        assert x.x2 == pytest.approx(g12)
        assert x.x4 == pytest.approx(g12)

    def test_cavity_decoupling_leaves_cross_damping(self):
        p = quiet_params(g1=5.0, g2=15.0, delta=40.0, delta_c=1e9,
                         theta=math.pi / 4)
        x = coefficient_set(p)
        g12 = effective_gamma12(p)
        c, s = x.basis.c, x.basis.s
        assert x.x1 == pytest.approx((c * c - s * s) * g12, abs=1e-6)
        assert x.x2 == pytest.approx(g12, abs=1e-6)
        assert x.x3 == pytest.approx((1 + 2 * c * c) * g12, abs=1e-6)
        assert x.x4 == pytest.approx(g12, abs=1e-6)

    def test_sideband_point_value(self, sideband_params):
        cs = coefficient_set(sideband_params)
        assert cs.x2 == pytest.approx(0.75 * (cs.B0 + cs.B1))
        assert cs.B1 == pytest.approx(50.0 / (100.0 + 600.0j))


class TestRateSet:
    def test_free_space_resonant_drive(self):
        p = quiet_params(g1=0.0, g2=0.0, delta=0.0)
        r = coefficient_set(p)
        assert r.R_plus_minus == pytest.approx(p.gamma2 / 2)
        assert r.R_minus_plus == pytest.approx(p.gamma2 / 2)
        assert r.R_1_minus == pytest.approx(p.gamma1)
        assert r.R_1_plus == pytest.approx(p.gamma1)
        assert r.Gamma0 == pytest.approx(1.5 * p.gamma2)
        assert r.Gamma0.imag == 0.0

    def test_decoupling_equals_free_space(self):
        # residual cavity corrections scale as kappa/delta_c ~ 1e-7 here
        rc = coefficient_set(quiet_params(g1=5.0, g2=15.0, delta_c=1e9))
        rf = coefficient_set(quiet_params(g1=0.0, g2=0.0))
        for name in ("R_plus_minus", "R_minus_plus", "R_1_minus", "R_1_plus",
                     "Gamma0", "Gamma_minus", "Gamma_plus", "gamma0_pair"):
            assert getattr(rc, name) == pytest.approx(getattr(rf, name), abs=1e-6)

    def test_positivity_fuzzing(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            r = coefficient_set(random_params(rng))
            assert min(r.R_plus_minus, r.R_minus_plus,
                       r.R_1_minus, r.R_1_plus) >= 0.0
            assert r.Gamma0.real > 0.0
            assert r.Gamma_minus.real > 0.0
            assert r.Gamma_plus.real > 0.0
            assert r.gamma0_pair.real > 0.0

    def test_combined_rate_definitions(self, sideband_params):
        r = coefficient_set(sideband_params)
        b = r.basis
        shift = b.lambda_plus - sideband_params.omega21
        assert r.Gamma1 == r.Gamma0 + 1j * b.omega_R
        assert r.Gamma2 == r.Gamma_plus - 1j * shift
        assert r.Gamma3 == r.Gamma_minus - 1j * shift

    def test_continuity_in_parameters(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = random_params(rng)
            base = coefficient_set(p)
            for name in ("kappa", "delta_c", "g1", "omega_L_rabi"):
                eps = max(1e-7, abs(getattr(p, name)) * 1e-7)
                shifted = coefficient_set(p.replace(**{name: getattr(p, name) + eps}))
                for attr in ("x1", "x2", "x3", "x4"):
                    a = getattr(base, attr)
                    bb = getattr(shifted, attr)
                    assert abs(a - bb) < 1e-3 * (1.0 + abs(a))


@settings(max_examples=50)
@given(delta=st.floats(-300, 300), rabi=st.floats(1.0, 300.0),
       dc=st.floats(-500, 500))
def test_coefficient_set_assembles(delta, rabi, dc):
    p = quiet_params(g1=2.0, g2=4.0, kappa=150.0, delta=delta,
                     omega_L_rabi=rabi, delta_c=dc)
    cs = coefficient_set(p)
    assert cs.basis.c ** 2 + cs.basis.s ** 2 == pytest.approx(1.0, abs=1e-12)
    assert effective_gamma12(p) == 0.0

