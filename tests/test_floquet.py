import dataclasses

import numpy as np
import pytest

from vkerr import (CoefficientSet, HarmonicTable, ParameterColumns,
                   SingularKernel, chi, coefficient_rows, coefficient_set,
                   zeroth_order_steady_state)
from vkerr.floquet import (CONJUGATE_ELEMENT, ELEMENTS, POPULATIONS,
                           reduced_operators)

from test_dressed import columns_of, quiet_params, random_params

# published steady-state reference for the sideband operating point
REF_ANALYTIC = {"rho_11": 0.2072, "rho_pp": 0.2409, "rho_mm": 0.5520,
                "rho_m1": -0.0086 - 0.1749j}


# The reduced equations written out element by element, as a closure over
# the real/imaginary-interleaved state that scipy's integrators take.  It is
# the reference that reduced_operators (and with it the Floquet solve and the
# time-domain oracle) is checked against.
def _reduced_rhs(coeffs: CoefficientSet, delta_p: float, omega_p: float):
    """RHS of the reduced equations with explicit exp(+-i delta_p t) factors."""
    basis, r, x = coeffs.basis, coeffs.rates, coeffs.interference
    c, s = basis.c, basis.s
    x1, x2, x3, x4 = x.x1, x.x2, x.x3, x.x4
    g_m1 = r.Gamma3
    g_1p = r.Gamma_plus.conjugate() + 1j * (basis.lambda_1 - basis.lambda_plus)
    g_mp = r.gamma0_pair - 1j * basis.omega_R

    def rhs(t, y):
        z = y[0::2] + 1j * y[1::2]
        mm, p11, m1, om, op, po, mp, pm = z
        pp = 1.0 - mm - p11
        ep = np.exp(1j * delta_p * t)
        em = ep.conjugate()

        d_mm = (-r.R_minus_plus * mm + r.R_plus_minus * pp + r.R_1_minus * p11
                + s * (x1 * m1 + x1.conjugate() * om)
                + 1j * omega_p * c * (om * ep - m1 * em))
        d_11 = (-(r.R_1_plus + r.R_1_minus) * p11
                - s * (x2 * m1 + x2.conjugate() * om)
                + 1j * omega_p * (s * (op * ep - po * em) - c * (om * ep - m1 * em)))
        d_m1 = (-g_m1 * m1 - s * (x4 * p11 + x2.conjugate() * mm)
                + 1j * omega_p * ep * (s * mp + c * (p11 - mm)))
        d_1m = (-g_m1.conjugate() * om - s * (x4.conjugate() * p11 + x2 * mm)
                - 1j * omega_p * em * (s * pm + c * (p11 - mm)))
        d_1p = (-g_1p * op - s * x2 * mp
                + 1j * omega_p * em * (s * (p11 - pp) + c * mp))
        d_p1 = (-g_1p.conjugate() * po - s * x2.conjugate() * pm
                - 1j * omega_p * ep * (s * (p11 - pp) + c * pm))
        d_mp = (-g_mp * mp - s * x3 * op
                + 1j * omega_p * (s * m1 * em + c * op * ep))
        d_pm = (-g_mp.conjugate() * pm - s * x3.conjugate() * po
                - 1j * omega_p * (s * om * ep + c * po * em))

        dz = np.array([d_mm, d_11, d_m1, d_1m, d_1p, d_p1, d_mp, d_pm])
        out = np.empty_like(y)
        out[0::2] = dz.real
        out[1::2] = dz.imag
        return out

    return rhs


def assert_hermitian_table(table, m_max=3):
    for el in ELEMENTS:
        for m in range(m_max + 1):
            for n in range(-(m + 1), m + 2):
                a = table.get(el, m, n)
                b = table.get(CONJUGATE_ELEMENT[el], m, -n)
                scale = max(abs(a), abs(b), 1.0)
                assert abs(a - b.conjugate()) <= 1e-10 * scale, (el, m, n)


def assert_trace_closure(table, m_max=3):
    for m in range(m_max + 1):
        for n in range(-(m + 1), m + 2):
            total = sum(table.get(el, m, n) for el in POPULATIONS)
            expect = 1.0 if (m == 0 and n == 0) else 0.0
            assert abs(total - expect) <= 1e-12


class TestZerothOrder:
    def test_free_space_resonant_drive(self):
        cs = coefficient_set(quiet_params(g1=0.0, g2=0.0, delta=0.0))
        ss = zeroth_order_steady_state(cs)
        assert ss.rho_11 == pytest.approx(0.0, abs=1e-12)
        assert ss.rho_mm == pytest.approx(0.5)
        assert ss.rho_pp == pytest.approx(0.5)
        assert ss.rho_m1 == pytest.approx(0.0, abs=1e-12)

    def test_sideband_point_matches_reference(self, sideband_params):
        ss = zeroth_order_steady_state(coefficient_set(sideband_params))
        assert ss.rho_11 == pytest.approx(REF_ANALYTIC["rho_11"], abs=5e-4)
        assert ss.rho_pp == pytest.approx(REF_ANALYTIC["rho_pp"], abs=5e-4)
        assert ss.rho_mm == pytest.approx(REF_ANALYTIC["rho_mm"], abs=5e-4)
        assert ss.rho_m1.real == pytest.approx(REF_ANALYTIC["rho_m1"].real, abs=5e-4)
        assert ss.rho_m1.imag == pytest.approx(REF_ANALYTIC["rho_m1"].imag, abs=5e-4)

    def test_populations_physical_on_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            cs = coefficient_set(random_params(rng))
            ss = zeroth_order_steady_state(cs)
            total = ss.rho_11 + ss.rho_mm + ss.rho_pp
            assert total == pytest.approx(1.0, abs=1e-10)
            for v in (ss.rho_11, ss.rho_mm, ss.rho_pp):
                assert -1e-9 <= v <= 1.0 + 1e-9


class TestHarmonicStructure:
    def test_zeroth_order_has_only_dc(self, sideband_params):
        table = HarmonicTable(coefficient_set(sideband_params), 0.25)
        for el in ELEMENTS:
            for n in (-3, -2, -1, 1, 2, 3):
                assert table.get(el, 0, n) == 0.0

    def test_fast_pair_vanishes_at_zeroth_order(self, sideband_params):
        table = HarmonicTable(coefficient_set(sideband_params), 0.25)
        assert table.get("mp", 0, 0) == 0.0
        assert table.get("1p", 0, 0) == 0.0

    def test_unreachable_harmonics_vanish(self, sideband_params):
        table = HarmonicTable(coefficient_set(sideband_params), 0.25)
        # m = 1 populates only n = +-1, m = 2 only n in {-2, 0, 2}
        for el in ELEMENTS:
            assert table.get(el, 1, 0) == pytest.approx(0.0, abs=1e-300)
            assert table.get(el, 2, 1) == pytest.approx(0.0, abs=1e-300)
            assert table.get(el, 2, -1) == pytest.approx(0.0, abs=1e-300)

    def test_hermiticity_and_trace(self, sideband_params):
        cs = coefficient_set(sideband_params)
        for dp in (0.25, -0.7, 3.1):
            table = HarmonicTable(cs, dp)
            assert_hermitian_table(table)
            assert_trace_closure(table)


class TestGoldenHarmonics:
    """Regression anchors frozen after oracle validation."""

    GOLDEN = {
        ("1m", 1, -1): 0.14991314628450006 + 0.3049289984277585j,
        ("1p", 1, -1): 5.9550961940072916e-05 - 1.773639689292788e-07j,
        ("11", 2, 0): 0.8220355312300273 + 0.0j,
        ("mm", 2, -2): -0.1852455893737404 + 0.878383752331777j,
        ("1m", 3, -1): -6.777068696280874 - 0.07931284209732965j,
        ("m1", 3, -3): 0.21347522471134245 + 0.06999070216911082j,
    }

    def test_values(self, sideband_params):
        table = HarmonicTable(coefficient_set(sideband_params), 0.25)
        for (el, m, n), expected in self.GOLDEN.items():
            got = table.get(el, m, n)
            assert got == pytest.approx(expected, rel=1e-12), (el, m, n)


class TestProbeCoherence:
    def test_off_resonant_rolloff(self, sideband_params):
        # omega at a given delta_p: delta_p = omega - omega21 + delta
        offset = sideband_params.omega21 - sideband_params.delta
        near, far = (abs(chi(sideband_params, dp + offset).chi1)
                     for dp in (0.25, 1e4))
        assert far < 1e-3 * near

    def test_matches_table_entries(self, sideband_params):
        cs = coefficient_set(sideband_params)
        dp = 0.25
        omega = dp + sideband_params.omega21 - sideband_params.delta
        table = HarmonicTable(cs, dp)
        s, c = cs.basis.s, cs.basis.c
        point = chi(sideband_params, omega, coeffs=cs)
        for k, value in ((1, point.chi1), (3, point.chi3)):
            assembled = -(s * table.get("1p", k, -1) - c * table.get("1m", k, -1))
            assert value == pytest.approx(assembled, rel=1e-14, abs=1e-300)


class TestBatchedSolve:
    def test_singular_row_isolated(self):
        # an undamped rho_{1+} (Gamma_plus = 0, no cavity) at delta_p equal
        # to its bare rotation makes the (1, -1) kernel exactly singular;
        # only that row of the stack fails, its neighbours are untouched
        params = quiet_params(g1=0.0, g2=0.0, delta=0.0)
        cs = coefficient_set(params)
        undamped = dataclasses.replace(
            cs, rates=dataclasses.replace(cs.rates, Gamma_plus=0.0))
        rows, _ = coefficient_rows(ParameterColumns.along(params, "g1", [0.0] * 3))
        gamma_plus = rows.rates.Gamma_plus.copy()
        gamma_plus[1] = 0.0
        stack = dataclasses.replace(
            rows, rates=dataclasses.replace(rows.rates, Gamma_plus=gamma_plus))
        resonant = cs.basis.lambda_1 - cs.basis.lambda_plus
        table = HarmonicTable(stack, [0.25, resonant, 0.35])
        z, failures = table.solve(3, -1)
        assert set(failures) == {1}
        assert isinstance(failures[1], SingularKernel)
        assert "(m=1, n=-1)" in str(failures[1])
        for row, dp in ((0, 0.25), (2, 0.35)):
            alone, _ = HarmonicTable(cs, dp).solve(3, -1)
            assert np.array_equal(z[row], alone[0])
        with pytest.raises(SingularKernel):
            HarmonicTable(undamped, resonant).get("1p", 1, -1)

    def test_operators_match_reduced_rhs(self):
        # the operators against _reduced_rhs, the equations transcribed
        # independently above: both must give the same time derivative at
        # any (t, y), here with every draw one row of a single array-valued
        # coefficient set
        rng = np.random.default_rng(11)
        draws = [random_params(rng) for _ in range(50)]
        rows, failures = coefficient_rows(columns_of(draws))
        assert not failures
        stack = reduced_operators(rows)
        for params, (a0, ap, am) in zip(draws, stack):
            dp = rng.uniform(-3.0, 3.0)
            wp = rng.uniform(0.0, 0.5)
            t = rng.uniform(0.0, 50.0)
            y = rng.normal(size=16)
            z = y[0::2] + 1j * y[1::2]
            zt = np.append(z, 1.0)     # the unit trace closes rho_{++}
            ours = (a0 @ zt + wp * (np.exp(1j * dp * t) * (ap @ zt)
                                    + np.exp(-1j * dp * t) * (am @ zt)))
            ref = _reduced_rhs(coefficient_set(params), dp, wp)(t, y)
            ref = ref[0::2] + 1j * ref[1::2]
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(ours - ref).max() <= 1e-12 * scale


class TestIndependentConjugateRoutes:
    def test_conjugate_elements_not_aliased(self, sideband_params):
        # rho_{1-}, rho_{+1}, rho_{+-} come from their own conjugated
        # equations; hermiticity holds as an identity between two
        # independent computations, not by construction
        cs = coefficient_set(sideband_params)
        table = HarmonicTable(cs, 0.37)
        a = table.get("1m", 3, -1)
        b = table.get("m1", 3, 1).conjugate()
        assert a is not b
        assert a == pytest.approx(b, rel=1e-10)
