import itertools
import math

import numpy as np
import pytest

from vkerr import (CoefficientSet, SingularKernel, SingularSteadyState, chi,
                   coefficient_set, zeroth_order_steady_state)
from vkerr.dressed import coefficient_rows
from vkerr.floquet import (_REL_TOL, _WRITTEN, STATE, TRACE, HarmonicTable,
                           reduced_operators)
from vkerr.params import ParameterColumns

from redfield import redfield_operator, rotations
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


POPULATIONS = ("mm", "11", "pp")
ELEMENTS = POPULATIONS + ("m1", "1m", "1p", "p1", "mp", "pm")
CONJUGATE_ELEMENT = {
    "mm": "mm", "11": "11", "pp": "pp",
    "m1": "1m", "1m": "m1", "1p": "p1", "p1": "1p", "mp": "pm", "pm": "mp",
}


def element_rows(table, element, m, n):
    """One element at order (m, n) on every row, rho_{++} from the trace.

    Raises the first failure of any row at that order.
    """
    z, failures = table.solve(m, n)
    if failures:
        raise next(iter(failures.values()))
    if element == "pp":
        return z[:, TRACE] - z[:, STATE.index("mm")] - z[:, STATE.index("11")]
    return z[:, STATE.index(element)]


def assert_hermitian_rows(table, m_max=3):
    """Hermiticity and trace closure of every order m <= m_max, on every row."""
    for m in range(m_max + 1):
        for n in range(-(m + 1), m + 2):
            for el in ELEMENTS:
                a = element_rows(table, el, m, n)
                b = element_rows(table, CONJUGATE_ELEMENT[el], m, -n)
                scale = np.maximum(np.maximum(abs(a), abs(b)), 1.0)
                bad = ~(abs(a - b.conj()) <= 1e-10 * scale)
                assert not bad.any(), (el, m, n, np.flatnonzero(bad))
            total = sum(element_rows(table, el, m, n) for el in POPULATIONS)
            expect = 1.0 if (m == 0 and n == 0) else 0.0
            bad = ~(abs(total - expect) <= 1e-12)
            assert not bad.any(), (m, n, np.flatnonzero(bad))


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
                assert element_rows(table, el, 0, n)[0] == 0.0

    def test_fast_pair_vanishes_at_zeroth_order(self, sideband_params):
        table = HarmonicTable(coefficient_set(sideband_params), 0.25)
        assert element_rows(table, "mp", 0, 0)[0] == 0.0
        assert element_rows(table, "1p", 0, 0)[0] == 0.0

    def test_unreachable_harmonics_vanish(self, sideband_params):
        table = HarmonicTable(coefficient_set(sideband_params), 0.25)
        # m = 1 populates only n = +-1, m = 2 only n in {-2, 0, 2}
        for el in ELEMENTS:
            for m, n in ((1, 0), (2, 1), (2, -1)):
                assert element_rows(table, el, m, n)[0] == pytest.approx(0.0, abs=1e-300)

    def test_each_order_and_kernel_built_once(self, sideband_params,
                                              monkeypatch):
        # chi reads orders (1, -1) and (3, -1); the memoized recursion solves
        # each order in their cone once, and each kernel i n d - A0 once per n
        solved, built = [], []
        solve_order, kernel = HarmonicTable._solve_order, HarmonicTable._kernel

        def solve_spy(self, m, n):
            solved.append((m, n))
            return solve_order(self, m, n)

        def kernel_spy(self, n):
            if n not in self._kernels:      # (2, 0) reuses the n = 0 kernel
                built.append(n)
            return kernel(self, n)

        monkeypatch.setattr(HarmonicTable, "_solve_order", solve_spy)
        monkeypatch.setattr(HarmonicTable, "_kernel", kernel_spy)
        chi(sideband_params, 200.25)
        assert sorted(solved) == [(0, 0), (1, -1), (1, 1), (2, -2), (2, 0),
                                  (3, -1)]
        assert sorted(built) == [-2, -1, 0, 1]

    def test_hermiticity_and_trace(self, sideband_params):
        cs = coefficient_set(sideband_params)
        for dp in (0.25, -0.7, 3.1):
            table = HarmonicTable(cs, dp)
            assert_hermitian_rows(table)


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
            got = element_rows(table, el, m, n)[0]
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
            assembled = -(s * element_rows(table, "1p", k, -1)[0]
                          - c * element_rows(table, "1m", k, -1)[0])
            assert value == pytest.approx(assembled, rel=1e-14, abs=1e-300)


class TestBatchedSolve:
    def test_singular_row_isolated(self):
        # an undamped rho_{1+} (Gamma_plus = 0, no cavity) at delta_p equal
        # to its bare rotation makes the (1, -1) kernel exactly singular;
        # only that row of the stack fails, its neighbours are untouched
        params = quiet_params(g1=0.0, g2=0.0, delta=0.0)
        cs = coefficient_set(params)
        undamped = cs._replace(rates=cs.rates._replace(Gamma_plus=0.0))
        rows, _ = coefficient_rows(ParameterColumns.along(params, "g1", [0.0] * 3))
        gamma_plus = rows.rates.Gamma_plus.copy()
        gamma_plus[1] = 0.0
        stack = rows._replace(rates=rows.rates._replace(Gamma_plus=gamma_plus))
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
            element_rows(HarmonicTable(undamped, resonant), "1p", 1, -1)

    def test_needs_one_coefficient_row_or_one_per_delta_p(self, sideband_params):
        rows, _ = coefficient_rows(
            ParameterColumns.along(sideband_params, "g1", [1.0, 2.0, 3.0]))
        for delta_p in ([0.25, 0.3], np.zeros((3, 1))):
            with pytest.raises(ValueError, match="one coefficient row, or one"):
                HarmonicTable(rows, delta_p)

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


def assert_written_entries_match(params):
    """Every entry reduced_operators writes into [A0|c0] against the Redfield
    generator, within 1e-12 of max |A0|; the entries it leaves at zero are
    the non-secular ones and are not compared."""
    coeffs = coefficient_set(params)
    ours = reduced_operators(coeffs)[0, 0]
    exact = redfield_operator(params, coeffs.basis)
    scale = np.abs(ours[:, :TRACE]).max()
    diff = np.where(_WRITTEN[0], np.abs(ours - exact), 0.0)
    bad = [(STATE[i], (STATE + ("trace",))[j], ours[i, j], exact[i, j])
           for i, j in zip(*np.nonzero(diff > 1e-12 * scale))]
    assert not bad, params


class TestFreeSpaceEntries:
    @pytest.mark.parametrize("delta, convention", [
        (25.0, {"theta": 0.7}), (-40.0, {"theta": 0.3}),
        (60.0, {"gamma12_override": -0.12}), (0.0, {"theta": 0.7})],
        ids=["delta25-theta", "delta-40-theta", "delta60-override", "delta0-theta"])
    def test_written_entries_equal_the_master_equation(self, delta, convention):
        # at g1 = g2 = 0 the Redfield generator is the exact free-space one
        params = quiet_params(gamma1=0.1, gamma2=0.3, g1=0.0, g2=0.0,
                              kappa=150.0, omega21=170.0, omega_L_rabi=90.0,
                              delta=delta, delta_c=120.0, **convention)
        assert_written_entries_match(params)


class TestRedfieldEntries:
    def test_named_points(self, sideband_params, gentle_params):
        detuned = quiet_params(gamma1=0.1, gamma2=0.3, g1=5.0, g2=15.0,
                               kappa=150.0, omega21=170.0, omega_L_rabi=90.0,
                               delta=25.0, delta_c=120.0, theta=0.7)
        for params in (sideband_params, gentle_params, detuned):
            assert_written_entries_match(params)

    def test_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert_written_entries_match(random_params(rng))

    def test_dropped_entries_are_non_secular(self):
        # at delta = 0 and omega21 = Omega_L the bare rotations of the
        # elements are 0 and +-Omega_R: every entry reduced_operators writes
        # couples equal rotations, and every Redfield entry it drops couples
        # rotations at least Omega_R apart
        rng = np.random.default_rng(59)
        for _ in range(200):
            params = random_params(rng)
            params = params.replace(delta=0.0, omega21=params.omega_L_rabi)
            coeffs = coefficient_set(params)
            exact = redfield_operator(params, coeffs.basis)
            scale = np.abs(reduced_operators(coeffs)[0, 0, :, :TRACE]).max()
            rotation = rotations(coeffs.basis)
            gap = np.abs(rotation[:TRACE, None] - rotation[None, :])
            omega_R = coeffs.basis.omega_R
            assert (gap[_WRITTEN[0]] <= 1e-12 * omega_R).all(), params
            dropped = ~_WRITTEN[0] & (np.abs(exact) > 1e-12 * scale)
            assert dropped.any()
            assert (gap[dropped] >= (1.0 - 1e-12) * omega_R).all(), params


class TestIndependentConjugateRoutes:
    def test_conjugate_elements_not_aliased(self, sideband_params):
        # rho_{1-}, rho_{+1}, rho_{+-} come from their own conjugated
        # equations; hermiticity holds as an identity between two
        # independent computations, not by construction
        cs = coefficient_set(sideband_params)
        table = HarmonicTable(cs, 0.37)
        a = element_rows(table, "1m", 3, -1)[0]
        b = element_rows(table, "m1", 3, 1)[0].conjugate()
        assert a is not b
        assert a == pytest.approx(b, rel=1e-10)


# the blocks of the probe-free equations, written out here rather than read
# from floquet: (mm, 11, m1, 1m), (1p, mp) and (p1, pm)
BLOCKS = (("mm", "11", "m1", "1m"), ("1p", "mp"), ("p1", "pm"))
BLOCK_OF = {el: k for k, block in enumerate(BLOCKS) for el in block}


def structure_draws(rng, count):
    """Draws of random_params, every other one with theta instead of the override."""
    draws = []
    for k in range(count):
        params = random_params(rng)
        draws.append(params.replace(theta=rng.uniform(0.0, math.pi)) if k % 2
                     else params)
    return draws


def dense_orders(coeffs, delta_p, m_max=3):
    """Every order (m, n) with m <= m_max from dense 8x8 solves and products."""
    delta_p = np.atleast_1d(np.asarray(delta_p, dtype=float))
    ops = reduced_operators(coeffs)
    ops = np.broadcast_to(ops, (len(delta_p),) + ops.shape[1:])
    a0, a_plus, a_minus = ops[:, 0, :, :TRACE], ops[:, 1], ops[:, 2]
    zero = np.zeros((len(delta_p), TRACE + 1), dtype=complex)
    orders, kernels = {}, {}
    for m in range(m_max + 1):
        for n in range(-m, m + 1, 2):
            kernels[n] = 1j * n * delta_p[:, None, None] * np.eye(TRACE) - a0
            if m == 0:
                rhs = ops[:, 0, :, TRACE]
            else:
                lower = orders.get((m - 1, n - 1), zero)
                above = orders.get((m - 1, n + 1), zero)
                rhs = (a_plus @ lower[..., None] + a_minus @ above[..., None])[..., 0]
            z = zero.copy()
            z[:, :TRACE] = np.linalg.solve(kernels[n], rhs[..., None])[..., 0]
            z[:, TRACE] = 1.0 if m == 0 else 0.0
            orders[m, n] = z
    return orders, kernels


def dense_singular(kernels):
    """The singularity rule on whole 8x8 kernels, split here by BLOCK_OF.

    A row is singular when some block has |det| <= _REL_TOL times the sum of
    the moduli of its terms, the products of one entry from each row and
    column: LAPACK's det against every permutation.
    """
    singular = np.zeros(len(kernels), dtype=bool)
    for k in range(len(BLOCKS)):
        index = [i for i, el in enumerate(STATE) if BLOCK_OF[el] == k]
        block = kernels[:, index][:, :, index]
        rows = range(len(index))
        terms = sum(np.abs(block[:, rows, list(perm)]).prod(axis=-1)
                    for perm in itertools.permutations(rows))
        singular |= ~(np.abs(np.linalg.det(block)) > _REL_TOL * terms)
    return singular


def kernel_flags(block, pair):
    """HarmonicTable's singular flags for n = 0 kernels given by their blocks:
    ``block`` (rows, 4, 4) and ``pair`` = (a, q, r, d), each (rows, 2)."""
    table = HarmonicTable(coefficient_set(quiet_params()), np.zeros(len(block)))
    table._block, table._pair = block, pair
    return table._kernel(0)[-1]


def hadamard_ratio(kernels):
    """|det| over the product of the row norms of whole 8x8 kernels: the
    singularity test before the per-block rule, which flagged a row when
    this ratio was at most _REL_TOL."""
    return (np.abs(np.linalg.det(kernels))
            / np.linalg.norm(kernels, axis=-1).prod(axis=-1))


def replaced(coeffs, **fields):
    """``coeffs`` with coefficient fields replaced, whichever block holds them."""
    return coeffs._replace(**{
        name: block._replace(**{
            k: v for k, v in fields.items() if hasattr(block, k)})
        for name, block in (("basis", coeffs.basis),
                            ("interference", coeffs.interference),
                            ("rates", coeffs.rates))})


class TestBlockStructure:
    def test_reduced_rhs_jacobian_is_block_diagonal(self):
        # the probe-free equations are affine, so their Jacobian is exact
        # from unit states: no element drives an element of another block,
        # and every entry the transcription has, reduced_operators writes
        rng = np.random.default_rng(41)
        for params in structure_draws(rng, 40):
            rhs = _reduced_rhs(coefficient_set(params), rng.uniform(-3.0, 3.0), 0.0)
            t = rng.uniform(0.0, 50.0)

            def f(y):
                out = rhs(t, y)
                return out[0::2] + 1j * out[1::2]

            f0 = f(np.zeros(16))
            jac = np.stack([f(np.eye(16)[2 * j]) - f0 for j in range(8)], axis=1)
            for i, row in enumerate(STATE):
                for j, col in enumerate(STATE):
                    if BLOCK_OF[row] != BLOCK_OF[col]:
                        assert jac[i, j] == 0.0, (row, col)
            assert not ((jac != 0.0) & ~_WRITTEN[0, :, :TRACE]).any()

    def test_operators_within_written_entries(self):
        # every nonzero of [A0|c0], [A+|c+] and [A-|c-] on random draws lies
        # in the pattern the harmonic solve reads off reduced_operators
        rng = np.random.default_rng(43)
        draws = structure_draws(rng, 60)
        stacks = [reduced_operators(coefficient_rows(columns_of(draws[0::2]))[0])]
        stacks += [reduced_operators(coefficient_set(p)) for p in draws[1::2]]
        for ops in stacks:
            assert not ((ops != 0.0) & ~_WRITTEN).any()
        assert _WRITTEN[1:].sum() == 24


class TestDenseReference:
    @staticmethod
    def assert_matches_dense(table, coeffs, delta_p):
        ref, kernels = dense_orders(coeffs, delta_p)
        for n, kernel in kernels.items():
            # the block test flags no row of these draws, nor does the 8x8 one
            assert not dense_singular(kernel).any(), n
        for (m, n), expected in ref.items():
            z, failures = table.solve(m, n)
            assert not failures, (m, n)
            err = np.abs(z - expected).max(axis=-1)
            assert (err <= 1e-12 * np.abs(expected).max(axis=-1)).all(), (m, n)

    def test_one_row_tables(self, sideband_params):
        rng = np.random.default_rng(47)
        cases = [(sideband_params, 0.25)] + [
            (p, rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0]))
            for p in structure_draws(rng, 10)]
        for params, dp in cases:
            cs = coefficient_set(params)
            self.assert_matches_dense(HarmonicTable(cs, dp), cs, dp)

    def test_shared_coefficients(self, sideband_params):
        cs = coefficient_set(sideband_params)
        dps = np.array([-3.1, -0.7, -0.122, 0.25, 0.3, 1.9])
        self.assert_matches_dense(HarmonicTable(cs, dps), cs, dps)

    def test_coefficients_per_row(self):
        rng = np.random.default_rng(53)
        draws = [random_params(rng) for _ in range(40)]
        rows, failures = coefficient_rows(columns_of(draws))
        assert not failures
        dps = rng.uniform(0.05, 5.0, 40) * rng.choice([-1.0, 1.0], 40)
        self.assert_matches_dense(HarmonicTable(rows, dps), rows, dps)

    def test_pairs_led_by_their_second_row(self):
        # a lightly damped rho_{+1} (Gamma_plus 1e-9) at delta_p on its
        # rotation, with x2 and x3 set: at n = +-1 a pair's first entry is
        # 1e-9 against 0.5 below it, so elimination that does not swap the
        # rows is ~3e-8 off the dense solve
        cs = replaced(coefficient_set(quiet_params(g1=0.0, g2=0.0, delta=0.0)),
                      Gamma_plus=1e-9 + 0j, x2=0.3 - 0.2j, x3=0.5 + 0.5j)
        dp = cs.basis.lambda_1 - cs.basis.lambda_plus
        table = HarmonicTable(cs, dp)
        assert table._kernel(1)[1].any() and table._kernel(-1)[1].any()
        self.assert_matches_dense(table, cs, dp)

    def test_singular_flags_at_the_threshold(self):
        # synthetic steady-state kernels whose block or pairs sit 1e-3 above
        # and below the threshold: the rows flagged singular are those the
        # dense rule flags.  With s = 1, c = 0, x1 = 1, x2 = x3 = -1 and no
        # rotation, R_minus_plus = 1 + e makes the block's |det| / terms
        # e / (4 + e), and gamma0_pair = 1 + e makes both pairs
        # [[1, -1], [-1, 1 + e]], whose |ad - qr| / (|ad| + |qr|) is
        # e / (2 + e).  The last row has a triangular block with diagonal
        # 1e-7, 1, 1e7, 1e7 and two entries -1e7 beside the 1e-7: no term
        # cancels, but its |det| is 3.5e-15 of the product of its row
        # norms, so the row-norm (Hadamard) test rejected it
        params = quiet_params(g1=0.0, g2=0.0, delta=0.0)
        common = dict(s=1.0, c=0.0, lambda_1=0.0, lambda_plus=0.0, omega_R=0.0,
                      x1=1 + 0j, x2=-1 + 0j, x3=-1 + 0j, x4=0j, R_plus_minus=1.0,
                      R_minus_plus=2.0, R_1_minus=1.0, R_1_plus=1.0,
                      Gamma3=1 + 0j, Gamma_plus=1 + 0j, gamma0_pair=2 + 0j)
        triangular = dict(x1=1e7 + 0j, x2=0j, R_plus_minus=5e-8,
                          R_minus_plus=5e-8, R_1_minus=5e-8, R_1_plus=1 - 5e-8,
                          Gamma3=1e7 + 0j, gamma0_pair=1 + 0j)
        base, _ = coefficient_rows(ParameterColumns.along(params, "g1", [0.0] * 6))
        block, pair = 4 * _REL_TOL / (1 - _REL_TOL), 2 * _REL_TOL / (1 - _REL_TOL)
        rows = [{}, dict(R_minus_plus=1 + block * (1 + 1e-3)),
                dict(R_minus_plus=1 + block * (1 - 1e-3)),
                dict(gamma0_pair=1 + pair * (1 + 1e-3) + 0j),
                dict(gamma0_pair=1 + pair * (1 - 1e-3) + 0j), triangular]
        coeffs = replaced(base, **{k: np.array([row.get(k, v) for row in rows])
                                   for k, v in common.items()})
        ops = reduced_operators(coeffs)[:, 0]
        kernels = -ops[:, :, :TRACE]
        assert list(dense_singular(kernels)) == [False, False, True, False, True, False]
        assert hadamard_ratio(kernels[5:]) < _REL_TOL
        z, failures = HarmonicTable(coeffs, np.zeros(6)).solve(0, 0)
        assert set(failures) == {2, 4}
        for row in (2, 4):
            assert isinstance(failures[row], SingularSteadyState)
            assert str(failures[row]) == (
                "kernel i n delta_p - A0 singular at (m=0, n=0)")
        expected = np.linalg.solve(kernels[5], ops[5, :, TRACE])
        assert np.abs(z[5, :TRACE] - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_flags_unchanged_by_power_of_two_scaling(self):
        # 256 synthetic kernels, entries 1e-8 to 1e8 in modulus: half with a
        # block row, half with a pair, 1e-16 to 1e-4 relative off exact
        # singularity, so the flags fall on both sides.  They are the dense
        # rule's flags, and scaling every row and column of each block by
        # 2^-40 to 2^40 leaves each of them as it was
        rng = np.random.default_rng(61)
        size = 256

        def draw(*shape):
            return (10.0 ** rng.uniform(-8, 8, shape)
                    * np.exp(2j * np.pi * rng.random(shape)))

        def off(*shape):
            return 1 + 10.0 ** rng.uniform(-16, -4, shape) * np.exp(
                2j * np.pi * rng.random(shape))

        def power_of_two(*shape):
            return np.ldexp(1.0, rng.integers(-40, 41, shape))

        near = rng.random(size) < 0.5
        block = draw(size, 4, 4)
        block[near, 3] = ((draw(size, 3, 1) * block[:, :3]).sum(axis=1)
                          * off(size, 4))[near]
        a, q, r = draw(size, 2), draw(size, 2), draw(size, 2)
        d = np.where(near[:, None], draw(size, 2), q * r / a * off(size, 2))
        flags = kernel_flags(block, (a, q, r, d))
        assert 0 < flags[near].sum() < near.sum()
        assert 0 < flags[~near].sum() < (~near).sum()
        kernels = np.zeros((size, TRACE, TRACE), dtype=complex)
        kernels[:, :4, :4] = block
        for (i, j), entry in zip(((4, 4), (4, 6), (6, 4), (6, 6)), (a, q, r, d)):
            kernels[:, [i, i + 1], [j, j + 1]] = entry
        assert np.array_equal(dense_singular(kernels), flags)
        f1, f2, c1, c2 = power_of_two(4, size, 2)
        rows, columns = power_of_two(size, 4, 1), power_of_two(size, 1, 4)
        scaled = kernel_flags(rows * block * columns,
                              (f1 * a * c1, f1 * q * c2, f2 * r * c1, f2 * d * c2))
        assert np.array_equal(scaled, flags)
        # and 2^+-300 on every entry, where a product of four overflows
        for scale in (2.0 ** 300, 2.0 ** -300):
            pairs = tuple(scale * entry for entry in (a, q, r, d))
            assert np.array_equal(kernel_flags(scale * block, pairs), flags)


def wide_params(rng):
    """random_params over wide ranges: rates from 1e-12 to 1e4, kappa from
    1e-8 to 1e12 and detunings up to 1e10 in modulus, so the diagonal of A0
    can span twenty decades."""
    gamma1, gamma2 = 10.0 ** rng.uniform(-12, 4, 2)
    g1, g2 = np.where(rng.random(2) < 0.3, 0.0, 10.0 ** rng.uniform(-12, 4, 2))
    omega21, delta, delta_c = (rng.choice([-1.0, 1.0], 3)
                               * 10.0 ** rng.uniform(-2, 10, 3))
    return quiet_params(
        gamma1=gamma1, gamma2=gamma2, g1=g1, g2=g2,
        kappa=10.0 ** rng.uniform(-8, 12), omega21=omega21,
        omega_L_rabi=10.0 ** rng.uniform(-2, 10) * (rng.random() < 0.8),
        delta=delta, delta_c=delta_c,
        gamma12_override=rng.uniform(-1.0, 1.0) * math.sqrt(gamma1 * gamma2))


class TestSingularBlocks:
    @staticmethod
    def assert_isolated(params, field, value, resonant, order):
        # row 1 of three gets ``field`` = value at delta_p = resonant; only
        # it fails, with the kernel's order in the message, and the other
        # rows keep the bits they have alone
        cs = coefficient_set(params)
        rows, _ = coefficient_rows(ParameterColumns.along(params, "g1", [0.0] * 3))
        column = getattr(rows.rates, field).copy()
        column[1] = value
        table = HarmonicTable(replaced(rows, **{field: column}), [0.25, resonant, 0.35])
        for m, n in ((1, 1), (3, -1)):
            z, failures = table.solve(m, n)
            assert set(failures) == {1}
            assert isinstance(failures[1], SingularKernel)
            for row, dp in ((0, 0.25), (2, 0.35)):
                alone, _ = HarmonicTable(cs, dp).solve(m, n)
                assert np.array_equal(z[row], alone[0])
        _, failures = table.solve(*order)
        assert str(failures[1]) == ("kernel i n delta_p - A0 singular at "
                                    f"(m={order[0]}, n={order[1]})")
        with pytest.raises(SingularKernel):
            element_rows(HarmonicTable(replaced(cs, **{field: value}), resonant),
                         "1p", *order)

    def test_block_row_isolated(self):
        # an undamped rho_{-1} (Gamma3 without its real part, no cavity) at
        # delta_p equal to its rotation: the 4x4 block is singular at n = +1
        params = quiet_params(g1=0.0, g2=0.0, delta=0.0, omega21=150.0)
        gamma3 = coefficient_set(params).rates.Gamma3
        self.assert_isolated(params, "Gamma3", 1j * gamma3.imag, -gamma3.imag, (1, 1))

    def test_p1_pair_row_isolated(self):
        # an undamped rho_{+1} (Gamma_plus = 0, no cavity) at delta_p equal to
        # its bare rotation: the (p1, pm) pair is singular at n = +1
        params = quiet_params(g1=0.0, g2=0.0, delta=0.0)
        basis = coefficient_set(params).basis
        self.assert_isolated(params, "Gamma_plus", 0.0,
                             basis.lambda_1 - basis.lambda_plus, (1, 1))

    def test_zeroth_order_singular_is_typed(self):
        # an undamped population block at n = 0: SingularSteadyState
        params = quiet_params(g1=0.0, g2=0.0, delta=0.0)
        cs = coefficient_set(params)
        zero = replaced(cs, R_plus_minus=0.0, R_minus_plus=0.0, R_1_minus=0.0,
                        R_1_plus=0.0)
        with pytest.raises(SingularSteadyState, match=r"\(m=0, n=0\)"):
            zeroth_order_steady_state(zero)


class TestBadlyScaledKernels:
    @staticmethod
    def assert_steady_states_match_dense(coeffs, rows):
        # the steady states solve, and equal the dense 8x8 solve; returns
        # how many of them the row-norm (Hadamard) test called singular
        (expected,) = dense_orders(coeffs, np.zeros(rows), m_max=0)[0].values()
        assert np.isfinite(expected).all()
        z, failures = HarmonicTable(coeffs, np.zeros(rows)).solve(0, 0)
        assert not failures
        err = np.abs(z - expected).max(axis=-1)
        assert (err <= 1e-9 * np.abs(expected).max(axis=-1)).all()
        kernels = -reduced_operators(coeffs)[:, 0, :, :TRACE]
        return z, (hadamard_ratio(kernels) <= _REL_TOL).sum()

    def test_regular_steady_state_of_a_wide_diagonal(self):
        # the diagonal of A0 spans 2.7e-11 to 1.3e7; the row-norm (Hadamard)
        # test called this steady state singular
        cs = coefficient_set(quiet_params(
            gamma1=556.0, gamma2=1.33e-11, g1=0.0, g2=0.0, kappa=8.13e6,
            omega21=-1.25e7, omega_L_rabi=0.0, delta=9640.0, delta_c=-7.67e9))
        z, rejected = self.assert_steady_states_match_dense(cs, 1)
        assert rejected == 1
        mm, p11, m1 = z[0, :3]
        ss = zeroth_order_steady_state(cs)
        assert (ss.rho_mm, ss.rho_11, ss.rho_m1) == (mm.real, p11.real, m1)

    @staticmethod
    def wide_range_orders():
        """One coefficient_rows batch of 200 wide-range draws at delta_p
        drawn per row: every order m <= 3 of the table, which solves every
        row, and of the dense hierarchy."""
        rng = np.random.default_rng(67)
        draws = [wide_params(rng) for _ in range(200)]
        # at one delta_p for all, such as 0.25, draw 61 sits on a kernel
        # where the dense and the block solve are both ~1e-3 away from a
        # 50-digit solve: a conditioning margin, not a defect of the solve
        delta_p = rng.uniform(-5.0, 5.0, len(draws))
        rows, failures = coefficient_rows(columns_of(draws))
        assert not failures
        table = HarmonicTable(rows, delta_p)
        expected, _ = dense_orders(rows, delta_p)
        orders = {}
        for order in expected:
            orders[order], failures = table.solve(*order)
            assert not failures, order
        return rows, orders, expected

    def test_wide_range_batch(self):
        # among the steady states, some that the row-norm test rejected;
        # every row of every order m <= 3 lies within 1e-6 of its largest
        # |z| of the dense hierarchy
        rows, orders, expected = self.wide_range_orders()
        _, rejected = self.assert_steady_states_match_dense(rows, len(rows.basis.c))
        assert rejected >= 3
        for order, z in orders.items():
            err = np.abs(z - expected[order]).max(axis=-1)
            assert (err <= 1e-6 * np.abs(expected[order]).max(axis=-1)).all(), order

    def test_wide_range_batch_hermitian(self):
        # conjugate elements are solved apart, so hermiticity is a check:
        # |z_a^{m,n} - conj(z_{a*}^{m,-n})| within 1e-6 of the row's largest
        # |z| at both orders, rho_{++} from the trace
        _, orders, _ = self.wide_range_orders()
        elements = STATE + ("pp",)
        conj = [elements.index(CONJUGATE_ELEMENT[el]) for el in elements]

        def with_pp(z):
            return np.column_stack((z[:, :TRACE], z[:, TRACE] - z[:, 0] - z[:, 1]))

        for (m, n), z in orders.items():
            z, w = with_pp(z), with_pp(orders[m, -n])
            scale = np.maximum(np.abs(z).max(axis=-1), np.abs(w).max(axis=-1))
            defect = np.abs(z - w[:, conj].conj()).max(axis=-1)
            assert (defect <= 1e-6 * scale).all(), (m, n)
