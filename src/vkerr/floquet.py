"""Perturbative Floquet solution of the reduced dressed-state dynamics.

Every density-matrix element is expanded in harmonics of the probe
detuning and in powers of the probe Rabi frequency,

    rho_jk(t) = sum_m sum_n  Omega_p^m * (rho_jk)_m^n * exp(i n delta_p t),

with Omega_p factored out, so the coefficients do not depend on the probe
strength.  With rho_{++} eliminated by the unit trace, the reduced
equations are affine in z = (mm, 11, m1, 1m, 1p, p1, mp, pm),

    z' = A0 z + c0 + Omega_p (e^{i d t} (A+ z + c+) + e^{-i d t} (A- z + c-)),

so each order solves (i n d - A0) z_m^n = A+ z_{m-1}^{n-1} + A- z_{m-1}^{n+1}
plus the constants times the trace of order (0, 0).  Conjugate elements
are independent unknowns: hermiticity of the solution is a check.

A0 never couples (mm, 11, m1, 1m), (1p, mp) and (p1, pm), so each kernel
is one 4x4 block and two 2x2 pairs, all solved by Gaussian elimination
with partial pivoting: LAPACK's for the block, written out for the pairs.
A kernel is singular where a block's determinant is at most _REL_TOL of
the sum of the moduli of its terms, whatever the scale of its rows and
columns.  The sources of an order are the two products the recursion
states, A+ z_{m-1}^{n-1} + A- z_{m-1}^{n+1}.

Element labels: 'mm' = rho_{--}, '11' = rho_{11}, 'pp' = rho_{++},
'm1' = rho_{-1}, '1m' = rho_{1-}, '1p' = rho_{1+}, 'p1' = rho_{+1},
'mp' = rho_{-+}, 'pm' = rho_{+-}, with rho_ab = <a|rho|b>.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dressed import (CoefficientSet, DressedBasis, InterferenceTerms,
                      RateSet)

__all__ = [
    "SingularSteadyState",
    "SingularKernel",
    "SteadyState0",
    "zeroth_order_steady_state",
]

# the unknowns of the reduced equations; rho_{++} follows from the trace
STATE = ("mm", "11", "m1", "1m", "1p", "p1", "mp", "pm")
_DIM = TRACE = len(STATE)     # column TRACE of an operator holds its constant

_REL_TOL = 1e-12


class SingularSteadyState(ArithmeticError):
    """The stationary probe-free system has no unique solution."""


class SingularKernel(ArithmeticError):
    """A harmonic kernel i n delta_p - A0 is singular."""


class SteadyState0(NamedTuple):
    """Probe-free stationary state in the dressed basis."""
    rho_11: float
    rho_mm: float
    rho_pp: float
    rho_m1: complex


def reduced_operators(coeffs: CoefficientSet) -> np.ndarray:
    """Stacked operators, shape (rows, 3, 8, 9): [A0|c0], [A+|c+], [A-|c-].

    ``coeffs`` holds numbers (one row) or 1-D arrays (one row each).  Column
    TRACE holds the constant, which multiplies the trace of the state.  Each
    entry is one array expression over the rows, so a row's operators do not
    depend on which other rows share the stack.
    """
    basis, r, x = coeffs.basis, coeffs.rates, coeffs.interference
    (c, s, omega_R, lambda_1, lambda_plus, x1, x2, x3, x4, R_mp, R_pm, R_1m,
     R_1p, gamma_plus, g_m1, gamma0_pair) = np.atleast_1d(
        basis.c, basis.s, basis.omega_R, basis.lambda_1, basis.lambda_plus,
        x.x1, x.x2, x.x3, x.x4, r.R_minus_plus, r.R_plus_minus, r.R_1_minus,
        r.R_1_plus, r.Gamma_plus, r.Gamma3, r.gamma0_pair)
    # drift constants: damping + i * (bare rotation of the element)
    g_1p = gamma_plus.conj() + 1j * (lambda_1 - lambda_plus)
    g_mp = gamma0_pair - 1j * omega_R
    ms, ic, mic, i_s, mis = -s, 1j * c, -1j * c, 1j * s, -1j * s
    mm, p11, m1, om, op, po, mp, pm = range(_DIM)
    ops = np.zeros((len(c), 3, _DIM, TRACE + 1), dtype=complex)
    a0, a_plus, a_minus = ops[:, 0], ops[:, 1], ops[:, 2]
    # probe-free dynamics; rho_{++} = trace - mm - 11 feeds the mm balance
    a0[:, mm, mm] = -(R_mp + R_pm)
    a0[:, mm, p11] = R_1m - R_pm
    a0[:, mm, m1] = s * x1
    a0[:, mm, om] = s * x1.conj()
    a0[:, mm, TRACE] = R_pm
    a0[:, p11, p11] = -(R_1p + R_1m)
    a0[:, p11, m1] = a0[:, om, mm] = a0[:, op, mp] = ms * x2
    a0[:, p11, om] = a0[:, m1, mm] = a0[:, po, pm] = ms * x2.conj()
    a0[:, m1, m1] = -g_m1
    a0[:, m1, p11] = ms * x4
    a0[:, om, om] = -g_m1.conj()
    a0[:, om, p11] = ms * x4.conj()
    a0[:, op, op] = -g_1p
    a0[:, po, po] = -g_1p.conj()
    a0[:, mp, mp] = -g_mp
    a0[:, mp, op] = ms * x3
    a0[:, pm, pm] = -g_mp.conj()
    a0[:, pm, po] = ms * x3.conj()
    # probe coupling, coefficient of Omega_p e^{+i d t}
    a_plus[:, mm, om] = a_plus[:, m1, p11] = a_plus[:, mp, op] = ic
    a_plus[:, p11, op] = a_plus[:, m1, mp] = a_plus[:, po, TRACE] = i_s
    a_plus[:, p11, om] = a_plus[:, m1, mm] = a_plus[:, po, pm] = mic
    a_plus[:, po, mm] = a_plus[:, pm, om] = mis
    a_plus[:, po, p11] = -2j * s
    # probe coupling, coefficient of Omega_p e^{-i d t}
    a_minus[:, p11, m1] = a_minus[:, om, mm] = a_minus[:, op, mp] = ic
    a_minus[:, op, mm] = a_minus[:, mp, m1] = i_s
    a_minus[:, mm, m1] = a_minus[:, om, p11] = a_minus[:, pm, po] = mic
    a_minus[:, p11, po] = a_minus[:, om, pm] = a_minus[:, op, TRACE] = mis
    a_minus[:, op, p11] = 2j * s
    return ops


def _written_entries() -> np.ndarray:
    """The entries of a (3, 8, 9) operator stack that reduced_operators writes.

    Read off the code, not off values: one row of NaN coefficients turns
    every entry it writes into NaN and leaves every other entry 0.
    """
    nan = np.full(1, np.nan)
    basis, interference, rates = (cls._make([nan] * len(cls._fields)) for cls in
                                  (DressedBasis, InterferenceTerms, RateSet))
    with np.errstate(all="ignore"):
        return np.isnan(reduced_operators(
            CoefficientSet(basis, None, interference, rates))[0])


# The kernel i n delta_p - A0 splits into blocks that A0 never couples: the
# 4x4 block of (mm, 11, m1, 1m) and the pairs (1p, mp) and (p1, pm).  In
# STATE order the pairs interleave, so _FIRST holds the first member of both
# pairs (1p, p1) and _SECOND the second (mp, pm): one (rows, 2) view each.
_BLOCK, _FIRST, _SECOND = slice(0, 4), slice(4, 6), slice(6, 8)
_EYE4 = np.eye(4)
_WRITTEN = _written_entries()
_SPLIT = np.zeros((_DIM, _DIM), dtype=bool)     # where the blocks may write
_SPLIT[_BLOCK, _BLOCK] = True
_SPLIT[4:, 4:] = np.tile(np.eye(2, dtype=bool), (2, 2))
if (_WRITTEN[0, :, :TRACE] & ~_SPLIT).any():
    raise ImportError("A0 couples the blocks that the harmonic solve splits")


class HarmonicTable:
    """Memoized harmonic vectors z_m^n for a batch of rows.

    ``coeffs`` is one CoefficientSet.  With numbers (``coefficient_set``) or
    one-row arrays it is shared by every probe detuning in ``delta_p``; with
    arrays of one row per detuning (``coefficient_rows``) each row has its
    own.  A scalar ``delta_p`` makes a one-row table.

    Each order is solved on the block structure of the kernel i n d - A0:
    one 4x4 LAPACK solve per row for (mm, 11, m1, 1m), where a kernel that
    every row shares is broadcast, and the pairs (1p, mp) and (p1, pm) by
    the same elimination with partial pivoting, written out.  The sources
    A+ z_{m-1}^{n-1} + A- z_{m-1}^{n+1} are two stacked matrix products,
    one matrix per row each.  A row whose kernel is singular, or whose
    solution is not finite, records its error and the other rows are
    unaffected: every row is bitwise independent of the batch it sits in.
    No scaling of a kernel's rows or columns changes which rows are
    singular.
    """

    def __init__(self, coeffs: CoefficientSet, delta_p):
        self.delta_p = np.atleast_1d(np.asarray(delta_p, dtype=float))
        ops = reduced_operators(coeffs)
        if self.delta_p.ndim != 1 or len(ops) not in (1, len(self.delta_p)):
            raise ValueError("need one coefficient row, or one per delta_p")
        # the parts of the kernel -A0 that no order changes
        self._block = -ops[:, 0, _BLOCK, _BLOCK]
        # the pairs [[a, q], [r, d]] from (1p, p1, mp, pm): (rows, 2) each
        pairs, first, second = -ops[:, 0, 4:TRACE, 4:TRACE], [0, 1], [2, 3]
        self._pair = tuple(pairs[:, i, j] for i in (first, second)
                           for j in (first, second))
        # c0, A+ and A-, which the orders read in place
        self._ops = ops
        self._orders: dict = {}
        self._kernels: dict = {}
        # every order outside the reachable cone, shared and read-only
        self._zero = np.zeros((len(self.delta_p), TRACE + 1), dtype=complex)
        self._zero.flags.writeable = False

    def solve(self, m: int, n: int) -> tuple:
        """(z, failures) for order (m, n).

        ``z`` has shape (rows, 9): the unknowns in STATE order, then the
        trace of the order (1 at (0, 0), else 0).  ``failures`` maps a row
        to the exception that invalidates it at this order.
        """
        if abs(n) > m or (m - n) % 2:
            # outside the reachable cone: every source vanishes identically
            return self._zero, {}
        if (m, n) not in self._orders:
            # _solve_order reaches (m - 1, n +- 1) through here, so each
            # order is solved once; non-finite rows become failures, so
            # numpy's warnings are not needed
            with np.errstate(all="ignore"):
                self._orders[m, n] = self._solve_order(m, n)
        return self._orders[m, n]

    def _kernel(self, n: int) -> tuple:
        """(block, swap, p, pq, l, u, singular): i n delta_p - A0, built
        once per n.

        ``block`` is the 4x4 block.  The rest factor both pairs
        [[a, q], [r, d]] at once, each (rows, 2): ``swap`` where |r| > |a|
        puts the second row first, ``p`` and ``pq`` are the leading row,
        ``l`` the multiplier that eliminates the other row's first entry
        and ``u`` what is left of its second.  Each has one row per table
        row, or one row that the solve broadcasts (n = 0 of shared
        coefficients).
        ``singular`` flags a row when the determinant of one of its blocks
        is at most _REL_TOL times the sum of the moduli of its terms: for a
        pair, |ad - qr| <= _REL_TOL (|ad| + |qr|).  The verdict is the same
        whatever power of two scales a row or column of the kernel, and
        true on non-finite rows.  The singular rows of ``block`` are
        identity stand-ins, which keep the stacked solve regular.
        """
        if n in self._kernels:
            return self._kernels[n]
        block, (a, q, r, d) = self._block, self._pair
        if n != 0:
            shift = 1j * n * self.delta_p
            block = block + _EYE4 * shift[:, None, None]
            a, d = a + shift[:, None], d + shift[:, None]
        ad, qr = a * d, q * r
        det, terms = ad - qr, np.abs(ad) + np.abs(qr)
        # each determinant against its terms: false on nan, so ~ flags the
        # non-finite rows
        singular = ~((np.abs(det) > _REL_TOL * terms).all(-1) & _block_regular(block))
        if singular.any():
            block = np.where(singular[:, None, None], _EYE4, block)
        # partial pivoting: the row with the larger first entry leads
        swap = np.abs(r) > np.abs(a)
        p, pq = np.where(swap, r, a), np.where(swap, d, q)
        o, od = np.where(swap, a, r), np.where(swap, q, d)
        l = o / p
        self._kernels[n] = block, swap, p, pq, l, od - l * pq, singular
        return self._kernels[n]

    def _solve_order(self, m: int, n: int) -> tuple:
        rows = len(self.delta_p)
        if m == 0:
            # z_0^0 depends on the coefficients only: one solve per set
            rhs, failures = self._ops[:, 0, :, TRACE], {}
        else:
            (lower, lower_failed), (above, above_failed) = (
                self.solve(m - 1, n - 1), self.solve(m - 1, n + 1))
            # A+ lower + A- above: stacked products, one per row, so a
            # row's bits do not depend on the batch it sits in
            rhs = (self._ops[:, 1] @ lower[..., None]
                   + self._ops[:, 2] @ above[..., None])[..., 0]
            failures = {**above_failed, **lower_failed}
        block, swap, p, pq, l, u, singular = self._kernel(n)
        z = np.empty((len(rhs), TRACE + 1), dtype=complex)
        # one LAPACK solve per row, a shared kernel broadcast over the rows
        z[:, _BLOCK] = np.linalg.solve(block, rhs[:, _BLOCK, None])[..., 0]
        # both pairs at once, eliminated below the pivot, then substituted
        first, second = rhs[:, _FIRST], rhs[:, _SECOND]
        lead, other = np.where(swap, second, first), np.where(swap, first, second)
        np.divide(other - l * lead, u, out=z[:, _SECOND])
        np.divide(lead - pq * z[:, _SECOND], p, out=z[:, _FIRST])
        z[:, TRACE] = 1.0 if m == 0 else 0.0
        # a regular kernel can still over- or underflow into inf or nan
        if singular.any() or not np.isfinite(z).all():
            exc = SingularSteadyState if m == 0 else SingularKernel
            for broken, reason in ((singular, "kernel i n delta_p - A0 singular"),
                                   (~np.isfinite(z).all(axis=-1),
                                    "non-finite solution")):
                for row in np.flatnonzero(np.broadcast_to(broken, (rows,))):
                    failures.setdefault(int(row), exc(
                        f"{reason} at (m={m}, n={n})"))
        return np.broadcast_to(z, (rows, TRACE + 1)), failures


def _block_regular(block: np.ndarray) -> np.ndarray:
    """Whether each 4x4 ``block`` has |det| above _REL_TOL times the sum of
    the moduli of its 24 terms, by Laplace expansion in 2x2 minors.

    Its rows are first scaled by powers of two to a largest modulus in
    [1/2, 1), so no product of four entries overflows.  Like any power-of-two
    scaling of a row or column, that is exact and scales every term alike,
    so the verdict keeps its bits.  The expansion is accurate to ~1e-16 of
    the terms' sum, far below _REL_TOL.
    """
    # each largest modulus from the four column slices: ndarray.max(axis) is
    # an order of magnitude slower on four entries
    w, x, y, z = np.abs(block).T
    _, exponent = np.frexp(np.maximum(np.maximum(w, x), np.maximum(y, z)))
    block = block * np.ldexp(1.0, -exponent).T[..., None]
    # six column pairs (j, k), ordered so that pair i and pair 5 - i are
    # complements whose product enters det with a plus sign
    j, k = block[..., [0, 0, 0, 1, 3, 2]], block[..., [1, 2, 3, 2, 1, 3]]
    ad, bc = j[:, ::2] * k[:, 1::2], k[:, ::2] * j[:, 1::2]
    det, terms = (m[:, 0] * m[:, 1, ::-1] for m in (ad - bc, np.abs(ad) + np.abs(bc)))
    return np.abs(det.sum(axis=-1)) > _REL_TOL * terms.sum(axis=-1)


def zeroth_order_steady_state(coeffs: CoefficientSet) -> SteadyState0:
    """Stationary probe-free state: populations plus the rho_{-1} coherence.

    Order (0, 0) of the hierarchy: -A0 z = c0, with rho_{++} eliminated by
    the unit trace.
    """
    z, failures = HarmonicTable(coeffs, 0.0).solve(0, 0)
    if failures:
        raise failures[0]
    mm, p11, m1, *_, trace = z[0].tolist()      # in STATE order, then the trace
    return SteadyState0(rho_11=p11.real, rho_mm=mm.real,
                        rho_pp=(trace - mm - p11).real, rho_m1=m1)
