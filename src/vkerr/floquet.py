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

Element labels: 'mm' = rho_{--}, '11' = rho_{11}, 'pp' = rho_{++},
'm1' = rho_{-1}, '1m' = rho_{1-}, '1p' = rho_{1+}, 'p1' = rho_{+1},
'mp' = rho_{-+}, 'pm' = rho_{+-}, with rho_ab = <a|rho|b>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dressed import CoefficientSet

__all__ = [
    "ELEMENTS",
    "CONJUGATE_ELEMENT",
    "POPULATIONS",
    "STATE",
    "SingularSteadyState",
    "SingularKernel",
    "HarmonicTable",
    "SteadyState0",
    "reduced_operators",
    "zeroth_order_steady_state",
]

POPULATIONS = ("mm", "11", "pp")
ELEMENTS = POPULATIONS + ("m1", "1m", "1p", "p1", "mp", "pm")
CONJUGATE_ELEMENT = {
    "mm": "mm", "11": "11", "pp": "pp",
    "m1": "1m", "1m": "m1", "1p": "p1", "p1": "1p", "mp": "pm", "pm": "mp",
}
# the unknowns of the reduced equations; rho_{++} follows from the trace
STATE = ("mm", "11", "m1", "1m", "1p", "p1", "mp", "pm")
_INDEX = {name: i for i, name in enumerate(STATE)}
_DIM = TRACE = len(STATE)     # column TRACE of an operator holds its constant
_EYE = np.eye(_DIM)

_REL_TOL = 1e-12


class SingularSteadyState(ArithmeticError):
    """The stationary probe-free system has no unique solution."""


class SingularKernel(ArithmeticError):
    """A harmonic kernel i n delta_p - A0 is singular."""


@dataclass(frozen=True)
class SteadyState0:
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


def _singular_rows(kernels: np.ndarray) -> np.ndarray:
    """Rows with |det| below _REL_TOL times the product of the row norms.

    By Hadamard's bound the test is scale free; non-finite rows count too.
    Called under np.errstate(all="ignore"): a zero row norm logs to -inf.
    """
    _, logdet = np.linalg.slogdet(kernels)
    lognorms = np.log(np.linalg.norm(kernels, axis=-1)).sum(axis=-1)
    return ~(logdet > lognorms + math.log(_REL_TOL))


class HarmonicTable:
    """Memoized harmonic vectors z_m^n for a batch of rows.

    ``coeffs`` is one CoefficientSet.  With numbers (``coefficient_set``) or
    one-row arrays it is shared by every probe detuning in ``delta_p``; with
    arrays of one row per detuning (``coefficient_rows``) each row has its
    own.  A scalar ``delta_p`` makes a one-row table.  Each order is solved
    for all rows with one stacked 8x8 solve.  A row whose kernel is singular,
    or whose solution is not finite, records its error and the other rows are
    unaffected: every row is bitwise independent of the batch it sits in.
    """

    def __init__(self, coeffs: CoefficientSet, delta_p):
        self.delta_p = np.atleast_1d(np.asarray(delta_p, dtype=float))
        self._ops = reduced_operators(coeffs)
        if self.delta_p.ndim != 1 or len(self._ops) not in (1, len(self.delta_p)):
            raise ValueError("need one coefficient row, or one per delta_p")
        self._orders: dict = {}
        self._singular: dict = {}
        # every order outside the reachable cone, shared and read-only
        self._zero = np.zeros((len(self.delta_p), TRACE + 1), dtype=complex)
        self._zero.flags.writeable = False

    def get(self, element: str, m: int, n: int) -> complex:
        """Coefficient of Omega_p^m e^{i n delta_p t} in one element (one row)."""
        if element not in ELEMENTS:
            raise ValueError(f"unknown element {element!r}")
        if len(self.delta_p) != 1:
            raise ValueError("get needs a one-row table; use solve()")
        z, failures = self.solve(m, n)
        if failures:
            raise failures[0]
        if element == "pp":
            return complex(z[0, TRACE] - z[0, _INDEX["mm"]] - z[0, _INDEX["11"]])
        return complex(z[0, _INDEX[element]])

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
            # bottom up through the orders (m, n) draws on; non-finite rows
            # become failures, so numpy's warnings are not needed
            with np.errstate(all="ignore"):
                for k in range(m + 1):
                    for j in range(max(n - m + k, -k), min(n + m - k, k) + 1, 2):
                        if (k, j) not in self._orders:
                            self._orders[k, j] = self._solve_order(k, j)
        return self._orders[m, n]

    def _solve_order(self, m: int, n: int) -> tuple:
        rows = len(self.delta_p)
        if m == 0:
            # z_0^0 depends on the coefficients only: one solve per set
            rhs, failures = self._ops[:, 0, :, TRACE], {}
        else:
            (lower, lower_failed), (above, above_failed) = (
                self.solve(m - 1, n - 1), self.solve(m - 1, n + 1))
            # row-wise A @ z as product and sum: a BLAS matrix product would
            # change the last bits of a row with the batch size
            rhs = ((self._ops[:, 1] * lower[:, None, :]).sum(axis=-1)
                   + (self._ops[:, 2] * above[:, None, :]).sum(axis=-1))
            failures = {**above_failed, **lower_failed}
        # i n delta_p - A0 per row; at n = 0 one per coefficient set
        kernels = -self._ops[:, 0, :, :TRACE]
        if n != 0:
            kernels = kernels + _EYE * (1j * n * self.delta_p)[:, None, None]
        if n not in self._singular:
            self._singular[n] = _singular_rows(kernels)
        singular = self._singular[n]
        any_singular = singular.any()
        if any_singular:
            # identity stand-ins keep the stacked solve regular
            kernels = np.where(singular[:, None, None], _EYE, kernels)
        z = np.empty((len(rhs), TRACE + 1), dtype=complex)
        z[:, :_DIM] = np.linalg.solve(kernels, rhs[..., None])[..., 0]
        z[:, TRACE] = 1.0 if m == 0 else 0.0
        # a regular kernel can still over- or underflow into inf or nan
        if any_singular or not np.isfinite(z).all():
            exc = SingularSteadyState if m == 0 else SingularKernel
            for broken, reason in ((singular, "kernel i n delta_p - A0 singular"),
                                   (~np.isfinite(z).all(axis=-1),
                                    "non-finite solution")):
                for row in np.flatnonzero(np.broadcast_to(broken, (rows,))):
                    failures.setdefault(int(row), exc(
                        f"{reason} at (m={m}, n={n})"))
        return np.broadcast_to(z, (rows, TRACE + 1)), failures


def zeroth_order_steady_state(coeffs: CoefficientSet) -> SteadyState0:
    """Stationary probe-free state: populations plus the rho_{-1} coherence.

    Order (0, 0) of the hierarchy: -A0 z = c0, with rho_{++} eliminated by
    the unit trace.
    """
    table = HarmonicTable(coeffs, 0.0)
    return SteadyState0(
        rho_11=table.get("11", 0, 0).real,
        rho_mm=table.get("mm", 0, 0).real,
        rho_pp=table.get("pp", 0, 0).real,
        rho_m1=table.get("m1", 0, 0),
    )
