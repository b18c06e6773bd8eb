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


def _equations(coeffs: CoefficientSet) -> tuple:
    """[A0|c0], [A+|c+], [A-|c-] as {row: {column: value}}, one entry an equation.

    Column TRACE holds the constant, which multiplies the trace of the state.
    """
    basis, r, x = coeffs.basis, coeffs.rates, coeffs.interference
    c, s = basis.c, basis.s
    x1, x2, x3, x4 = x.x1, x.x2, x.x3, x.x4
    x1c, x2c, x3c, x4c = x1.conjugate(), x2.conjugate(), x3.conjugate(), x4.conjugate()
    # drift constants: damping + i * (bare rotation of the element)
    g_m1 = r.Gamma3
    g_1p = r.Gamma_plus.conjugate() + 1j * (basis.lambda_1 - basis.lambda_plus)
    g_mp = r.gamma0_pair - 1j * basis.omega_R
    mm, p11, m1, om, op, po, mp, pm = range(_DIM)
    # probe-free dynamics; rho_{++} = trace - mm - 11 feeds the mm balance
    a0 = {mm: {mm: -(r.R_minus_plus + r.R_plus_minus), p11: r.R_1_minus - r.R_plus_minus,
               m1: s * x1, om: s * x1c, TRACE: r.R_plus_minus},
          p11: {p11: -(r.R_1_plus + r.R_1_minus), m1: -s * x2, om: -s * x2c},
          m1: {m1: -g_m1, p11: -s * x4, mm: -s * x2c},
          om: {om: -g_m1.conjugate(), p11: -s * x4c, mm: -s * x2},
          op: {op: -g_1p, mp: -s * x2},
          po: {po: -g_1p.conjugate(), pm: -s * x2c},
          mp: {mp: -g_mp, op: -s * x3},
          pm: {pm: -g_mp.conjugate(), po: -s * x3c}}
    # probe coupling, coefficient of Omega_p e^{+i d t}
    a_plus = {mm: {om: 1j * c},
              p11: {op: 1j * s, om: -1j * c},
              m1: {mp: 1j * s, p11: 1j * c, mm: -1j * c},
              po: {p11: -2j * s, mm: -1j * s, pm: -1j * c, TRACE: 1j * s},
              mp: {op: 1j * c},
              pm: {om: -1j * s}}
    # probe coupling, coefficient of Omega_p e^{-i d t}
    a_minus = {mm: {m1: -1j * c},
               p11: {po: -1j * s, m1: 1j * c},
               om: {pm: -1j * s, p11: -1j * c, mm: 1j * c},
               op: {p11: 2j * s, mm: 1j * s, mp: 1j * c, TRACE: -1j * s},
               mp: {m1: 1j * s},
               pm: {po: -1j * c}}
    return a0, a_plus, a_minus


def reduced_operators(coeff_sets) -> np.ndarray:
    """Stacked operators, shape (rows, 3, 8, 9): [A0|c0], [A+|c+], [A-|c-].

    Every entry is computed in scalar arithmetic per coefficient set, so a
    row's operators do not depend on which other rows share the stack.
    """
    equations = [_equations(cs) for cs in coeff_sets]
    k, row, col = zip(*[(k, row, col) for k, eqs in enumerate(equations[0])
                        for row, terms in eqs.items() for col in terms])
    ops = np.zeros((len(equations), 3, _DIM, TRACE + 1), dtype=complex)
    ops[:, k, row, col] = [[v for eqs in e for terms in eqs.values()
                            for v in terms.values()] for e in equations]
    return ops


def _singular_rows(kernels: np.ndarray) -> np.ndarray:
    """Rows with |det| below _REL_TOL times the product of the row norms.

    By Hadamard's bound the test is scale free; non-finite rows count too.
    """
    _, logdet = np.linalg.slogdet(kernels)
    with np.errstate(divide="ignore"):
        lognorms = np.log(np.linalg.norm(kernels, axis=-1)).sum(axis=-1)
    return ~(logdet > lognorms + math.log(_REL_TOL))


class HarmonicTable:
    """Memoized harmonic vectors z_m^n for a batch of rows.

    ``coeffs`` is one CoefficientSet shared by every probe detuning in
    ``delta_p``, or a sequence with one CoefficientSet per detuning; a
    scalar ``delta_p`` makes a one-row table.  Each order is solved for all
    rows with one stacked 8x8 solve.  A row whose kernel is singular records
    its error and the other rows are unaffected: every row is bitwise
    independent of the batch it sits in.
    """

    def __init__(self, coeffs, delta_p):
        sets = [coeffs] if isinstance(coeffs, CoefficientSet) else list(coeffs)
        self.delta_p = np.atleast_1d(np.asarray(delta_p, dtype=float))
        if self.delta_p.ndim != 1 or len(sets) not in (1, len(self.delta_p)):
            raise ValueError("need one coefficient set, or one per delta_p")
        self._ops = reduced_operators(sets)
        self._orders: dict = {}
        self._singular: dict = {}

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
            return np.zeros((len(self.delta_p), TRACE + 1), dtype=complex), {}
        if (m, n) not in self._orders:
            self._orders[m, n] = self._solve_order(m, n)
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
        if singular.any():
            exc = SingularSteadyState if m == 0 else SingularKernel
            for row in np.flatnonzero(np.broadcast_to(singular, (rows,))):
                failures.setdefault(int(row), exc(
                    f"kernel i n delta_p - A0 singular at (m={m}, n={n})"))
            # identity stand-ins keep the stacked solve regular
            kernels = np.where(singular[:, None, None], _EYE, kernels)
        z = np.empty((len(rhs), TRACE + 1), dtype=complex)
        z[:, :_DIM] = np.linalg.solve(kernels, rhs[..., None])[..., 0]
        z[:, TRACE] = 1.0 if m == 0 else 0.0
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
