"""Dressed basis and cavity-modified coefficient blocks.

The strong drive on |0> <-> |2> is diagonalized into dressed states

    |+> = s|0> + c|2>,   lambda_+ = +c^2 * Omega_R
    |-> = s|2> - c|0>,   lambda_- = -s^2 * Omega_R
    |1>,                 lambda_1 = -(omega21 - delta)

with c, s >= 0 and Omega_R = sqrt(delta^2 + 4 Omega_L^2).  Eliminating the
strongly damped cavity mode leaves the atom with frequency-selective decay:
every rate picks up a cavity filter B_i = (amplitude^2) * kappa / (kappa +
i(delta_c - nu)) evaluated at the dressed emission frequency nu, and the
shared mode generates cross couplings x_1..x_4 between the two transitions
that play the role of a spontaneously generated coherence.

Every formula is written once, as NumPy arithmetic along a row axis:
``coefficient_rows`` evaluates it on ParameterColumns, one row per
parameter set, and ``coefficient_set`` is the one-row call with its fields
unpacked to Python numbers.  Because a single point is a one-row batch too,
a row's coefficients are bitwise the same whichever batch computes them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .params import ParameterColumns, SystemParams, effective_gamma12

__all__ = [
    "DegenerateDressing",
    "DressedBasis",
    "CavityResponse",
    "InterferenceTerms",
    "RateSet",
    "CoefficientSet",
    "coefficient_set",
]


class DegenerateDressing(ValueError):
    """No drive and no detuning: the dressed basis is undefined."""


class DressedBasis(NamedTuple):
    c: float
    s: float
    omega_R: float
    lambda_plus: float
    lambda_minus: float
    lambda_1: float


class CavityResponse(NamedTuple):
    """Cavity filter factors at the five dressed emission frequencies."""
    B0: complex
    B1: complex
    B2: complex
    B3: complex
    B4: complex


class InterferenceTerms(NamedTuple):
    x1: complex
    x2: complex
    x3: complex
    x4: complex


class RateSet(NamedTuple):
    """Population transfer rates and complex coherence dampings.

    ``gamma0_pair`` is the damping actually carried by the rho_{-+}
    coherence.  It differs from ``Gamma0`` by conjugating the B2 filter:
    the B2 channel acts on the |+> side of rho_{-+}, so its Purcell shift
    enters with the opposite sign to the population-side channels.
    """
    R_plus_minus: float
    R_minus_plus: float
    R_1_minus: float
    R_1_plus: float
    Gamma0: complex
    Gamma_minus: complex
    Gamma_plus: complex
    Gamma1: complex
    Gamma2: complex
    Gamma3: complex
    gamma0_pair: complex


class CoefficientSet(NamedTuple):
    """Everything the reduced dynamics needs, for one or many parameter sets.

    ``coefficient_set`` fills the four blocks with numbers for one
    SystemParams; ``coefficient_rows`` fills them with 1-D arrays, one row
    per row of a ParameterColumns.
    """
    basis: DressedBasis
    cavity_response: CavityResponse
    interference: InterferenceTerms
    rates: RateSet


_DEGENERATE = "omega_L_rabi = 0 and delta = 0"


def _dress(params: ParameterColumns) -> DressedBasis:
    """Dressed mixing amplitudes and eigenvalues of the driven transition.

    A row with Omega_R = 0 gets nan in c and s.
    """
    omega_R = np.sqrt(params.delta ** 2 + 4.0 * params.omega_L_rabi ** 2)
    half_gap = params.delta / (2.0 * omega_R)     # (c^2 - s^2) / 2
    c2, s2 = 0.5 + half_gap, 0.5 - half_gap
    return DressedBasis(
        # clip tiny negative round-off at |delta| >> Omega_L
        c=np.sqrt(np.maximum(c2, 0.0)), s=np.sqrt(np.maximum(s2, 0.0)),
        omega_R=omega_R,
        lambda_plus=c2 * omega_R,
        lambda_minus=-s2 * omega_R,
        lambda_1=-(params.omega21 - params.delta),
    )


def cavity_response(params: ParameterColumns,
                    basis: DressedBasis) -> CavityResponse:
    """Cavity filters B0..B4, with exact denominators."""
    kappa = params.kappa
    dc = params.delta_c
    c2k = basis.c ** 2 * kappa
    s2k = basis.s ** 2 * kappa
    B0 = c2k / (kappa + 1j * dc)
    B1 = s2k / (kappa + 1j * (dc + basis.omega_R))
    B2 = c2k / (kappa + 1j * (dc - basis.omega_R))
    dc21 = dc + params.omega21
    B3 = s2k / (kappa + 1j * (dc21 - basis.lambda_minus))
    B4 = c2k / (kappa + 1j * (dc21 - basis.lambda_plus))
    return CavityResponse(B0=B0, B1=B1, B2=B2, B3=B3, B4=B4)


def interference_terms(params: ParameterColumns, basis: DressedBasis,
                       resp: CavityResponse) -> InterferenceTerms:
    c, s = basis.c, basis.s
    g12 = effective_gamma12(params)
    gg = params.g1 * params.g2 / params.kappa
    return InterferenceTerms(
        x1=(c * c - s * s) * g12 + gg * (resp.B0 - resp.B3.conjugate()),
        x2=g12 + gg * (resp.B0 + resp.B1),
        x3=(2.0 * c * s + 1.0) * g12 + gg * (resp.B0.conjugate() + 2.0 * resp.B4 + resp.B3),
        x4=g12 + gg * (resp.B3 + resp.B4),
    )


def rate_set(params: ParameterColumns, basis: DressedBasis,
             resp: CavityResponse) -> RateSet:
    c, s = basis.c, basis.s
    c2, s2 = c * c, s * s
    kappa = params.kappa
    g1sq = params.g1 ** 2 / kappa
    g2sq = params.g2 ** 2 / kappa
    dc = params.delta_c
    dc21 = dc + params.omega21

    # |B_i|^2 / amplitude^4 written as unit Lorentzians; removable 0/0 at c or s = 0
    kk = kappa * kappa
    L1, L2, L3, L4 = (kk / (kk + d * d) for d in (
        dc + basis.omega_R, dc - basis.omega_R,
        dc21 - basis.lambda_minus, dc21 - basis.lambda_plus))

    R_pm = 2.0 * c2 * c2 * (params.gamma2 + g2sq * L2)
    R_mp = 2.0 * s2 * s2 * (params.gamma2 + g2sq * L1)
    R_1m = 2.0 * c2 * (params.gamma1 + g1sq * L4)
    R_1p = 2.0 * s2 * (params.gamma1 + g1sq * L3)

    B0, B1, B2, B3, B4 = resp.B0, resp.B1, resp.B2, resp.B3, resp.B4
    Gamma0 = (params.gamma2 * (1.0 + 2.0 * c2 * s2)
              + g2sq * (s2 * (2.0 * (B0 + B0.conjugate()) + B1) + c2 * B2))
    # gamma1 and the g1 channel enter Gamma_- and Gamma_+ alike
    probe_line = params.gamma1 + g1sq * (B3.conjugate() + B4.conjugate())
    Gamma_minus = probe_line + s2 * (params.gamma2 + g2sq * (B0 + B1))
    Gamma_plus = (probe_line + c2 * (params.gamma2 + g2sq * B2)
                  + s2 * g2sq * B0)
    # rho_{-+} damping: B2 sits on the |+> (right) side, so it enters conjugated
    gamma0_pair = Gamma0 + c2 * g2sq * (B2.conjugate() - B2)

    shift = 1j * (basis.lambda_plus - params.omega21)
    return RateSet(
        R_plus_minus=R_pm, R_minus_plus=R_mp,
        R_1_minus=R_1m, R_1_plus=R_1p,
        Gamma0=Gamma0, Gamma_minus=Gamma_minus, Gamma_plus=Gamma_plus,
        Gamma1=Gamma0 + 1j * basis.omega_R,
        Gamma2=Gamma_plus - shift,
        Gamma3=Gamma_minus - shift,
        gamma0_pair=gamma0_pair,
    )


def coefficient_rows(params: ParameterColumns) -> tuple:
    """(set, failures): every coefficient block, one array row per parameter row.

    ``failures`` maps a row without coefficients to its exception:
    DegenerateDressing where Omega_R = 0, OverflowError where a coefficient
    leaves the floating-point range.  Those rows hold nan or inf, which the
    harmonic solve fails on their own rows.
    """
    with np.errstate(all="ignore"):
        basis = _dress(params)
        resp = cavity_response(params, basis)
        coeffs = CoefficientSet(basis, resp, interference_terms(params, basis, resp),
                                rate_set(params, basis, resp))
    values = [v for block in coeffs for v in block]
    finite = np.isfinite(np.concatenate(values)).reshape(len(values), -1).all(axis=0)
    failures = {     # Omega_R = 0 leaves nan in c and s
        int(row): DegenerateDressing(_DEGENERATE) if basis.omega_R[row] == 0.0
        else OverflowError("coefficients overflow the floating-point range")
        for row in np.flatnonzero(~finite)}
    return coeffs, failures


def coefficient_set(params: SystemParams) -> CoefficientSet:
    """Every coefficient block for one parameter set, as Python numbers.

    Computed as a one-row ``coefficient_rows``, so the numbers are those of
    the same row in any batch.
    """
    coeffs, failures = coefficient_rows(ParameterColumns.along(params))
    if failures:
        raise failures[0]
    return CoefficientSet._make(type(b)._make(v.item() for v in b)
                                for b in coeffs)
