"""Dressed basis and cavity-modified coefficients.

The strong drive on |0> <-> |2> is diagonalized into dressed states

    |+> = s|0> + c|2>,   lambda_+ = +c^2 * Omega_R
    |-> = s|2> - c|0>,   lambda_- = -s^2 * Omega_R
    |1>,                 lambda_1 = -(omega21 - delta)

with c, s >= 0 and Omega_R = sqrt(delta^2 + 4 Omega_L^2).  Eliminating the
strongly damped cavity mode leaves the atom with frequency-selective decay.
Each decay channel, |1> -> |0>, |2> -> |0> and their cross damping, has a
free-space rate and a Purcell rate filtered by the cavity spectrum
f = kappa / (kappa + i(delta_c - nu)) at the dressed emission line nu:

    D11 = gamma1 + (g1^2/kappa) f,   D22 = gamma2 + (g2^2/kappa) f,
    D12 = gamma12 + (g1 g2/kappa) f,

each at the five lines of B0..B4.  Every rate, and every cross coupling
x_1..x_4 between the two transitions (the cavity-induced analogue of a
spontaneously generated coherence), is a sum of these channel rates
weighted by the dressed amplitudes, so free space is the flat limit f = 1.
The filters B_i = (amplitude^2) f_i are kept for output.

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


class CoefficientSet(NamedTuple):
    """Everything the reduced dynamics needs, for one or many parameter sets.

    ``coefficient_set`` fills the fields with numbers for one SystemParams;
    ``coefficient_rows`` fills them with 1-D arrays, one row per row of a
    ParameterColumns.  After the dressed ``basis`` come the cavity filter
    factors B0..B4 at the five dressed emission lines, the interference
    terms x1..x4, the population transfer rates and the complex coherence
    dampings.

    ``gamma0_pair`` is the damping actually carried by the rho_{-+}
    coherence.  It differs from ``Gamma0`` by conjugating the B2 filter:
    the B2 channel acts on the |+> side of rho_{-+}, so its Purcell shift
    enters with the opposite sign to the population-side channels.
    """
    basis: DressedBasis
    B0: complex
    B1: complex
    B2: complex
    B3: complex
    B4: complex
    x1: complex
    x2: complex
    x3: complex
    x4: complex
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


def coefficient_rows(params: ParameterColumns) -> tuple:
    """(set, failures): every coefficient, one array row per parameter row.

    ``failures`` maps a row without coefficients to its exception:
    DegenerateDressing where Omega_R = 0, OverflowError where a coefficient
    leaves the floating-point range.  Those rows hold nan or inf, which the
    harmonic solve fails on their own rows.
    """
    with np.errstate(all="ignore"):
        basis = _dress(params)
        c2, s2 = basis.c ** 2, basis.s ** 2
        kappa, dc = params.kappa, params.delta_c
        dc21 = dc + params.omega21
        # the cavity spectrum f = kappa / (kappa + i(delta_c - nu)) at the
        # dressed emission lines nu of B0..B4, one row each
        f = kappa / (kappa + 1j * np.stack([
            dc, dc + basis.omega_R, dc - basis.omega_R,
            dc21 - basis.lambda_minus, dc21 - basis.lambda_plus]))
        # each decay channel at each line: free-space rate plus Purcell rate
        D11 = params.gamma1 + params.g1 ** 2 / kappa * f
        D22 = params.gamma2 + params.g2 ** 2 / kappa * f
        D12 = effective_gamma12(params) + params.g1 * params.g2 / kappa * f

        probe_line = s2 * D11[3].conj() + c2 * D11[4].conj()
        Gamma0 = 4.0 * c2 * s2 * D22[0].real + s2 * s2 * D22[1] + c2 * c2 * D22[2]
        Gamma_minus = probe_line + s2 * (c2 * D22[0] + s2 * D22[1])
        Gamma_plus = probe_line + c2 * (c2 * D22[2] + s2 * D22[0])
        shift = 1j * (basis.lambda_plus - params.omega21)
        coeffs = CoefficientSet(
            basis, *np.stack([c2, s2, c2, s2, c2]) * f,     # B0..B4
            x1=c2 * D12[0] - s2 * D12[3].conj(),
            x2=c2 * D12[0] + s2 * D12[1],
            x3=c2 * D12[0].conj() + 2.0 * c2 * D12[4] + s2 * D12[3],
            x4=s2 * D12[3] + c2 * D12[4],
            R_plus_minus=2.0 * c2 * c2 * D22[2].real,
            R_minus_plus=2.0 * s2 * s2 * D22[1].real,
            R_1_minus=2.0 * c2 * D11[4].real,
            R_1_plus=2.0 * s2 * D11[3].real,
            Gamma0=Gamma0, Gamma_minus=Gamma_minus, Gamma_plus=Gamma_plus,
            Gamma1=Gamma0 + 1j * basis.omega_R,
            Gamma2=Gamma_plus - shift,
            Gamma3=Gamma_minus - shift,
            # rho_{-+}: line 2 sits on the |+> (right) side, so it enters
            # conjugated
            gamma0_pair=Gamma0 + c2 * c2 * (D22[2].conj() - D22[2]))
    values = [*basis, *coeffs[1:]]
    finite = np.isfinite(np.concatenate(values)).reshape(len(values), -1).all(axis=0)
    failures = {     # Omega_R = 0 leaves nan in c and s
        int(row): DegenerateDressing(_DEGENERATE) if basis.omega_R[row] == 0.0
        else OverflowError("coefficients overflow the floating-point range")
        for row in np.flatnonzero(~finite)}
    return coeffs, failures


def coefficient_set(params: SystemParams) -> CoefficientSet:
    """Every coefficient for one parameter set, as Python numbers.

    Computed as a one-row ``coefficient_rows``, so the numbers are those of
    the same row in any batch.
    """
    coeffs, failures = coefficient_rows(ParameterColumns.along(params))
    if failures:
        raise failures[0]
    return CoefficientSet(DressedBasis._make(v.item() for v in coeffs.basis),
                          *(v.item() for v in coeffs[1:]))
