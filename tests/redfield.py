"""The probe-free reduced generator from the Redfield master equation.

The exact free-space master equation of the driven V atom, written on 3x3
matrices in full_model's conventions: rho' = K rho + rho K+ + sum 2 rate
L1 rho L2+ with K = -i H - sum rate L2+ L1, the drive-frame H and the
jumps gamma1, gamma2 and gamma12 (both orders).  The bad cavity adds the
Born-Markov (Redfield) dissipator of the atomic lowering operator
S = g1 |0><1| + g2 |0><2|,

    D(rho) = S~ rho S+ + S rho S~+ - S+ S~ rho - rho S~+ S,

where S~ is S with each dressed-basis element <j|S|k> filtered at its
emission line, divided by kappa + i (delta_c + E_j - E_k).  No secular
approximation is made: every element couples to every other.  The helper
shares nothing with dressed or floquet but the dressed kets and energies.
"""

import numpy as np

from vkerr.floquet import STATE, TRACE
from vkerr.params import effective_gamma12

# the dressed states |->, |1>, |+>: their index in the dressed frame
INDEX = {"m": 0, "1": 1, "p": 2}


def _op(i, j):
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    return m


def dressed_energies(basis):
    """E = (lambda_-, lambda_1, lambda_+), in the order of INDEX."""
    return np.array([basis.lambda_minus, basis.lambda_1, basis.lambda_plus])


def redfield_operator(params, basis):
    """[A0|c0] of the Redfield generator in the dressed basis.

    Column TRACE holds the constant.  At g1 = g2 = 0 it is the exact
    free-space generator.
    """
    g12 = effective_gamma12(params)
    H = (params.delta * _op(2, 2) - (params.omega21 - params.delta) * _op(1, 1)
         + params.omega_L_rabi * (_op(0, 2) + _op(2, 0)))
    jumps = [(params.gamma1, _op(0, 1), _op(0, 1)),
             (params.gamma2, _op(0, 2), _op(0, 2)),
             (g12, _op(0, 1), _op(0, 2)), (g12, _op(0, 2), _op(0, 1))]
    K = -1j * H - sum(rate * L2.T @ L1 for rate, L1, L2 in jumps)
    # columns |->, |1>, |+> in the bare basis |0>, |1>, |2>
    c, s = basis.c, basis.s
    U = np.array([[-c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    E = dressed_energies(basis)
    S = params.g1 * _op(0, 1) + params.g2 * _op(0, 2)
    filtered = U @ ((U.T @ S @ U) / (params.kappa + 1j * (
        params.delta_c + E[:, None] - E[None, :]))) @ U.T

    def rate_of_change(a, b):
        rho = U @ _op(INDEX[a], INDEX[b]) @ U.T
        d = K @ rho + rho @ K.conj().T + sum(2.0 * rate * L1 @ rho @ L2.T
                                             for rate, L1, L2 in jumps)
        d += (filtered @ rho @ S.T + S @ rho @ filtered.conj().T
              - S.T @ filtered @ rho - rho @ filtered.conj().T @ S)
        return U.T @ d @ U

    # column TRACE first holds the rho_{++} column; rho_{++} = trace - mm - 11
    # then makes it the constant and moves it onto mm and 11
    out = np.zeros((len(STATE), TRACE + 1), dtype=complex)
    for col, (a, b) in enumerate(STATE + ("pp",)):
        d = rate_of_change(a, b)
        out[:, col] = [d[INDEX[e[0]], INDEX[e[1]]] for e in STATE]
    out[:, :2] -= out[:, TRACE:]
    return out


def rotations(basis):
    """The bare rotation E_a - E_b of every element of [A0|c0]'s columns.

    One entry per STATE element, then 0 for the constant (rho_{++}).
    """
    E = dressed_energies(basis)
    return np.array([E[INDEX[a]] - E[INDEX[b]] for a, b in STATE + ("pp",)])
