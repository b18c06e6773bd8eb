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
approximation is made: every element couples to every other.
``redfield_operator`` shares nothing with dressed or floquet but the
dressed kets and energies; ``redfield_chi`` takes the probe couplings A+-
from floquet, which are exact, and only A0 from here.
"""

import numpy as np

from vkerr.dressed import coefficient_set
from vkerr.floquet import STATE, TRACE, reduced_operators
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


def redfield_chi(params, delta_p):
    """(chi1, chi3) at one probe detuning with the Redfield A0.

    Floquet's order-by-order hierarchy, (i n delta_p - A0) z_m^n =
    A+ z_{m-1}^{n-1} + A- z_{m-1}^{n+1} with [A0|c0] at order (0, 0), solved
    densely on all 8 elements, since the Redfield A0 couples every block.
    """
    coeffs = coefficient_set(params)
    ops = reduced_operators(coeffs)[0]
    ops[0] = redfield_operator(params, coeffs.basis)
    z = {}
    for m, n in ((0, 0), (1, -1), (1, 1), (2, 0), (2, -2), (3, -1)):
        if m == 0:
            rhs = ops[0, :, TRACE]
        else:
            rhs = sum(op @ z[m - 1, k] for op, k in ((ops[1], n - 1),
                                                     (ops[2], n + 1))
                      if (m - 1, k) in z)
        kernel = 1j * n * delta_p * np.eye(TRACE) - ops[0, :, :TRACE]
        # the trace entry: 1 at order (0, 0), 0 above it
        z[m, n] = np.append(np.linalg.solve(kernel, rhs), float(m == 0))
    c, s = coeffs.basis.c, coeffs.basis.s
    one_p, one_m = STATE.index("1p"), STATE.index("1m")
    return tuple(-(s * z[m, -1][one_p] - c * z[m, -1][one_m]) for m in (1, 3))
