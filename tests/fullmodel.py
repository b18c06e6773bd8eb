"""Complex Liouvillian and exact probe response of the full model.

Test-support module.  ``per_term_liouvillian`` builds the complex
row-major Liouvillian of the atom + cavity master equation, one kron per
dissipator term, independently of ``vkerr.oracle``; ``real_coordinates``
takes it to the real generator on Y = Re rho + Im rho that the oracle
solves.  ``resolvent_chi`` is a third-order resolvent chain on the complex
Liouvillian, independent of the dressed-frame reduction everywhere except
the final (c, s) projection.  Used to cross-check chi1/chi3 end to end.
"""

import math

import numpy as np

from vkerr.dressed import coefficient_set
from vkerr.oracle import FockTruncation, atom_operators
from vkerr.params import effective_gamma12


def _dissipator(L1, L2):
    """Superoperator of 2 L1 . L2+ - L2+ L1 . - . L2+ L1 (row-major vec)."""
    d = L1.shape[0]
    eye = np.eye(d)
    L2d = L2.conj().T
    anti = L2d @ L1
    return (2.0 * np.kron(L1, L2d.T)
            - np.kron(anti, eye) - np.kron(eye, anti.T))


def per_term_liouvillian(params, trunc):
    """Complex Liouvillian: commutator plus one dissipator per jump pair."""
    ops, a = atom_operators(trunc.n_max)
    ad = a.conj().T
    g12 = effective_gamma12(params)
    H = (params.delta * ops[(2, 2)]
         - (params.omega21 - params.delta) * ops[(1, 1)]
         + params.omega_L_rabi * (ops[(0, 2)] + ops[(2, 0)])
         + params.delta_c * (ad @ a)
         + params.g1 * (ad @ ops[(0, 1)] + ops[(1, 0)] @ a)
         + params.g2 * (ad @ ops[(0, 2)] + ops[(2, 0)] @ a))
    eye = np.eye(H.shape[0])
    L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    L = L + params.gamma1 * _dissipator(ops[(0, 1)], ops[(0, 1)])
    L = L + params.gamma2 * _dissipator(ops[(0, 2)], ops[(0, 2)])
    if g12 != 0.0:
        L = L + g12 * _dissipator(ops[(0, 1)], ops[(0, 2)])
        L = L + g12 * _dissipator(ops[(0, 2)], ops[(0, 1)])
    L = L + params.kappa * _dissipator(a, a)
    return L


def real_coordinates(L):
    """Real generator L.real + L.imag[:, swap] of Y = Re rho + Im rho.

    ``swap`` takes the column of (k, l) to that of (l, k): with rho =
    (Y + Y^T)/2 + i (Y - Y^T)/2, Re rho' + Im rho' collects Re L on Y[k, l]
    and Im L on Y[l, k].
    """
    d = math.isqrt(L.shape[0])
    swap = np.arange(d * d).reshape(d, d).T.reshape(-1)
    return L.real + L.imag[:, swap]


def resolvent_chi(params, delta_p_values, n_max=4):
    """Normalized (chi1, chi3) per delta_p from the unreduced model."""
    trunc = FockTruncation(n_max)
    dim = 3 * (n_max + 1)
    dim_f = n_max + 1
    L0 = per_term_liouvillian(params, trunc)

    rho0 = np.linalg.svd(L0)[2][-1].conj().reshape(dim, dim)
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    rho0 /= np.trace(rho0).real
    v0 = rho0.reshape(-1)
    tr_vec = np.eye(dim).reshape(-1)

    ops, _ = atom_operators(n_max)
    eye = np.eye(dim)
    A01, A10 = ops[(0, 1)], ops[(1, 0)]
    LA = -1j * (np.kron(A01, eye) - np.kron(eye, A01.T))   # with e^{+i dp t}
    LB = -1j * (np.kron(A10, eye) - np.kron(eye, A10.T))   # with e^{-i dp t}

    basis = coefficient_set(params).basis
    c, s = basis.c, basis.s
    minus = np.array([-c, 0.0, s])
    plus = np.array([s, 0.0, c])
    one = np.array([0.0, 1.0, 0.0])

    def project_chi(r):
        rho_atom = r.reshape(3, dim_f, 3, dim_f).trace(axis1=1, axis2=3)
        return -(s * (one @ rho_atom @ plus) - c * (one @ rho_atom @ minus))

    results = []
    for dp in delta_p_values:
        def solve(n, src):
            if n == 0:
                # L0 is singular; fix the free steady-state component by
                # forcing the trace increment to zero
                r = np.linalg.lstsq(-L0, src, rcond=None)[0]
                return r - (tr_vec @ r) * v0
            return np.linalg.solve(1j * n * dp * np.eye(dim * dim) - L0, src)

        r1m = solve(-1, LB @ v0)
        r1p = solve(+1, LA @ v0)
        r20 = solve(0, LA @ r1m + LB @ r1p)
        r2m2 = solve(-2, LB @ r1m)
        r3m1 = solve(-1, LA @ r2m2 + LB @ r20)
        results.append((project_chi(r1m), project_chi(r3m1)))
    return results
