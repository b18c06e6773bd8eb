"""Brute-force references for the analytic pipeline.

Two independent checks live here, on numpy alone:

* ``lindblad_steady_state`` solves the full atom + cavity master equation
  (probe off) on a truncated Fock space.  It holds a Hermitian rho as the
  real matrix Y = Re rho + Im rho, in which the equation is real-linear.
  The real generator, with one diagonal row replaced by the trace
  condition, is filled by index from K = -i H - Gamma and the jumps,
  formed once per solve, one group of photon-number pairs at a time, and
  solved by block elimination over the groups.  The state is then checked
  against the master equation in operator form, traced over the cavity
  and rotated to the dressed basis.  It shares nothing with the reduced
  dynamics but the mixing (c, s), taken from the one-row dressing that
  ``coefficient_set`` runs.

* ``time_domain_reference`` solves the reduced periodic-coefficient
  equations of motion with the probe at finite amplitude, not order by
  order.  It takes the equations from ``floquet.reduced_operators``, the
  one place they are written, and maps them once into real coordinates
  (each conjugate pair of unknowns becomes its real and imaginary part),
  where the equations are real.  There it builds the one-period
  monodromy map with a fourth-order Magnus propagator (closed-form step
  exponents from three real 9x9 matrices per step size, batched Pade-13
  exponentials), solves for the limit cycle as the map's fixed point,
  maps the orbit back to the complex unknowns and reads harmonic
  amplitudes off a DFT over one period.  Step doubling bounds the
  propagator error.  Only the equations are shared with the Floquet
  solve, so this validates its perturbative expansion order by order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dressed import _DEGENERATE, CoefficientSet, DegenerateDressing, _dress
from .floquet import STATE, SteadyState0, reduced_operators
from .params import ParameterColumns, SystemParams, _checked, effective_gamma12

# the package lists these names to load this module on first use
from . import _ORACLE_NAMES as __all__


class NonConvergedTruncation(RuntimeError):
    """Fock-space cutoff too small for the requested tolerance."""


class DegenerateNullSpace(ArithmeticError):
    """Liouvillian null space is not one-dimensional."""


class NoLimitCycle(RuntimeError):
    """No stable periodic orbit, or the propagator missed its tolerance."""


class NonHermitianGenerator(ArithmeticError):
    """The reduced equations do not map conjugate elements onto conjugates."""


# The steady-state solve's generator slabs grow as ~n_max^3: one call at the
# sideband point peaked at 0.38 / 0.59 / 0.87 GB (tracemalloc) at n_max 48 /
# 56 / 64, the last in a 1.0 GB process.  Larger cutoffs are refused.
_MAX_N_MAX = 64


@_checked
class FockTruncation(NamedTuple):
    """Photon-number cutoff of the cavity Fock space; 1 to _MAX_N_MAX."""

    n_max: int

    def _check(self):
        n = self.n_max
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"n_max must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("n_max must be >= 1")
        if n > _MAX_N_MAX:
            raise ValueError(f"n_max {n} above the cap of {_MAX_N_MAX}")


class LimitCycleRecord(NamedTuple):
    """One period of the reduced limit cycle plus its DFT harmonics.

    ``harmonics[element][n]`` is the complex amplitude of exp(i n delta_p t)
    for n in [-3, 3]; element keys follow the floquet module labels.
    ``step_error`` is the accepted step-doubling estimate: the largest
    change of any sampled element between the last two step counts.
    ``hermiticity_error`` is the defect of the generator, not of the orbit:
    the largest imaginary part of the equations in real coordinates,
    relative to their largest entry (see ``_generator``).  The orbit is
    propagated in those coordinates, so its conjugate elements are exact
    conjugates by construction.
    """
    delta_p: float
    omega_p: float
    times: np.ndarray
    trajectory: dict
    harmonics: dict
    step_error: float
    hermiticity_error: float

    def probe_harmonic(self, n: int, c: float, s: float) -> complex:
        """Amplitude of the probe-transition coherence s*rho_{1+} - c*rho_{1-}."""
        return s * self.harmonics["1p"][n] - c * self.harmonics["1m"][n]


# ---------------------------------------------------------------------------
# full atom + cavity Lindblad oracle
# ---------------------------------------------------------------------------

# Above this estimate of cond_1 the trace-row system is treated as singular,
# i.e. the Liouvillian null space as more than one-dimensional.  The
# estimate read 3.1e-2 to 6.2e-1 of the true cond_1 over 25 generators
# (5 parameter sets x n_max 1, 2, 4, 6, 8), so this trips near a true
# cond_1 of 1.6e10 to 3.2e11.
_MAX_TRACE_ROW_COND = 1e10


def atom_operators(n_max: int):
    """|l><k| atomic operators and the annihilation operator on atom x Fock."""
    dim_f = n_max + 1
    shape = (3 * dim_f, 3 * dim_f)
    ops = {}
    for l in range(3):
        for k in range(3):
            op = np.zeros((3, dim_f, 3, dim_f))
            op[l, :, k, :] = np.eye(dim_f)
            ops[(l, k)] = op.reshape(shape)
    a = np.zeros((3, dim_f, 3, dim_f))
    a[range(3), :, range(3), :] = np.diag(np.sqrt(np.arange(1, dim_f)), k=1)
    return ops, a.reshape(shape)


def full_model(params: SystemParams, trunc: FockTruncation):
    """Probe-free K and jump list [(rate, L1, L2), ...] on atom x Fock.

    The master equation reads rho' = K rho + rho K+ + sum 2 rate L1 rho L2+
    with K = -i H - Gamma, Gamma = sum rate L2+ L1.  The cross-damping pair
    enters in both orders, so Gamma is Hermitian.  H, Gamma and every L are
    real matrices.
    """
    ops, a = atom_operators(trunc.n_max)
    ad = a.T
    g12 = effective_gamma12(params)

    H = (params.delta * ops[(2, 2)]
         - (params.omega21 - params.delta) * ops[(1, 1)]
         + params.omega_L_rabi * (ops[(0, 2)] + ops[(2, 0)])
         + params.delta_c * (ad @ a)
         + params.g1 * (ad @ ops[(0, 1)] + ops[(1, 0)] @ a)
         + params.g2 * (ad @ ops[(0, 2)] + ops[(2, 0)] @ a))

    jumps = [(params.gamma1, ops[(0, 1)], ops[(0, 1)]),
             (params.gamma2, ops[(0, 2)], ops[(0, 2)]),
             (params.kappa, a, a)]
    if g12 != 0.0:
        jumps += [(g12, ops[(0, 1)], ops[(0, 2)]),
                  (g12, ops[(0, 2)], ops[(0, 1)])]
    return -1j * H - sum(rate * (L2.T @ L1) for rate, L1, L2 in jumps), jumps


def liouvillian(K: np.ndarray, jumps: list, rows) -> np.ndarray:
    """Rows ``rows`` of the real generator R, d^2 x d^2, of ``full_model``.

    A Hermitian rho is held as the real matrix Y = Re rho + Im rho, so that
    rho = (Y + Y^T)/2 + i (Y - Y^T)/2, row-major: vec(Y)[i*d+j] = Y[i, j].
    Then Y' = Re rho' + Im rho' is real-linear in Y, and R equals
    L.real + L.imag[:, swap] for the complex Liouvillian L, where swap
    takes the column of (k, l) to that of (l, k).  With K = -i H - Gamma
    and H, Gamma and the L real, row r = i*d + j as a d x d array is
    out[r, :, j] += Re K[i] and out[r, j, :] += Im K[i] (from K rho),
    out[r, i, :] += Re K[j] and out[r, :, i] -= Im K[j] (from rho K+), and
    each nonzero L1[i, k] of a jump adds 2 rate L1[i, k] L2[j] to out[r, k].
    """
    d = K.shape[0]
    i, j = np.divmod(np.asarray(rows), d)
    r = np.arange(len(i))
    out = np.zeros((len(i), d, d))
    out[r, :, j] += K.real[i]
    out[r, i, :] += K.real[j]
    out[r, j, :] += K.imag[i]
    out[r, :, i] -= K.imag[j]
    for rate, L1, L2 in jumps:
        nz, k = np.nonzero(L1[i])
        out[nz, k] += 2.0 * rate * L1[i[nz], k][:, None] * L2[j[nz]]
    return out.reshape(len(i), d * d)


def _photon_pair_groups(n_max: int) -> list:
    """vec indices of Y[(a, n), (b, m)] by (n + m) // 2, the first from Y_00.

    K changes n or m by at most one and the cavity jump a rho a+ lowers
    both, so ``liouvillian`` is block-tridiagonal in these groups.
    """
    n = np.arange(3 * (n_max + 1)) % (n_max + 1)
    g = (n[:, None] + n).ravel() // 2
    return [np.flatnonzero(g == k) for k in range(n_max + 1)]


def _trace_row_solve(K: np.ndarray, jumps: list, groups: list,
                     b: np.ndarray):
    """x with A x = b, and the column sums of |A|, for the trace-row system.

    A is R of ``liouvillian``, built one group's rows at a time, with Y_00's
    row replaced by the trace vec(I) . y.  Outside that row R couples each
    of ``groups`` (the first starts with Y_00) only to its neighbours.  From
    the top group down x_k = M_k x_{k-1} + v_k, (A_kk + A_k,k+1 M_k+1)
    [M_k | v_k] = [-A_k,k-1 | b_k - A_k,k+1 v_k+1] (Risken, The Fokker-Planck
    Equation, ch. 9).  The trace row reaches every group; it is carried down
    as sum_{j>=k} t_j x_j = tau_k x_k + c_k, tau_k = t_k + tau_k+1 M_k+1,
    and closes group 0.  One group is a plain dense solve.
    """
    trace = np.eye(K.shape[0]).reshape(-1)
    norm = np.zeros(len(b))
    chain, tail, shift = [], 0.0, 0.0   # [M_k, v_k] for k = 1, 2, ...
    for k in reversed(range(len(groups))):
        rows = groups[k]
        slab = liouvillian(K, jumps, rows)
        if k == 0:
            slab[0] = trace
        norm += np.abs(slab).sum(axis=0)
        a, rhs = slab[:, rows], b[rows]
        if chain:
            up = slab[:, groups[k + 1]]
            a += up @ chain[0][0]
            rhs -= up @ chain[0][1]
        tau = trace[rows] + tail
        if k:
            below = slab[:, groups[k - 1]]
            mv = np.linalg.solve(a, np.hstack([-below, rhs]))
            chain.insert(0, np.split(mv, [below.shape[1]], axis=1))
            tail, shift = tau @ chain[0][0], tau @ chain[0][1] + shift
    a[0], rhs[0] = tau, b[0] - shift     # a, rhs and tau of group 0
    x = np.empty_like(b)
    x[groups[0]] = np.linalg.solve(a, rhs)
    for below, rows, (m, v) in zip(groups, groups[1:], chain):
        x[rows] = m @ x[below] + v
    return x, norm


def _null_state(K: np.ndarray, jumps: list, groups: list) -> np.ndarray:
    """Unique trace-one steady state of (K, jumps), by ``_trace_row_solve``.

    The diagonal rows of a trace-preserving generator sum to zero, so Y_00's
    equation is redundant and gives way to the trace of rho, that of Y
    (Johansson, Nation & Nori, CPC 184, 1234 (2013)).  Two chirps of the
    index k, sin(k^2) and cos(sqrt(2) k^2), ride along as right-hand sides:
    like Gaussian vectors, without numpy.random, they give the lower bound
    ||A||_1 max ||x_k|| / ||b_k|| on cond_1 of the system A, at 3.1e-2 to
    6.2e-1 of it.  So _MAX_TRACE_ROW_COND = 1e10 on it trips near cond_1 ~
    1.6e10 to 3.2e11; that, or a singular A, means the null space is not
    one-dimensional.  rho is Hermitian by construction; an eigenvalue below
    -1e-9 at unit trace makes it no physical state and raises too.
    """
    dim = K.shape[0]
    k2 = np.arange(dim * dim, dtype=float) ** 2
    b = np.zeros((dim * dim, 3))
    b[0, 0] = 1.0
    b[:, 1], b[:, 2] = np.sin(k2), np.cos(math.sqrt(2.0) * k2)
    try:
        x, norm = _trace_row_solve(K, jumps, groups, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateNullSpace(f"trace-row system singular: {exc}") from exc
    growth = (np.abs(x).sum(axis=0) / np.abs(b).sum(axis=0)).max()
    cond = norm.max() * growth
    if not cond <= _MAX_TRACE_ROW_COND:
        raise DegenerateNullSpace(
            f"trace-row system condition estimate {cond:.3e} above "
            f"{_MAX_TRACE_ROW_COND:g}: null space not one-dimensional")
    y = x[:, 0].reshape(dim, dim)
    rho = 0.5 * (y + y.T) + 0.5j * (y - y.T)
    rho = rho / np.trace(y)
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-9:
        raise DegenerateNullSpace(
            f"steady state not a physical state (min eig {eigs.min():.2e})")
    return rho


# Above this residual of the operator-form master equation, relative to
# ||K||_1 ||rho||_max, the solution of R is not a steady state of (K,
# jumps): R was assembled wrong.  Clean solves read 2.4e-18 to 7.3e-17 over
# the 25 generators above; a 1e-3 error in one entry of R reads ~4e-7.
_MAX_RESIDUAL = 1e-12


def lindblad_steady_state(params: SystemParams,
                          trunc: FockTruncation) -> SteadyState0:
    """Probe-off steady state of the full model, reduced to the dressed atom.

    The state solved from ``liouvillian`` is checked against the master
    equation in operator form, K rho + rho K+ + sum 2 rate L1 rho L2+,
    from the same (K, jumps) by d x d products that do not read R; a
    relative residual above _MAX_RESIDUAL raises DegenerateNullSpace.
    """
    K, jumps = full_model(params, trunc)
    rho = _null_state(K, jumps, _photon_pair_groups(trunc.n_max))
    # rho is Hermitian, so rho K+ is (K rho)+
    drift = K @ rho
    residual = drift + drift.conj().T
    for rate, L1, L2 in jumps:
        residual += 2.0 * rate * (L1 @ rho @ L2.T)
    scale = np.abs(K).sum(axis=0).max() * np.abs(rho).max()
    relative = np.abs(residual).max() / scale
    if not relative <= _MAX_RESIDUAL:
        raise DegenerateNullSpace(
            f"steady state misses the master equation: residual "
            f"{relative:.2e} of ||K||_1 ||rho||_max above {_MAX_RESIDUAL:g}")

    # trace out the cavity: rho_atom[l, k] = sum_n rho[(l, n), (k, n)]
    dim_f = trunc.n_max + 1
    rho_atom = rho.reshape(3, dim_f, 3, dim_f).trace(axis1=1, axis2=3)

    with np.errstate(all="ignore"):     # Omega_R = 0 leaves nan in c and s
        basis = _dress(ParameterColumns.along(params))
    if basis.omega_R[0] == 0.0:
        raise DegenerateDressing(_DEGENERATE)
    c, s = basis.c[0], basis.s[0]
    # dressed kets in the bare (|0>, |1>, |2>) ordering
    minus, plus, one = np.array([[-c, 0.0, s], [s, 0.0, c], [0.0, 1.0, 0.0]])
    minus_rho = minus @ rho_atom
    return SteadyState0(
        rho_11=float((one @ rho_atom @ one).real),
        rho_mm=float((minus_rho @ minus).real),
        rho_pp=float((plus @ rho_atom @ plus).real),
        rho_m1=complex(minus_rho @ one),
    )


_N_MAX_START, _N_MAX_LIMIT, _TOL = 2, 12, 1e-4


def converged_steady_state(params: SystemParams) -> tuple[SteadyState0, FockTruncation]:
    """Raise the Fock cutoff until the steady state moves by less than _TOL.

    The cutoff starts at _N_MAX_START; past _N_MAX_LIMIT it raises
    NonConvergedTruncation.
    """
    previous = lindblad_steady_state(params, FockTruncation(_N_MAX_START))
    for n_max in range(_N_MAX_START + 1, _N_MAX_LIMIT + 1):
        current = lindblad_steady_state(params, FockTruncation(n_max))
        change = max(abs(a - b) for a, b in zip(current, previous))
        if change < _TOL:
            return current, FockTruncation(n_max)
        previous = current
    raise NonConvergedTruncation(
        f"populations still moving by > {_TOL:g} at n_max = {_N_MAX_LIMIT}")


# ---------------------------------------------------------------------------
# time-domain limit cycle of the reduced equations
# ---------------------------------------------------------------------------

# The orbit is sampled at _N_SAMPLES points of a period, and the step count
# is doubled until two successive orbits agree to _RTOL of the largest of
# the nine elements, rho_pp included.  Magnus steps keep h * rho(C) at or
# below _MAX_STEP_PHASE; the step count starts at the smallest such
# multiple of _N_SAMPLES and is doubled at most _MAX_DOUBLINGS times.
_N_SAMPLES = 256
_RTOL = 1e-10
_MAX_STEP_PHASE = 2.0
_MAX_DOUBLINGS = 4
# A first step count above this raises up front.  One orbit at the cap
# takes ~10 s on a 2-core x86 host (~10 us per Magnus step), and the first
# step-doubling comparison three times that.
_MAX_STEPS = 2 ** 20

# The reduced equations hold each coherence and its conjugate as a pair of
# unknowns (z, z*).  The real coordinates u = T z~ hold (Re z, Im z) in
# their place: u = (mm, 11, Re m1, Im m1, Re 1p, Im 1p, Re mp, Im mp, 1).
_T = np.eye(9, dtype=complex)
_T[2:8, 2:8] = np.kron(np.eye(3), [[0.5, 0.5], [-0.5j, 0.5j]])
_T_INV = np.eye(9, dtype=complex)
_T_INV[2:8, 2:8] = np.kron(np.eye(3), [[1.0, 1j], [1.0, -1j]])
# largest imaginary part the generator may keep in u, relative to its
# largest entry, before the equations count as not conjugation symmetric
_MAX_HERMITICITY_DEFECT = 1e-12


def _generator(coeffs: CoefficientSet, omega_p: float):
    """Real (C, S, Q), stacked (3, 9, 9), and the hermiticity defect.

    z~ = (z, 1) appends the unit trace to the eight complex unknowns, so the
    constant column of each ``reduced_operators`` block acts on it; row 8
    stays zero.  There z~' = (C + e^{i d t} P + e^{-i d t} M) z~ with
    C = [A0|c0], P = Omega_p [A+|c+] and M = Omega_p [A-|c-].  In u = T z~
    this reads u' = (C + cos(d t) S + sin(d t) Q) u, with C taken to
    T C T^-1, S = T (P + M) T^-1 and Q = T i(P - M) T^-1.  Equations that
    map each element onto its conjugate make all three real.  The defect
    is the largest imaginary part left in T (C, P+M, i(P-M)) T^-1, relative
    to that matrix's largest entry; above _MAX_HERMITICITY_DEFECT it raises
    NonHermitianGenerator; non-finite equations raise ValueError first.
    """
    stack = reduced_operators(coeffs)
    if not np.isfinite(stack).all():
        raise ValueError("coefficients must be finite")
    if len(stack) != 1:
        raise ValueError(f"need one coefficient row, got {len(stack)}")
    a0, a_plus, a_minus = stack[0]
    ops = np.zeros((3, 9, 9), dtype=complex)
    ops[:, :8] = a0, a_plus + a_minus, 1j * (a_plus - a_minus)
    ops = _T @ ops @ _T_INV
    defect = float((np.abs(ops.imag).max(axis=(1, 2))
                    / np.abs(ops).max(axis=(1, 2))).max())
    if not defect <= _MAX_HERMITICITY_DEFECT:
        raise NonHermitianGenerator(
            f"hermiticity defect {defect:.3e} of the reduced equations above "
            f"{_MAX_HERMITICITY_DEFECT:g}: conjugate elements do not obey "
            "conjugate equations")
    return ops.real * np.array([1.0, omega_p, omega_p])[:, None, None], defect


# Pade-13 numerator coefficients and the 1-norm up to which the
# unscaled approximant is accurate to double precision (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix in an (n, m, m) stack: Pade-13, scaling and squaring.

    One scaling exponent serves the whole stack, taken from its largest
    1-norm, so every slice costs the same few batched products.  The
    oracle's Magnus exponents have 1-norms near _MAX_STEP_PHASE, below
    _THETA13, so they take no squaring.
    """
    norm = np.abs(a).sum(axis=-2).max()
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0 ** s
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _magnus_matrices(C, S, Q, brackets, delta_p: float, h: float):
    """(M0, M1, M2), stacked, of the Magnus steps of size h.

    Fourth-order Magnus step on the two Gauss-Legendre nodes,
    Omega = h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1] (Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 151 (2009)), in the real coordinates u = T z~.
    A(t) = C + cos(d t) S + sin(d t) Q at the nodes' phases psi -+ e,
    e = d h sqrt(3)/6, around the midpoint phase psi gives Omega =
    M0 + cos(psi) M1 + sin(psi) M2; ``brackets`` is ([C, S], [C, Q], [S, Q]).
    """
    cs, cq, sq = brackets
    e = delta_p * h * math.sqrt(3.0) / 6.0
    k = math.sqrt(3.0) * h * h / 12.0
    return np.stack([h * C - k * math.sin(2.0 * e) * sq,
                     h * math.cos(e) * S - 2.0 * k * math.sin(e) * cq,
                     h * math.cos(e) * Q + 2.0 * k * math.sin(e) * cs])


def _sample_maps(m: np.ndarray, delta_p: float, h: float, n_steps: int,
                 n_samples: int) -> np.ndarray:
    """Propagators of u across each of the n_samples intervals of a period.

    Each is the ordered product of the interval's Magnus step exponentials,
    step j's from the (M0, M1, M2) of step size h at psi = d h (j + 1/2);
    one batch of exponentials is step k of every sample interval.
    """
    per_sample = n_steps // n_samples
    first = np.arange(n_samples) * per_sample
    maps = None
    for k in range(per_sample):
        psi = (delta_p * h * (first + k + 0.5))[:, None, None]
        props = _expm(m[0] + np.cos(psi) * m[1] + np.sin(psi) * m[2])
        maps = props if maps is None else props @ maps
    return maps


def _limit_cycle(maps: np.ndarray) -> np.ndarray:
    """Sampled periodic orbit z (n_samples, 8), the period map's fixed point.

    The maps propagate the real coordinates u; the orbit is solved and
    sampled in u and mapped back to the complex unknowns through T^-1.
    """
    phi = maps[0]
    for m in maps[1:]:
        phi = m @ phi
    mu = np.abs(np.linalg.eigvals(phi[:8, :8])).max()
    if mu >= 1.0:
        raise NoLimitCycle(f"Floquet multiplier of modulus {mu:.6g} >= 1")
    state = np.append(np.linalg.solve(np.eye(8) - phi[:8, :8], phi[:8, 8]), 1.0)
    orbit = np.empty((len(maps), 9))
    for j, m in enumerate(maps):
        orbit[j] = state
        state = m @ state
    return (orbit @ _T_INV.T)[:, :8]


def time_domain_reference(coeffs: CoefficientSet, omega_p: float,
                          delta_p: float) -> LimitCycleRecord:
    """Solve the reduced equations for their limit cycle and DFT it.

    ``coeffs`` holds one parameter set: numbers, or arrays of one row.
    The period map u -> Phi u + p comes from a Magnus propagator whose step
    count is doubled until two successive orbits agree to _RTOL of their
    largest element, rho_pp included; the cycle is u* = (1 - Phi)^{-1} p.
    A first step count above _MAX_STEPS raises NoLimitCycle up front.
    """
    for name, value in (("delta_p", delta_p), ("omega_p", omega_p)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if delta_p == 0.0:
        raise ValueError("delta_p must be non-zero for a well-defined period")
    period = 2.0 * math.pi / abs(delta_p)
    (C, S, Q), defect = _generator(coeffs, omega_p)
    brackets = C @ S - S @ C, C @ Q - Q @ C, S @ Q - Q @ S

    def orbit_at(n_steps):
        h = period / n_steps
        m = _magnus_matrices(C, S, Q, brackets, delta_p, h)
        return _limit_cycle(_sample_maps(m, delta_p, h, n_steps, _N_SAMPLES))

    rate = np.abs(np.linalg.eigvals(C[:8, :8])).max()
    n_steps = _N_SAMPLES * max(1, math.ceil(period * rate / (_MAX_STEP_PHASE
                                                             * _N_SAMPLES)))
    if n_steps > _MAX_STEPS:
        raise NoLimitCycle(
            f"{n_steps} Magnus steps per period needed at delta_p "
            f"{delta_p:g}, above the cap of {_MAX_STEPS}")
    coarse = orbit_at(n_steps)
    for _ in range(_MAX_DOUBLINGS):
        n_steps *= 2
        orbit = orbit_at(n_steps)
        step_error = np.abs(orbit - coarse).max()
        pp = 1.0 - orbit[:, 0] - orbit[:, 1]      # the ninth element, rho_pp
        if step_error <= _RTOL * max(np.abs(orbit).max(), np.abs(pp).max()):
            break
        coarse = orbit
    else:
        raise NoLimitCycle(
            f"step-doubling error {step_error:.3e} above rtol {_RTOL:g} "
            f"at {n_steps} steps per period")

    sample_times = period * np.arange(_N_SAMPLES) / _N_SAMPLES
    trajectory = {name: orbit[:, i] for i, name in enumerate(STATE)}
    trajectory["pp"] = pp

    # phase of each sample relative to the absolute drive clock
    phases = np.exp(-1j * delta_p * sample_times)
    harmonics = {}
    for name, series in trajectory.items():
        harmonics[name] = {
            n: complex(np.mean(series * phases ** n)) for n in range(-3, 4)
        }
    return LimitCycleRecord(
        delta_p=delta_p, omega_p=omega_p,
        times=sample_times, trajectory=trajectory, harmonics=harmonics,
        step_error=float(step_error), hermiticity_error=defect,
    )
