"""End-to-end cross-check against the unreduced atom + cavity model.

The resolvent chain in fullmodel.py computes chi1/chi3 exactly (up to the
Fock cutoff) from the master equation, with no dressed-frame reduction.
Agreement bounds the elimination error of the whole analytic pipeline.
"""

import math

import numpy as np

from vkerr import chi, sweep

from fullmodel import resolvent_chi
from redfield import redfield_chi


def reduced(params, omegas):
    out = []
    for w in omegas:
        r = chi(params, w)
        out.append((r.chi1, r.chi3))
    return out


def test_deep_bad_cavity_agreement(gentle_params):
    # omega = delta_p + omega21 here (delta = 0)
    dps = [0.05, 0.2, -0.3]
    full = resolvent_chi(gentle_params, dps, n_max=4)
    red = reduced(gentle_params, [dp + gentle_params.omega21 for dp in dps])
    for (f1, f3), (r1, r3) in zip(full, red):
        assert abs(r1 - f1) <= 0.01 * abs(f1)
        assert abs(r3 - f3) <= 0.02 * abs(f3)


def test_marginal_regime_agreement(sideband_params):
    # the published operating point stretches the bad-cavity hierarchy;
    # the reduction still tracks the exact response to a few percent
    dps = [0.25, 0.122, -0.5]
    full = resolvent_chi(sideband_params, dps, n_max=4)
    red = reduced(sideband_params, [dp + sideband_params.omega21 for dp in dps])
    for (f1, f3), (r1, r3) in zip(full, red):
        assert abs(r1 - f1) <= 0.02 * abs(f1)
        assert abs(r3 - f3) <= 0.05 * abs(f3)


def test_cross_damping_route(gentle_params):
    # exercise the free-space interference terms against the exact model
    p = gentle_params.replace(gamma12_override=0.6 * gentle_params.gamma1)
    full = resolvent_chi(p, [0.1], n_max=4)
    (r1, r3), = reduced(p, [0.1 + p.omega21])
    (f1, f3), = full
    assert abs(r1 - f1) <= 0.01 * abs(f1)
    assert abs(r3 - f3) <= 0.02 * abs(f3)


def window_errors(params, delta_ps):
    """max |chi - full| over the window, as a fraction of the window's peak
    |chi| in the full model: (paper chi1, chi3), (Redfield chi1, chi3)."""
    full = np.array(resolvent_chi(params, delta_ps, n_max=3))
    result = sweep(params, delta_ps + params.omega21)
    paper = np.array([result.re_chi1 + 1j * result.im_chi1,
                      result.re_chi3 + 1j * result.im_chi3]).T
    redfield = np.array([redfield_chi(params, dp) for dp in delta_ps])
    peak = np.abs(full).max(axis=0)
    return (np.abs(paper - full).max(axis=0) / peak,
            np.abs(redfield - full).max(axis=0) / peak)


def test_secular_error_grows_with_kappa(sideband_params):
    # kappa raised from the published point at fixed g^2/kappa: the
    # Born-Markov error (Redfield - full) falls, the paper's secular model
    # drifts away.  At kappa 3200 the paper is off by ~7 % of the peak chi1,
    # a documented limit of its model and not bounded here.  An even count
    # keeps delta_p = 0 out, where every kernel is the singular n = 0 one;
    # n_max 4 moves the full model by at most 1.3e-9 of the peak here
    delta_ps = np.linspace(-3.0, 3.0, 12)
    errors = {}
    for kappa in (400.0, 3200.0):
        scale = math.sqrt(kappa / sideband_params.kappa)
        errors[kappa] = window_errors(sideband_params.replace(
            kappa=kappa, g1=sideband_params.g1 * scale,
            g2=sideband_params.g2 * scale), delta_ps)
    (paper_400, redfield_400), (paper_3200, redfield_3200) = errors.values()
    assert (redfield_400 <= 1e-2).all() and (redfield_3200 <= 1.5e-3).all()
    assert (redfield_3200 < redfield_400 / 4).all()
    assert (paper_3200 > paper_400).all()
    assert (paper_3200 > 10 * redfield_3200).all()
