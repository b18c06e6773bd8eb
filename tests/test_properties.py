"""Randomized invariant suites over the valid parameter space."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vkerr import (DegenerateDressing, HarmonicTable, SingularKernel,
                   SingularSteadyState, chi, coefficient_set, sweep)
from vkerr.susceptibility import SWEEPABLE

from test_dressed import quiet_params, random_params
from test_floquet import assert_hermitian_table, assert_trace_closure


def test_hermiticity_and_trace_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        params = random_params(rng)
        dp = rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])
        table = HarmonicTable(coefficient_set(params), dp)
        assert_hermitian_table(table)
        assert_trace_closure(table)


def test_decoupling_limit_random_couplings():
    # residual coupling is O(kappa/|delta_c|) for any coupling strength;
    # at |delta_c| = 1e8 the equivalence is uniform over the draws
    rng = np.random.default_rng(99)
    for _ in range(10):
        params = random_params(rng).replace(
            g1=rng.uniform(0.0, 15.0), g2=rng.uniform(0.0, 15.0),
            gamma1=0.1, gamma2=0.1, gamma12_override=0.0,
            kappa=100.0, omega21=200.0, omega_L_rabi=200.0, delta=0.0)
        detuned = params.replace(delta_c=rng.choice([-1e8, 1e8]))
        free = params.replace(g1=0.0, g2=0.0)
        w = 200.0 + rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 10.0)
        a, b = chi(detuned, w), chi(free, w)
        assert abs(a.chi1 - b.chi1) < 1e-6
        assert abs(a.chi3 - b.chi3) < 1e-6


def test_chi_continuous_in_probe_detuning():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = random_params(rng)
        w0 = params.omega21 + rng.uniform(-2.0, 2.0)
        base = chi(params, w0)
        near = chi(params, w0 + 1e-9)
        assert abs(near.chi1 - base.chi1) < 1e-5 * (1.0 + abs(base.chi1))
        assert abs(near.chi3 - base.chi3) < 1e-4 * (1.0 + abs(base.chi3))


# magnitudes across the whole floating-point range, either sign or zero
magnitude = st.floats(min_value=1e-300, max_value=1e300)
rate = st.one_of(st.just(0.0), magnitude)
signed = st.one_of(rate, magnitude.map(lambda x: -x))
TYPED = (DegenerateDressing, OverflowError, SingularKernel, SingularSteadyState)


def finite_result(r) -> bool:
    return all(math.isfinite(v) for v in (r.re_chi1, r.im_chi1,
                                          r.re_chi3, r.im_chi3))


@settings(max_examples=30, deadline=None)
@given(fields=st.fixed_dictionaries({
           "gamma1": magnitude, "gamma2": magnitude, "kappa": magnitude,
           "g1": rate, "g2": rate, "omega21": signed, "omega_L_rabi": rate,
           "delta": signed, "delta_c": signed,
           "theta": st.one_of(st.none(), st.floats(0.0, math.pi))}),
       omega=signed, axis=st.sampled_from(SWEEPABLE[1:]),
       values=st.lists(signed, min_size=3, max_size=3))
def test_pipeline_finite_or_typed(fields, omega, axis, values):
    # for any valid parameter set, chi and a parameter-axis sweep return
    # finite values or a typed error, never nan or inf (numpy warnings fail
    # the suite, so none may escape either)
    try:
        params = quiet_params(**fields)
    except ValueError:
        assume(False)
    try:
        point = chi(params, omega)
    except TYPED:
        pass
    else:
        assert finite_result(point)
    result = sweep(params, values, axis_name=axis, omega=omega)
    for row in result.rows:
        if row.error is None:
            assert finite_result(row.result)
        else:
            kind = row.error.split(":")[0]
            assert kind in {"ValueError"} | {e.__name__ for e in TYPED}, row.error
