"""chi1 and chi3 against the closed form of the two-level limit."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkerr import chi
from vkerr.cli import main

from test_dressed import quiet_params
from twolevel import two_level_chi

# The reduced pipeline matches the closed form to ~eps * (|omega21| +
# |delta|) / Re G, the rounding of delta_p = omega - omega21 + delta against
# the line width: at most ~6e-12 with gamma1 >= 1e-2 on these ranges (worst
# seen 5e-11 with gamma1 down to 1e-3).  The bound keeps a margin above that.
BOUND = 1e-10


def assert_two_level(params, omega, chi1, chi3):
    ref1, ref3 = two_level_chi(params, omega)
    assert abs(chi1 - ref1) <= BOUND * abs(ref1), (params, omega)
    assert abs(chi3 - ref3) <= BOUND * abs(ref3), (params, omega)


def log_uniform(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(gamma1=log_uniform(-2.0, 0.0), gamma2=log_uniform(-3.0, 0.0),
       g1=st.floats(0.0, 20.0), kappa=log_uniform(1.5, 2.7),
       omega21=st.floats(50.0, 400.0),
       delta=st.floats(1e-3, 100.0) | st.floats(-100.0, -1e-3),
       delta_c=st.floats(-500.0, 500.0),
       widths=st.floats(-5.0, 5.0))
def test_chi_matches_two_level_closed_form(gamma1, gamma2, g1, kappa, omega21,
                                           delta, delta_c, widths):
    # the probe line sits at omega = Im G with half width Re G; sample it
    # within five half widths, where chi3 is large
    params = quiet_params(gamma1=gamma1, gamma2=gamma2, g1=g1, g2=0.0,
                          kappa=kappa, omega21=omega21, omega_L_rabi=0.0,
                          delta=delta, delta_c=delta_c)
    G = gamma1 + g1 ** 2 / (kappa + 1j * (delta_c + omega21 - delta))
    omega = G.imag + widths * G.real
    point = chi(params, omega)
    assert_two_level(params, omega, point.chi1, point.chi3)


@pytest.mark.parametrize("delta", [35.0, -35.0])
def test_point_command_in_two_level_limit(tmp_path, capsys, delta):
    fields = dict(gamma1=0.05, gamma2=0.1, g1=8.0, g2=0.0, kappa=100.0,
                  omega21=200.0, omega_L_rabi=0.0, delta=delta, delta_c=-150.0)
    cfg = tmp_path / "two_level.json"
    cfg.write_text(json.dumps(fields))
    omega = 0.3
    assert main(["point", "--config", str(cfg), "--omega", repr(omega)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert_two_level(quiet_params(**fields), omega,
                     complex(payload["re_chi1"], payload["im_chi1"]),
                     complex(payload["re_chi3"], payload["im_chi3"]))
