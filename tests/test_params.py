import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vkerr import (RegimeAdvisory, SystemParams, axis_grid, effective_gamma12,
                   load_config)
from vkerr.params import ParameterColumns, probe_detuning_to_delta_p

rates = st.floats(min_value=1e-3, max_value=10.0)
angles = st.floats(min_value=0.0, max_value=math.pi)


def quiet_params(**kwargs):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeAdvisory)
        return SystemParams(**kwargs)


class TestEffectiveGamma12:
    def test_perpendicular_dipoles(self):
        p = quiet_params(gamma1=0.1, gamma2=0.1, theta=math.pi / 2)
        assert effective_gamma12(p) == pytest.approx(0.0, abs=1e-15)

    def test_parallel_dipoles(self):
        p = quiet_params(gamma1=0.1, gamma2=0.1, theta=0.0)
        assert effective_gamma12(p) == pytest.approx(0.1)

    def test_oblique(self):
        # sqrt(0.4 * 0.1) * cos(pi/3) = 0.2 * 0.5
        p = quiet_params(gamma1=0.4, gamma2=0.1, theta=math.pi / 3)
        assert effective_gamma12(p) == pytest.approx(0.1)

    def test_default_is_exactly_zero(self):
        assert effective_gamma12(quiet_params()) == 0.0

    def test_override_wins(self):
        p = quiet_params(gamma12_override=0.05)
        assert effective_gamma12(p) == 0.05

    @given(g1=rates, g2=rates, theta=angles)
    def test_symmetric_under_gamma_swap(self, g1, g2, theta):
        a = quiet_params(gamma1=g1, gamma2=g2, theta=theta)
        b = quiet_params(gamma1=g2, gamma2=g1, theta=theta)
        assert effective_gamma12(a) == pytest.approx(effective_gamma12(b))


class TestProbeDetuning:
    def test_on_resonance(self):
        p = quiet_params(omega21=200.0, delta=0.0)
        assert probe_detuning_to_delta_p(200.0, p) == pytest.approx(0.0)

    def test_linear_shift(self):
        p = quiet_params(omega21=200.0, delta=0.0)
        assert probe_detuning_to_delta_p(200.25, p) == pytest.approx(0.25)

    def test_splitting_offset(self):
        p = quiet_params(omega21=250.0, delta=0.0)
        assert probe_detuning_to_delta_p(200.0, p) == pytest.approx(-50.0)

    @given(omega=st.floats(-1e3, 1e3), d=st.floats(-50, 50),
           w21=st.floats(1.0, 400.0))
    def test_affine_with_unit_slope(self, omega, d, w21):
        p = quiet_params(omega21=w21, delta=d)
        base = probe_detuning_to_delta_p(omega, p)
        assert probe_detuning_to_delta_p(omega + 1.0, p) - base == pytest.approx(1.0)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"gamma1": 0.0}, {"gamma2": -0.1}, {"kappa": 0.0},
        {"g1": -1.0}, {"omega_L_rabi": -2.0}, {"delta": math.inf},
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            quiet_params(**bad)

    def test_rejects_cross_damping_above_bound(self):
        with pytest.raises(ValueError):
            quiet_params(gamma1=0.1, gamma2=0.1, gamma12_override=0.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_override(self, value):
        # nan slips past the |gamma12| bound, so finiteness is its own rule
        with pytest.raises(ValueError, match="^gamma12_override must be finite$"):
            quiet_params(gamma12_override=value)

    def test_columns_reject_non_finite_override(self):
        columns = ParameterColumns.along(
            quiet_params(), "g1", [1.0, 2.0, 3.0])._replace(
            gamma12_override=np.array([0.01, math.nan, math.inf]))
        errors = columns.errors()
        assert set(errors) == {1, 2}
        assert {str(e) for e in errors.values()} == {
            "gamma12_override must be finite"}

    def test_theta_and_override_exclusive(self):
        with pytest.raises(ValueError):
            quiet_params(theta=0.3, gamma12_override=0.01)

    def test_regime_advisory_warns_not_raises(self):
        with pytest.warns(RegimeAdvisory):
            p = SystemParams(g1=5.0, g2=50.0, kappa=100.0, delta_c=200.0)
        assert p.advisory

    def test_weak_coupling_advisory(self):
        # couplings below the atomic decay break the hierarchy from below
        with pytest.warns(RegimeAdvisory):
            p = SystemParams(g1=0.05, g2=0.2, kappa=100.0)
        assert p.advisory

    def test_published_point_within_factor_three(self):
        p = SystemParams(g1=5.0, g2=15.0, kappa=100.0, delta_c=200.0)
        assert not p.advisory

    def test_free_space_never_advises(self):
        assert not SystemParams(g1=0.0, g2=0.0).advisory

    def test_deep_bad_cavity_no_advisory(self):
        p = SystemParams(gamma1=0.02, gamma2=0.02, g1=1.0, g2=3.0,
                         kappa=100.0, omega21=40.0, omega_L_rabi=40.0)
        assert not p.advisory

    def test_record_copy_validates(self):
        # _replace builds through _make, which runs the constructor's checks
        p = quiet_params()
        with pytest.raises(ValueError, match="must be positive"):
            p._replace(kappa=0.0)
        with pytest.raises(ValueError, match="must be positive"):
            SystemParams._make([-1.0] + list(p[1:]))
        with pytest.warns(RegimeAdvisory):
            p._replace(g1=50.0)

    def test_replace_swaps_cross_damping_convention(self):
        p = quiet_params(gamma12_override=0.02)
        q = p.replace(theta=0.5)
        assert q.gamma12_override is None and q.theta == 0.5

    def test_replace_with_none_keeps_the_other_convention(self):
        # clearing one convention leaves the one that is set
        assert quiet_params(gamma12_override=0.05).replace(
            theta=None).gamma12_override == 0.05
        assert quiet_params(theta=0.5).replace(gamma12_override=None).theta == 0.5


class TestProbeGrid:
    """axis_grid, the grid of every sweep axis."""

    def test_from_range(self):
        g = axis_grid(190.0, 210.0, 0.5)
        assert len(g) == 41
        assert g[0] == 190.0 and g[-1] == 210.0

    @pytest.mark.parametrize("start, stop, step, last, count", [
        (199.0, 201.5, 0.7, 199.0 + 3 * 0.7, 4),
        (0.0, 1.0, 0.6, 0.6, 2),
        (190.0, 210.0, 0.005, 210.0, 4001),     # fig2c's window
        (0.0, 10.0, 0.05, 10.0, 201),           # fig4b's axis
    ])
    def test_from_range_stops_at_stop(self, start, stop, step, last, count):
        # a step that does not divide the range ends on the last point
        # before stop; a multiple of the step keeps stop itself
        g = axis_grid(start, stop, step)
        assert len(g) == count and g[-1] == last
        assert g[-1] <= stop

    def test_rejects_non_increasing(self):
        # a step below the spacing of floats at 1e17 (16) repeats points
        with pytest.raises(ValueError, match="^grid must be strictly increasing$"):
            axis_grid(1e17, 1e17 + 64, 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^grid must not be empty$"):
            axis_grid(2.0, 1.0, 0.5)

    @pytest.mark.parametrize("start, stop, step, count", [
        (0.0, 200000.0, 1.0, 200001),           # one point over the cap
        (190.0, 210.0, 1e-12, 20000000000001),  # 160 TB as float64
    ], ids=["cap-plus-one", "tiny-step"])
    def test_rejects_too_many_points(self, start, stop, step, count):
        # the count is refused before the grid is built: the refusal
        # allocates nothing near count * 8 bytes
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    f"^grid of {count} points above the cap of 200000$")):
                axis_grid(start, stop, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_accepts_the_cap(self):
        g = axis_grid(0.0, 199999.0, 1.0)
        assert len(g) == 200000 and g[-1] == 199999.0

    @pytest.mark.parametrize("start, stop, step", [
        (math.nan, 210.0, 0.5), (-math.inf, 210.0, 0.5),
        (190.0, math.nan, 0.5), (190.0, math.inf, 0.5),
        (190.0, 210.0, math.nan), (190.0, 210.0, math.inf),
    ])
    def test_from_range_rejects_non_finite(self, start, stop, step):
        with pytest.raises(ValueError, match="^grid values must be finite$"):
            axis_grid(start, stop, step)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "gamma1": 0.1, "gamma2": 0.1, "g1": 5, "g2": 15, "kappa": 100,
            "omega21": 200, "omega_L_rabi": 200, "delta": 0, "delta_c": 200,
        }))
        p = load_config(cfg)
        assert p.g2 == 15.0 and p.delta_c == 200.0
        assert effective_gamma12(p) == 0.0

    def test_array_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('[{"g1": 5}]')
        with pytest.raises(ValueError, match="config must be a JSON object$"):
            load_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"gamma_one": 0.1}')
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(cfg)

    def test_exclusive_keys_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"theta": 0.4, "gamma12_override": 0.01}')
        with pytest.raises(ValueError, match="mutually exclusive"):
            load_config(cfg)

    def test_optional_fields_accept_null(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"g1": 5, "theta": null, "gamma12_override": null}')
        p = load_config(cfg)
        assert p.theta is None and p.gamma12_override is None
        assert p == SystemParams(g1=5.0)
        cfg.write_text('{"theta": null, "gamma12_override": 0.01}')
        assert load_config(cfg).gamma12_override == 0.01

    def test_ints_are_numbers(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"g1": 5, "theta": 0}')
        p = load_config(cfg)
        assert p.g1 == 5.0 and type(p.g1) is float and p.theta == 0.0

    @pytest.mark.parametrize("text", ['{"g1": true}', '{"g1": "5"}',
                                      '{"theta": "0.5"}', '{"g1": null}',
                                      '{"kappa": [100]}'])
    def test_non_numbers_rejected(self, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        key = next(iter(json.loads(text)))
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            load_config(cfg)
