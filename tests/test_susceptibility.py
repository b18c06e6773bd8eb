import csv
import json
import math

import numpy as np
import pytest

from vkerr import (DegenerateDressing, ProbeGrid, SingularKernel,
                   SingularSteadyState, SweepResult, SweepRow, Susceptibility,
                   chi, coefficient_set, find_features, sweep, write_csv,
                   write_json)
from vkerr.susceptibility import result_metadata

from test_dressed import quiet_params


class TestChi:
    def test_weak_drive_free_space_lorentzian(self):
        # with the cavity off and a vanishing drive the probe sees a plain
        # two-level line: Im chi1 = rho_gs * gamma1 / (gamma1^2 + omega^2)
        # with half the population in each ground-like dressed state
        p = quiet_params(g1=0.0, g2=0.0, gamma1=0.1, gamma2=1e-6,
                         omega_L_rabi=0.01, delta=0.0, omega21=200.0)
        for w in np.linspace(-0.5, 0.5, 21):
            got = chi(p, w).im_chi1
            ref = 0.5 * p.gamma1 / (p.gamma1 ** 2 + w ** 2)
            assert got == pytest.approx(ref, rel=0.01)
            assert got > 0.0

    def test_absorption_sign_frozen(self):
        # golden sign convention: free-space linear absorption is positive
        p = quiet_params(g1=0.0, g2=0.0, delta=0.0)
        assert chi(p, 200.0).im_chi1 > 0.0

    def test_transparency_at_kerr_maximum(self, sideband_params):
        result = sweep(sideband_params, ProbeGrid.from_range(199.5, 201.0, 0.005))
        report = find_features(result)
        # the Kerr peak coexists with a nonlinear-absorption zero and
        # negligible linear absorption
        top = max(report.re_chi3_extrema, key=lambda e: abs(e[1]))
        assert report.transparency_points
        nearest = min(report.transparency_points, key=lambda z: abs(z - top[0]))
        assert abs(nearest - top[0]) < 0.05
        i_near = int(np.argmin(np.abs(np.array(result.axis()) - nearest)))
        im1 = abs(result.rows[i_near].result.im_chi1)
        assert im1 < 0.05 * report.re_chi3_peak

    def test_off_resonant_decay(self, sideband_params):
        # linear response rolls off as 1/|delta_p|, the Kerr part faster
        for w, bound in ((-1e6, 1e-5), (1e6, 1e-5), (1e9, 1e-8)):
            r = chi(sideband_params, w)
            assert max(abs(r.re_chi1), abs(r.im_chi1),
                       abs(r.re_chi3), abs(r.im_chi3)) < bound

    def test_rejects_non_finite_omega(self, sideband_params):
        with pytest.raises(ValueError):
            chi(sideband_params, math.nan)

    def test_golden_values(self, sideband_params):
        r = chi(sideband_params, 200.25)
        assert r.re_chi1 == pytest.approx(0.10596249343776687, rel=1e-10)
        assert r.im_chi1 == pytest.approx(0.2156174879839553, rel=1e-10)
        assert r.re_chi3 == pytest.approx(-4.790960740961804, rel=1e-10)
        assert r.im_chi3 == pytest.approx(-0.05608347901547463, rel=1e-10)
        r = chi(sideband_params, 200.122)
        assert r.re_chi3 == pytest.approx(0.7785852239600926, rel=1e-10)
        assert r.im_chi3 == pytest.approx(3.8031379912582155, rel=1e-10)


# four values per parameter axis, all valid on the sideband operating point
PARAMETER_AXES = {
    "g1": [0.0, 2.5, 5.0, 7.5],
    "g2": [0.0, 7.5, 15.0, 20.0],
    "kappa": [50.0, 100.0, 150.0, 200.0],
    "gamma1": [0.001, 0.05, 0.1, 0.2],
    "gamma2": [0.001, 0.05, 0.1, 0.2],
    "omega21": [190.0, 200.0, 210.0, 250.0],
    "omega_L_rabi": [50.0, 100.0, 200.0, 300.0],
    "delta": [-20.0, 0.0, 5.0, 30.0],
    "delta_c": [0.0, 50.0, 200.0, 400.0],
    "theta": [0.0, 0.7, 1.5, 3.0],
}


class TestSweep:
    def test_decoupled_parameter_rows_identical(self):
        p = quiet_params(g1=0.0, g2=0.0)
        result = sweep(p, [50.0, 100.0, 200.0, 400.0], axis_name="kappa",
                       omega=200.1)
        first = result.rows[0].result
        for row in result.rows[1:]:
            assert row.result == first

    def test_row_errors_recorded_not_fatal(self):
        # omega_L_rabi = 0 with delta = 0 has no dressed basis; the row
        # fails, the sweep continues
        p = quiet_params(delta=0.0)
        result = sweep(p, [0.0, 100.0, 200.0], axis_name="omega_L_rabi",
                       omega=200.1)
        assert result.rows[0].error is not None
        assert result.rows[0].result is None
        assert result.rows[1].error is None
        assert result.n_failed == 1

    def test_failed_rows_stay_on_their_row(self, sideband_params):
        # a non-finite omega and an invalid parameter fail only their own
        # row of the batch; the rows around them equal the pointwise chi
        result = sweep(sideband_params, [200.1, math.nan, 200.2])
        assert [r.error is None for r in result.rows] == [True, False, True]
        assert result.rows[1].error.startswith("ValueError")
        assert result.rows[2].result == chi(sideband_params, 200.2)
        result = sweep(sideband_params, [50.0, -1.0, 150.0], axis_name="kappa",
                       omega=200.25)
        assert [r.error is None for r in result.rows] == [True, False, True]
        assert result.rows[1].error.startswith("ValueError")
        assert result.rows[2].result == chi(
            sideband_params.replace(kappa=150.0), 200.25)

    def test_omega_sweep_matches_pointwise(self, sideband_params):
        grid = ProbeGrid.from_range(200.0, 200.5, 0.25)
        result = sweep(sideband_params, grid)
        for row in result.rows:
            assert row.result == chi(sideband_params, row.axis_value)

    @pytest.mark.parametrize("axis_name", list(PARAMETER_AXES))
    def test_parameter_sweep_matches_pointwise(self, sideband_params,
                                               axis_name):
        values = PARAMETER_AXES[axis_name]
        # theta runs on a base with an explicit cross damping, which the
        # sweep must clear on every row as SystemParams.replace does
        base = (sideband_params.replace(gamma12_override=0.05)
                if axis_name == "theta" else sideband_params)
        result = sweep(base, values, axis_name=axis_name, omega=200.122)
        assert result.n_failed == 0
        for row in result.rows:
            row_params = base.replace(**{axis_name: row.axis_value})
            assert row.result == chi(row_params, 200.122)

    @pytest.mark.parametrize("axis_name, bad, message", [
        ("kappa", -50.0, "ValueError: gamma1, gamma2 and kappa must be positive"),
        ("g2", -1.0, "ValueError: g1, g2 and omega_L_rabi must be non-negative"),
        ("gamma1", 0.01, "ValueError: |gamma12| = 0.05 exceeds "
                         "sqrt(gamma1*gamma2) = 0.0316228"),
        ("omega_L_rabi", 0.0, "DegenerateDressing: omega_L_rabi = 0 and delta = 0"),
    ], ids=["negative-kappa", "negative-g2", "gamma12-bound", "degenerate"])
    def test_invalid_row_error_matches_pointwise(self, sideband_params,
                                                 axis_name, bad, message):
        # a failed row carries the error that evaluating it alone raises:
        # constructing its SystemParams, or dressing it
        base = sideband_params.replace(gamma12_override=0.05)
        values = [getattr(base, axis_name) * 0.5, bad, getattr(base, axis_name)]
        result = sweep(base, values, axis_name=axis_name, omega=200.25)
        assert [r.error is None for r in result.rows] == [True, False, True]
        assert result.rows[1].error == message
        with pytest.raises((ValueError, DegenerateDressing)) as info:
            coefficient_set(base.replace(**{axis_name: bad}))
        assert message == f"{type(info.value).__name__}: {info.value}"
        assert result.rows[2].result == chi(base, 200.25)

    def test_overflow_is_a_typed_row_error(self, sideband_params):
        # the coefficients of a huge drive leave the floating-point range:
        # OverflowError for the point, and on its own row of a sweep
        huge = sideband_params.replace(omega_L_rabi=1e200)
        with pytest.raises(OverflowError):
            chi(huge, 200.25)
        result = sweep(sideband_params, [200.0, 1e200, 300.0],
                       axis_name="omega_L_rabi", omega=200.25)
        assert [r.error is None for r in result.rows] == [True, False, True]
        assert result.rows[1].error.startswith("OverflowError: ")

    def test_non_finite_solution_is_a_typed_row_error(self):
        # decay rates of 1e-300 leave every kernel regular but overflow the
        # solution at omega = 200: a typed error, never a nan in the output
        tiny = quiet_params(gamma1=1e-300, gamma2=1e-300)
        with pytest.raises((SingularKernel, SingularSteadyState)):
            chi(tiny, 200.0)
        result = sweep(tiny, [199.5, 200.0, 200.5])
        assert result.n_failed == 1
        assert result.rows[1].error.startswith(("SingularKernel: ",
                                                "SingularSteadyState: "))
        for row in (result.rows[0], result.rows[2]):
            assert all(math.isfinite(v) for v in (
                row.result.re_chi1, row.result.im_chi1,
                row.result.re_chi3, row.result.im_chi3))

    def test_parameter_sweep_requires_omega(self, sideband_params):
        with pytest.raises(ValueError):
            sweep(sideband_params, [1.0, 2.0], axis_name="g1")

    def test_unknown_axis_rejected(self, sideband_params):
        with pytest.raises(ValueError):
            sweep(sideband_params, [1.0], axis_name="horsepower", omega=200.0)

    def test_decoupling_limit_equivalence(self, sideband_params):
        # compared away from the sharp features, where the O(kappa/delta_c)
        # residual is not amplified by the line slope
        detuned = sideband_params.replace(delta_c=1e6)
        free = sideband_params.replace(g1=0.0, g2=0.0)
        for w in (190.0, 195.0, 206.0):
            a, b = chi(detuned, w), chi(free, w)
            assert abs(a.chi1 - b.chi1) < 1e-6
            assert abs(a.chi3 - b.chi3) < 1e-6


def json_payload(result, extra=None):
    """The sweep JSON as a payload for json.dump: the writer's reference."""
    rows = []
    for row in result.rows:
        if row.result is None:
            rows.append({"axis": row.axis_value, "error": row.error})
        else:
            r = row.result
            rows.append({
                "axis": row.axis_value,
                "re_chi1": r.re_chi1, "im_chi1": r.im_chi1,
                "re_chi3": r.re_chi3, "im_chi3": r.im_chi3,
                "ratio_31": r.ratio_31 if math.isfinite(r.ratio_31) else None,
                "ratio_33": r.ratio_33 if math.isfinite(r.ratio_33) else None,
            })
    return {"metadata": result_metadata(result, extra), "rows": rows}


def synthetic_result(xs, im3, re3=None, im1=None):
    rows = []
    for i, x in enumerate(xs):
        rows.append(SweepRow(axis_value=x, result=Susceptibility(
            re_chi1=0.0,
            im_chi1=0.0 if im1 is None else im1[i],
            re_chi3=1.0 if re3 is None else re3[i],
            im_chi3=im3[i])))
    return SweepResult(axis_name="omega", rows=tuple(rows),
                       params=quiet_params())


class TestFindFeatures:
    def test_linear_zero_crossing(self):
        xs = [0.0, 2.0, 4.0, 6.0, 8.0]
        result = synthetic_result(xs, [x - 5.0 for x in xs])
        report = find_features(result)
        assert report.im_chi3_zeros == (5.0,)

    def test_crossing_brackets_sign_change(self):
        xs = list(np.linspace(0.0, 1.0, 11))
        rng = np.random.default_rng(5)
        ys = list(rng.normal(size=11))
        report = find_features(synthetic_result(xs, ys))
        for z in report.im_chi3_zeros:
            i = max(0, min(9, int(z * 10)))
            assert ys[i] == 0.0 or ys[i] * ys[i + 1] <= 0.0

    def test_parabolic_extremum_refinement(self):
        xs = list(np.linspace(-1.0, 1.0, 21))
        re3 = [1.0 - (x - 0.03) ** 2 for x in xs]
        report = find_features(synthetic_result(xs, [1.0] * 21, re3=re3))
        assert len(report.re_chi3_extrema) == 1
        pos, val = report.re_chi3_extrema[0]
        assert pos == pytest.approx(0.03, abs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_transparency_threshold(self):
        xs = list(np.linspace(0.0, 10.0, 11))
        im3 = [x - 5.0 for x in xs]
        quiet = synthetic_result(xs, im3, im1=[0.01] * 11)
        loud = synthetic_result(xs, im3, im1=[0.5] * 11)
        assert find_features(quiet).transparency_points == (5.0,)
        assert find_features(loud).transparency_points == ()

    def test_empty_report(self):
        xs = [0.0, 1.0, 2.0]
        report = find_features(synthetic_result(xs, [1.0, 1.0, 1.0],
                                                re3=[0.5, 0.5, 0.5]))
        assert report.empty
        assert report.im_chi3_zeros == ()

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            find_features(synthetic_result([0.0, 1.0], [1.0, -1.0]))


class TestWriters:
    def test_csv_format(self, tmp_path, sideband_params):
        result = sweep(sideband_params, ProbeGrid.from_range(200.0, 200.2, 0.1))
        out = tmp_path / "rows.csv"
        write_csv(result, out)
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["axis", "re_chi1", "im_chi1", "re_chi3", "im_chi3",
                           "ratio_31", "ratio_33"]
        assert len(rows) == 4
        # nine significant digits, scientific
        assert rows[1][1] == f"{result.rows[0].result.re_chi1:.8e}"

    def test_csv_failed_row_empty_fields(self, tmp_path):
        p = quiet_params(delta=0.0)
        result = sweep(p, [0.0, 100.0], axis_name="omega_L_rabi", omega=200.0)
        out = tmp_path / "rows.csv"
        write_csv(result, out)
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[1][1:] == [""] * 6

    def test_reruns_byte_identical(self, tmp_path, sideband_params):
        result = sweep(sideband_params, ProbeGrid.from_range(200.0, 200.2, 0.1))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(result, a)
        write_csv(result, b)
        assert a.read_bytes() == b.read_bytes()
        ja, jb = tmp_path / "a.json", tmp_path / "b.json"
        write_json(result, ja)
        write_json(result, jb)
        assert ja.read_bytes() == jb.read_bytes()

    def test_json_bytes_equal_json_dump(self, tmp_path, sideband_params):
        # the direct row formatter writes what json.dump(indent=2) writes
        swept = sweep(sideband_params, [50.0, -1.0, 150.0], axis_name="kappa",
                      omega=200.25)
        synthetic = SweepResult(axis_name="g1", params=sideband_params,
                                fixed_omega=200.25, rows=(
            # Im chi1 = 0 leaves ratio_31 undefined: null
            SweepRow(axis_value=-0.0, result=Susceptibility(
                -0.0, 0.0, 1e-300, -2.5)),
            SweepRow(axis_value=0.0, result=Susceptibility(0.1, 0.0, 0.0, 0.0)),
            SweepRow(axis_value=math.nan,
                     error='ValueError: "quoted", non-ASCII \u00e9\u03ba\n'),
            SweepRow(axis_value=1e300, result=Susceptibility(
                0.1, 0.2, -4.790960740961802, 5e-324)),
        ))
        empty = SweepResult(axis_name="omega", rows=(), params=sideband_params)
        for result, extra in ((swept, None), (synthetic, {"preset": "fig4b",
                                                          "note": "\u00e9"}),
                              (empty, {})):
            out, ref = tmp_path / "out.json", tmp_path / "ref.json"
            write_json(result, out, extra_metadata=extra)
            with open(ref, "w") as f:
                json.dump(json_payload(result, extra), f, indent=2)
                f.write("\n")
            assert out.read_bytes() == ref.read_bytes()

    def test_json_metadata(self, tmp_path, sideband_params):
        result = sweep(sideband_params, ProbeGrid.from_range(200.0, 200.1, 0.1))
        out = tmp_path / "rows.json"
        write_json(result, out)
        payload = json.loads(out.read_text())
        assert payload["metadata"]["gamma12"] == 0.0
        assert payload["metadata"]["params"]["g2"] == 15.0
        assert payload["metadata"]["axis"] == "omega"
        assert len(payload["rows"]) == 2
