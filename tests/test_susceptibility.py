import csv
import io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkerr import (DegenerateDressing, SingularKernel, SingularSteadyState,
                   SweepResult, SweepRow, Susceptibility, axis_grid, chi,
                   coefficient_set, find_features, sweep, write_csv, write_json)
from vkerr.cli import PRESETS
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
        result = sweep(sideband_params, axis_grid(199.5, 201.0, 0.005))
        report = find_features(result)
        # the Kerr peak coexists with a nonlinear-absorption zero and
        # negligible linear absorption
        top = max(report.re_chi3_extrema, key=lambda e: abs(e[1]))
        assert report.transparency_points
        nearest = min(report.transparency_points, key=lambda z: abs(z - top[0]))
        assert abs(nearest - top[0]) < 0.05
        i_near = int(np.argmin(np.abs(np.array(result.axis_values) - nearest)))
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

    def test_degenerate_dressing_raises_what_the_sweep_records(self):
        # Omega_L = delta = 0 has no dressed basis: chi raises the error the
        # one-row omega sweep raises, before it looks at omega
        p = quiet_params(omega_L_rabi=0.0, delta=0.0)
        with pytest.raises(DegenerateDressing) as point:
            chi(p, math.nan)
        with pytest.raises(DegenerateDressing) as swept:
            sweep(p, [math.nan])
        assert str(point.value) == str(swept.value)

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
        grid = axis_grid(200.0, 200.5, 0.25)
        result = sweep(sideband_params, grid)
        for row in result.rows:
            assert row.result == chi(sideband_params, row.axis_value)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 17, 4001])
    def test_omega_sweep_rows_independent_of_grid_size(self, sideband_params,
                                                       size):
        # the shared n = 0 kernel is broadcast, one solve per row; each row
        # equals the one-row chi bitwise
        grid = np.linspace(199.0, 201.0, size)
        result = sweep(sideband_params, grid)
        assert len(result) == size and result.n_failed == 0
        rows = range(size) if size < 100 else range(0, size, 97)
        for i in rows:
            point = chi(sideband_params, grid[i])
            assert (result.re_chi1[i], result.im_chi1[i], result.re_chi3[i],
                    result.im_chi3[i]) == (point.re_chi1, point.im_chi1,
                                           point.re_chi3, point.im_chi3)

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

    def test_theta_sweep_params_clear_the_override(self, sideband_params):
        # every row of a theta sweep clears gamma12_override, so the
        # parameters the result keeps, and its metadata writes, do too
        base = sideband_params.replace(gamma12_override=0.05)
        theta = sweep(base, [0.0, 0.5], axis_name="theta", omega=200.122)
        assert theta.params == sideband_params
        assert sweep(base, [5.0, 6.0], axis_name="g1", omega=200.122).params == base

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

    def test_huge_kappa_is_the_cavity_free_limit(self):
        # the cavity filters stay finite however broad the cavity: every
        # kappa row solves, and equals the 1e100 row, where g^2/kappa is
        # already below the last bit of the free-space rates
        params = quiet_params(**PRESETS["fig2c"]["params"])
        result = sweep(params, [1e100, 1e160, 1e200, 1e300], "kappa",
                       omega=200.25)
        assert result.n_failed == 0
        for name in ("re_chi1", "im_chi1", "re_chi3", "im_chi3"):
            column = result.column(name)
            assert column == pytest.approx(np.full(4, column[0]), rel=1e-12)

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

    def test_omega_sweep_rejects_fixed_omega(self, sideband_params):
        # an omega sweep never reads a fixed omega, so one is a conflict
        with pytest.raises(ValueError, match="fixed omega"):
            sweep(sideband_params, [200.0, 200.1], omega=5.0)

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

    @staticmethod
    def assert_rows_equal_chi(result, rows, params_of, omega_of):
        # each row equals chi at its parameters and omega bitwise, or
        # carries the error that chi raises there
        for i in rows:
            try:
                point = chi(params_of(i), omega_of(i))
            except ValueError as exc:
                assert result.errors[i] == f"{type(exc).__name__}: {exc}", i
                assert np.isnan(result.re_chi1[i])
                continue
            assert i not in result.errors, i
            assert (result.re_chi1[i], result.im_chi1[i], result.re_chi3[i],
                    result.im_chi3[i]) == tuple(point), i

    def test_parameter_sweep_batch_boundary(self, sideband_params):
        # rows 1023 and 1024 straddle the first batch boundary and fail for
        # different reasons; the last batch holds two rows
        values = np.linspace(1.0, 9.0, 2050)
        values[1023], values[1024] = -1.0, math.nan
        result = sweep(sideband_params, values, "g1", omega=200.25)
        assert sorted(result.errors) == [1023, 1024]
        assert result.errors[1023].endswith("must be non-negative")
        assert result.errors[1024] == "ValueError: g1 must be finite"
        self.assert_rows_equal_chi(
            result, [0, 1022, 1023, 1024, 1025, 2047, 2048, 2049],
            lambda i: sideband_params._replace(g1=values[i]),
            lambda i: 200.25)

    def test_omega_sweep_batch_boundary(self, sideband_params):
        # the last row of 1025 is a batch of its own
        grid = np.linspace(199.0, 201.0, 1025)
        grid[1023], grid[1024] = math.nan, math.inf
        result = sweep(sideband_params, grid)
        assert sorted(result.errors) == [1023, 1024]
        grid[1024] = 201.0
        result = sweep(sideband_params, grid)
        assert sorted(result.errors) == [1023]
        self.assert_rows_equal_chi(result, [0, 1022, 1023, 1024],
                                   lambda i: sideband_params,
                                   lambda i: grid[i])

    @pytest.mark.parametrize("axis_name, values", [
        ("omega", np.linspace(190.0, 210.0, 10001)),
        ("kappa", np.linspace(60.0, 400.0, 10001))])
    def test_sweep_memory_bounded_by_the_batch(self, sideband_params,
                                               axis_name, values):
        # ~40 B per row are kept; the solve's temporaries are one batch's
        omega = None if axis_name == "omega" else 200.25
        tracemalloc.start()
        try:
            result = sweep(sideband_params, values, axis_name, omega=omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_failed == 0
        assert peak < 15e6

    @pytest.mark.parametrize("axis_name, omega", [("omega", None),
                                                  ("g1", 200.25)])
    def test_empty_sweep(self, tmp_path, sideband_params, axis_name, omega):
        result = sweep(sideband_params, [], axis_name, omega=omega)
        assert len(result) == 0 and result.n_failed == 0
        assert all(len(result.column(name)) == 0 for name in
                   ("axis", "re_chi1", "im_chi1", "re_chi3", "im_chi3"))
        out = io.StringIO()
        write_csv(result, out)
        assert out.getvalue() == ("axis,re_chi1,im_chi1,re_chi3,im_chi3,"
                                  "ratio_31,ratio_33\r\n")
        write_json(result, tmp_path / "empty.json")
        payload = json.loads((tmp_path / "empty.json").read_text())
        assert payload["rows"] == [] and payload["metadata"]["n_rows"] == 0


def ratio(num, den):
    """Scalar reference for the ratio columns: 0/0 is nan, and x/0 is +-inf
    with the sign of x."""
    if den == 0.0:
        return math.nan if num == 0.0 else math.copysign(math.inf, num)
    return num / den


def ratios(r):
    """(ratio_31, ratio_33) of a Susceptibility: Re chi3 / Im chi1 and
    Re chi3 / Im chi3."""
    return ratio(r.re_chi3, r.im_chi1), ratio(r.re_chi3, r.im_chi3)


def json_payload(result, extra=None):
    """The sweep JSON as a payload for json.dump: the writer's reference."""
    rows = []
    for row in result.rows:
        if row.result is None:
            rows.append({"axis": row.axis_value, "error": row.error})
        else:
            r = row.result
            ratio_31, ratio_33 = ratios(r)
            rows.append({
                "axis": row.axis_value,
                "re_chi1": r.re_chi1, "im_chi1": r.im_chi1,
                "re_chi3": r.re_chi3, "im_chi3": r.im_chi3,
                "ratio_31": ratio_31 if math.isfinite(ratio_31) else None,
                "ratio_33": ratio_33 if math.isfinite(ratio_33) else None,
            })
    return {"metadata": result_metadata(result, extra), "rows": rows}


def csv_text(result):
    """The sweep CSV as csv.writer writes it: the writer's reference."""
    cell = (lambda v: f"{v:.8e}" if math.isfinite(v) else "")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("axis", "re_chi1", "im_chi1", "re_chi3", "im_chi3",
                     "ratio_31", "ratio_33"))
    for row in result.rows:
        r = row.result
        if r is None:
            writer.writerow([cell(row.axis_value)] + [""] * 6)
        else:
            writer.writerow([cell(v) for v in (
                row.axis_value, r.re_chi1, r.im_chi1, r.re_chi3, r.im_chi3,
                *ratios(r))])
    return buf.getvalue()


def result_of(rows, **fields):
    """A SweepResult whose columns hold ``rows``, a sequence of SweepRow."""
    chis = [(math.nan,) * 4 if r.result is None else
            (r.result.re_chi1, r.result.im_chi1, r.result.re_chi3,
             r.result.im_chi3) for r in rows]
    columns = np.array(chis, dtype=float).reshape(-1, 4).T
    return SweepResult(
        axis_values=np.array([r.axis_value for r in rows], dtype=float),
        **dict(zip(("re_chi1", "im_chi1", "re_chi3", "im_chi3"), columns)),
        errors={i: r.error for i, r in enumerate(rows) if r.error is not None},
        **fields)


def synthetic_result(xs, im3, re3=None, im1=None):
    rows = []
    for i, x in enumerate(xs):
        rows.append(SweepRow(axis_value=x, result=Susceptibility(
            re_chi1=0.0,
            im_chi1=0.0 if im1 is None else im1[i],
            re_chi3=1.0 if re3 is None else re3[i],
            im_chi3=im3[i])))
    return result_of(rows, axis_name="omega", params=quiet_params())


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

    @pytest.mark.parametrize("preset", ["fig3b", "fig2a", "fig5"])
    def test_axis_direction_does_not_change_features(self, preset):
        # the preset's window swept upward and downward finds the same features
        params = quiet_params(**PRESETS[preset]["params"])
        grid = axis_grid(*PRESETS[preset]["grid"])
        up, down = (find_features(sweep(params, values))
                    for values in (grid, grid[::-1]))
        assert sorted(down.im_chi3_zeros) == pytest.approx(
            sorted(up.im_chi3_zeros), rel=1e-12)
        assert sorted(down.re_chi3_extrema) == sorted(up.re_chi3_extrema)
        assert sorted(down.transparency_points) == pytest.approx(
            sorted(up.transparency_points), rel=1e-12)
        assert up.transparency_points

    def test_exact_zero_after_failed_row_judged_on_its_own_row(self):
        # row 1 failed; row 2 is an exact Im chi3 zero with little absorption
        rows = list(synthetic_result([0.0, 1.0, 2.0, 3.0, 4.0],
                                     [1.0, 1.0, 0.0, 1.0, 2.0],
                                     im1=[1.0, 1.0, 0.01, 1.0, 1.0]).rows)
        rows[1] = SweepRow(axis_value=1.0, error="ValueError: failed")
        report = find_features(result_of(rows, axis_name="omega",
                                         params=quiet_params()))
        assert report.im_chi3_zeros == (2.0,)
        assert report.transparency_points == (2.0,)

    def test_exact_zero_on_the_last_row(self):
        # the last row has no next row: an exact zero there is a zero, and
        # reads Im chi1 on its own row
        report = find_features(synthetic_result(
            [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 1.0, 0.0], im1=[1.0, 1.0, 1.0, 0.01]))
        assert report.im_chi3_zeros == (3.0,)
        assert report.transparency_points == (3.0,)

    def test_empty_report(self):
        xs = [0.0, 1.0, 2.0]
        report = find_features(synthetic_result(xs, [1.0, 1.0, 1.0],
                                                re3=[0.5, 0.5, 0.5]))
        assert report.empty
        assert report.im_chi3_zeros == ()

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -0.01])
    def test_rejects_bad_transparency_fraction(self, fraction):
        xs = [0.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="transparency_fraction"):
            find_features(synthetic_result(xs, [1.0, -1.0, 1.0]),
                          transparency_fraction=fraction)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            find_features(synthetic_result([0.0, 1.0], [1.0, -1.0]))


class TestWriters:
    def test_csv_format(self, tmp_path, sideband_params):
        result = sweep(sideband_params, axis_grid(200.0, 200.2, 0.1))
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

    def test_csv_bytes_equal_csv_writer(self, tmp_path, capsys,
                                        sideband_params):
        # the joined rows are what csv.writer writes, to a file and to stdout:
        # \r\n line ends, empty fields for failed rows and undefined ratios
        swept = sweep(quiet_params(delta=0.0), [0.0, 50.0, math.nan, 200.0],
                      axis_name="omega_L_rabi", omega=200.0)
        synthetic = result_of(axis_name="g1", params=sideband_params, rows=(
            # Im chi1 = 0 leaves ratio_31 infinite, and 0/0 leaves it nan
            SweepRow(axis_value=-0.0,
                     result=Susceptibility(-0.0, 0.0, 1e-300, -2.5)),
            SweepRow(axis_value=0.0, result=Susceptibility(0.1, 0.0, 0.0, 0.0)),
            SweepRow(axis_value=1e300, result=Susceptibility(
                0.1, 0.2, -4.790960740961802, 5e-324)),
        ))
        empty = result_of(axis_name="omega", rows=(), params=sideband_params)
        for result in (swept, synthetic, empty):
            out = tmp_path / "rows.csv"
            write_csv(result, out)
            assert out.read_bytes() == csv_text(result).encode()
            write_csv(result, sys.stdout)
            assert capsys.readouterr().out == csv_text(result)
        assert swept.n_failed == 2 and "\r\n,,,,,,\r\n" in csv_text(swept)

    def test_reruns_byte_identical(self, tmp_path, sideband_params):
        result = sweep(sideband_params, axis_grid(200.0, 200.2, 0.1))
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
        synthetic = result_of(axis_name="g1", params=sideband_params,
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
        empty = result_of(axis_name="omega", rows=(), params=sideband_params)
        for result, extra in ((swept, None), (synthetic, {"preset": "fig4b",
                                                          "note": "\u00e9"}),
                              (empty, {})):
            out, ref = tmp_path / "out.json", tmp_path / "ref.json"
            write_json(result, out, extra_metadata=extra)
            with open(ref, "w") as f:
                json.dump(json_payload(result, extra), f, indent=2)
                f.write("\n")
            assert out.read_bytes() == ref.read_bytes()

    def test_json_failed_rows_anywhere(self, tmp_path, sideband_params):
        # failed rows first, last, in runs and on every other row, with
        # null ratios in between, each land on their own row
        rng = np.random.default_rng(29)
        n = 5000
        chis = rng.normal(size=(4, n))
        chis[1, 7::97] = 0.0        # Im chi1 = 0: a null ratio_31
        failed = [0, n - 1, *range(10, 40), *range(2000, 2500, 2),
                  *range(4000, 4100)]
        chis[:, failed] = math.nan
        result = SweepResult(
            "g1", sideband_params, np.linspace(0.0, 10.0, n), *chis,
            errors={row: f"ValueError: row {row}" for row in failed},
            fixed_omega=200.25)
        out = tmp_path / "rows.json"
        write_json(result, out)
        assert out.read_text() == json.dumps(json_payload(result),
                                             indent=2) + "\n"

    def test_json_metadata(self, tmp_path, sideband_params):
        result = sweep(sideband_params, axis_grid(200.0, 200.1, 0.1))
        out = tmp_path / "rows.json"
        write_json(result, out)
        payload = json.loads(out.read_text())
        assert payload["metadata"]["gamma12"] == 0.0
        assert payload["metadata"]["params"]["g2"] == 15.0
        assert payload["metadata"]["axis"] == "omega"
        assert len(payload["rows"]) == 2


# doubles a sweep column can hold: any finite value (zeros, subnormals and
# extremes included), with the zeros that make a ratio undefined drawn often
EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1e-300, -1e-300, 1e300, -1.7976931348623157e308])
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE)
AXIS = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))
CLEAN_ROW = st.builds(
    lambda x, chis: SweepRow(axis_value=x, result=Susceptibility(*chis)),
    AXIS, st.tuples(FINITE, FINITE, FINITE, FINITE))
# error texts with what json.dumps escapes: quotes, backslashes, control
# characters and non-ASCII, without generating from all of Unicode
FAILED_ROW = st.builds(lambda x, text: SweepRow(axis_value=x, error=text),
                       AXIS, st.text('ab :"\\\n\t\x00\u00e9\u03ba\U0001f600',
                                     max_size=20))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.one_of(CLEAN_ROW, CLEAN_ROW, FAILED_ROW), max_size=8))
def test_block_writers_equal_per_value_references(tmp_path_factory, rows):
    # the block writers against the per-value references above: f"{v:.8e}"
    # through csv.writer, and float.__repr__ through json.dump; the ratios
    # of the references come from the scalar ``ratio``, one row at a time
    result = result_of(rows, axis_name="g1", params=quiet_params(),
                       fixed_omega=200.25)
    # the columns hold the signed inf that the writers blank
    for k, name in enumerate(("ratio_31", "ratio_33")):
        np.testing.assert_array_equal(result.column(name), [
            math.nan if r.result is None else ratios(r.result)[k]
            for r in rows])
    buf = io.StringIO()
    write_csv(result, buf)
    assert buf.getvalue() == csv_text(result)
    out = tmp_path_factory.getbasetemp() / "block_writers.json"
    write_json(result, out)
    assert out.read_text() == json.dumps(json_payload(result), indent=2) + "\n"
