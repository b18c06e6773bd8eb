import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from vkerr.cli import PRESETS, main
from vkerr.oracle import _MAX_N_MAX


@pytest.fixture
def config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "gamma1": 0.1, "gamma2": 0.1, "g1": 5, "g2": 15, "kappa": 100,
        "omega21": 200, "omega_L_rabi": 200, "delta": 0, "delta_c": 200,
    }))
    return str(cfg)


class TestPresets:
    def test_all_presets_exist(self):
        assert set(PRESETS) == {"fig2a", "fig2b", "fig2c", "fig3a", "fig3b",
                                "fig4a", "fig4b", "fig5"}

    def test_preset_parameters(self):
        base = PRESETS["fig2c"]["params"]
        assert base["kappa"] == 100.0 and base["g2"] == 15.0
        assert base["g1"] == 5.0 and base["delta_c"] == 200.0
        assert base["omega21"] == 200.0 and base["omega_L_rabi"] == 200.0
        assert PRESETS["fig2a"]["params"]["delta_c"] == 0.0
        assert PRESETS["fig2b"]["params"]["delta_c"] == 50.0
        assert PRESETS["fig3a"]["params"]["omega21"] == 250.0
        assert PRESETS["fig4a"]["params"]["gamma1"] == 0.001
        assert PRESETS["fig4b"]["params"]["gamma1"] == 0.001
        assert PRESETS["fig4b"]["axis"] == "g1"
        assert PRESETS["fig4b"]["omega"] == 200.122
        assert PRESETS["fig5"]["params"]["kappa"] == 200.0

    def test_figure_preset_default_grid(self, tmp_path, capsys):
        # without --start/--stop/--step a preset sweeps its own grid
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure-preset", "fig4b", "--out", str(a)]) == 0
        assert capsys.readouterr().err == f"fig4b: 201 rows (0 failed) -> {a}\n"
        grid = [str(v) for v in PRESETS["fig4b"]["grid"]]
        assert main(["figure-preset", "fig4b", "--out", str(b), "--start",
                     grid[0], "--stop", grid[1], "--step", grid[2]]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_figure_preset_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "fig2c.csv"
        rc = main(["figure-preset", "fig2c", "--out", str(out),
                   "--start", "200.0", "--stop", "200.5", "--step", "0.1"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("axis,")
        assert len(lines) == 7


class TestModes:
    def test_point(self, config_file, capsys):
        rc = main(["point", "--config", config_file, "--omega", "200.122"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega"] == 200.122
        assert payload["metadata"]["params"]["g2"] == 15.0
        assert "re_chi3" in payload

    def test_point_out_writes_what_it_prints(self, config_file, tmp_path,
                                             capsys):
        argv = ["point", "--config", config_file, "--omega", "200.122"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "point.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_sweep_csv_stdout(self, config_file, capsys):
        rc = main(["sweep", "--config", config_file, "--axis", "omega",
                   "--start", "200.0", "--stop", "200.2", "--step", "0.1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("axis,")
        assert len(lines) == 4

    def test_sweep_deterministic(self, config_file, tmp_path):
        args = ["sweep", "--config", config_file, "--axis", "omega",
                "--start", "200.0", "--stop", "200.2", "--step", "0.1",
                "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_features(self, config_file, capsys):
        rc = main(["features", "--config", config_file,
                   "--start", "199.5", "--stop", "201.0", "--step", "0.01"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["im_chi3_zeros"]
        assert payload["transparency_points"]

    def test_oracle_compare(self, config_file, capsys):
        rc = main(["oracle-compare", "--config", config_file,
                   "--fock-cutoff", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_abs_delta"] < 4e-3
        assert payload["metadata"]["fock_cutoff"] == 4

    def test_dump_coefficients(self, config_file, capsys):
        rc = main(["dump-coefficients", "--config", config_file])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cavity_response"]["B0"] == [pytest.approx(0.1),
                                                    pytest.approx(-0.2)]
        assert payload["basis"]["omega_R"] == 400.0

    def test_gamma12_flag(self, config_file, capsys):
        rc = main(["point", "--config", config_file, "--omega", "200.1",
                   "--gamma12", "0.05"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["gamma12"] == 0.05


_PARAMS = ["gamma1", "gamma2", "g1", "g2", "kappa", "omega21", "omega_L_rabi",
           "delta", "delta_c", "theta", "gamma12_override"]
_META = ["tool_version", "params", "gamma12"]
_SWEEP_META = _META + ["axis", "fixed_omega", "n_rows", "n_failed"]
_GRID = ["--start", "200.0", "--stop", "200.2", "--step", "0.1"]


@pytest.mark.parametrize("argv, option, value", [
    (["sweep", "--stop", "0.01", "--step", "0.005"], "--start", "-4.4e-05"),
    (["point"], "--omega", "-2.5E+01"),
    (["point", "--omega", "200.1"], "--gamma12", "-1e-03"),
    (["point"], "--omega", "-5."),
], ids=["start", "omega", "gamma12", "trailing-dot"])
def test_negative_exponent_value(config_file, capsys, argv, option, value):
    # argparse's own negative-number pattern has no exponent or trailing
    # dot; the value after a space must read as it does after "="
    spaced = main(argv + ["--config", config_file, option, value])
    spaced_out = capsys.readouterr().out
    joined = main(argv + ["--config", config_file, f"{option}={value}"])
    assert spaced == joined == 0
    assert spaced_out == capsys.readouterr().out != ""


class TestKeyOrder:
    """The JSON payloads' key order is part of their bytes: pin it."""

    @pytest.mark.parametrize("argv, top, meta", [
        (["point", "--omega", "200.1"],
         ["metadata", "omega", "re_chi1", "im_chi1", "re_chi3", "im_chi3"],
         _META),
        (["features"] + _GRID,
         ["metadata", "im_chi3_zeros", "re_chi3_extrema",
          "transparency_points", "transparency_fraction", "re_chi3_peak"],
         _SWEEP_META),
        (["oracle-compare", "--fock-cutoff", "4"],
         ["metadata", "elements", "max_abs_delta"], _META + ["fock_cutoff"]),
        (["dump-coefficients"],
         ["metadata", "gamma12", "basis", "cavity_response", "interference",
          "rates"], ["tool_version", "params"]),
    ])
    def test_stdout_payloads(self, config_file, capsys, argv, top, meta):
        assert main(argv + ["--config", config_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == top
        assert list(payload["metadata"]) == meta
        assert list(payload["metadata"]["params"]) == _PARAMS

    def test_payload_blocks(self, config_file, capsys):
        main(["oracle-compare", "--config", config_file, "--fock-cutoff", "4"])
        elements = json.loads(capsys.readouterr().out)["elements"]
        assert list(elements) == ["rho_11", "rho_mm", "rho_pp", "rho_m1"]
        assert all(list(e) == ["analytic", "oracle", "abs_delta", "rel_delta"]
                   for e in elements.values())
        main(["dump-coefficients", "--config", config_file])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["basis"]) == ["c", "s", "omega_R", "lambda_plus",
                                          "lambda_minus", "lambda_1"]
        assert list(payload["cavity_response"]) == ["B0", "B1", "B2", "B3", "B4"]
        assert list(payload["interference"]) == ["x1", "x2", "x3", "x4"]
        assert list(payload["rates"]) == [
            "R_plus_minus", "R_minus_plus", "R_1_minus", "R_1_plus", "Gamma0",
            "Gamma_minus", "Gamma_plus", "Gamma1", "Gamma2", "Gamma3",
            "gamma0_pair"]

    @pytest.mark.parametrize("argv, meta", [
        (["sweep", "--format", "json"] + _GRID, _SWEEP_META),
        (["figure-preset", "fig2c", "--format", "json"] + _GRID,
         _SWEEP_META + ["preset"]),
    ])
    def test_sweep_json(self, tmp_path, capsys, argv, meta):
        out = tmp_path / "rows.json"
        assert main(argv + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["metadata", "rows"]
        assert list(payload["metadata"]) == meta
        assert list(payload["rows"][0]) == ["axis", "re_chi1", "im_chi1",
                                            "re_chi3", "im_chi3", "ratio_31",
                                            "ratio_33"]


# vkerr point (omega 200.122) and dump-coefficients at the fig2c point of
# config_file, without the metadata: the records as the payloads write them
_POINT = {"omega": 200.122, "re_chi1": 0.040131838969248254,
          "im_chi1": 0.16573298818737808, "re_chi3": 0.7785852239600919,
          "im_chi3": 3.803137991258217}
_B0 = [0.10000000000000003, -0.20000000000000007]
_B1 = [0.013513513513513516, -0.0810810810810811]
_IM_X = -0.21081081081081088
_GAMMA0 = [0.7277027027027031, 0.13378378378378386]
_GAMMA_MINUS = [0.30608108108108123, -0.2459459459459461]
_GAMMA_PLUS = [0.40337837837837853, 0.07027027027027029]
_COEFFICIENTS = {
    "gamma12": 0.0,
    "basis": {"c": 0.7071067811865476, "s": 0.7071067811865476,
              "omega_R": 400.0, "lambda_plus": 200.0, "lambda_minus": -200.0,
              "lambda_1": -200.0},
    "cavity_response": {"B0": _B0, "B1": _B1, "B2": [_B0[0], -_B0[1]],
                        "B3": _B1, "B4": _B0},
    "interference": {"x1": [0.0648648648648649, _IM_X],
                     "x2": [0.08513513513513515, _IM_X],
                     "x3": [0.23513513513513523, _IM_X],
                     "x4": [0.08513513513513515, _IM_X]},
    "rates": {"R_plus_minus": 0.27500000000000013,
              "R_minus_plus": 0.08040540540540544,
              "R_1_minus": 0.15000000000000005,
              "R_1_plus": 0.10675675675675679,
              "Gamma0": _GAMMA0, "Gamma_minus": _GAMMA_MINUS,
              "Gamma_plus": _GAMMA_PLUS,
              "Gamma1": [_GAMMA0[0], 400.13378378378377],
              "Gamma2": _GAMMA_PLUS, "Gamma3": _GAMMA_MINUS,
              "gamma0_pair": [_GAMMA0[0], -0.3162162162162164]},
}


class TestRecordPayloads:
    """point and dump-coefficients write records field by field: pin them."""

    def test_point(self, config_file, capsys):
        assert main(["point", "--config", config_file, "--omega", "200.122"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["metadata", *_POINT]
        # chi comes out of LAPACK solves, whose last bits may differ by CPU
        assert [payload[k] for k in _POINT] == pytest.approx(
            list(_POINT.values()), rel=1e-12)

    def test_dump_coefficients(self, config_file, capsys):
        assert main(["dump-coefficients", "--config", config_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["metadata"]
        # elementwise arithmetic only: keys, order and every bit
        assert json.dumps(payload) == json.dumps(_COEFFICIENTS)


class TestFlags:
    """Each mode takes only the flags it acts on; others are usage errors."""

    @pytest.mark.parametrize("argv", [
        ["point", "--omega", "200", "--format", "csv"],
        ["features", "--format", "json"] + _GRID,
        ["oracle-compare", "--format", "json"],
        ["dump-coefficients", "--format", "csv"],
        ["figure-preset", "fig3b", "--config", "x.json"],
        ["figure-preset", "fig4b", "--axis", "g2"],
        ["figure-preset", "fig4b", "--omega", "200"],
    ])
    def test_ignored_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_figure_preset_runs_the_sweep(self, tmp_path, capsys):
        # a preset is the sweep mode with the preset's parameters and axis
        preset = PRESETS["fig4b"]
        config = tmp_path / "fig4b.json"
        config.write_text(json.dumps(preset["params"]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = ["--start", "0", "--stop", "1", "--step", "0.5"]
        assert main(["figure-preset", "fig4b", "--out", str(a)] + grid) == 0
        assert capsys.readouterr().err == f"fig4b: 3 rows (0 failed) -> {a}\n"
        assert main(["sweep", "--config", str(config), "--axis", "g1",
                     "--omega", str(preset["omega"]), "--out", str(b)]
                    + grid) == 0
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_machine_readable_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"gamma1": -1}')
        rc = main(["point", "--config", str(cfg), "--omega", "200.0"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert payload["error"]["type"] == "ValueError"

    def test_non_finite_point_is_an_error(self, tmp_path, capsys):
        # decay rates of 1e-300 overflow the solution at omega = 200: a typed
        # error and a nonzero exit, not "NaN" in the payload
        cfg = tmp_path / "tiny.json"
        cfg.write_text('{"gamma1": 1e-300, "gamma2": 1e-300}')
        rc = main(["point", "--config", str(cfg), "--omega", "200"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        payload = json.loads(captured.err.splitlines()[-1])
        assert payload["error"]["type"] in ("SingularKernel",
                                            "SingularSteadyState")

    def test_missing_grid(self, config_file, capsys):
        rc = main(["sweep", "--config", config_file])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert "step" in payload["error"]["message"]

    def test_non_finite_override_in_config(self, tmp_path, capsys):
        # json.load accepts NaN; the error names the field
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"gamma12_override": NaN}')
        rc = main(["point", "--config", str(cfg), "--omega", "200"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {"error": {
            "type": "ValueError", "message": "gamma12_override must be finite"}}

    def test_non_finite_grid(self, config_file, capsys):
        rc = main(["sweep", "--config", config_file, "--start", "nan",
                   "--stop", "210", "--step", "0.5"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {"error": {
            "type": "ValueError", "message": "grid values must be finite"}}

    @pytest.mark.parametrize("argv, message", [
        (["--start", "-1e308", "--stop", "1e308", "--step", "1e307"],
         "grid step count (stop - start) / step must be finite"),
        (["--axis", "g1", "--omega", "200", "--start", "2", "--stop", "1",
          "--step", "0.5"], "grid must not be empty"),
        (["--start", "190", "--stop", "210", "--step", "1e-12"],
         "grid of 20000000000001 points above the cap of 200000"),
        (["--start", "190", "--stop", "210", "--step", "0"],
         "step must be positive"),
        (["--start", "190", "--step", "0.1"], "need --start and --stop"),
    ], ids=["overflowing-range", "empty-g1-grid", "tiny-step", "zero-step",
            "no-stop"])
    def test_bad_grid_is_a_value_error(self, config_file, capsys, argv,
                                       message):
        # finite ends whose difference overflows, or a step so small that
        # the grid would not fit in memory, are refused like every other
        # bad grid, and the message fits any axis, not just omega
        rc = main(["sweep", "--config", config_file] + argv)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {"error": {
            "type": "ValueError", "message": message}}

    def test_fock_cutoff_above_cap_is_a_value_error(self, config_file,
                                                    capsys):
        # refused before the solve allocates its ~n_max^3 slabs
        rc = main(["oracle-compare", "--config", config_file,
                   "--fock-cutoff", str(_MAX_N_MAX + 1)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {"error": {
            "type": "ValueError",
            "message": f"n_max {_MAX_N_MAX + 1} above the cap of {_MAX_N_MAX}"}}

    @pytest.mark.parametrize("argv, named", [
        (["sweep", "--axis", "omega", "--omega", "5", "--format", "json"],
         "fixed omega"),
        (["features", "--transparency-frac", "nan"], "transparency_fraction"),
    ], ids=["omega-on-omega-axis", "nan-transparency-fraction"])
    def test_conflicting_or_invalid_value_is_an_error(
            self, config_file, tmp_path, capsys, argv, named):
        # neither exits 0 with the value written into the metadata
        out = tmp_path / "out.json"
        rc = main(argv + ["--config", config_file, "--out", str(out),
                          "--start", "200", "--stop", "200.2", "--step", "0.1"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and not out.exists()
        error = json.loads(captured.err.splitlines()[-1])["error"]
        assert error["type"] == "ValueError" and named in error["message"]

    def test_json_sweep_without_out_fails_before_sweeping(
            self, config_file, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            pytest.fail("the sweep ran before --out was checked")
        monkeypatch.setattr("vkerr.cli.sweep", no_sweep)
        rc = main(["sweep", "--config", config_file, "--start", "190",
                   "--stop", "210", "--step", "0.005", "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert payload["error"]["message"] == "json sweep output needs --out"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "vkerr.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


# the names the benchmark harness reaches in the package: the layer
# functions it traces, the calls of its library job and SystemParams
_BENCHMARK_NAMES = ("load_config", "coefficient_set", "sweep", "find_features",
                    "write_csv", "write_json", "zeroth_order_steady_state",
                    "lindblad_steady_state", "converged_steady_state",
                    "time_domain_reference", "chi", "SystemParams")


# the package surface; a new export is a reviewed change to this list
_EXPORTS = [
    "CavityResponse", "CoefficientSet", "DegenerateDressing",
    "DegenerateNullSpace", "DressedBasis", "FeatureReport", "FockTruncation",
    "InterferenceTerms", "LimitCycleRecord", "NoLimitCycle",
    "NonConvergedTruncation", "NonHermitianGenerator", "RateSet",
    "RegimeAdvisory", "SingularKernel", "SingularSteadyState", "SteadyState0",
    "Susceptibility", "SweepResult", "SweepRow", "SystemParams", "__version__",
    "axis_grid", "chi", "coefficient_set", "converged_steady_state",
    "effective_gamma12", "find_features", "lindblad_steady_state",
    "load_config", "sweep", "time_domain_reference", "write_csv",
    "write_json", "zeroth_order_steady_state"]


def test_exported_names_resolve():
    import vkerr
    from vkerr import dressed, floquet, oracle, params, susceptibility
    modules = (dressed, floquet, oracle, params, susceptibility)
    for module in (vkerr, *modules):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    assert set(_BENCHMARK_NAMES) <= set(vkerr.__all__)
    assert sorted(vkerr.__all__) == _EXPORTS
    # dir lists the names that __getattr__ serves from vkerr.oracle
    assert set(vkerr._ORACLE_NAMES) <= set(dir(vkerr))
    # the package exports exactly its modules' public names, each once
    assert oracle.__all__ is vkerr._ORACLE_NAMES
    union = ["__version__", *(name for module in modules for name in module.__all__)]
    assert len(union) == len(set(union))
    assert sorted(vkerr.__all__) == sorted(union)


def _modules_after(code: str, prefixes) -> list:
    """The loaded modules under ``prefixes`` after ``code`` runs in a fresh
    interpreter: each prefix names a module and its submodules."""
    dotted = tuple(prefix + "." for prefix in prefixes)
    probe = (f"import sys; {code}; "
             f"print(*sorted(m for m in sys.modules if (m + '.').startswith({dotted!r})))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    return out.split()


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs most of the import time; importing the command line must
    # not pull it in
    assert _modules_after("import vkerr.cli", ["scipy"]) == []


def test_package_import_leaves_scipy_unloaded():
    assert _modules_after("import vkerr", ["scipy"]) == []


def test_time_domain_oracle_loads_no_scipy():
    # both oracles run on numpy alone
    assert _modules_after(
        "import vkerr; vkerr.time_domain_reference("
        "vkerr.coefficient_set(vkerr.SystemParams(g1=1.0, g2=3.0)), "
        "omega_p=1e-3, delta_p=2.0)", ["scipy"]) == []


def _runs(*argv) -> str:
    """Code that runs ``vkerr *argv`` in-process, output to the null device."""
    return (f"import os; from vkerr.cli import main; "
            f"assert main({list(argv)!r} + ['--out', os.devnull]) == 0")


@pytest.mark.parametrize("code", [
    "import vkerr.cli",
    _runs("point", "--omega", "200.1"),
    _runs("sweep", "--start", "199", "--stop", "201", "--step", "0.5"),
], ids=["import", "point", "sweep"])
def test_commands_load_no_oracle_and_no_dataclasses(code):
    # a command pays at start-up only for what it runs: the oracles are
    # compiled for oracle-compare alone, and the records are NamedTuples,
    # which generate no dataclass code
    assert _modules_after(code, ["vkerr.oracle", "dataclasses"]) == []


def test_oracle_compare_loads_no_numpy_random():
    # the condition estimate's right-hand sides are fixed chirps
    code = _runs("oracle-compare", "--fock-cutoff", "2")
    assert _modules_after(code, ["numpy.random", "dataclasses"]) == []


def test_oracle_names_resolve_lazily():
    # listing the package loads nothing; getattr and `import *` load
    # vkerr.oracle and hand out its own objects
    listed = "import vkerr; assert set(vkerr.__all__) <= set(dir(vkerr))"
    assert _modules_after(listed, ["vkerr.oracle"]) == []
    resolved = ("import vkerr; from vkerr import *; from vkerr import oracle; "
                "assert all(getattr(vkerr, n) is getattr(oracle, n) is globals()[n] "
                "for n in vkerr._ORACLE_NAMES)")
    assert _modules_after(resolved, ["vkerr.oracle"]) == ["vkerr.oracle"]


_SPIN_VARS = ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")


def _child_env(**blas):
    # conftest's `import vkerr` has put the variable into this process too
    env = {k: v for k, v in os.environ.items() if k not in _SPIN_VARS}
    return dict(env, **blas)


def _numpy_uses_openblas() -> bool:
    import numpy
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        numpy.show_config()
    return "openblas" in text.getvalue().lower()


@pytest.mark.skipif(not _numpy_uses_openblas(),
                    reason="numpy is not linked against OpenBLAS")
def test_package_import_caps_the_blas_spin():
    # without the cap each idle OpenBLAS worker spins for 2**28 cycles after
    # a threaded call: ~0.13 s of CPU over this sleep on two cores
    probe = ("import time, vkerr, numpy as np; "
             "a = np.random.default_rng(0).standard_normal((729, 1458)); "
             "a = a[:, :729] + 1j * a[:, 729:]; np.linalg.solve(a, a); "
             "t = time.process_time(); time.sleep(0.3); "
             "print(time.process_time() - t)")
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert float(out) < 0.01


@pytest.mark.parametrize("blas", [
    {"OPENBLAS_THREAD_TIMEOUT": "28"}, {"GOTO_THREAD_TIMEOUT": "28"}],
    ids=["OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT"])
def test_users_spin_setting_wins(blas):
    probe = ("import os; before = dict(os.environ); import vkerr; "
             "print(dict(os.environ) == before)")
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(**blas),
                         capture_output=True, text=True, check=True).stdout
    assert out == "True\n"
