import json
import subprocess
import sys

import pytest

from vkerr.cli import PRESETS, main


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


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "vkerr.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def _scipy_modules_after(code: str) -> list:
    probe = (f"import sys; {code}; "
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    return out.split()


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs most of the import time; importing the command line must
    # not pull it in
    assert _scipy_modules_after("import vkerr.cli") == []


def test_package_import_leaves_scipy_unloaded():
    assert _scipy_modules_after("import vkerr") == []


def test_time_domain_oracle_loads_no_scipy():
    # both oracles run on numpy alone
    assert _scipy_modules_after(
        "import vkerr; vkerr.time_domain_reference("
        "vkerr.coefficient_set(vkerr.SystemParams(g1=1.0, g2=3.0)), "
        "omega_p=1e-3, delta_p=2.0, n_samples=32)") == []
