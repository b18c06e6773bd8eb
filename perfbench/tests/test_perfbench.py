"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload on coarse grids (`--tiny`), about a
minute in all.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
import jobs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


def _specs(workload, seed, pass_index=0):
    return [j.spec() for j in jobs.make_jobs(workload, seed, pass_index)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for k in range(3):
        assert _specs(workload, 7, k) == _specs(workload, 7, k)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_different_seed_different_inputs(workload):
    assert _specs(workload, 1) != _specs(workload, 2)
    assert _specs(workload, 1, 0) != _specs(workload, 1, 1)


def test_seed_zero_is_the_published_presets():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from vkerr.cli import PRESETS

    spectra = {j.name: j for j in jobs.make_jobs("spectra", 0)}
    for name in ("fig2a", "fig2c", "fig4a", "fig5"):
        assert spectra[name].params == PRESETS[name]["params"]
        assert (spectra[name].start, spectra[name].stop,
                spectra[name].step) == PRESETS[name]["grid"]
        assert spectra[name].rows == 4001
    features = spectra["fig3b-features"]
    assert features.params == PRESETS["fig3b"]["params"]
    assert (features.start, features.stop, features.step) == PRESETS["fig3b"]["grid"]

    scans = {j.name: j for j in jobs.make_jobs("scans", 0)}
    assert scans["scan-g1"].params == PRESETS["fig4b"]["params"]
    assert scans["scan-g1"].omega == PRESETS["fig4b"]["omega"]
    assert all(j.rows == 2001 for j in scans.values())

    oracles = {j.name: j for j in jobs.make_jobs("oracles", 0)}
    assert oracles["time-domain"].delta_p == 0.25
    assert all(j.params == PRESETS["fig2c"]["params"] for j in oracles.values())


def test_time_domain_draw_in_range():
    # pass k draws from the (k mod 3)-th third of [0.15, 0.3]
    for k in range(6):
        low = 0.15 + 0.05 * (k % 3)
        draws = [jobs.make_jobs("oracles", seed, k)[2].delta_p
                 for seed in range(1, 30)]
        assert all(low <= d <= low + 0.05 for d in draws)


def test_reference_encoding_round_trip():
    data = {"a": [0.0, 1.5, -2.25e-3, 3.0], "b": [1e-12, -4e-12]}
    decoded = checks.decode(checks.encode(data))
    assert checks.compare(data, decoded) == []
    bumped = dict(data, a=[0.0, 1.5, -2.25e-3, 3.0 * (1 + 1e-5)])
    assert checks.compare(bumped, decoded)


def test_compare_ignores_zero_crossings():
    # a near-zero value off by much more than itself, far below the peak
    ref = {"im_chi3": [-1.0, 1e-12, 1.0]}
    assert checks.compare({"im_chi3": [-1.0, 3e-9, 1.0]}, ref) == []


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    text = {line.split()[0]: line.split()[2] for line in lines[:-1]
            if len(line.split()) > 2}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"])
        assert text[metric["name"]] == metric["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = _run(["--workload", "spectra", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _alter_recorded_value(path):
    with gzip.open(path, "rt") as f:
        recorded = json.load(f)
    column = recorded["jobs"]["oracle-auto"]["data"]["rho_11.analytic"]
    column["peak"] *= 1 + 1e-3
    with gzip.open(path, "wt") as f:
        json.dump(recorded, f)


@pytest.mark.parametrize("damage", ("removed", "altered"))
def test_seed_zero_fails_without_a_matching_reference(tmp_path, damage):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    reference = tmp_path / "perfbench" / "references" / "oracles.json.gz"
    if damage == "removed":
        reference.unlink()
    else:
        _alter_recorded_value(reference)
    done = _run(["--workload", "oracles", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == (3 if damage == "removed" else 1)

