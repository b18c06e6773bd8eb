#!/usr/bin/env python3
"""The vkerr benchmark.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout: the program is imported from
the checkout's `src/` (no install needed).  Workloads:

  spectra  four 4001-row probe-detuning sweeps (CSV) around the fig2a,
           fig2c, fig4a and fig5 presets, plus one `features` job on the
           fig3b window; the per-row harmonic solve with shared
           coefficients dominates
  scans    four 2001-row parameter-axis sweeps (JSON) over g1, kappa,
           delta_c and theta at a fixed omega; every row rebuilds its
           parameters and coefficients
  oracles  `oracle-compare` at Fock cutoff 8 and with the automatic cutoff,
           and the time-domain oracle at a seeded probe detuning

With `--trace 0` every job is a fresh `python -m vkerr.cli ...` subprocess
(the library job runs `perfbench/jobs.py`), run one at a time by one
client in a closed loop.  One pass times two fresh-process
`import vkerr.cli` and then runs the workload's jobs once; each pass draws
fresh inputs from (seed, pass), and passes repeat until the next one would
end after `--seconds`.  Reported: `setup_s`, the median import time; the
per-pass medians `wall_s` (sum of job wall times)
and `cpu_s` (children's user+sys time from wait4); `job_p50_s` over all
jobs; `rows_per_s`, output records (sweep rows; one per steady-state
element or time-domain point on `oracles`) per second of job wall time,
median over passes;
and `peak_rss_mb`, the largest child's max RSS.

With `--trace 1` the same jobs are replayed in one process through the
public API and the per-layer metrics of `tracing.py` are reported instead.

Every output is checked (`checks.py`).  A failed job, a failed row or a
check mismatch makes the job count as failed; the run goes on.  The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs as jobs_mod  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PER_PASS = 2
JOB_TIMEOUT_S = 120.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# output records of the jobs that write no sweep rows
_ORACLE_RECORDS = {"oracle-compare": 4, "time-domain": 1}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int


def run_child(argv, stderr_path: str, timeout: float = JOB_TIMEOUT_S) -> ChildRun:
    """Run one subprocess to completion; wall, rusage and exit code."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                    proc.returncode)


def job_command(job, config: str, out: str) -> list:
    if job.is_cli:
        return [sys.executable, "-m", "vkerr.cli"] + job.argv(config, out)
    return [sys.executable, os.path.join(HERE, "jobs.py")] + job.argv(config, out)


def job_records(job) -> int:
    return job.rows if job.rows else _ORACLE_RECORDS[job.mode]


def machine() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# untraced end-to-end run
# ---------------------------------------------------------------------------

def measure_setup(work: str) -> list:
    argv = [sys.executable, "-c", "import vkerr.cli"]
    runs = [run_child(argv, os.path.join(work, "setup.stderr"))
            for _ in range(SETUP_PER_PASS)]
    if any(r.code != 0 for r in runs):
        raise RuntimeError("`import vkerr.cli` failed; see "
                           + os.path.join(work, "setup.stderr"))
    return [r.wall_s for r in runs]


def run_pass(job_list, work: str, references: dict, required: bool,
             tally: checks.Tally, problems: list) -> list:
    os.makedirs(work, exist_ok=True)
    runs = []
    for job in job_list:
        config = os.path.join(work, f"{job.name}.config.json")
        out = os.path.join(work, job.out_name)
        with open(config, "w") as f:
            json.dump(job.params, f)
        child = run_child(job_command(job, config, out),
                          os.path.join(work, f"{job.name}.stderr"))
        outcome = checks.check_output(job, out, references.get(job.name),
                                      required)
        tally.add(child.code, outcome, job.name, problems)
        runs.append((job, child, outcome))
    return runs


def end_to_end(workload, seed, seconds, tiny, work) -> tuple:
    """Passes until the next one would end after `seconds`; at least one.

    Each pass starts with SETUP_PER_PASS fresh imports, so the set-up
    samples are spread over the run like the job samples.
    """
    references = checks.load_references(workload)
    required = seed == 0 and not tiny
    tally, problems, passes, setup = checks.Tally(), [], [], []
    start = time.perf_counter()
    pass_s = 0.0
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        k = len(passes)
        setup += measure_setup(work)
        job_list = jobs_mod.make_jobs(workload, seed, k, tiny)
        passes.append(run_pass(job_list, os.path.join(work, f"p{k}"),
                               references, required, tally, problems))
        pass_s = time.perf_counter() - t0

    walls = [c.wall_s for runs in passes for _, c, _ in runs]
    pass_walls = [sum(c.wall_s for _, c, _ in runs) for runs in passes]
    pass_records = [sum(job_records(j) for j, _, _ in runs) for runs in passes]
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(pass_walls), len(passes)),
        "job_p50_s": (statistics.median(walls), len(walls)),
        "rows_per_s": (statistics.median(r / w for r, w in
                                         zip(pass_records, pass_walls)),
                       len(passes)),
        "cpu_s": (statistics.median(sum(c.cpu_s for _, c, _ in runs)
                                    for runs in passes), len(passes)),
        "peak_rss_mb": (max(c.maxrss_kb for runs in passes
                            for _, c, _ in runs) / 1024.0, len(walls)),
    }
    return metrics, tally, problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="vkerr benchmark: one workload, one seed, one run")
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 runs the published presets")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time of the run (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: in-process traced replay, per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="coarse grids (smoke tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vkerr", "cli.py")):
        sys.stderr.write(f"perfbench: no vkerr sources under {SRC}; run it "
                         "inside a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(OUT, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            import tracing
            metrics, tally, problems = tracing.run(
                args.workload, args.seed, args.seconds, args.tiny, work)
            units = tracing.LAYER_UNITS
        else:
            metrics, tally, problems = end_to_end(args.workload, args.seed,
                                                  args.seconds, args.tiny, work)
            metrics = {k: v + ("",) for k, v in metrics.items()}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(tally.summary())
    for p in problems[:20]:
        sys.stderr.write(f"check: {p}\n")
    for name, unit in units.items():
        value, samples, source = metrics[name]
        print(f"{name:<46} {value:>14.6g} {unit:<6} n={samples} {source}".rstrip())
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(dict(result, machine=info, samples={
            name: metrics[name][1] for name in units}), f, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
