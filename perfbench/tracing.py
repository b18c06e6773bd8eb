"""Traced in-process replay: per-layer numbers for one workload.

Each pass replays the workload's jobs three times in this process:

* untraced, through `vkerr.cli.main(argv)` (the library job through its
  function), which gives `cli.main_s`;
* traced, the same calls with a span recorded around every call into a
  layer's public function (the functions are rebound in every `vkerr`
  module, so calls between modules are caught too);
* split, the rows of every sweep evaluated directly as
  `SystemParams.replace` -> `coefficient_set` -> `chi(..., coeffs=...)`
  (an omega sweep builds its `SystemParams` and coefficients once).

`trace.overhead_s` is the traced replay minus the untraced one.  A layer
that the workload's own jobs never call is timed on a fixed probe job at
the sideband point, so every per-layer metric carries a value; the text
report marks those values as `probe`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import checks
import jobs as jobs_mod
from jobs import SIDEBAND, Job

LAYER_UNITS = {
    "cli.main_s": "s",
    "params.load_config_us": "us",
    "params.construct_us": "us",
    "params.construct_count": "count",
    "dressed.coefficient_set_us": "us",
    "dressed.coefficient_set_calls_per_job": "count",
    "susceptibility.chi_us": "us",
    "susceptibility.sweep_s": "s",
    "susceptibility.sweep_rows_per_s": "1/s",
    "susceptibility.failed_rows": "count",
    "susceptibility.find_features_s": "s",
    "susceptibility.write_csv_s": "s",
    "susceptibility.write_json_s": "s",
    "susceptibility.output_bytes": "bytes",
    "susceptibility.sweep_split.params_s": "s",
    "susceptibility.sweep_split.coefficient_set_s": "s",
    "susceptibility.sweep_split.chi_s": "s",
    "susceptibility.sweep_split.covered_frac": "ratio",
    "floquet.zeroth_order_us": "us",
    "oracle.lindblad_s.n4": "s",
    "oracle.lindblad_s.n8": "s",
    "oracle.converged_s": "s",
    "oracle.converged_n_max": "count",
    "oracle.time_domain_s": "s",
    "trace.overhead_s": "s",
}

_FIG3B = dict(axis="omega", start=199.0, stop=201.5, step=0.005)
_ORACLE = ("floquet.", "oracle.lindblad", "oracle.converged")
# probe jobs time the layers a workload does not reach, at the sideband
# point; each is paired with the metric-name prefixes it can supply
PROBES = (
    (Job(name="probe-sweep-csv", mode="sweep", params=dict(SIDEBAND),
         **_FIG3B), ("susceptibility.",)),
    (Job(name="probe-sweep-json", mode="sweep", fmt="json",
         params=dict(SIDEBAND), **_FIG3B), ("susceptibility.",)),
    (Job(name="probe-features", mode="features", fmt="json",
         params=dict(SIDEBAND), **_FIG3B), ("susceptibility.find_features",)),
    (Job(name="probe-oracle-n4", mode="oracle-compare", fmt="json",
         params=dict(SIDEBAND), fock_cutoff=4),
     _ORACLE),
    (Job(name="probe-oracle-n8", mode="oracle-compare", fmt="json",
         params=dict(SIDEBAND), fock_cutoff=8),
     _ORACLE),
    (Job(name="probe-oracle-auto", mode="oracle-compare", fmt="json",
         params=dict(SIDEBAND)),
     _ORACLE),
    (Job(name="probe-time-domain", mode="time-domain", fmt="json",
         params=dict(SIDEBAND), delta_p=0.25), ("oracle.time_domain",)),
)


@dataclass(frozen=True)
class Span:
    name: str
    pass_index: int
    seconds: float
    attrs: dict | None


class Recorder:
    """Spans kept in memory; the caller names the current pass."""

    def __init__(self):
        self.spans: list = []
        self.pass_index = 0

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                seconds = time.perf_counter() - start
                info = attrs(args, kwargs, result) if attrs else None
                self.spans.append(Span(name, self.pass_index, seconds, info))
        return traced


def _n_max(args, kwargs, result):
    trunc = args[1] if len(args) > 1 else kwargs.get("trunc")
    return {"n_max": trunc.n_max}


def _converged(args, kwargs, result):
    return None if result is None else {"n_max": result[1].n_max}


def _sweep(args, kwargs, result):
    if result is None:
        return None
    return {"rows": len(result.rows), "failed": result.n_failed}


# span name, public name in the vkerr package, span attributes
TRACED = (
    ("params.load_config", "load_config", None),
    ("dressed.coefficient_set", "coefficient_set", None),
    ("susceptibility.sweep", "sweep", _sweep),
    ("susceptibility.find_features", "find_features", None),
    ("susceptibility.write_csv", "write_csv", None),
    ("susceptibility.write_json", "write_json", None),
    ("floquet.zeroth_order", "zeroth_order_steady_state", None),
    ("oracle.lindblad", "lindblad_steady_state", _n_max),
    ("oracle.converged", "converged_steady_state", _converged),
    ("oracle.time_domain", "time_domain_reference", None),
)


@contextmanager
def installed(recorder: Recorder):
    """Rebind every traced function, wherever a vkerr module holds it."""
    import vkerr
    modules = [m for name, m in sys.modules.items()
               if name == "vkerr" or name.startswith("vkerr.")]
    patches = []
    for span_name, public, attrs in TRACED:
        original = getattr(vkerr, public)
        traced = recorder.wrap(span_name, original, attrs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, traced)
    cls = vkerr.SystemParams
    patches.append((cls, "__init__", cls.__init__))
    cls.__init__ = recorder.wrap("params.construct", cls.__init__)
    try:
        yield recorder
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def _run_job(job: Job, config: str, out: str) -> int:
    import vkerr.cli
    if job.is_cli:
        return vkerr.cli.main(job.argv(config, out))
    jobs_mod.run_time_domain(config, job.delta_p, out)
    return 0


def _replay(job_list, paths) -> tuple:
    """Run every job once; returns (total seconds, CLI seconds, exit codes)."""
    total = cli = 0.0
    codes = []
    for job in job_list:
        t0 = time.perf_counter()
        try:
            code = _run_job(job, *paths[job.name])
        except Exception as exc:      # a failed job is counted, not fatal
            sys.stderr.write(f"{job.name}: {type(exc).__name__}: {exc}\n")
            code = 1
        dt = time.perf_counter() - t0
        total += dt
        cli += dt if job.is_cli else 0.0
        codes.append(code)
    return total, cli, codes


def _split(job_list) -> dict:
    """Direct per-row replace / coefficient_set / chi timings of the sweeps."""
    from vkerr import SystemParams, chi, coefficient_set
    clock = time.perf_counter
    out = {"params": 0.0, "coefficient_set": 0.0, "chi": 0.0, "chi_rows": []}
    for job in job_list:
        if job.mode not in ("sweep", "features"):
            continue
        t0 = clock()
        base = SystemParams(**job.params)
        out["params"] += clock() - t0
        shared = None
        if job.axis == "omega":
            t0 = clock()
            shared = coefficient_set(base)
            out["coefficient_set"] += clock() - t0
        for value in job.values():
            try:
                if shared is None:
                    t0 = clock()
                    params = base.replace(**{job.axis: value})
                    t1 = clock()
                    coeffs = coefficient_set(params)
                    t2 = clock()
                    chi(params, job.omega, coeffs=coeffs)
                    t3 = clock()
                    out["params"] += t1 - t0
                    out["coefficient_set"] += t2 - t1
                else:
                    t2 = clock()
                    chi(base, value, coeffs=shared)
                    t3 = clock()
            except (ArithmeticError, ValueError):
                continue
            out["chi"] += t3 - t2
            out["chi_rows"].append(t3 - t2)
    return out


def _prepare(job_list, work: str) -> dict:
    os.makedirs(work, exist_ok=True)
    paths = {}
    for job in job_list:
        config = os.path.join(work, f"{job.name}.config.json")
        with open(config, "w") as f:
            json.dump(job.params, f)
        paths[job.name] = (config, os.path.join(work, job.out_name))
    return paths


@dataclass
class PassRecord:
    untraced_s: float
    traced_s: float
    cli_s: float
    output_bytes: int
    split: dict


def _traced_pass(job_list, paths, recorder, pass_index) -> tuple:
    recorder.pass_index = pass_index
    with installed(recorder):
        total, _, codes = _replay(job_list, paths)
    size = sum(os.path.getsize(paths[j.name][1]) for j, code in
               zip(job_list, codes) if j.mode == "sweep" and code == 0)
    return total, size


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _per_pass(spans, n_passes) -> list:
    sums = [0.0] * n_passes
    for s in spans:
        sums[s.pass_index] += s.seconds
    return sums


def layer_metrics(spans, records, n_jobs) -> dict:
    """Metric name -> (value, sample count) for what the spans cover."""
    n_passes = len(records)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    m = {}

    def per_call_us(name, key, select=lambda s: True):
        durations = [s.seconds for s in by[name] if select(s)]
        if durations:
            m[key] = (statistics.median(durations) * 1e6, len(durations))

    def per_call_s(name, key, select=lambda s: True):
        durations = [s.seconds for s in by[name] if select(s)]
        if durations:
            m[key] = (statistics.median(durations), len(durations))

    def per_pass_s(name, key):
        if by[name]:
            m[key] = (statistics.median(_per_pass(by[name], n_passes)),
                      len(by[name]))

    per_call_us("params.load_config", "params.load_config_us")
    per_call_us("params.construct", "params.construct_us")
    if by["params.construct"]:
        counts = [0] * n_passes
        for s in by["params.construct"]:
            counts[s.pass_index] += 1
        m["params.construct_count"] = (statistics.median(counts), n_passes)
    per_call_us("dressed.coefficient_set", "dressed.coefficient_set_us")
    if by["dressed.coefficient_set"] and n_jobs:
        m["dressed.coefficient_set_calls_per_job"] = (
            len(by["dressed.coefficient_set"]) / n_jobs, n_jobs)
    per_call_us("floquet.zeroth_order", "floquet.zeroth_order_us")

    sweeps = [s for s in by["susceptibility.sweep"] if s.attrs]
    if sweeps:
        per_pass_s("susceptibility.sweep", "susceptibility.sweep_s")
        rows = sum(s.attrs["rows"] for s in sweeps)
        busy = sum(s.seconds for s in sweeps)
        m["susceptibility.sweep_rows_per_s"] = (rows / busy, len(sweeps))
        m["susceptibility.failed_rows"] = (
            sum(s.attrs["failed"] for s in sweeps), len(sweeps))
        sizes = [r.output_bytes for r in records]
        if any(sizes):
            m["susceptibility.output_bytes"] = (statistics.median(sizes),
                                                n_passes)
        splits = [r.split for r in records]
        chi_rows = [t for sp in splits for t in sp["chi_rows"]]
        if chi_rows:
            m["susceptibility.chi_us"] = (statistics.median(chi_rows) * 1e6,
                                          len(chi_rows))
            for part in ("params", "coefficient_set", "chi"):
                m[f"susceptibility.sweep_split.{part}_s"] = (
                    statistics.median(sp[part] for sp in splits), n_passes)
            covered = sum(sp["params"] + sp["coefficient_set"] + sp["chi"]
                          for sp in splits)
            m["susceptibility.sweep_split.covered_frac"] = (covered / busy,
                                                            n_passes)
    per_pass_s("susceptibility.find_features", "susceptibility.find_features_s")
    per_pass_s("susceptibility.write_csv", "susceptibility.write_csv_s")
    per_pass_s("susceptibility.write_json", "susceptibility.write_json_s")

    for n in (4, 8):
        per_call_s("oracle.lindblad", f"oracle.lindblad_s.n{n}",
                   lambda s, n=n: s.attrs["n_max"] == n)
    per_call_s("oracle.converged", "oracle.converged_s")
    reached = [s.attrs["n_max"] for s in by["oracle.converged"] if s.attrs]
    if reached:
        m["oracle.converged_n_max"] = (max(reached), len(reached))
    per_call_s("oracle.time_domain", "oracle.time_domain_s")
    return m


def _replay_metrics(records) -> dict:
    n = len(records)
    return {
        "cli.main_s": (statistics.median(r.cli_s for r in records), n),
        "trace.overhead_s": (statistics.median(r.traced_s - r.untraced_s
                                               for r in records), n),
    }


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, tiny: bool,
        work: str) -> tuple:
    """(metrics: name -> (value, samples, source), tally, problems)."""
    import vkerr.cli  # noqa: F401  (import is not part of any layer metric)

    references = checks.load_references(workload)
    required = seed == 0 and not tiny
    recorder = Recorder()
    records = []
    tally, problems = checks.Tally(), []
    start = time.perf_counter()
    pass_s = 0.0
    k = 0
    # the pass rule of the untraced run: stop before overrunning `seconds`
    while k == 0 or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        job_list = jobs_mod.make_jobs(workload, seed, k, tiny)
        paths = _prepare(job_list, os.path.join(work, f"trace-p{k}"))
        # alternate the order, so neither replay always runs warm
        if k % 2 == 0:
            untraced, cli_s, codes = _replay(job_list, paths)
            traced, size = _traced_pass(job_list, paths, recorder, k)
        else:
            traced, size = _traced_pass(job_list, paths, recorder, k)
            untraced, cli_s, codes = _replay(job_list, paths)
        for job, code in zip(job_list, codes):
            outcome = checks.check_output(job, paths[job.name][1],
                                          references.get(job.name), required)
            tally.add(code, outcome, job.name, problems)
        records.append(PassRecord(untraced, traced, cli_s, size,
                                  _split(job_list)))
        pass_s = time.perf_counter() - t0
        k += 1

    metrics = {name: value + ("workload",) for name, value in
               {**layer_metrics(recorder.spans, records, tally.attempted),
                **_replay_metrics(records)}.items()}
    missing = set(LAYER_UNITS) - set(metrics)
    if missing:
        probe_jobs = [job for job, covers in PROBES
                      if any(name.startswith(covers) for name in missing)]
        paths = _prepare(probe_jobs, os.path.join(work, "probe"))
        probe = Recorder()
        _, size = _traced_pass(probe_jobs, paths, probe, 0)
        record = PassRecord(0.0, 0.0, 0.0, size, _split(probe_jobs))
        found = layer_metrics(probe.spans, [record], len(probe_jobs))
        for name in missing & set(found):
            metrics[name] = found[name] + ("probe",)
    still = set(LAYER_UNITS) - set(metrics)
    if still:
        raise RuntimeError(f"no value for {', '.join(sorted(still))}")
    return metrics, tally, problems
