#!/usr/bin/env python3
"""Steadiness mode: repeat benchmark runs and report each metric's spread.

    python3 perfbench/steady.py --workload spectra oracles --runs 10
    python3 perfbench/steady.py --runs 10 --against .perfbench/steady-1.json

Each workload runs `--runs` times, with seeds first-seed, first-seed+1, ...
For every metric this prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
and flags a spread above the metric's bound in BENCHMARK.json and, as
`warn`, one above a third of it.  Every run measures `run_seconds` of
BENCHMARK.json.  With `--against`, a median worse than the earlier summary's by more
than the bound is flagged too.  The summary is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs as jobs_mod  # noqa: E402


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def worse_by(metric: dict, new: float, old: float) -> float:
    """Relative worsening of `new` against `old` (negative: better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(jobs_mod.WORKLOADS),
                        choices=jobs_mod.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench",
                                                      "steady.json"))
    parser.add_argument("--against", help="an earlier summary to compare with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    declared = bench["per_layer" if args.trace else "end_to_end"]
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["workloads"]
    summary, flagged = {}, 0
    for workload in args.workload:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(one_run(workload, seed, bench["run_seconds"],
                                   args.trace))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"failed={results[-1]['failed']}/{results[-1]['attempted']}",
                  flush=True)
        rows = {}
        for metric in declared:
            name = metric["name"]
            stats = summarise([r["metrics"][name]["value"] for r in results])
            notes = []
            bound = metric.get("bound")
            if bound is not None:
                if stats["spread"] > bound:
                    notes.append("OVER BOUND")
                elif stats["spread"] > bound / 3:
                    notes.append("warn: above a third of the bound")
            if bound is not None and earlier and workload in earlier:
                change = worse_by(metric, stats["median"],
                                  earlier[workload][name]["median"])
                stats["worse_than_earlier"] = change
                if change > bound:
                    notes.append(f"median worse by {change:.1%} than earlier")
            flagged += any(not n.startswith("warn") for n in notes)
            stats["notes"] = notes
            rows[name] = stats
            print(f"  {name:<46} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:7.2%}"
                  + (f" bound {bound:.0%}" if bound is not None else "")
                  + (f"  [{'; '.join(notes)}]" if notes else ""), flush=True)
        rows["_failed_runs"] = sum(not r["correct"] for r in results)
        summary[workload] = rows
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"runs": args.runs, "first_seed": args.first_seed,
                   "seconds": bench["run_seconds"], "trace": args.trace,
                   "workloads": summary}, f, indent=2)
    print(f"summary -> {args.out}; {flagged} metric(s) flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
