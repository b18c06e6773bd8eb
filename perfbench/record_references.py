#!/usr/bin/env python3
"""Record the reference outputs that seed-0 runs are compared with.

    python3 perfbench/record_references.py [--workload spectra ...]

Runs the seed-0 jobs of each workload once, the same way the benchmark
does, and writes `perfbench/references/<workload>.json.gz`.  Re-record only
when an output is meant to change; say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import checks
import jobs as jobs_mod
import run


def record(workload: str, work: str) -> None:
    os.makedirs(work, exist_ok=True)
    tally, problems = checks.Tally(), []
    runs = run.run_pass(jobs_mod.make_jobs(workload, 0), work, {}, False,
                        tally, problems)
    if tally.failed:
        raise SystemExit(f"{workload}: {tally.failed} job(s) failed: "
                         + "; ".join(problems or ["failed rows"]))
    recorded = {job.name: {"spec": job.spec(),
                           "data": checks.encode(outcome.data)}
                for job, _, outcome in runs}
    checks.save_references(workload, recorded)
    print(f"{workload}: {len(recorded)} jobs -> "
          f"{checks.reference_path(workload)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(jobs_mod.WORKLOADS),
                        choices=jobs_mod.WORKLOADS)
    args = parser.parse_args(argv)
    work = os.path.join(run.OUT, "record")
    try:
        for workload in args.workload:
            record(workload, os.path.join(work, workload))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
