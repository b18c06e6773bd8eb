"""Correctness checks on job outputs, and the recorded reference outputs.

Every job output is parsed and checked for its row count, its axis and
finite values in every row that did not fail.  The oracle jobs are checked
against each other with the acceptance bounds.  Where a job's inputs equal
the inputs recorded in `references/<workload>.json.gz`, every output value
is compared with the recording, to a tolerance relative to the peak
magnitude of its column.  At seed 0 every job must have such a recording.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

CSV_COLUMNS = ("axis", "re_chi1", "im_chi1", "re_chi3", "im_chi3",
               "ratio_31", "ratio_33")
CHI_COLUMNS = CSV_COLUMNS[1:5]
# ratio column -> (numerator, denominator); a ratio may be missing only
# where its denominator is exactly zero
RATIOS = {"ratio_31": ("re_chi3", "im_chi1"), "ratio_33": ("re_chi3", "im_chi3")}

# tolerance relative to a column's peak |value|, so that zero crossings of
# Im chi3 cannot trip it
REFERENCE_TOL = 1e-6
# criterion 3: analytic vs full-model steady state at the sideband point
CROSS_ORACLE_TOL = 4e-3
# criterion 4: Floquet vs time domain, first and third order
TIME_DOMAIN_TOL = (5e-3, 5e-2)
# references store each column as integer multiples of peak / _QUANTUM
_QUANTUM = 1e9


@dataclass
class Outcome:
    """What one job produced: parsed data, failed rows and problems found."""
    data: dict = field(default_factory=dict)
    failed_rows: int = 0
    problems: list = field(default_factory=list)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _check_rows(job, axis, table, out: Outcome) -> None:
    """Row count, axis grid and finiteness of every row that did not fail."""
    expected = job.values()
    if len(axis) != len(expected):
        out.problems.append(f"{len(axis)} rows, expected {len(expected)}")
        return
    scale = max(abs(v) for v in expected) or 1.0
    worst = max(abs(a - b) for a, b in zip(axis, expected))
    if not worst <= REFERENCE_TOL * scale:
        out.problems.append(f"axis off the grid by {worst:.3e}")
    for i, row in enumerate(table):
        if row is None:
            continue
        bad = [c for c in CHI_COLUMNS if not _finite(row[c])]
        bad += [r for r, (_, den) in RATIOS.items()
                if not _finite(row[r]) and row[den] != 0.0]
        if bad:
            out.problems.append(f"row {i}: non-finite {', '.join(bad)}")
            break


def _parse_csv(path):
    axis, table = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        for fields in reader:
            axis.append(float(fields[0]))
            if all(v == "" for v in fields[1:]):
                table.append(None)
            else:
                table.append({c: float(v) if v != "" else math.nan
                              for c, v in zip(CSV_COLUMNS[1:], fields[1:])})
    return axis, table


def _parse_json_rows(path):
    with open(path) as f:
        payload = json.load(f)
    axis, table = [], []
    for row in payload["rows"]:
        axis.append(row["axis"])
        if "error" in row:
            table.append(None)
        else:
            table.append({c: math.nan if row[c] is None else row[c]
                          for c in CSV_COLUMNS[1:]})
    return axis, table


def _check_sweep(job, path, out: Outcome) -> None:
    axis, table = (_parse_csv if job.fmt == "csv" else _parse_json_rows)(path)
    out.failed_rows = sum(1 for r in table if r is None)
    _check_rows(job, axis, table, out)
    out.data = {c: [math.nan if r is None else r[c] for r in table]
                for c in CHI_COLUMNS}


def _check_features(job, path, out: Outcome) -> None:
    with open(path) as f:
        payload = json.load(f)
    meta = payload["metadata"]
    out.failed_rows = meta["n_failed"]
    if meta["n_rows"] != job.rows:
        out.problems.append(f"{meta['n_rows']} rows, expected {job.rows}")
    data = {
        "im_chi3_zeros": payload["im_chi3_zeros"],
        "transparency_points": payload["transparency_points"],
        "extrema_x": [e[0] for e in payload["re_chi3_extrema"]],
        "extrema_value": [e[1] for e in payload["re_chi3_extrema"]],
        "re_chi3_peak": [payload["re_chi3_peak"]],
    }
    if not all(_finite(v) for values in data.values() for v in values):
        out.problems.append("non-finite feature value")
    if not data["im_chi3_zeros"] or not data["extrema_x"]:
        out.problems.append("no features found")
    out.data = data


def _check_oracle_compare(job, path, out: Outcome) -> None:
    with open(path) as f:
        payload = json.load(f)
    data = {}
    for name, element in payload["elements"].items():
        for side in ("analytic", "oracle"):
            value = element[side]
            data[f"{name}.{side}"] = value if isinstance(value, list) else [value]
    if not all(_finite(v) for values in data.values() for v in values):
        out.problems.append("non-finite steady-state element")
    gap = payload["max_abs_delta"]
    if not gap <= CROSS_ORACLE_TOL:
        out.problems.append(f"analytic vs Lindblad gap {gap:.3e} above "
                            f"{CROSS_ORACLE_TOL:g}")
    out.data = data


def _check_time_domain(job, path, out: Outcome) -> None:
    with open(path) as f:
        payload = json.load(f)
    wp = payload["omega_p"]
    h = complex(*payload["harmonic_m1"])
    chi1, chi3 = complex(*payload["chi1"]), complex(*payload["chi3"])
    # harmonic -1 of the probe coherence is -(wp chi1 + wp^3 chi3) + O(wp^5)
    rel1 = abs(-(wp * chi1 + wp ** 3 * chi3) - h) / abs(h)
    chi3_oracle = (-h - wp * chi1) / wp ** 3
    rel3 = abs(chi3_oracle - chi3) / abs(chi3)
    tol1, tol3 = TIME_DOMAIN_TOL
    if not (rel1 <= tol1 and rel3 <= tol3):
        out.problems.append(f"Floquet vs time domain: first {rel1:.2e}, "
                            f"third {rel3:.2e} (bounds {tol1:g}, {tol3:g})")
    out.data = {k: payload[k] for k in ("harmonic_m1", "chi1", "chi3")}


@dataclass
class Tally:
    """Jobs attempted and failed, with the failures split by cause."""
    attempted: int = 0
    failed: int = 0
    failed_jobs: int = 0
    failed_rows: int = 0
    mismatches: int = 0

    def add(self, code: int, outcome: Outcome, name: str, problems: list) -> None:
        self.attempted += 1
        self.failed_jobs += code != 0
        self.failed_rows += outcome.failed_rows
        self.mismatches += len(outcome.problems)
        if code != 0 or outcome.failed_rows or outcome.problems:
            self.failed += 1
        if code != 0:
            problems.append(f"{name}: exit code {code}")
        problems += [f"{name}: {p}" for p in outcome.problems]

    def summary(self) -> str:
        return (f"failed_frac {self.failed / self.attempted:.6g} "
                f"({self.failed}/{self.attempted} jobs; {self.failed_jobs} "
                f"exited nonzero, {self.failed_rows} failed rows, "
                f"{self.mismatches} check mismatches)")


_CHECKERS = {
    "sweep": _check_sweep,
    "features": _check_features,
    "oracle-compare": _check_oracle_compare,
    "time-domain": _check_time_domain,
}


def check_output(job, path, reference=None, required=False) -> Outcome:
    """Parse and check one job's output; problems are recorded, not raised.

    With `required` (seed 0), a job without a recorded reference for its
    exact inputs is a problem too, so the comparison is never skipped.
    """
    out = Outcome()
    matches = reference is not None and reference["spec"] == job.spec()
    if required and not matches:
        out.problems.append("no reference recorded for these inputs"
                            if reference is None else
                            "inputs differ from the recorded reference")
    try:
        _CHECKERS[job.mode](job, path, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            ArithmeticError) as exc:
        out.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return out
    if matches:
        out.problems += compare(out.data, decode(reference["data"]))
    return out


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def compare(data: dict, ref: dict) -> list:
    """Columns equal to the reference within REFERENCE_TOL of their peak."""
    problems = []
    if sorted(data) != sorted(ref):
        return [f"columns {sorted(data)} differ from reference {sorted(ref)}"]
    for name, want in ref.items():
        got = data[name]
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} values, reference {len(want)}")
            continue
        peak = max((abs(v) for v in want if math.isfinite(v)), default=0.0)
        tol = REFERENCE_TOL * (peak or 1.0)
        for i, (a, b) in enumerate(zip(got, want)):
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= tol:
                problems.append(f"{name}[{i}] = {a!r}, reference {b!r}")
                break
    return problems


def encode(data: dict) -> dict:
    """Each column as its peak and delta-coded multiples of peak/_QUANTUM."""
    out = {}
    for name, values in data.items():
        peak = max((abs(v) for v in values), default=0.0) or 1.0
        q = [round(v / peak * _QUANTUM) for v in values]
        out[name] = {"peak": peak,
                     "delta": q[:1] + [b - a for a, b in zip(q, q[1:])]}
    return out


def decode(data: dict) -> dict:
    out = {}
    for name, column in data.items():
        values, q = [], 0
        for d in column["delta"]:
            q += d
            values.append(q * column["peak"] / _QUANTUM)
        out[name] = values
    return out


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_references(workload: str) -> dict:
    """Job name -> recorded {"spec", "data"}; empty if nothing is recorded."""
    path = reference_path(workload)
    if not os.path.exists(path):
        return {}
    with gzip.open(path, "rt") as f:
        return json.load(f)["jobs"]


def save_references(workload: str, jobs: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    text = json.dumps({"jobs": jobs},
                      sort_keys=True, separators=(",", ":"))
    with open(reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
            f.write(text.encode())
