"""Normalized susceptibilities, sweeps and feature detection.

The reported quantities are the normalized real and imaginary parts of the
linear and third-order response,

    chi^(k) = -( s (rho_{1+})_k^{-1} - c (rho_{1-})_k^{-1} ),   k = 1, 3,

the coefficient of Omega_p^k in the probe-transition coherence with the
physical prefactor set to one.  The sign makes Im chi^(1) positive for a
plain absorbing medium.  Im parts are the (non)linear absorption, Re parts
the (Kerr) refraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dressed import CoefficientSet, coefficient_rows, coefficient_set
from .floquet import STATE, HarmonicTable
from .params import (ParameterColumns, ProbeGrid, SystemParams,
                     effective_gamma12, probe_detuning_to_delta_p)

__all__ = [
    "Susceptibility",
    "SweepRow",
    "SweepResult",
    "FeatureReport",
    "chi",
    "sweep",
    "find_features",
    "write_csv",
    "write_json",
]

SWEEPABLE = ("omega", "g1", "g2", "kappa", "gamma1", "gamma2",
             "omega21", "omega_L_rabi", "delta", "delta_c", "theta")

CSV_COLUMNS = ("axis", "re_chi1", "im_chi1", "re_chi3", "im_chi3",
               "ratio_31", "ratio_33")


@dataclass(frozen=True)
class Susceptibility:
    re_chi1: float
    im_chi1: float
    re_chi3: float
    im_chi3: float

    @property
    def chi1(self) -> complex:
        return complex(self.re_chi1, self.im_chi1)

    @property
    def chi3(self) -> complex:
        return complex(self.re_chi3, self.im_chi3)

    @property
    def ratio_31(self) -> float:
        """Re chi3 / Im chi1; +-inf where the linear absorption vanishes."""
        return _safe_ratio(self.re_chi3, self.im_chi1)

    @property
    def ratio_33(self) -> float:
        return _safe_ratio(self.re_chi3, self.im_chi3)


def _safe_ratio(num: float, den: float) -> float:
    if den == 0.0:
        return math.nan if num == 0.0 else math.copysign(math.inf, num)
    return num / den


def chi(params: SystemParams, omega: float,
        coeffs: CoefficientSet | None = None) -> Susceptibility:
    """Normalized chi1 and chi3 at one probe detuning omega = omega_p - omega_1.

    The one-row case of ``sweep``; ``coeffs`` defaults to
    ``coefficient_set(params)``.
    """
    (row,) = _rows(params, [omega], coeffs=coeffs)
    if isinstance(row, Exception):
        raise row
    return row


def _rows(params: SystemParams, omegas, axis_name: str | None = None,
          values=(), coeffs: CoefficientSet | None = None) -> list:
    """Susceptibility, or the exception that failed it, for every omega.

    Without ``axis_name`` every omega shares ``params``; with it, row i sets
    that field to ``values[i]``.  ``coeffs`` defaults to the coefficients of
    those rows.  Failed rows stay in the batch, which fails a row with
    non-finite inputs on its own and leaves the other rows untouched.  A row
    reports its first error: parameters, omega, coefficients, then the solve.
    """
    columns = ParameterColumns.along(params, axis_name, values)
    omegas = np.asarray(omegas, dtype=float)
    # params itself is valid, so only an axis value can break a rule
    errors = [columns.errors() if axis_name else {},
              {int(i): ValueError("omega must be finite")
               for i in np.flatnonzero(~np.isfinite(omegas))}]
    with np.errstate(all="ignore"):     # failed rows carry nan and inf
        if coeffs is None:
            coeffs, failures = coefficient_rows(columns)
            errors.append(failures)
        table = HarmonicTable(coeffs, probe_detuning_to_delta_p(omegas, columns))
        s, c = np.atleast_1d(coeffs.basis.s, coeffs.basis.c)
        parts = []   # chi^(k) = -(s (rho_{1+})_k^{-1} - c (rho_{1-})_k^{-1}), part by part
        for k in (1, 3):
            z, solve_failures = table.solve(k, -1)   # order 3 inherits order 1's
            rho_1p, rho_1m = z[:, STATE.index("1p")], z[:, STATE.index("1m")]
            parts += [(-(s * part(rho_1p) - c * part(rho_1m))).tolist()
                      for part in (np.real, np.imag)]
    errors.append(solve_failures)
    return [next((e[i] for e in errors if i in e), Susceptibility(*row))
            for i, row in enumerate(zip(*parts))]


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    result: Susceptibility | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    axis_name: str
    rows: tuple
    params: SystemParams
    fixed_omega: float | None = None

    def axis(self) -> list:
        return [r.axis_value for r in self.rows]

    def column(self, name: str) -> list:
        """Per-row value of one CSV column; nan for failed rows."""
        out = []
        for r in self.rows:
            if r.result is None:
                out.append(math.nan)
            else:
                out.append(getattr(r.result, name))
        return out

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r.error is not None)


def sweep(params: SystemParams, values, axis_name: str = "omega",
          omega: float | None = None) -> SweepResult:
    """Evaluate chi across an axis; failed rows are recorded, not fatal.

    ``values`` is a ProbeGrid or any iterable of axis values.  For a
    parameter axis the probe detuning ``omega`` must be given and is held
    fixed.  All rows are solved as one batch; each row's result equals
    ``chi`` at that row's parameters and probe detuning.  A parameter axis
    is validated and turned into coefficients as ParameterColumns, for all
    rows at once; a row that breaks a SystemParams rule records the error
    constructing its SystemParams would raise.
    """
    if axis_name not in SWEEPABLE:
        raise ValueError(f"axis must be one of {SWEEPABLE}, got {axis_name!r}")
    if isinstance(values, ProbeGrid):
        values = values.omega_values
    values = [float(v) for v in values]
    if axis_name != "omega" and omega is None:
        raise ValueError("parameter sweeps need a fixed omega")

    if axis_name == "omega":
        # one coefficient row, shared by every omega: its failure is fatal
        outcome = _rows(params, values, coeffs=coefficient_set(params))
    else:
        outcome = _rows(params, np.full(len(values), omega), axis_name, values)
    rows = tuple(
        SweepRow(axis_value=value, error=f"{type(row).__name__}: {row}")
        if isinstance(row, Exception) else SweepRow(axis_value=value, result=row)
        for value, row in zip(values, outcome))
    return SweepResult(axis_name=axis_name, rows=rows, params=params,
                       fixed_omega=omega)


# ---------------------------------------------------------------------------
# feature detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureReport:
    """Spectroscopic features of one sweep; empty lists mean none found."""
    im_chi3_zeros: tuple = ()
    re_chi3_extrema: tuple = ()        # (axis position, refined Re chi3 value)
    transparency_points: tuple = ()
    transparency_fraction: float = 0.05
    re_chi3_peak: float = math.nan     # max |Re chi3| over the clean rows

    @property
    def empty(self) -> bool:
        return not (self.im_chi3_zeros or self.re_chi3_extrema
                    or self.transparency_points)


def _zero_crossings(xs, ys):
    """Linearly interpolated sign changes; each brackets a change in ys."""
    out = []
    for i in range(len(ys) - 1):
        a, b = ys[i], ys[i + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if a == 0.0:
            out.append(xs[i])
        elif (a < 0.0 < b) or (b < 0.0 < a):
            out.append(xs[i] - a * (xs[i + 1] - xs[i]) / (b - a))
    if ys and ys[-1] == 0.0:
        out.append(xs[-1])
    return out


def _local_extrema(xs, ys):
    """Interior local extrema, position refined by a parabola through 3 points."""
    out = []
    for i in range(1, len(ys) - 1):
        left, mid, right = ys[i - 1], ys[i], ys[i + 1]
        if any(math.isnan(v) for v in (left, mid, right)):
            continue
        if (mid > left and mid > right) or (mid < left and mid < right):
            denom = left - 2.0 * mid + right
            shift = 0.0 if denom == 0.0 else 0.5 * (left - right) / denom
            shift = max(-0.5, min(0.5, shift))
            x = xs[i] + shift * (xs[i + 1] - xs[i])
            value = mid - 0.25 * (left - right) * shift
            out.append((x, value))
    return out


def find_features(result: SweepResult,
                  transparency_fraction: float = 0.05) -> FeatureReport:
    """Zero crossings of Im chi3, extrema of Re chi3, transparency points.

    A transparency point is an Im chi3 zero crossing at which the linear
    absorption |Im chi1| stays below ``transparency_fraction`` of the peak
    |Re chi3| over the sweep.
    """
    if len(result.rows) < 3:
        raise ValueError("need at least 3 rows to detect features")
    xs = result.axis()
    im3 = result.column("im_chi3")
    re3 = result.column("re_chi3")
    im1 = result.column("im_chi1")

    zeros = tuple(_zero_crossings(xs, im3))
    extrema = tuple(_local_extrema(xs, re3))
    finite_re3 = [abs(v) for v in re3 if not math.isnan(v)]
    peak = max(finite_re3) if finite_re3 else math.nan

    transparency = []
    if not math.isnan(peak) and peak > 0.0:
        for x0 in zeros:
            # |Im chi1| at the crossing, linearly interpolated
            i = max(0, min(len(xs) - 2, _bracket(xs, x0)))
            t = 0.0 if xs[i + 1] == xs[i] else (x0 - xs[i]) / (xs[i + 1] - xs[i])
            v = (1.0 - t) * im1[i] + t * im1[i + 1]
            if abs(v) <= transparency_fraction * peak:
                transparency.append(x0)
    return FeatureReport(
        im_chi3_zeros=zeros, re_chi3_extrema=extrema,
        transparency_points=tuple(transparency),
        transparency_fraction=transparency_fraction, re_chi3_peak=peak,
    )


def _bracket(xs, x0):
    for i in range(len(xs) - 1):
        if xs[i] <= x0 <= xs[i + 1]:
            return i
    return len(xs) - 2


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return ""
    return f"{value:.8e}"


_NO_VALUES = (None,) * (len(CSV_COLUMNS) - 1)     # the fields of a failed row


def write_csv(result: SweepResult, path_or_file) -> None:
    """One row per axis value, failed rows with empty data fields.

    The bytes are those of csv.writer: comma separated, no quoting (no field
    needs it) and "\\r\\n" line ends.
    """
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        r = row.result
        values = _NO_VALUES if r is None else (
            r.re_chi1, r.im_chi1, r.re_chi3, r.im_chi3, r.ratio_31, r.ratio_33)
        lines.append(",".join(map(_fmt, (row.axis_value, *values))))
    text = "\r\n".join(lines) + "\r\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", newline="") as f:
            f.write(text)


def metadata(params: SystemParams, **extra) -> dict:
    """The metadata block of every JSON output, ``extra`` keys last."""
    from . import __version__
    return {"tool_version": __version__, "params": params.as_dict(),
            "gamma12": effective_gamma12(params), **extra}


def result_metadata(result: SweepResult, extra: dict | None = None) -> dict:
    return metadata(result.params, axis=result.axis_name,
                    fixed_omega=result.fixed_omega, n_rows=len(result.rows),
                    n_failed=result.n_failed, **(extra or {}))


def _json_row(keys) -> str:
    """Format string of one row object, as json.dump lays it out at depth 2."""
    return "    {{\n" + ",\n".join(f'      "{k}": {{}}' for k in keys) + "\n    }}"


_JSON_ROW = _json_row(CSV_COLUMNS)
_JSON_FAILED_ROW = _json_row(("axis", "error"))


def _json(value) -> str:
    """``value`` as json.dumps writes it, without the encoder for plain floats."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def write_json(result: SweepResult, path, extra_metadata: dict | None = None) -> None:
    """Metadata plus one object per row, in the bytes of json.dump(indent=2).

    Non-finite ratios are written as null.  The metadata goes through
    json.dumps; every row is filled into one format string.
    """
    rows = []
    for row in result.rows:
        r = row.result
        if r is None:
            rows.append(_JSON_FAILED_ROW.format(_json(row.axis_value),
                                                _json(row.error)))
            continue
        ratios = [x if math.isfinite(x) else None for x in (r.ratio_31, r.ratio_33)]
        rows.append(_JSON_ROW.format(*map(_json, (
            row.axis_value, r.re_chi1, r.im_chi1, r.re_chi3, r.im_chi3, *ratios))))
    meta = json.dumps(result_metadata(result, extra_metadata), indent=2)
    body = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    with open(path, "w") as f:
        f.write('{\n  "metadata": ' + meta.replace("\n", "\n  ")
                + ',\n  "rows": ' + body + "\n}\n")
