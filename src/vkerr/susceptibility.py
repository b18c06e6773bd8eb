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
from typing import NamedTuple

import numpy as np

from .dressed import CoefficientSet, coefficient_rows, coefficient_set
from .floquet import STATE, HarmonicTable
from .params import (ParameterColumns, SystemParams, effective_gamma12,
                     probe_detuning_to_delta_p)

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

SWEEPABLE = ("omega", *(name for name in SystemParams._fields
                        if name != "gamma12_override"))

CSV_COLUMNS = ("axis", "re_chi1", "im_chi1", "re_chi3", "im_chi3",
               "ratio_31", "ratio_33")


class Susceptibility(NamedTuple):
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


def chi(params: SystemParams, omega: float,
        coeffs: CoefficientSet | None = None) -> Susceptibility:
    """Normalized chi1 and chi3 at one probe detuning omega = omega_p - omega_1.

    The one-row case of an omega ``sweep``, which raises the error that
    sweep records; ``coeffs`` defaults to ``coefficient_set(params)``.
    """
    chis, errors = _rows(params, [omega], coeffs=coefficient_set(params)
                         if coeffs is None else coeffs)
    if errors:
        raise errors[0]
    return Susceptibility(*chis[:, 0].tolist())


# Rows per HarmonicTable.  One batch's temporaries peak at 2.3 MB on the
# omega axis and 7.4 MB on a parameter axis, whatever the sweep's length.
_BATCH = 1024


def _rows(params: SystemParams, omegas, axis_name: str | None = None,
          values=(), coeffs: CoefficientSet | None = None) -> tuple:
    """(chis, errors): chi at every omega, and the error of each failed row.

    ``chis`` has shape (4, rows): Re chi1, Im chi1, Re chi3 and Im chi3,
    nan on a failed row.  ``errors`` maps a failed row to its first error:
    parameters, omega, coefficients, then the solve.  Either ``coeffs`` is
    shared by every omega (a point or an omega sweep), or, without it, row i
    sets field ``axis_name`` of ``params`` to ``values[i]``.  The rows are
    solved _BATCH at a time; a failed row fails on its own in its batch.
    """
    omegas = np.asarray(omegas, dtype=float)
    chis, errors = np.empty((4, len(omegas))), {}
    for start in range(0, len(omegas), _BATCH):
        batch = slice(start, start + _BATCH)
        stages = [{row: ValueError("omega must be finite") for row in
                   np.flatnonzero(~np.isfinite(omegas[batch])).tolist()}]
        if coeffs is None:
            columns = ParameterColumns.along(params, axis_name, values[batch])
            batch_coeffs, failures = coefficient_rows(columns)
            # params itself is valid, so only an axis value can break a rule
            stages = [columns.errors(), *stages, failures]
        else:
            columns, batch_coeffs = params, coeffs  # only omega21 and delta are read
        with np.errstate(all="ignore"):     # failed rows carry nan and inf
            table = HarmonicTable(batch_coeffs, probe_detuning_to_delta_p(
                omegas[batch], columns))
            s, c = np.atleast_1d(batch_coeffs.basis.s, batch_coeffs.basis.c)
            # chi^(k) = -(s (rho_{1+})_k^{-1} - c (rho_{1-})_k^{-1}), part by part
            for k, rows in ((1, chis[:2, batch]), (3, chis[2:, batch])):
                z, failures = table.solve(k, -1)    # order 3 inherits order 1's
                rho_1p, rho_1m = z[:, STATE.index("1p")], z[:, STATE.index("1m")]
                for part, out in zip((np.real, np.imag), rows):
                    np.negative(s * part(rho_1p) - c * part(rho_1m), out=out)
        del table       # released before the next batch builds its own
        for found in (*stages, failures):   # each row keeps its first error
            for row, exc in found.items():
                errors.setdefault(start + row, exc)
    chis[:, list(errors)] = np.nan
    return chis, errors


class SweepRow(NamedTuple):
    axis_value: float
    result: Susceptibility | None = None
    error: str | None = None


_RATIOS = {"ratio_31": ("re_chi3", "im_chi1"), "ratio_33": ("re_chi3", "im_chi3")}


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, where 0/0 is nan and x/0 is +-inf with the sign of x.

    A plain x / -0.0 would take the sign of the zero as well.
    """
    with np.errstate(all="ignore"):
        return np.where(den == 0.0,
                        np.copysign(np.where(num == 0.0, np.nan, np.inf), num),
                        num / den)


class SweepResult:
    """One sweep as columns, one entry per axis value.

    ``axis_values`` and the four chi columns are float arrays.  A failed row
    holds nan in every chi column, and its error text, "Type: message", is
    ``errors[row]``.  ``rows`` presents the same data as SweepRow objects,
    built on each access; the writers and ``find_features`` read the columns.
    """

    def __init__(self, axis_name: str, params: SystemParams,
                 axis_values: np.ndarray, re_chi1: np.ndarray,
                 im_chi1: np.ndarray, re_chi3: np.ndarray, im_chi3: np.ndarray,
                 errors: dict | None = None, fixed_omega: float | None = None):
        self.axis_name, self.params, self.axis_values = axis_name, params, axis_values
        self.re_chi1, self.im_chi1 = re_chi1, im_chi1
        self.re_chi3, self.im_chi3 = re_chi3, im_chi3
        self.errors = {} if errors is None else errors
        self.fixed_omega = fixed_omega

    def __len__(self) -> int:
        return len(self.axis_values)

    def column(self, name: str) -> np.ndarray:
        """One CSV column, by its name in CSV_COLUMNS; nan for failed rows."""
        if name == "axis":
            return self.axis_values
        if name in _RATIOS:
            return _ratio(*(getattr(self, part) for part in _RATIOS[name]))
        return getattr(self, name)

    @property
    def rows(self) -> tuple:
        """The rows as SweepRow objects, built from the columns on each access."""
        chis = zip(*(getattr(self, name).tolist() for name in CSV_COLUMNS[1:5]))
        return tuple(
            SweepRow(axis_value=x, error=self.errors[i]) if i in self.errors
            else SweepRow(axis_value=x, result=Susceptibility(*values))
            for i, (x, values) in enumerate(zip(self.axis_values.tolist(), chis)))

    @property
    def n_failed(self) -> int:
        return len(self.errors)


def sweep(params: SystemParams, values, axis_name: str = "omega",
          omega: float | None = None) -> SweepResult:
    """Evaluate chi across an axis; failed rows are recorded, not fatal.

    ``values`` is any iterable of axis values, e.g. an ``axis_grid``.  For a
    parameter axis the probe detuning ``omega`` must be given and is held
    fixed; an omega sweep reads omega off its axis and takes none.  The rows
    are solved 1024 at a time, straight into the columns of the SweepResult;
    each row's result equals ``chi`` at that row's parameters and probe
    detuning.  A parameter axis is validated and turned into coefficients as
    ParameterColumns, a batch at a time; a row that breaks a SystemParams
    rule records the error constructing its SystemParams would raise.  The
    result keeps the parameters every row shares: a theta axis clears
    gamma12_override, on every row and in ``params``.
    """
    if axis_name not in SWEEPABLE:
        raise ValueError(f"axis must be one of {SWEEPABLE}, got {axis_name!r}")
    if axis_name == "omega" and omega is not None:
        raise ValueError(f"an omega sweep takes omega from its axis; "
                         f"a fixed omega ({omega!r}) conflicts with it")
    if axis_name != "omega" and omega is None:
        raise ValueError("parameter sweeps need a fixed omega")
    values = np.fromiter(values, dtype=float)
    if axis_name == "theta":    # as SystemParams.replace does on each row
        params = params.replace(gamma12_override=None)

    if axis_name == "omega":
        # one coefficient row, shared by every omega: its failure is fatal
        chis, errors = _rows(params, values, coeffs=coefficient_set(params))
    else:
        chis, errors = _rows(params, np.full(len(values), omega),
                             axis_name, values)
    return SweepResult(
        axis_name, params, values, *chis, fixed_omega=omega,
        errors={row: f"{type(exc).__name__}: {exc}"
                for row, exc in sorted(errors.items())})


# ---------------------------------------------------------------------------
# feature detection
# ---------------------------------------------------------------------------

class FeatureReport(NamedTuple):
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


def find_features(result: SweepResult,
                  transparency_fraction: float = 0.05) -> FeatureReport:
    """Zero crossings of Im chi3, extrema of Re chi3, transparency points.

    A nan (failed) row takes part in no feature.  An Im chi3 zero is a row
    where Im chi3 is exactly 0 and the next row is not nan, the last row if
    it is 0, or a sign change between two rows, placed by linear
    interpolation.  A Re chi3 extremum is an interior row above or below
    both neighbours; the parabola through the three rows refines its
    position, by at most half a step, and its value.  A transparency point
    is an Im chi3 zero at which the linear absorption |Im chi1| is at most
    ``transparency_fraction`` of the peak |Re chi3| over the sweep; an exact
    zero reads Im chi1 on its own row, a sign change interpolates it between
    its two rows.  ``transparency_fraction`` must be finite and non-negative.
    """
    if not (math.isfinite(transparency_fraction) and transparency_fraction >= 0.0):
        raise ValueError("transparency_fraction must be finite and non-negative, "
                         f"got {transparency_fraction!r}")
    if len(result) < 3:
        raise ValueError("need at least 3 rows to detect features")
    xs, im3, re3, im1 = (result.column(name)
                         for name in ("axis", "im_chi3", "re_chi3", "im_chi1"))
    with np.errstate(all="ignore"):     # nan rows, a zero or non-finite step
        # Im chi3 zeros, each by the first row i of its row pair (i, i + 1)
        a, b = im3[:-1], im3[1:]
        exact = (a == 0.0) & ~np.isnan(b)
        i = np.flatnonzero(exact | (a < 0.0) & (b > 0.0) | (a > 0.0) & (b < 0.0))
        exact, a, b, x, step = exact[i], a[i], b[i], xs[i], xs[i + 1] - xs[i]
        zeros = np.where(exact, x, x - a * step / (b - a))
        t = np.where(step == 0.0, 0.0, (zeros - x) / step)
        im1_at = np.where(exact, im1[i], (1.0 - t) * im1[i] + t * im1[i + 1])
        if im3[-1] == 0.0:
            zeros, im1_at = np.append(zeros, xs[-1]), np.append(im1_at, im1[-1])
        # Re chi3 extrema, each by its middle row k + 1
        left, mid, right = re3[:-2], re3[1:-1], re3[2:]
        k = np.flatnonzero((mid > left) & (mid > right) | (mid < left) & (mid < right))
        left, mid, right = left[k], mid[k], right[k]
        # denom is exactly symmetric in (left, right), shift and the half span
        # exactly antisymmetric: a reversed axis finds the same bits
        denom = (left + right) - 2.0 * mid
        shift = np.where(denom == 0.0, 0.0, 0.5 * (left - right) / denom)
        # clamped as max(-0.5, min(0.5, shift)) would, which maps nan to 0.5
        shift = np.where(shift < 0.5, shift, 0.5)
        shift = np.where(shift > -0.5, shift, -0.5)
        extrema = zip((xs[k + 1] + shift * (0.5 * (xs[k + 2] - xs[k]))).tolist(),
                      (mid - 0.25 * (left - right) * shift).tolist())
    clean_re3 = np.abs(re3[~np.isnan(re3)])
    peak = clean_re3.max().item() if len(clean_re3) else math.nan
    dark = (np.abs(im1_at) <= transparency_fraction * peak) & (peak > 0.0)
    return FeatureReport(
        im_chi3_zeros=tuple(zeros.tolist()), re_chi3_extrema=tuple(extrema),
        transparency_points=tuple(zeros[dark].tolist()),
        transparency_fraction=transparency_fraction, re_chi3_peak=peak,
    )


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

# one row of every CSV column, "%.8e" each: the bits of f"{v:.8e}"
_CSV_ROW = ",".join(["%.8e"] * len(CSV_COLUMNS)) + "\r\n"


def _table(result: SweepResult) -> np.ndarray:
    """Every CSV column of every row, shape (rows, len(CSV_COLUMNS))."""
    return np.column_stack([result.column(name) for name in CSV_COLUMNS])


def write_csv(result: SweepResult, path_or_file) -> None:
    """One row per axis value, with every non-finite field empty.

    Empty fields are all data fields of a failed row, an undefined ratio and
    a non-finite axis value.  The bytes are those of csv.writer: comma
    separated, no quoting (no field needs it) and "\\r\\n" line ends.  All
    rows fill one ``%`` template; a non-finite field prints as nan, inf or
    -inf, letters that no finite field contains, so those are then blanked.
    """
    table = _table(result)
    body = (_CSV_ROW * len(table)) % tuple(table.ravel().tolist())
    if not np.isfinite(table).all():
        body = body.replace("-inf", "").replace("inf", "").replace("nan", "")
    text = ",".join(CSV_COLUMNS) + "\r\n" + body
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", newline="") as f:
            f.write(text)


def metadata(params: SystemParams, **extra) -> dict:
    """The metadata block of every JSON output, ``extra`` keys last."""
    from . import __version__
    return {"tool_version": __version__, "params": params._asdict(),
            "gamma12": effective_gamma12(params), **extra}


def result_metadata(result: SweepResult, extra: dict | None = None) -> dict:
    return metadata(result.params, axis=result.axis_name,
                    fixed_omega=result.fixed_omega, n_rows=len(result),
                    n_failed=result.n_failed, **(extra or {}))


def _json_row(keys) -> str:
    """``%`` template of one row object, as json.dump lays it out at depth 2."""
    return "    {\n" + ",\n".join(f'      "{k}": %s' for k in keys) + "\n    }"


_JSON_ROW = _json_row(CSV_COLUMNS)
_JSON_FAILED_ROW = _json_row(("axis", "error"))


def _json(value) -> str:
    """``value`` as json.dumps writes it, without the encoder for plain floats."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _json_row_by_field(result: SweepResult, row: int, values: list) -> str:
    """A row that is not all finite, one field at a time.

    A failed row writes its axis value and error; otherwise a non-finite
    ratio is null.
    """
    if row in result.errors:
        return _JSON_FAILED_ROW % (_json(values[0]), _json(result.errors[row]))
    *data, ratio_31, ratio_33 = values
    ratios = [x if math.isfinite(x) else None for x in (ratio_31, ratio_33)]
    return _JSON_ROW % tuple(map(_json, (*data, *ratios)))


def write_json(result: SweepResult, path, extra_metadata: dict | None = None) -> None:
    """Metadata plus one object per row, in the bytes of json.dump(indent=2).

    Non-finite ratios are written as null.  The metadata goes through
    json.dumps.  The rows whose fields are all finite fill one ``%`` template
    (``%s`` of a float is its repr, which json.dump writes); the others, a
    failed row, a null ratio or a non-finite axis value, are written field
    by field.
    """
    table = _table(result)
    finite = np.isfinite(table).all(axis=1)
    values = tuple(table[finite].ravel().tolist())
    rows = ((_JSON_ROW + "\0") * int(finite.sum()) % values).split("\0")[:-1]
    if not finite.all():    # one pass: the next templated row, or by field
        templated = iter(rows)
        rows = [next(templated) if ok else
                _json_row_by_field(result, row, table[row].tolist())
                for row, ok in enumerate(finite.tolist())]
    meta = json.dumps(result_metadata(result, extra_metadata), indent=2)
    body = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    with open(path, "w") as f:
        f.write('{\n  "metadata": ' + meta.replace("\n", "\n  ")
                + ',\n  "rows": ' + body + "\n}\n")
