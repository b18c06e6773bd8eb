"""Physical parameters and detuning conventions.

Every rate and frequency is a dimensionless multiple of a reference damping
rate gamma = 1.  The laser-frame detunings are

    delta   = omega_2 - omega_L      (drive detuning from the driven line)
    delta_c = omega_c - omega_L      (cavity detuning)
    delta_p = omega_p - omega_L      (probe detuning, derived)

while sweeps are reported against omega = omega_p - omega_1, the probe
offset from the probed line, which is what the spectra are plotted over.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from collections import namedtuple
from typing import NamedTuple

import numpy as np

__all__ = [
    "SystemParams",
    "RegimeAdvisory",
    "axis_grid",
    "effective_gamma12",
    "load_config",
]


class RegimeAdvisory(UserWarning):
    """Parameters are outside kappa >> g1, g2 >> gamma1, gamma2."""


# ">>" in the bad-cavity regime rule: kappa >= f g and g >= f gamma_max
_REGIME_FACTOR = 3.0


def _checked(cls):
    """Make the NamedTuple class ``cls`` run its ``_check`` on construction
    and on ``_replace``, which builds through ``_make``.  A NamedTuple class
    body may define neither ``__init__`` nor ``_make``, so they are set here.
    """
    def __init__(self, *args, **kwargs):
        self._check()
    cls.__init__ = __init__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


@_checked
class SystemParams(NamedTuple):
    """Immutable parameter set for the driven V-type atom in a cavity.

    ``theta`` is the angle between the two transition dipole moments and
    sets the free-space cross damping sqrt(gamma1*gamma2)*cos(theta);
    alternatively ``gamma12_override`` fixes the cross damping directly.
    The two are mutually exclusive; with neither given, the dipoles are
    taken perpendicular and the cross damping is exactly zero.  Construction
    and ``_replace`` validate; outside the regime they warn RegimeAdvisory.
    """

    gamma1: float = 0.1
    gamma2: float = 0.1
    g1: float = 0.0
    g2: float = 0.0
    kappa: float = 100.0
    omega21: float = 200.0
    omega_L_rabi: float = 200.0
    delta: float = 0.0
    delta_c: float = 0.0
    theta: float | None = None
    gamma12_override: float | None = None

    def _check(self):
        for _, message, args in _broken_rules(self):
            raise ValueError(message.format(*args))
        if self.advisory:
            warnings.warn(
                "parameters violate kappa >> g1, g2 >> gamma1, gamma2 "
                f"(factor {_REGIME_FACTOR:g}); adiabatic elimination "
                "may degrade", RegimeAdvisory, stacklevel=3)

    @property
    def advisory(self) -> bool:
        """Outside kappa >> g >> gamma1, gamma2 by _REGIME_FACTOR, for each
        coupling g = g1, g2 that is not 0 (nothing to eliminate there)."""
        f = _REGIME_FACTOR
        gamma_max = max(self.gamma1, self.gamma2)
        return not all(self.kappa >= f * g and g >= f * gamma_max
                       for g in (self.g1, self.g2) if g > 0.0)

    def replace(self, **kwargs) -> "SystemParams":
        # _replace without RegimeAdvisory; a cross-damping convention that
        # is set displaces the other
        if kwargs.get("theta") is not None:
            kwargs.setdefault("gamma12_override", None)
        elif kwargs.get("gamma12_override") is not None:
            kwargs["theta"] = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeAdvisory)
            return self._replace(**kwargs)


def _broken_rules(p):
    """The validity rules ``p`` breaks, as (broken, message, args), in order.

    ``p`` is a SystemParams, with ``broken`` True, or a ParameterColumns,
    with ``broken`` a bool per row.  The error text is
    ``message.format(*args)``, with each of ``args`` indexed by the row for
    columns.  The rules are checked lazily, so a scalar check stops at the
    first broken one.
    """
    if isinstance(p.gamma1, np.ndarray):
        not_, isfinite, some = np.logical_not, np.isfinite, np.any
    else:
        not_, isfinite, some = operator.not_, math.isfinite, bool
    if p.theta is not None and p.gamma12_override is not None:
        yield True, "theta and gamma12_override are mutually exclusive", ()
    for name in ("gamma1", "gamma2", "kappa"):
        broken = not_(getattr(p, name) > 0)     # nan is not positive either
        if some(broken):
            yield broken, "gamma1, gamma2 and kappa must be positive", ()
    for name in ("g1", "g2", "omega_L_rabi"):
        broken = getattr(p, name) < 0
        if some(broken):
            yield broken, "g1, g2 and omega_L_rabi must be non-negative", ()
    for name in SystemParams._fields:
        value = getattr(p, name)
        if value is not None and some(broken := not_(isfinite(value))):
            yield broken, f"{name} must be finite", ()
    g12 = abs(effective_gamma12(p))
    bound = _sqrt(p.gamma1 * p.gamma2)
    broken = g12 > bound * (1.0 + 1e-12)
    if some(broken):
        yield (broken, "|gamma12| = {:g} exceeds sqrt(gamma1*gamma2) = {:g}",
               (g12, bound))


def _sqrt(x):
    """sqrt of a number (math.sqrt, a float) or of an array."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


class ParameterColumns(namedtuple("ParameterColumns", SystemParams._fields,
                                  defaults=(None, None))):
    """The SystemParams fields along a row axis: many parameter sets at once.

    Every field is a 1-D float array with one entry per row; theta and
    gamma12_override are None where unset on every row.  A parameter-axis
    sweep evaluates its rows from one ParameterColumns instead of one
    SystemParams per row.
    """

    __slots__ = ()

    @classmethod
    def along(cls, params: SystemParams, axis_name: str | None = None,
              values=()) -> "ParameterColumns":
        """``params`` on every row, with field ``axis_name`` set to ``values``.

        Without an axis there is one row.
        """
        data = params._asdict()
        rows = 1 if axis_name is None else len(values)
        columns = {name: np.full(rows, value, dtype=float)
                   for name, value in data.items() if value is not None}
        if axis_name is not None:
            columns[axis_name] = np.array(values, dtype=float)
        return cls(**columns)

    def errors(self) -> dict:
        """{row: ValueError} for every row that SystemParams would reject.

        The error of a row is the one constructing its SystemParams raises.
        """
        rows, errors = len(self.gamma1), {}
        with np.errstate(all="ignore"):
            for broken, message, args in _broken_rules(self):
                for row in np.flatnonzero(np.broadcast_to(broken, (rows,))):
                    errors.setdefault(int(row), ValueError(
                        message.format(*(a[row] for a in args))))
        return errors


# Sweeps solve in batches, so the writers set the memory: 200000-row
# `vkerr sweep` runs peaked at 144 MB (omega axis, CSV) and 329 MB (g1,
# JSON), which build their whole output text.  Longer grids are refused.
_MAX_GRID_POINTS = 200_000


def axis_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop; never past it beyond round-off.

    A stop that the steps reach only up to round-off is the last point,
    so a range that is a multiple of the step keeps both ends.  The grid
    must not be empty and must be strictly increasing, which round-off can
    break where the step is below the spacing of floats (1e17 + 1.0).  A
    range whose step count overflows (stop - start = inf), or a grid of
    more than _MAX_GRID_POINTS points, is refused before it is built.
    """
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("grid values must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise ValueError("grid step count (stop - start) / step must be finite")
    n = math.floor(steps + 1e-9)
    if n + 1 > _MAX_GRID_POINTS:
        raise ValueError(f"grid of {n + 1} points above the cap of "
                         f"{_MAX_GRID_POINTS}")
    # float64 products and sums: the bits of start + step * i in Python
    values = start + step * np.arange(n + 1)
    if not len(values):
        raise ValueError("grid must not be empty")
    if not (values[1:] > values[:-1]).all():
        raise ValueError("grid must be strictly increasing")
    return values


def effective_gamma12(params):
    """Cross damping sqrt(gamma1*gamma2)*cos(theta), or the explicit override.

    Defaults to exactly zero (perpendicular dipoles): the interference is
    then purely cavity-engineered.  For ParameterColumns, one value per row.
    """
    if params.gamma12_override is not None:
        return params.gamma12_override
    if params.theta is None:
        return 0.0 * params.gamma1     # 0.0, or a zero on every row
    return _sqrt(params.gamma1 * params.gamma2) * np.cos(params.theta)


def probe_detuning_to_delta_p(omega, params):
    """Convert omega = omega_p - omega_1 to delta_p = omega_p - omega_L.

    omega_L = omega_2 - delta and omega_21 = omega_2 - omega_1, hence
    delta_p = omega - omega21 + delta.  Its rounding limits chi near a probe
    line of half width Re G to ~eps (|omega21| + |delta|) / Re G relative:
    at worst 3.6e-11 (chi1) and 5.1e-11 (chi3) over 3000 two-level draws
    with gamma1 >= 1e-3; by that scaling a 1e-6 line would keep only ~1e-7.
    """
    return omega - params.omega21 + params.delta


def load_config(path) -> SystemParams:
    """Load a flat JSON config whose keys mirror the SystemParams fields.

    Every value is a number; the optional fields (theta, gamma12_override)
    may also be null, which leaves them unset.
    """
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(SystemParams._fields)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in raw.items():
        # bool is a subclass of int, so compare the exact JSON type; the
        # optional fields are those that default to None
        number = type(value) in (int, float)
        if not (number or value is None and SystemParams._field_defaults[key] is None):
            raise ValueError(f"{path}: {key} must be a number, got {json.dumps(value)}")
    return SystemParams(**{key: None if value is None else float(value)
                           for key, value in raw.items()})
