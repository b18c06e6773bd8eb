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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemParams",
    "ParameterColumns",
    "ProbeGrid",
    "RegimeAdvisory",
    "effective_gamma12",
    "probe_detuning_to_delta_p",
    "load_config",
]


class RegimeAdvisory(UserWarning):
    """Parameters are outside kappa >> g1, g2 >> gamma1, gamma2."""


@dataclass(frozen=True)
class SystemParams:
    """Immutable parameter set for the driven V-type atom in a cavity.

    ``theta`` is the angle between the two transition dipole moments and
    sets the free-space cross damping sqrt(gamma1*gamma2)*cos(theta);
    alternatively ``gamma12_override`` fixes the cross damping directly.
    The two are mutually exclusive; with neither given, the dipoles are
    taken perpendicular and the cross damping is exactly zero.
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
    regime_factor: float = 3.0
    advisory: bool = field(init=False, default=False)

    def __post_init__(self):
        for _, message, args in _broken_rules(self):
            raise ValueError(message.format(*args))
        # only channels that actually couple to the cavity constrain the
        # kappa >> g >> gamma hierarchy; g = 0 means nothing to eliminate
        f = self.regime_factor
        couplings = [g for g in (self.g1, self.g2) if g > 0.0]
        gamma_max = max(self.gamma1, self.gamma2)
        bad_cavity = all(self.kappa >= f * g and g >= f * gamma_max
                         for g in couplings)
        if not bad_cavity:
            object.__setattr__(self, "advisory", True)
            warnings.warn(
                "parameters violate kappa >> g1, g2 >> gamma1, gamma2 "
                f"(factor {f:g}); adiabatic elimination may degrade",
                RegimeAdvisory, stacklevel=2)

    def replace(self, **kwargs) -> "SystemParams":
        data = self.as_dict()
        # choosing one cross-damping convention displaces the other
        if "theta" in kwargs and "gamma12_override" not in kwargs:
            data["gamma12_override"] = None
        if "gamma12_override" in kwargs and "theta" not in kwargs:
            data["theta"] = None
        data.update(kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeAdvisory)
            return SystemParams(**data)

    def as_dict(self) -> dict:
        return {
            "gamma1": self.gamma1, "gamma2": self.gamma2,
            "g1": self.g1, "g2": self.g2, "kappa": self.kappa,
            "omega21": self.omega21, "omega_L_rabi": self.omega_L_rabi,
            "delta": self.delta, "delta_c": self.delta_c,
            "theta": self.theta, "gamma12_override": self.gamma12_override,
            "regime_factor": self.regime_factor,
        }


# every field that ParameterColumns carries; theta and gamma12_override may be unset
_COLUMNS = ("gamma1", "gamma2", "g1", "g2", "kappa", "omega21", "omega_L_rabi",
            "delta", "delta_c", "theta", "gamma12_override")


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
    for name in _COLUMNS[:-1]:
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


@dataclass(frozen=True)
class ParameterColumns:
    """The SystemParams fields along a row axis: many parameter sets at once.

    Every field is a 1-D float array with one entry per row; theta and
    gamma12_override are None where unset on every row.  A parameter-axis
    sweep evaluates its rows from one ParameterColumns instead of one
    SystemParams per row.
    """

    gamma1: np.ndarray
    gamma2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    kappa: np.ndarray
    omega21: np.ndarray
    omega_L_rabi: np.ndarray
    delta: np.ndarray
    delta_c: np.ndarray
    theta: np.ndarray | None = None
    gamma12_override: np.ndarray | None = None

    @classmethod
    def along(cls, params: SystemParams, axis_name: str | None = None,
              values=()) -> "ParameterColumns":
        """``params`` on every row, with field ``axis_name`` set to ``values``.

        Without an axis there is one row.  Setting theta clears
        gamma12_override, as ``SystemParams.replace`` does.
        """
        data = params.as_dict()
        if axis_name is not None:
            if axis_name == "theta":
                data["gamma12_override"] = None
            data[axis_name] = 0.0
        names = [name for name in _COLUMNS if data[name] is not None]
        table = np.empty((len(names), 1 if axis_name is None else len(values)))
        table[:] = [[data[name]] for name in names]
        if axis_name is not None:
            table[names.index(axis_name)] = values
        return cls(**dict(zip(names, table)))

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


@dataclass(frozen=True)
class ProbeGrid:
    """Strictly increasing grid of probe detunings omega = omega_p - omega_1."""

    omega_values: tuple

    def __init__(self, omega_values):
        values = tuple(float(w) for w in omega_values)
        if not values:
            raise ValueError("probe grid must not be empty")
        if any(not math.isfinite(w) for w in values):
            raise ValueError("probe grid values must be finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("probe grid must be strictly increasing")
        object.__setattr__(self, "omega_values", values)

    @classmethod
    def from_range(cls, start: float, stop: float, step: float) -> "ProbeGrid":
        if step <= 0:
            raise ValueError("step must be positive")
        n = int(round((stop - start) / step))
        return cls(start + step * i for i in range(n + 1))

    def __len__(self):
        return len(self.omega_values)

    def __iter__(self):
        return iter(self.omega_values)


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
    delta_p = omega - omega21 + delta.
    """
    return omega - params.omega21 + params.delta


# keys accepted in a config file, all plain numbers (gamma12_override may be null)
_CONFIG_KEYS = ("gamma1", "gamma2", "g1", "g2", "kappa", "omega21",
                "omega_L_rabi", "delta", "delta_c", "theta",
                "gamma12_override", "regime_factor")


def load_config(path) -> SystemParams:
    """Load a flat JSON config whose keys mirror the SystemParams fields."""
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    if "theta" in raw and raw.get("gamma12_override") is not None:
        raise ValueError(f"{path}: theta and gamma12_override are mutually exclusive")
    kwargs = {}
    for key, value in raw.items():
        if key == "gamma12_override":
            kwargs[key] = None if value is None else float(value)
        else:
            kwargs[key] = float(value)
    return SystemParams(**kwargs)
