"""Command-line front end.

Modes: single-point evaluation, sweeps over the probe detuning or any one
parameter, feature detection, oracle comparison against the full
atom+cavity model, and figure presets that bundle the published parameter
sets.  Outputs are deterministic: byte-identical reruns for identical
inputs (no timestamps inside payloads).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .dressed import coefficient_set
from .floquet import zeroth_order_steady_state
from .params import SystemParams, axis_grid, load_config
from .susceptibility import (chi, find_features, metadata, result_metadata,
                             sweep, write_csv, write_json)

# presets pin the published parameter sets; sweep grids are our documented
# defaults (captions fix parameters, not grids) and accept --start/--stop/--step
_FIG2 = dict(gamma1=0.1, gamma2=0.1, g1=5.0, g2=15.0, kappa=100.0,
             omega21=200.0, omega_L_rabi=200.0, delta=0.0)
PRESETS = {
    "fig2a": {"params": dict(_FIG2, delta_c=0.0), "axis": "omega",
              "grid": (190.0, 210.0, 0.005)},
    "fig2b": {"params": dict(_FIG2, delta_c=50.0), "axis": "omega",
              "grid": (190.0, 210.0, 0.005)},
    "fig2c": {"params": dict(_FIG2, delta_c=200.0), "axis": "omega",
              "grid": (190.0, 210.0, 0.005)},
    "fig3a": {"params": dict(_FIG2, delta_c=200.0, omega21=250.0),
              "axis": "omega", "grid": (190.0, 210.0, 0.005)},
    # fig3b plots ratio curves; the CSV carries ratio_31/ratio_33 columns.
    # The interference-free comparison curve is fig3a's parameter set.
    "fig3b": {"params": dict(_FIG2, delta_c=200.0), "axis": "omega",
              "grid": (199.0, 201.5, 0.005)},
    "fig4a": {"params": dict(_FIG2, delta_c=200.0, gamma1=0.001),
              "axis": "omega", "grid": (190.0, 210.0, 0.005)},
    "fig4b": {"params": dict(_FIG2, delta_c=200.0, gamma1=0.001),
              "axis": "g1", "grid": (0.0, 10.0, 0.05), "omega": 200.122},
    "fig5": {"params": dict(_FIG2, delta_c=200.0, kappa=200.0),
             "axis": "omega", "grid": (190.0, 210.0, 0.005)},
}


def _add_common(p, config=True):
    """--config (unless a preset fixes the parameters), --gamma12, --out."""
    if config:
        p.add_argument("--config", help="flat JSON file with SystemParams fields")
    p.add_argument("--gamma12", type=float, default=None,
                   help="override the effective cross damping")
    p.add_argument("--out", help="output file (default: stdout)")


def _add_grid(p, axis=True):
    """--start/--stop/--step, and --axis/--omega unless a preset fixes them."""
    if axis:
        p.add_argument("--axis", default="omega",
                       help="sweep axis: omega or a parameter name")
        p.add_argument("--omega", type=float,
                       help="fixed probe detuning for parameter sweeps")
    for name in ("start", "stop", "step"):
        p.add_argument(f"--{name}", type=float)


class _Parser(argparse.ArgumentParser):
    """Reads ``--start -4.4e-05`` and ``--omega -5.`` as values: argparse's
    own negative-number pattern has no exponent or trailing dot and takes
    such a value for an option flag.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vkerr",
        description="linear and Kerr susceptibilities of a driven V-type "
                    "atom coupled to a damped cavity")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("point", help="evaluate chi at one probe detuning")
    _add_common(p)
    p.add_argument("--omega", type=float, required=True)

    p = sub.add_parser("sweep", help="sweep omega or one parameter")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("features", help="sweep, then report zero crossings, "
                                        "extrema and transparency points")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--transparency-frac", type=float, default=0.05)

    p = sub.add_parser("oracle-compare",
                       help="analytic steady state vs full Lindblad model")
    _add_common(p)
    p.add_argument("--fock-cutoff", type=int, default=None,
                   help="photon cutoff (default: auto-converged)")

    p = sub.add_parser("figure-preset", help="run a published parameter set")
    p.add_argument("preset", choices=sorted(PRESETS))
    _add_common(p, config=False)
    _add_grid(p, axis=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("dump-coefficients",
                       help="debug: all dressed-frame coefficients as JSON")
    _add_common(p)
    return parser


def _load_params(args, params=None) -> SystemParams:
    """``params``, else --config or the defaults; then --gamma12 on top."""
    if params is None:
        params = load_config(args.config) if args.config else SystemParams()
    if args.gamma12 is not None:
        params = params.replace(gamma12_override=args.gamma12)
    return params


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _number(value):
    """A JSON number, a complex one as [re, im]."""
    return [value.real, value.imag] if isinstance(value, complex) else value


def _run_point(args) -> None:
    params = _load_params(args)
    result = chi(params, args.omega)
    _emit({"metadata": metadata(params), "omega": args.omega,
           **result._asdict()}, args.out)


def _sweep_from_args(args, params=None):
    params = _load_params(args, params)
    if args.step is None:
        raise ValueError("need --step")
    if args.start is None or args.stop is None:
        raise ValueError("need --start and --stop")
    grid = axis_grid(args.start, args.stop, args.step)
    return sweep(params, grid, axis_name=args.axis, omega=args.omega)


def _run_sweep(args, params=None, extra_metadata=None):
    if args.format == "json" and args.out is None:
        raise ValueError("json sweep output needs --out")
    result = _sweep_from_args(args, params)
    if args.format == "csv":
        write_csv(result, args.out if args.out is not None else sys.stdout)
    else:
        write_json(result, args.out, extra_metadata)
    return result


def _run_features(args) -> None:
    result = _sweep_from_args(args)
    report = find_features(result, transparency_fraction=args.transparency_frac)
    _emit({"metadata": result_metadata(result), **report._asdict()}, args.out)


def _run_oracle_compare(args) -> None:
    from .oracle import (FockTruncation, converged_steady_state,
                         lindblad_steady_state)
    params = _load_params(args)
    analytic = zeroth_order_steady_state(coefficient_set(params))
    if args.fock_cutoff is not None:
        trunc = FockTruncation(args.fock_cutoff)
        numeric = lindblad_steady_state(params, trunc)
    else:
        numeric, trunc = converged_steady_state(params)
    elements = {}
    for name, a, b in zip(analytic._fields, analytic, numeric):
        delta = abs(a - b)
        elements[name] = {"analytic": _number(a), "oracle": _number(b),
                          "abs_delta": delta,
                          "rel_delta": delta / abs(b) if abs(b) > 0 else None}
    _emit({"metadata": metadata(params, fock_cutoff=trunc.n_max),
           "elements": elements,
           "max_abs_delta": max(e["abs_delta"] for e in elements.values())},
          args.out)


def _run_figure_preset(args) -> None:
    """The sweep runner, with the preset's parameters, axis and grid."""
    preset = PRESETS[args.preset]
    for name, default in zip(("start", "stop", "step"), preset["grid"]):
        if getattr(args, name) is None:
            setattr(args, name, default)
    args.axis, args.omega = preset["axis"], preset.get("omega")
    args.out = args.out or f"{args.preset}.{args.format}"
    result = _run_sweep(args, SystemParams(**preset["params"]),
                        {"preset": args.preset})
    sys.stderr.write(f"{args.preset}: {len(result)} rows "
                     f"({result.n_failed} failed) -> {args.out}\n")


# dump-coefficients writes the flat CoefficientSet after its basis in these
# blocks, in the record's field order
_COEFFICIENT_BLOCKS = {
    "cavity_response": ("B0", "B1", "B2", "B3", "B4"),
    "interference": ("x1", "x2", "x3", "x4"),
    "rates": ("R_plus_minus", "R_minus_plus", "R_1_minus", "R_1_plus", "Gamma0",
              "Gamma_minus", "Gamma_plus", "Gamma1", "Gamma2", "Gamma3",
              "gamma0_pair"),
}


def _run_dump_coefficients(args) -> None:
    params = _load_params(args)
    coeffs = coefficient_set(params)
    meta = metadata(params)
    _emit({"metadata": meta, "gamma12": meta.pop("gamma12"),
           "basis": coeffs.basis._asdict(),     # real numbers only
           **{block: {name: _number(getattr(coeffs, name)) for name in names}
              for block, names in _COEFFICIENT_BLOCKS.items()}}, args.out)


_RUNNERS = {
    "point": _run_point,
    "sweep": _run_sweep,
    "features": _run_features,
    "oracle-compare": _run_oracle_compare,
    "figure-preset": _run_figure_preset,
    "dump-coefficients": _run_dump_coefficients,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _RUNNERS[args.mode](args)
    except Exception as exc:   # machine-readable failure on any module error
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(error) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
