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
import sys

from . import __version__
from .dressed import coefficient_set
from .floquet import zeroth_order_steady_state
from .oracle import FockTruncation, converged_steady_state, lindblad_steady_state
from .params import ProbeGrid, SystemParams, effective_gamma12, load_config
from .susceptibility import (chi, find_features, result_metadata, sweep,
                             write_csv, write_json)

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


def _add_common(p):
    p.add_argument("--config", help="flat JSON file with SystemParams fields")
    p.add_argument("--gamma12", type=float, default=None,
                   help="override the effective cross damping")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)


def _add_grid(p):
    p.add_argument("--axis", default="omega",
                   help="sweep axis: omega or a parameter name")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--omega", type=float,
                   help="fixed probe detuning for parameter sweeps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_common(p)
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--step", type=float)

    p = sub.add_parser("dump-coefficients",
                       help="debug: all dressed-frame coefficients as JSON")
    _add_common(p)
    return parser


def _load_params(args) -> SystemParams:
    params = load_config(args.config) if args.config else SystemParams()
    if getattr(args, "gamma12", None) is not None:
        params = params.replace(gamma12_override=args.gamma12)
    return params


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _complexes(d):
    return {k: [v.real, v.imag] if isinstance(v, complex) else v
            for k, v in d.items()}


def _run_point(args) -> int:
    params = _load_params(args)
    result = chi(params, args.omega)
    payload = {
        "metadata": {"tool_version": __version__, "params": params.as_dict(),
                     "gamma12": effective_gamma12(params)},
        "omega": args.omega,
        "re_chi1": result.re_chi1, "im_chi1": result.im_chi1,
        "re_chi3": result.re_chi3, "im_chi3": result.im_chi3,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _sweep_from_args(args, params):
    if args.step is None:
        raise ValueError("need --step")
    if args.start is None or args.stop is None:
        raise ValueError("need --start and --stop")
    grid = ProbeGrid.from_range(args.start, args.stop, args.step)
    return sweep(params, grid, axis_name=args.axis, omega=args.omega)


def _run_sweep(args) -> int:
    params = _load_params(args)
    result = _sweep_from_args(args, params)
    fmt = args.format or "csv"
    if fmt == "csv":
        write_csv(result, args.out if args.out is not None else sys.stdout)
    else:
        if args.out is None:
            raise ValueError("json sweep output needs --out")
        write_json(result, args.out)
    return 0


def _run_features(args) -> int:
    params = _load_params(args)
    result = _sweep_from_args(args, params)
    report = find_features(result, transparency_fraction=args.transparency_frac)
    payload = {
        "metadata": result_metadata(result),
        "im_chi3_zeros": list(report.im_chi3_zeros),
        "re_chi3_extrema": [list(e) for e in report.re_chi3_extrema],
        "transparency_points": list(report.transparency_points),
        "transparency_fraction": report.transparency_fraction,
        "re_chi3_peak": report.re_chi3_peak,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _run_oracle_compare(args) -> int:
    params = _load_params(args)
    analytic = zeroth_order_steady_state(coefficient_set(params))
    if args.fock_cutoff is not None:
        trunc = FockTruncation(args.fock_cutoff)
        numeric = lindblad_steady_state(params, trunc)
    else:
        numeric, trunc = converged_steady_state(params)
    elements = {}
    deltas = []
    for name in ("rho_11", "rho_mm", "rho_pp", "rho_m1"):
        a, b = getattr(analytic, name), getattr(numeric, name)
        delta = abs(a - b)
        deltas.append(delta)
        elements[name] = {
            "analytic": [a.real, a.imag] if isinstance(a, complex) else a,
            "oracle": [b.real, b.imag] if isinstance(b, complex) else b,
            "abs_delta": delta,
            "rel_delta": delta / abs(b) if abs(b) > 0 else None,
        }
    payload = {
        "metadata": {"tool_version": __version__, "params": params.as_dict(),
                     "gamma12": effective_gamma12(params),
                     "fock_cutoff": trunc.n_max},
        "elements": elements,
        "max_abs_delta": max(deltas),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _run_figure_preset(args) -> int:
    preset = PRESETS[args.preset]
    params = SystemParams(**preset["params"])
    if getattr(args, "gamma12", None) is not None:
        params = params.replace(gamma12_override=args.gamma12)
    start, stop, step = preset["grid"]
    grid = ProbeGrid.from_range(
        args.start if args.start is not None else start,
        args.stop if args.stop is not None else stop,
        args.step if args.step is not None else step)
    result = sweep(params, grid, axis_name=preset["axis"],
                   omega=preset.get("omega"))
    fmt = args.format or "csv"
    out = args.out or f"{args.preset}.{fmt}"
    if fmt == "csv":
        write_csv(result, out)
    else:
        write_json(result, out, extra_metadata={"preset": args.preset})
    sys.stderr.write(f"{args.preset}: {len(result.rows)} rows "
                     f"({result.n_failed} failed) -> {out}\n")
    return 0


def _run_dump_coefficients(args) -> int:
    params = _load_params(args)
    cs = coefficient_set(params)
    b, r, x, resp = cs.basis, cs.rates, cs.interference, cs.response
    payload = {
        "metadata": {"tool_version": __version__, "params": params.as_dict()},
        "gamma12": cs.gamma12,
        "basis": {"c": b.c, "s": b.s, "omega_R": b.omega_R,
                  "lambda_plus": b.lambda_plus, "lambda_minus": b.lambda_minus,
                  "lambda_1": b.lambda_1},
        "cavity_response": _complexes({"B0": resp.B0, "B1": resp.B1,
                                       "B2": resp.B2, "B3": resp.B3,
                                       "B4": resp.B4}),
        "interference": _complexes({"x1": x.x1, "x2": x.x2,
                                    "x3": x.x3, "x4": x.x4}),
        "rates": _complexes({
            "R_plus_minus": r.R_plus_minus, "R_minus_plus": r.R_minus_plus,
            "R_1_minus": r.R_1_minus, "R_1_plus": r.R_1_plus,
            "Gamma0": r.Gamma0, "Gamma_minus": r.Gamma_minus,
            "Gamma_plus": r.Gamma_plus, "Gamma1": r.Gamma1,
            "Gamma2": r.Gamma2, "Gamma3": r.Gamma3,
            "gamma0_pair": r.gamma0_pair,
        }),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


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
        return _RUNNERS[args.mode](args)
    except Exception as exc:   # machine-readable failure on any module error
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(error) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
