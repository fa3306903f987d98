"""Command-line interface.

Subcommands::

    omit-lab spectrum --config sys.cfg                  # CSV to stdout
    omit-lab sweep    --config sys.cfg --param theta_rad --range 0:6.283:61 \
                      --lock-delta 1.0 --out-dir out
    omit-lab darkmode --config sys.cfg                  # JSON report
    omit-lab nmode    --n 4 --eta-frac 0.05 --theta-pi 0.5
    omit-lab oracle   --config sys.cfg --omega-frac 0.95
    omit-lab figure   fig3 --out-dir fig3_data

Exit codes: 0 success; 2 configuration or argument problems; 3 numerical
failures (non-convergence, instability, singular systems); 4 requests
outside a method's domain (unsupported layout, regime, degenerate point).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .config_io import load_config
from .darkmode import (
    _dark_indices,
    _dark_mode_broken,
    adiabatic_elimination,
    hybridize_two_mode,
    predict_linewidth,
)
from .errors import (
    ConfigError,
    DegeneratePointError,
    InvalidParameterError,
    NonConvergentError,
    OmitLabError,
    RegimeViolationError,
    SingularSystemError,
    UnstableIntegrationError,
    UnsupportedTopologyError,
)
from .model import solve_steady_state
from .nmode import build_normal_modes, count_windows
from .oracle import sideband_closure
from .presets import figure_presets, run_figure_preset, standard_setup
from .sidebands import compute_spectrum
from .sweep import (
    SweepSpec,
    _spectrum_text,
    json_safe,
    run_sweep,
    write_bundle,
)

_EXIT_BAD_INPUT = 2
_EXIT_NUMERICAL = 3
_EXIT_UNSUPPORTED = 4


def _parse_lo_hi_count(flag: str, text: str) -> tuple[float, float, int]:
    """Split the LO:HI:COUNT given to ``flag``; each flag checks bounds."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(
            f"{flag} expects LO:HI:COUNT, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameterError(
            f"{flag} expects numbers, got {text!r}") from None


def _grid_kwargs(args: argparse.Namespace) -> dict:
    """``span`` and ``points`` from ``--omega-grid`` (LO, HI in units of
    the reference frequency); none when the flag is absent.
    ``compute_spectrum`` and ``run_sweep`` check them before any work."""
    if args.omega_grid is None:
        return {}
    lo, hi, count = _parse_lo_hi_count("--omega-grid", args.omega_grid)
    return {"span": (lo, hi), "points": count}


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise InvalidParameterError(
            f"--values expects comma-separated numbers, got {text!r}"
        ) from None


def _parse_range(text: str) -> tuple[float, ...]:
    lo, hi, count = _parse_lo_hi_count("--range", text)
    if count < 1:
        raise InvalidParameterError("--range COUNT must be >= 1")
    return tuple(np.linspace(lo, hi, count))


def _emit_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit_text(json.dumps(json_safe(payload), indent=1, allow_nan=False)
               + "\n", out)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_spectrum(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    spectrum = compute_spectrum(
        config, include_second_order=not args.no_second_order,
        **_grid_kwargs(args))
    _emit_text(_spectrum_text(spectrum, args.format), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if (args.values is None) == (args.range is None):
        raise InvalidParameterError(
            "provide exactly one of --values or --range")
    values = (_parse_values(args.values) if args.values is not None
              else _parse_range(args.range))
    lock = None
    if args.lock_delta is not None:
        lock = args.lock_delta * config.omega_ref
    spec = SweepSpec(parameter=args.param, values=values, index=args.index,
                     lock_delta=lock)
    bundle = run_sweep(config, spec,
                       include_second_order=not args.no_second_order,
                       **_grid_kwargs(args))
    written = write_bundle(bundle, args.out_dir, fmt=args.format)
    for path in written:
        print(path)
    if bundle.n_failed:
        print(f"warning: {bundle.n_failed} point(s) failed; see bundle.json",
              file=sys.stderr)
    return 0


def _cmd_darkmode(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    steady = solve_steady_state(config)
    try:
        report = hybridize_two_mode(config, steady)
        hybrid = asdict(report)
        broken, ratio = _dark_mode_broken(report)
        hybrid_skipped = None
    except UnsupportedTopologyError as exc:
        hybrid = broken = ratio = None
        hybrid_skipped = str(exc)
    payload = {
        "steady": {
            "alpha": complex(steady.alpha),
            "photon_number": steady.photon_number,
            "delta_eff_rad_s": steady.delta_eff,
            "multistable": steady.multistable,
            "branches_omega_m": [d / config.omega_ref
                                 for d in steady.branches],
            "branch_index": steady.branch_index,
            "stability_margin_per_s": steady.margin,
        },
        "hybrid": hybrid,
        "hybrid_skipped": hybrid_skipped,
        "dark_mode_broken": broken,
        "coupling_ratio": ratio,
    }
    try:
        payload["adiabatic"] = asdict(adiabatic_elimination(config, steady))
        payload["adiabatic_skipped"] = None
    except OmitLabError as exc:
        payload["adiabatic"] = None
        payload["adiabatic_skipped"] = str(exc)
    try:
        payload["predicted_linewidth_rad_s"] = predict_linewidth(config,
                                                                 steady)
        payload["prediction_skipped"] = None
    except OmitLabError as exc:
        payload["predicted_linewidth_rad_s"] = None
        payload["prediction_skipped"] = str(exc)
    _emit_json(payload, args.out)
    return 0


def _cmd_nmode(args: argparse.Namespace) -> int:
    config = standard_setup(args.n, eta_frac=args.eta_frac,
                            theta=args.theta_pi * np.pi,
                            power_w=args.power_w,
                            probe_ratio=args.probe_ratio)
    if args.basis:
        steady = solve_steady_state(config)
        basis = build_normal_modes(config, steady)
        _emit_json({
            "n": basis.n,
            "frequencies_rad_s": basis.frequencies,
            "damping_rad_s": basis.damping,
            "phases_rad": basis.phases,
            "couplings_rad_s": [complex(c) for c in basis.couplings],
            "dark_mode_indices": _dark_indices(basis.couplings),
        }, args.out)
        return 0
    spectrum = compute_spectrum(config, include_second_order=False,
                                **_grid_kwargs(args))
    if args.count_only:
        _emit_text(f"{count_windows(spectrum)}\n", args.out)
        return 0
    _emit_text(_spectrum_text(spectrum, args.format), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    omega = args.omega_frac * config.omega_ref
    report = sideband_closure(config, omega, probe_ratio=args.probe_ratio)
    _emit_json(asdict(report), args.out)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    out_dir = args.out_dir if args.out_dir is not None else f"{args.name}_data"
    written = run_figure_preset(args.name, out_dir)
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omit-lab",
        description="Multimode OMIT: sideband spectra, dark-mode control, "
                    "time-domain cross-checks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum",
                        help="sideband spectrum of a configured system")
    sp.add_argument("--config", required=True, help="configuration file")
    sp.add_argument("--omega-grid", metavar="LO:HI:COUNT",
                    help="detuning grid in units of the reference "
                         "mechanical frequency (default 0.8:1.2:4001)")
    sp.add_argument("--no-second-order", action="store_true",
                    help="skip the second-order sideband")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.set_defaults(handler=_cmd_spectrum)

    sw = sub.add_parser("sweep", help="spectrum per value of one parameter")
    sw.add_argument("--config", required=True)
    sw.add_argument("--param", required=True,
                    help="config-style key, e.g. theta_rad, eta_hz, "
                         "power_pump_w")
    sw.add_argument("--index", type=int, default=0,
                    help="mode/coupling index for per-element keys")
    sw.add_argument("--values", help="comma-separated values")
    sw.add_argument("--range", help="LO:HI:COUNT uniform values")
    sw.add_argument("--lock-delta", type=float, metavar="FRAC",
                    help="re-lock effective detuning to FRAC * omega_ref "
                         "at each point")
    sw.add_argument("--omega-grid", metavar="LO:HI:COUNT")
    sw.add_argument("--no-second-order", action="store_true")
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.add_argument("--out-dir", required=True)
    sw.set_defaults(handler=_cmd_sweep)

    dm = sub.add_parser("darkmode",
                        help="hybridisation / dark-mode report (JSON)")
    dm.add_argument("--config", required=True)
    dm.add_argument("--out", help="output file (default: stdout)")
    dm.set_defaults(handler=_cmd_darkmode)

    nm = sub.add_parser("nmode",
                        help="uniform N-mode chain from benchmark parameters")
    nm.add_argument("--n", type=int, required=True,
                    help="number of mechanical modes")
    nm.add_argument("--eta-frac", type=float, default=0.05,
                    help="hopping / omega_m (default 0.05)")
    nm.add_argument("--theta-pi", type=float, default=0.5,
                    help="first-link phase in units of pi (default 0.5)")
    nm.add_argument("--power-w", type=float, default=None)
    nm.add_argument("--probe-ratio", type=float, default=None)
    nm.add_argument("--omega-grid", metavar="LO:HI:COUNT")
    shown = nm.add_mutually_exclusive_group()
    shown.add_argument("--basis", action="store_true",
                       help="print the normal-mode basis as JSON instead "
                            "of a spectrum")
    shown.add_argument("--count-only", action="store_true",
                       help="print only the transparency window count")
    nm.add_argument("--format", choices=("csv", "json"), default="csv")
    nm.add_argument("--out", help="output file (default: stdout)")
    nm.set_defaults(handler=_cmd_nmode)

    orc = sub.add_parser("oracle",
                         help="time-domain check of the sideband solution")
    orc.add_argument("--config", required=True)
    orc.add_argument("--omega-frac", type=float, required=True,
                     help="probe detuning in units of the reference "
                          "mechanical frequency")
    orc.add_argument("--probe-ratio", type=float, default=0.01)
    orc.add_argument("--out", help="output file (default: stdout)")
    orc.set_defaults(handler=_cmd_oracle)

    fg = sub.add_parser("figure", help="regenerate a standard figure's data")
    fg.add_argument("name", choices=sorted(figure_presets()),
                    help="preset name")
    fg.add_argument("--out-dir", default=None,
                    help="output directory (default: <name>_data)")
    fg.set_defaults(handler=_cmd_figure)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"omit-lab: error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT
    except (NonConvergentError, UnstableIntegrationError,
            SingularSystemError) as exc:
        print(f"omit-lab: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (UnsupportedTopologyError, RegimeViolationError,
            DegeneratePointError) as exc:
        print(f"omit-lab: unsupported request: {exc}", file=sys.stderr)
        return _EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
