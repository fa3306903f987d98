"""Command-line interface.

Subcommands::

    omit-lab spectrum --config sys.cfg                  # CSV to stdout
    omit-lab sweep    --config sys.cfg --param theta_rad --range 0:6.283:61 \
                      --lock-delta 1.0 --out-dir out
    omit-lab darkmode --config sys.cfg                  # JSON report
    omit-lab nmode    --n 4 --eta-frac 0.05 --theta-pi 0.5
    omit-lab oracle   --config sys.cfg --omega-frac 0.95
    omit-lab figure   fig3 --out-dir fig3_data

Exit codes: 0 success; 2 configuration or argument problems, a
non-finite sweep value, or an output that cannot be written; 3 numerical
failures (non-convergence, instability, singular systems); 4 requests
outside a method's domain (unsupported layout, regime, degenerate point).
The darkmode report skips a section, with its reason, for exactly the
errors of exit code 4; any other error ends it with that error's code.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .config_io import _write_text, load_config
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
    _json_text,
    _spectrum_text,
    run_sweep,
    write_bundle,
)

_EXIT_BAD_INPUT = 2
_EXIT_NUMERICAL = 3
_EXIT_UNSUPPORTED = 4
_OUT_OF_DOMAIN = (UnsupportedTopologyError, RegimeViolationError,
                  DegeneratePointError)


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


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_spectrum(args: argparse.Namespace) -> str:
    config = load_config(args.config)
    spectrum = compute_spectrum(
        config, include_second_order=not args.no_second_order,
        **_grid_kwargs(args))
    return _spectrum_text(spectrum, args.format)


def _cmd_sweep(args: argparse.Namespace) -> str:
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
    if bundle.n_failed:
        print(f"warning: {bundle.n_failed} point(s) failed; see bundle.json",
              file=sys.stderr)
    return "".join(f"{path}\n" for path in written)


def _unless_out_of_domain(compute, *args) -> tuple:
    """``(compute(*args), None)``, or ``(None, reason)`` where ``compute``
    refuses the request as outside its domain (exit code 4)."""
    try:
        return compute(*args), None
    except _OUT_OF_DOMAIN as exc:
        return None, str(exc)


def _cmd_darkmode(args: argparse.Namespace) -> str:
    config = load_config(args.config)
    steady = solve_steady_state(config)
    report, hybrid_skipped = _unless_out_of_domain(hybridize_two_mode,
                                                   config, steady)
    broken, ratio = ((None, None) if report is None
                     else _dark_mode_broken(report))
    adiabatic, adiabatic_skipped = _unless_out_of_domain(
        adiabatic_elimination, config, steady)
    linewidth, prediction_skipped = _unless_out_of_domain(
        predict_linewidth, config, steady)
    return _json_text({
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
        "hybrid": None if report is None else asdict(report),
        "hybrid_skipped": hybrid_skipped,
        "dark_mode_broken": broken,
        "coupling_ratio": ratio,
        "adiabatic": None if adiabatic is None else asdict(adiabatic),
        "adiabatic_skipped": adiabatic_skipped,
        "predicted_linewidth_rad_s": linewidth,
        "prediction_skipped": prediction_skipped,
    })


def _cmd_nmode(args: argparse.Namespace) -> str:
    config = standard_setup(args.n, eta_frac=args.eta_frac,
                            theta=args.theta_pi * np.pi,
                            power_w=args.power_w,
                            probe_ratio=args.probe_ratio)
    if args.basis:
        steady = solve_steady_state(config)
        basis = build_normal_modes(config, steady)
        return _json_text({
            "n": basis.n,
            "frequencies_rad_s": basis.frequencies,
            "damping_rad_s": basis.damping,
            "phases_rad": basis.phases,
            "couplings_rad_s": [complex(c) for c in basis.couplings],
            "dark_mode_indices": _dark_indices(basis.couplings),
        })
    spectrum = compute_spectrum(config, include_second_order=False,
                                **_grid_kwargs(args))
    if args.count_only:
        return f"{count_windows(spectrum)}\n"
    return _spectrum_text(spectrum, args.format)


def _cmd_oracle(args: argparse.Namespace) -> str:
    config = load_config(args.config)
    omega = args.omega_frac * config.omega_ref
    return _json_text(asdict(sideband_closure(
        config, omega, probe_ratio=args.probe_ratio)))


def _cmd_figure(args: argparse.Namespace) -> str:
    out_dir = args.out_dir if args.out_dir is not None else f"{args.name}_data"
    return "".join(f"{path}\n"
                   for path in run_figure_preset(args.name, out_dir))


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
    out = getattr(args, "out", None)
    try:
        text = args.handler(args)
        if out is None or out == "-":
            sys.stdout.write(text)
        else:
            _write_text(out, text)
    except (ConfigError, InvalidParameterError, OSError) as exc:
        print(f"omit-lab: error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT
    except (NonConvergentError, UnstableIntegrationError,
            SingularSystemError) as exc:
        print(f"omit-lab: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except _OUT_OF_DOMAIN as exc:
        print(f"omit-lab: unsupported request: {exc}", file=sys.stderr)
        return _EXIT_UNSUPPORTED
    return 0


if __name__ == "__main__":
    sys.exit(main())
