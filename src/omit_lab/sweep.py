"""Parameter sweeps and result files (CSV, JSON, manifest).

A sweep varies one named parameter over a list of values, recomputes the
sideband spectrum at each value (optionally re-locking the effective
detuning, which experiments hold fixed while turning a knob), and collects
the spectra into a :class:`ResultBundle` that can be written to disk as
one CSV per point plus an index and a SHA-256 manifest.

Parameter names reuse the configuration-file key spelling, so the same
string works in a config file, in :func:`apply_parameter`, and on the
command line; ``_hz`` values are plain frequencies (multiplied by 2*pi
internally), angles are radians or units of pi, powers are watts.

Outputs are deterministic: no timestamps and floats written with ``repr``
(shortest round-trip form), so a repeated run writes the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, OmitLabError
from .model import SystemConfig, lock_effective_detuning
from .sidebands import (
    Spectrum,
    _check_second_order_flag,
    _spectrum_grid,
    compute_spectrum,
)

__all__ = [
    "SWEEPABLE_PARAMETERS",
    "SweepSpec",
    "ResultBundle",
    "apply_parameter",
    "run_sweep",
    "write_spectrum_csv",
    "json_safe",
    "spectrum_to_dict",
    "write_bundle",
]

# Output column -> Spectrum attribute, in file order.
_COLUMN_SOURCES = {
    "omega_over_omega_m": "omega_normalized",
    "transmission": "transmission",
    "efficiency_percent": "efficiency_percent",
    "phase_rad": "phase",
    "group_delay_s": "group_delay",
    "route_discrepancy": "route_discrepancy",
}
CSV_COLUMNS = tuple(_COLUMN_SOURCES)

TWO_PI = 2.0 * math.pi


def _set_mode(config: SystemConfig, index: int, **changes) -> SystemConfig:
    if not 0 <= index < config.n_modes:
        raise InvalidParameterError(
            f"mode index {index} out of range for {config.n_modes} modes")
    modes = list(config.modes)
    modes[index] = replace(modes[index], **changes)
    return replace(config, modes=tuple(modes))


def _set_coupling(config: SystemConfig, index: int, **changes) -> SystemConfig:
    if not 0 <= index < len(config.couplings):
        raise InvalidParameterError(
            f"coupling index {index} out of range for "
            f"{len(config.couplings)} couplings")
    couplings = list(config.couplings)
    couplings[index] = replace(couplings[index], **changes)
    return replace(config, couplings=tuple(couplings))


def _set_drive(config: SystemConfig, index: int, **changes) -> SystemConfig:
    return replace(config, drive=replace(config.drive, **changes))


def _set_cavity(config: SystemConfig, index: int, **changes) -> SystemConfig:
    return replace(config, cavity=replace(config.cavity, **changes))


# Key -> (setter, value -> field changes).  A setter called without changes
# only checks ``index``, which is how run_sweep rejects a bad one up front.
SWEEPABLE_PARAMETERS = {
    "power_pump_w": (_set_drive, lambda v: {"power_pump": v}),
    "probe_ratio": (_set_drive,
                    lambda v: {"probe_ratio": v, "power_probe": None}),
    "delta_c_hz": (_set_cavity, lambda v: {"delta_c": TWO_PI * v}),
    "omega_hz": (_set_mode, lambda v: {"omega": TWO_PI * v}),
    "gamma_hz": (_set_mode, lambda v: {"gamma": TWO_PI * v}),
    "g_hz": (_set_mode, lambda v: {"g": TWO_PI * v, "mass": None}),
    "eta_hz": (_set_coupling, lambda v: {"eta": TWO_PI * v}),
    "theta_rad": (_set_coupling, lambda v: {"theta": v}),
    "theta_pi_units": (_set_coupling, lambda v: {"theta": v * math.pi}),
}


def apply_parameter(config: SystemConfig, parameter: str, value: float,
                    index: int = 0) -> SystemConfig:
    """Return a copy of ``config`` with one named parameter changed.

    ``parameter`` uses the config-file key spelling (see
    :data:`SWEEPABLE_PARAMETERS`); ``index`` selects the mode or coupling
    for per-element keys and is ignored by the global ones.
    """
    try:
        setter, changes = SWEEPABLE_PARAMETERS[parameter]
    except KeyError:
        raise InvalidParameterError(
            f"unknown sweep parameter {parameter!r}; choose from "
            f"{', '.join(sorted(SWEEPABLE_PARAMETERS))}") from None
    return setter(config, index, **changes(float(value)))


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description.

    ``lock_delta`` (rad/s), when set, re-locks the *effective* detuning to
    that value after each parameter change -- the usual experimental
    protocol when turning a knob that shifts the static displacements.
    """

    parameter: str
    values: tuple[float, ...]
    index: int = 0
    lock_delta: float | None = None

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise InvalidParameterError(
                f"unknown sweep parameter {self.parameter!r}")
        values = tuple(float(v) for v in self.values)
        if len(values) == 0:
            raise InvalidParameterError("sweep needs at least one value")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ResultBundle:
    """Spectra from a sweep, aligned with ``spec.values``.

    Points that failed carry ``None`` in ``spectra`` and the error message
    in ``errors``.
    """

    spec: SweepSpec
    spectra: tuple[Spectrum | None, ...]
    errors: tuple[str | None, ...]

    @property
    def n_failed(self) -> int:
        return sum(e is not None for e in self.errors)


def run_sweep(config: SystemConfig, spec: SweepSpec, *,
              omega: np.ndarray | None = None,
              span: tuple[float, float] = (0.8, 1.2),
              points: int = 4001,
              include_second_order: bool = True) -> ResultBundle:
    """Compute a spectrum per sweep value, one value after another.

    Failures at individual points (non-convergent steady state, singular
    response, ...) are recorded and do not abort the rest of the sweep.
    A mode or coupling index out of range for ``config``, a grid
    :func:`compute_spectrum` would refuse, or an ``include_second_order``
    that is not a ``bool`` would fail every point alike, so each raises
    :class:`InvalidParameterError` before any point is computed.
    """
    _check_second_order_flag(include_second_order)
    _spectrum_grid(omega, span, points, config.omega_ref)
    setter, _ = SWEEPABLE_PARAMETERS[spec.parameter]
    setter(config, spec.index)
    spectra: list[Spectrum | None] = []
    errors: list[str | None] = []
    for value in spec.values:
        try:
            point_cfg = apply_parameter(config, spec.parameter, value,
                                        spec.index)
            if spec.lock_delta is not None:
                point_cfg = lock_effective_detuning(point_cfg,
                                                    spec.lock_delta)
            spectra.append(compute_spectrum(
                point_cfg, omega, span=span, points=points,
                include_second_order=include_second_order))
            errors.append(None)
        except OmitLabError as exc:
            spectra.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    return ResultBundle(spec=spec, spectra=tuple(spectra),
                        errors=tuple(errors))


# ---------------------------------------------------------------------------
# File output


def _columns(spectrum: Spectrum) -> dict[str, np.ndarray]:
    return {name: getattr(spectrum, attr)
            for name, attr in _COLUMN_SOURCES.items()}


def write_spectrum_csv(spectrum: Spectrum, path_or_file) -> None:
    """Write a spectrum as CSV with the standard column set.

    Columns: ``omega_over_omega_m, transmission, efficiency_percent,
    phase_rad, group_delay_s, route_discrepancy``.  Values not computed
    (efficiency with the second order switched off, the closed-form check
    beyond two modes, delay at grid edges) are written as ``nan``.
    """
    rows = np.column_stack(list(_columns(spectrum).values()))
    lines = [",".join(CSV_COLUMNS)]
    # repr of a Python float: shortest round-trip form, NaN as 'nan'.
    lines.extend(",".join(map(repr, row)) for row in rows.tolist())
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def json_safe(value):
    """Make a value JSON-serialisable: complex -> re/im, NaN -> None."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, complex):
        return {"re": json_safe(value.real), "im": json_safe(value.imag)}
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.generic):
        return json_safe(value.item())
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def spectrum_to_dict(spectrum: Spectrum) -> dict:
    """JSON-ready dict of a spectrum (columns as named arrays)."""
    return json_safe({"metadata": spectrum.metadata,
                      "columns": _columns(spectrum)})


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def write_bundle(bundle: ResultBundle, out_dir, *,
                 fmt: str = "csv") -> list[Path]:
    """Write a sweep to ``out_dir``: per-point files, index, manifest.

    Produces ``point_NNN.csv`` (or ``.json``) per successful point,
    ``bundle.json`` mapping sweep values to files (with per-point summary
    metadata and error messages for failed points), and ``manifest.json``
    with the SHA-256 and size of every other written file.  Returns the
    list of paths written.
    """
    if fmt not in ("csv", "json"):
        raise InvalidParameterError(f"format must be csv or json, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    points = []
    for i, (value, spectrum, error) in enumerate(
            zip(bundle.spec.values, bundle.spectra, bundle.errors)):
        entry: dict = {"value": value, "error": error, "file": None}
        if spectrum is not None:
            name = f"point_{i:03d}.{fmt}"
            path = out / name
            if fmt == "csv":
                write_spectrum_csv(spectrum, path)
            else:
                path.write_text(
                    json.dumps(spectrum_to_dict(spectrum), indent=1,
                               allow_nan=False) + "\n",
                    encoding="utf-8")
            entry["file"] = name
            entry["metadata"] = json_safe(spectrum.metadata)
            written.append(path)
        points.append(entry)
    index = {
        "parameter": bundle.spec.parameter,
        "index": bundle.spec.index,
        "lock_delta": json_safe(bundle.spec.lock_delta),
        "values": list(bundle.spec.values),
        "points": points,
    }
    index_path = out / "bundle.json"
    index_path.write_text(json.dumps(index, indent=1, allow_nan=False) + "\n",
                          encoding="utf-8")
    written.append(index_path)
    manifest = {
        "files": {
            p.name: {"sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in sorted(written, key=lambda p: p.name)
        }
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n",
                             encoding="utf-8")
    written.append(manifest_path)
    return written
