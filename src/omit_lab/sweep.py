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
Formatting those floats is most of a bundle's cost, so :func:`write_bundle`
writes the per-point files in forked worker processes, one per usable CPU,
and in the calling process when one worker would do, the platform cannot
fork, or the caller is a daemonic process.  Nothing selects this but those
facts: there is no setting, and the bytes are the same either way.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config_io import _KEYS, _field_changes, _write_text
from .errors import InvalidParameterError, OmitLabError
from .model import SystemConfig, _require_finite, lock_effective_detuning
from .sidebands import (
    Spectrum,
    _check_second_order_flag,
    _spectrum_grid,
    compute_spectrum,
)

__all__ = [
    "CSV_COLUMNS",
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

# The config-file keys a sweep may set; config_io's key table gives each
# one's section, dataclass field and unit factor.
SWEEPABLE_PARAMETERS = ("power_pump_w", "probe_ratio", "delta_c_hz",
                        "omega_hz", "gamma_hz", "g_hz", "eta_hz",
                        "theta_rad", "theta_pi_units")


def _section_kind(config: SystemConfig, parameter: str, index: int) -> str:
    """The section kind of ``parameter``; checks a mode or coupling index."""
    kind = next(k for k, keys in _KEYS.items() if parameter in keys)
    if kind in ("mode", "coupling"):
        count = len(getattr(config, kind + "s"))
        if not 0 <= index < count:
            raise InvalidParameterError(
                f"{kind} index {index} out of range for {count} {kind}s")
    return kind


def apply_parameter(config: SystemConfig, parameter: str, value: float,
                    index: int = 0) -> SystemConfig:
    """Return a copy of ``config`` with one named parameter changed.

    ``parameter`` uses the config-file key spelling (see
    :data:`SWEEPABLE_PARAMETERS`); ``index`` selects the mode or coupling
    for per-element keys and is ignored by the global ones.  Setting a
    mode's ``omega_hz`` or ``g_hz`` keeps its g but drops a recorded mass,
    which derived g at the old values.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise InvalidParameterError(
            f"unknown sweep parameter {parameter!r}; choose from "
            f"{', '.join(sorted(SWEEPABLE_PARAMETERS))}")
    kind = _section_kind(config, parameter, index)
    changes = _field_changes(kind, parameter, float(value))
    if kind in ("cavity", "drive"):
        return replace(config,
                       **{kind: replace(getattr(config, kind), **changes)})
    items = list(getattr(config, kind + "s"))
    items[index] = replace(items[index], **changes)
    return replace(config, **{kind + "s": tuple(items)})


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description.

    ``lock_delta`` (rad/s), when set, re-locks the *effective* detuning to
    that value after each parameter change -- the usual experimental
    protocol when turning a knob that shifts the static displacements.
    A non-finite value or ``lock_delta`` cannot be computed or written
    to ``bundle.json``, so each is refused here.
    """

    parameter: str
    values: tuple[float, ...]
    index: int = 0
    lock_delta: float | None = None

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise InvalidParameterError(
                f"unknown sweep parameter {self.parameter!r}")
        values = tuple(_require_finite("sweep value", v)
                       for v in self.values)
        if len(values) == 0:
            raise InvalidParameterError("sweep needs at least one value")
        object.__setattr__(self, "values", values)
        if self.lock_delta is not None:
            _require_finite("lock_delta", self.lock_delta)


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
    _section_kind(config, spec.parameter, spec.index)
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


def _spectrum_dict(spectrum: Spectrum) -> dict:
    """A spectrum's metadata and its columns as named arrays."""
    return {"metadata": spectrum.metadata,
            "columns": {name: getattr(spectrum, attr)
                        for name, attr in _COLUMN_SOURCES.items()}}


def _csv_table(columns, rows) -> str:
    """CSV text of a table of floats: a header line, then one line per row.

    Each value is written as the ``repr`` of a Python float (shortest
    round-trip form, NaN as ``nan``), so parsing it back is bit-exact.
    """
    lines = [",".join(columns)]
    lines.extend(",".join(map(repr, row))
                 for row in np.asarray(rows, dtype=float).tolist())
    return "\n".join(lines) + "\n"


def _spectrum_text(spectrum: Spectrum, fmt: str) -> str:
    """A spectrum as the text of a ``csv`` or ``json`` file."""
    if fmt == "csv":
        columns = _spectrum_dict(spectrum)["columns"]
        return _csv_table(CSV_COLUMNS, np.column_stack(list(columns.values())))
    return _json_text(_spectrum_dict(spectrum))


def write_spectrum_csv(spectrum: Spectrum, path: str | os.PathLike) -> None:
    """Write a spectrum as CSV with the standard column set to ``path``.

    Columns: ``omega_over_omega_m, transmission, efficiency_percent,
    phase_rad, group_delay_s, route_discrepancy``.  Values not computed
    (efficiency with the second order switched off, the closed-form check
    beyond two modes, delay at grid edges) are written as ``nan``.
    """
    _write_text(path, _spectrum_text(spectrum, "csv"))


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


def _json_text(value) -> str:
    """The text of every JSON file and report: ``value`` through
    :func:`json_safe`, indented by one space, newline-terminated."""
    return json.dumps(json_safe(value), indent=1, allow_nan=False) + "\n"


def spectrum_to_dict(spectrum: Spectrum) -> dict:
    """JSON-ready dict of a spectrum (columns as named arrays)."""
    return json_safe(_spectrum_dict(spectrum))


def _write_point(spectrum: Spectrum, path: Path, fmt: str) -> tuple[str, int]:
    return _write_text(path, _spectrum_text(spectrum, fmt))


# The (spectra, paths, fmt) of the bundle being written, inherited by each
# forked writer through _start_writer; never set in the calling process.
_WRITER_JOB = None


def _start_writer(job) -> None:
    global _WRITER_JOB
    _WRITER_JOB = job


def _write_job_point(i: int) -> tuple[str, int]:
    spectra, paths, fmt = _WRITER_JOB
    return _write_point(spectra[i], paths[i], fmt)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_points(spectra: list[Spectrum], paths: list[Path],
                  fmt: str) -> list[tuple[str, int]]:
    """Write every point file; return each file's ``(sha256, size)``.

    One forked worker per usable CPU, at most one per file, or this
    process when one would do, fork is missing, or this process is a
    daemon (which may not have children).  The spectra reach the workers
    by fork, not by pickle, and a task is a point index.
    """
    workers = min(_usable_cpus(), len(paths))
    if workers > 1:
        import multiprocessing
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            from concurrent.futures import ProcessPoolExecutor
            # From Python 3.12 os.fork warns (DeprecationWarning) when the
            # process runs more than one thread, and numpy's OpenBLAS starts
            # its threads at import.  The writers never call BLAS; they only
            # format floats and write files, so the warning is not filtered.
            with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork"),
                    initializer=_start_writer,
                    initargs=((spectra, paths, fmt),)) as pool:
                return list(pool.map(_write_job_point, range(len(paths))))
    return list(map(_write_point, spectra, paths, [fmt] * len(paths)))


def write_bundle(bundle: ResultBundle, out_dir, *,
                 fmt: str = "csv") -> list[Path]:
    """Write a sweep to ``out_dir``: per-point files, index, manifest.

    Produces ``point_NNN.csv`` (or ``.json``) per successful point,
    ``bundle.json`` mapping sweep values to files (with per-point summary
    metadata and error messages for failed points), and ``manifest.json``
    with the SHA-256 and size of every other written file.  Returns the
    list of paths written.

    The point files are written by forked worker processes, one per
    usable CPU, or in this process when one worker would do, the platform
    cannot fork or this process is a daemon; the bytes are the same either
    way and there is no setting for it.  An error raised while writing a
    point file (an ``OSError``, say) reaches the caller as itself, and
    ``bundle.json`` and ``manifest.json`` are written only after every
    point file.

    Raises
    ------
    InvalidParameterError
        ``fmt`` is not ``csv`` or ``json``, or ``out_dir`` holds
        ``point_*.csv`` or ``point_*.json`` files this bundle would not
        write (left over from another sweep; nothing is deleted).
    """
    if fmt not in ("csv", "json"):
        raise InvalidParameterError(f"format must be csv or json, got {fmt!r}")
    out = Path(out_dir)
    points = []
    names = []
    spectra = []
    for i, (value, spectrum, error) in enumerate(
            zip(bundle.spec.values, bundle.spectra, bundle.errors)):
        entry: dict = {"value": value, "error": error, "file": None}
        if spectrum is not None:
            entry["file"] = f"point_{i:03d}.{fmt}"
            entry["metadata"] = spectrum.metadata
            names.append(entry["file"])
            spectra.append(spectrum)
        points.append(entry)
    stale = sorted({p.name for ext in ("csv", "json")
                    for p in out.glob(f"point_*.{ext}")} - set(names))
    if stale:
        raise InvalidParameterError(
            f"{out} holds point files this bundle would not write: "
            f"{', '.join(stale)}; use an empty directory")
    out.mkdir(parents=True, exist_ok=True)
    written = [out / name for name in names]
    digests = dict(zip(names, _write_points(spectra, written, fmt)))
    index = {
        "parameter": bundle.spec.parameter,
        "index": bundle.spec.index,
        "lock_delta": bundle.spec.lock_delta,
        "values": list(bundle.spec.values),
        "points": points,
    }
    index_path = out / "bundle.json"
    digests[index_path.name] = _write_text(index_path, _json_text(index))
    written.append(index_path)
    manifest = {
        "files": {
            name: {"sha256": sha, "bytes": size}
            for name, (sha, size) in sorted(digests.items())
        }
    }
    manifest_path = out / "manifest.json"
    _write_text(manifest_path, _json_text(manifest))
    written.append(manifest_path)
    return written
