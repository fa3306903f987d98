"""Plain-text configuration files (INI) for system descriptions.

Layout::

    [cavity]
    ; frequencies in plain Hz; delta_c_hz may be negative
    kappa_hz = 215000.0
    delta_c_hz = 966166.417
    ; optional; mass_kg needs both
    wavelength_m = 1.064e-06
    cavity_length_m = 0.025

    [drive]
    power_pump_w = 0.0015
    ; XOR power_probe_w (default 0.05); omega_pump_hz is optional
    probe_ratio = 0.05

    ; one section per mode, numbered from 1;
    ; q_factor XOR gamma_hz, mass_kg XOR g_hz
    [mode1]
    omega_hz = 947000.0
    q_factor = 6700.0
    mass_kg = 1.45e-10

    [mode2]
    omega_hz = 947000.0
    q_factor = 6700.0
    mass_kg = 1.45e-10

    ; one fewer than the modes; theta_pi_units XOR theta_rad (default 0)
    [coupling1]
    eta_hz = 47350.0
    theta_pi_units = 0.5

Comments go on lines of their own: a ``;`` or ``#`` after a value is part
of the value.  Keys ending in ``_hz`` are ordinary frequencies and are
multiplied by 2*pi on load (the package works in angular units
throughout); emission divides back.  Unknown sections or keys are hard
errors -- typos must not pass silently.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import os
from pathlib import Path

from .errors import ConfigError, InvalidParameterError
from .model import (
    CavityParams,
    DriveSpec,
    MechanicalMode,
    PhononCoupling,
    SystemConfig,
    _require_positive,
    derive_single_photon_coupling,
)

__all__ = ["load_config", "loads_config", "emit_config", "save_config"]

# Section kind -> key -> (dataclass field, factor to package units).  A
# factor of None marks a formula: q_factor sets gamma = 2*pi * (omega_hz /
# Q), scaled like a gamma_hz key so that emitting it round-trips, and
# mass_kg records the mass and derives g from it and the cavity geometry.
# A field is emitted under the first key that names it.
_KEYS = {
    "cavity": {"kappa_hz": ("kappa", math.tau),
               "delta_c_hz": ("delta_c", math.tau),
               "wavelength_m": ("wavelength", 1.0),
               "cavity_length_m": ("cavity_length", 1.0)},
    "drive": {"power_pump_w": ("power_pump", 1.0),
              "probe_ratio": ("probe_ratio", 1.0),
              "power_probe_w": ("power_probe", 1.0),
              "omega_pump_hz": ("omega_pump", math.tau)},
    "mode": {"omega_hz": ("omega", math.tau),
             "gamma_hz": ("gamma", math.tau),
             "q_factor": ("gamma", None),
             "g_hz": ("g", math.tau),
             "mass_kg": ("g", None)},
    "coupling": {"eta_hz": ("eta", math.tau),
                 "theta_rad": ("theta", 1.0),
                 "theta_pi_units": ("theta", math.pi)},
}

# At most one key of each pair may be given; exactly one when the field
# it sets has no default.
_EXCLUSIVE = {"drive": (("probe_ratio", "power_probe_w"),),
              "mode": (("gamma_hz", "q_factor"), ("g_hz", "mass_kg")),
              "coupling": (("theta_rad", "theta_pi_units"),)}

# Setting a field clears another: a mass is kept only with the omega and g
# derived from it, and a probe ratio and a probe power exclude each other.
_CLEARS = {"omega": "mass", "g": "mass",
           "probe_ratio": "power_probe", "power_probe": "probe_ratio"}


def _field_changes(kind: str, key: str, value: float) -> dict:
    """The dataclass fields that ``key = value`` sets in a ``kind`` section."""
    field, factor = _KEYS[kind][key]
    cleared = {_CLEARS[field]: None} if field in _CLEARS else {}
    return {field: factor * value, **cleared}


def _numbered_sections(parser: configparser.ConfigParser, stem: str) -> int:
    """Count sections ``stem1, stem2, ...`` and demand contiguous numbering."""
    found = [s for s in parser.sections() if s.startswith(stem)
             and s[len(stem):].isdigit()]
    count = len(found)
    expected = {f"{stem}{i}" for i in range(1, count + 1)}
    if set(found) != expected:
        raise ConfigError(
            f"{stem} sections must be numbered contiguously from 1; "
            f"found {sorted(found)}")
    return count


def _load_section(parser: configparser.ConfigParser, section: str, cls,
                  cavity: CavityParams | None = None):
    """Build ``cls`` from ``[section]`` through its kind's key table."""
    kind = section.rstrip("0123456789")
    keys = _KEYS[kind]
    unknown = sorted(set(parser.options(section)) - set(keys))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(keys))}")
    given = {}
    for key, raw in parser.items(section):
        try:
            given[key] = float(raw)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key} = {raw!r} is not a number") from None
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    for pair in _EXCLUSIVE.get(kind, ()):
        named = [key for key in pair if key in given]
        if keys[pair[0]][0] in required and len(named) != 1:
            raise ConfigError(
                f"[{section}] needs exactly one of {' / '.join(pair)}, got "
                f"{len(named)}: {', '.join(named) or 'none'}")
        if len(named) > 1:
            raise ConfigError(
                f"[{section}] {' and '.join(pair)} are mutually exclusive")
    missing = required - {keys[key][0] for key in given}
    for key, (field, _) in keys.items():
        if field in missing:
            raise ConfigError(f"[{section}] is missing required key {key}")

    fields = {}
    for key, value in given.items():
        if keys[key][1] is not None:
            fields.update(_field_changes(kind, key, value))
    if "q_factor" in given:
        q_factor = _require_positive(f"[{section}] q_factor",
                                     given["q_factor"])
        fields["gamma"] = math.tau * (given["omega_hz"] / q_factor)
    if "mass_kg" in given:
        if cavity.wavelength is None or cavity.cavity_length is None:
            raise ConfigError(
                f"[{section}] mass_kg needs wavelength_m and "
                "cavity_length_m in [cavity] to derive the coupling")
        fields["mass"] = mass = given["mass_kg"]
        fields["g"] = derive_single_photon_coupling(
            cavity.wavelength, cavity.cavity_length, mass, fields["omega"])
    return cls(**fields)


def loads_config(text: str) -> SystemConfig:
    """Parse a configuration from a string.  See the module docstring."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    n_modes = _numbered_sections(parser, "mode")
    n_couplings = _numbered_sections(parser, "coupling")
    known = ({"cavity", "drive"}
             | {f"mode{i}" for i in range(1, n_modes + 1)}
             | {f"coupling{i}" for i in range(1, n_couplings + 1)})
    unknown = sorted(set(parser.sections()) - known)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    for required in ("cavity", "drive"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")
    if n_modes == 0:
        raise ConfigError("at least one [mode1] section is required")
    if n_couplings != n_modes - 1:
        raise ConfigError(
            f"{n_modes} mode(s) need exactly {n_modes - 1} coupling "
            f"section(s), found {n_couplings}")

    try:
        cavity = _load_section(parser, "cavity", CavityParams)
        return SystemConfig(
            cavity=cavity,
            modes=[_load_section(parser, f"mode{i}", MechanicalMode, cavity)
                   for i in range(1, n_modes + 1)],
            couplings=[_load_section(parser, f"coupling{i}", PhononCoupling)
                       for i in range(1, n_couplings + 1)],
            drive=_load_section(parser, "drive", DriveSpec))
    except InvalidParameterError as exc:
        # Parameter validation failures become config errors with context.
        raise ConfigError(f"invalid configuration: {exc}") from None


def load_config(path: str | os.PathLike) -> SystemConfig:
    """Load a configuration file.  See the module docstring for the format."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return loads_config(text)


def _emit_section(section: str, obj) -> str:
    lines = [f"[{section}]"]
    written = set()
    for key, (field, factor) in _KEYS[section.rstrip("0123456789")].items():
        value = getattr(obj, field)
        if field in written or value is None:
            continue
        written.add(field)
        if field == "g" and obj.mass is not None:
            key, value, factor = "mass_kg", obj.mass, 1.0
        lines.append(f"{key} = {value / factor!r}")
    return "\n".join(lines) + "\n"


def emit_config(config: SystemConfig) -> str:
    """Serialise a configuration to canonical INI text.

    Each field is written under the first key that names it (damping as
    ``gamma_hz``, the phase as ``theta_rad``), and the coupling as
    ``mass_kg`` when the mode records a mass.  The text reloads to an equal
    config when each value survives ``/ factor * factor``.  A value loaded
    from text is ``factor`` times a float, a gamma derived from
    ``q_factor`` included, and such values survived every random check; a
    value set in Python can miss by one ulp.
    """
    sections = {"cavity": config.cavity, "drive": config.drive}
    sections.update((f"mode{i}", mode)
                    for i, mode in enumerate(config.modes, start=1))
    sections.update((f"coupling{i}", coupling)
                    for i, coupling in enumerate(config.couplings, start=1))
    return "\n".join(_emit_section(*item) for item in sections.items())


def save_config(config: SystemConfig, path: str | os.PathLike) -> None:
    """Write :func:`emit_config` output to ``path`` as UTF-8."""
    _write_text(path, emit_config(config))


def _write_text(path: str | os.PathLike, text: str) -> tuple[str, int]:
    """Write ``text`` as UTF-8, the package's one text-file writer; return
    the SHA-256 and size of its bytes.  An ``OSError`` reaches the caller."""
    data = text.encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest(), len(data)
