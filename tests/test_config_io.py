"""Configuration parsing, emission, and round-trip guarantees."""

from __future__ import annotations

import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

import omit_lab as ol
from omit_lab import config_io

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = """\
[cavity]
kappa_hz = 2.15e5
delta_c_hz = 9.47e5

[drive]
power_pump_w = 1.0e-3

[mode1]
omega_hz = 9.47e5
gamma_hz = 140.0
g_hz = 1.2
"""


def test_round_trip_is_exact(split_config):
    text = ol.emit_config(split_config)
    again = ol.loads_config(text)
    # The emitter divides each rate by 2*pi and the loader multiplies it
    # back.  y / 2pi * 2pi is not always y, so equality is checked, not
    # assumed: it holds for these configs, not for every float.
    assert again == split_config
    # A loaded value may come back as other text that loads to the same
    # float: gamma_hz = 5.5 is written back as 5.499999999999999.
    loaded = ol.loads_config(MINIMAL.replace("140.0", "5.5"))
    assert ol.loads_config(ol.emit_config(loaded)) == loaded


def test_emit_is_idempotent(split_config):
    text = ol.emit_config(split_config)
    assert ol.emit_config(ol.loads_config(text)) == text


def test_save_and_load_file(tmp_path, split_config):
    path = tmp_path / "system.cfg"
    ol.save_config(split_config, path)
    assert ol.load_config(path) == split_config


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(ol.ConfigError):
        ol.load_config(tmp_path / "nope.cfg")


def test_minimal_defaults():
    config = ol.loads_config(MINIMAL)
    assert config.n_modes == 1
    assert config.drive.probe_ratio == 0.05
    assert config.drive.power_probe is None
    assert config.cavity.kappa == pytest.approx(2 * math.pi * 2.15e5)
    assert config.modes[0].g == pytest.approx(2 * math.pi * 1.2)


def test_unknown_section_rejected():
    with pytest.raises(ol.ConfigError, match="unknown section"):
        ol.loads_config(MINIMAL + "\n[laser]\npower_w = 1.0\n")


@pytest.mark.parametrize("section, match", [
    ("[cavity]", r"missing required section \[cavity\]"),
    ("[drive]", r"missing required section \[drive\]"),
    ("[mode1]", r"at least one \[mode1\]"),
])
def test_missing_section_rejected(section, match):
    # Drop the section header and its keys, up to the next blank line.
    head, tail = MINIMAL.split(section)
    text = head + tail.partition("\n\n")[2]
    with pytest.raises(ol.ConfigError, match=match):
        ol.loads_config(text)


def test_unknown_key_rejected():
    with pytest.raises(ol.ConfigError, match="unknown key"):
        ol.loads_config(MINIMAL.replace("delta_c_hz", "detuning_hz"))


def test_missing_required_key_rejected():
    bad = MINIMAL.replace("kappa_hz = 2.15e5\n", "")
    with pytest.raises(ol.ConfigError, match="kappa_hz"):
        ol.loads_config(bad)


def test_non_numeric_value_rejected():
    with pytest.raises(ol.ConfigError, match="number"):
        ol.loads_config(MINIMAL.replace("140.0", "fast"))


def test_mode_numbering_must_be_contiguous():
    text = MINIMAL.replace("[mode1]", "[mode2]")
    with pytest.raises(ol.ConfigError, match="contiguous"):
        ol.loads_config(text)


def test_coupling_count_must_match_modes():
    two_modes = MINIMAL + """
[mode2]
omega_hz = 9.5e5
gamma_hz = 140.0
g_hz = 1.2
"""
    with pytest.raises(ol.ConfigError, match="coupling"):
        ol.loads_config(two_modes)
    with_link = two_modes + "\n[coupling1]\neta_hz = 4.7e4\n"
    config = ol.loads_config(with_link)
    assert config.n_modes == 2
    assert config.couplings[0].theta == 0.0  # default phase


def test_damping_keys_are_exclusive():
    both = MINIMAL.replace("gamma_hz = 140.0",
                           "gamma_hz = 140.0\nq_factor = 6764.0")
    with pytest.raises(ol.ConfigError, match="exactly one"):
        ol.loads_config(both)
    neither = MINIMAL.replace("gamma_hz = 140.0\n", "")
    with pytest.raises(ol.ConfigError, match="exactly one"):
        ol.loads_config(neither)


def test_q_factor_sets_gamma():
    config = ol.loads_config(MINIMAL.replace("gamma_hz = 140.0",
                                             "q_factor = 6764.0"))
    mode = config.modes[0]
    assert mode.gamma == pytest.approx(mode.omega / 6764.0, rel=1e-15)
    for q in ("0.0", "-6764.0", "nan", "inf"):
        with pytest.raises(ol.ConfigError,
                           match=r"\[mode1\] q_factor must be > 0"):
            ol.loads_config(MINIMAL.replace("gamma_hz = 140.0",
                                            f"q_factor = {q}"))


def test_q_factor_round_trips():
    # gamma = 2 pi * (omega_hz / Q) is scaled like a gamma_hz value, so the
    # emitted gamma_hz reloads to the same float.  Derived as
    # (2 pi * omega_hz) / Q it came back one ulp off on about 13 % of
    # draws.  One config carries all 400 draws, so the check costs one
    # parse, one emit and one more parse.
    rng = np.random.default_rng(29)
    n = 400
    draws = zip(rng.uniform(1e5, 1e7, n), rng.uniform(10.0, 1e5, n))
    text = MINIMAL.split("[mode1]")[0] + "".join(
        f"[mode{i}]\nomega_hz = {float(om)!r}\nq_factor = {float(q)!r}\n"
        "g_hz = 1.2\n\n" for i, (om, q) in enumerate(draws, start=1))
    text += "".join(f"[coupling{i}]\neta_hz = 0.0\n" for i in range(1, n))
    config = ol.loads_config(text)
    assert ol.loads_config(ol.emit_config(config)) == config


def test_coupling_keys_are_exclusive():
    both = MINIMAL.replace("g_hz = 1.2", "g_hz = 1.2\nmass_kg = 1.45e-10")
    with pytest.raises(ol.ConfigError, match="exactly one"):
        ol.loads_config(both)


def test_mass_needs_geometry():
    text = MINIMAL.replace("g_hz = 1.2", "mass_kg = 1.45e-10")
    with pytest.raises(ol.ConfigError, match="wavelength"):
        ol.loads_config(text)
    geom = text.replace(
        "delta_c_hz = 9.47e5",
        "delta_c_hz = 9.47e5\nwavelength_m = 1.064e-6\n"
        "cavity_length_m = 25e-3")
    config = ol.loads_config(geom)
    expect = ol.derive_single_photon_coupling(
        1.064e-6, 25e-3, 1.45e-10, 2 * math.pi * 9.47e5)
    assert config.modes[0].g == pytest.approx(expect, rel=1e-15)


def test_probe_keys_are_exclusive():
    text = MINIMAL.replace("power_pump_w = 1.0e-3",
                           "power_pump_w = 1.0e-3\nprobe_ratio = 0.02\n"
                           "power_probe_w = 1e-7")
    with pytest.raises(ol.ConfigError, match="mutually exclusive"):
        ol.loads_config(text)


def test_theta_keys_are_exclusive_and_pi_units_scale():
    base = MINIMAL + """
[mode2]
omega_hz = 9.5e5
gamma_hz = 140.0
g_hz = 1.2

[coupling1]
eta_hz = 4.7e4
"""
    both = base + "theta_rad = 1.0\ntheta_pi_units = 0.5\n"
    with pytest.raises(ol.ConfigError, match="mutually exclusive"):
        ol.loads_config(both)
    halved = ol.loads_config(base + "theta_pi_units = 0.5\n")
    assert halved.couplings[0].theta == pytest.approx(math.pi / 2, rel=1e-15)


def test_invalid_physics_becomes_config_error():
    with pytest.raises(ol.ConfigError, match="invalid configuration"):
        ol.loads_config(MINIMAL.replace("kappa_hz = 2.15e5",
                                        "kappa_hz = -2.15e5"))


def test_malformed_text_rejected():
    with pytest.raises(ol.ConfigError, match="malformed"):
        ol.loads_config("kappa_hz = 1.0\n")  # key before any section header


def test_documented_configs_load():
    # The README's config block and the config_io docstring layout must
    # load as written, and the README block must name every key, so the
    # key table and the documentation cannot drift apart.
    block = re.search(r"## Config file format.*?```ini\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    layout = re.search(r"Layout::\n(.*?)\n\n(?=\S)", config_io.__doc__,
                       re.S).group(1)
    for text in (block, textwrap.dedent(layout)):
        assert ol.loads_config(text).n_modes == 2
    for keys in config_io._KEYS.values():
        for key in keys:
            assert re.search(rf"\b{key}\b", block), key
