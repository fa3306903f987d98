"""Parameter sweeps, CSV/JSON output, and manifest integrity."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

import omit_lab as ol
from omit_lab.sweep import CSV_COLUMNS

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def small_spectrum(split_config):
    return ol.compute_spectrum(split_config, span=(0.9, 1.1), points=201)


def test_apply_parameter_each_key(split_config):
    cfg = split_config
    assert ol.apply_parameter(cfg, "power_pump_w", 2e-3).drive.power_pump \
        == 2e-3
    probed = ol.apply_parameter(cfg, "probe_ratio", 0.02)
    assert probed.drive.probe_ratio == 0.02
    assert probed.drive.power_probe is None
    assert ol.apply_parameter(cfg, "delta_c_hz", 1e6).cavity.delta_c \
        == pytest.approx(TWO_PI * 1e6)
    moved = ol.apply_parameter(cfg, "omega_hz", 9.9e5, index=1)
    assert moved.modes[1].omega == pytest.approx(TWO_PI * 9.9e5)
    assert moved.modes[0].omega == cfg.modes[0].omega
    assert ol.apply_parameter(cfg, "gamma_hz", 200.0).modes[0].gamma \
        == pytest.approx(TWO_PI * 200.0)
    regauged = ol.apply_parameter(cfg, "g_hz", 2.5)
    assert regauged.modes[0].g == pytest.approx(TWO_PI * 2.5)
    assert regauged.modes[0].mass is None
    assert ol.apply_parameter(cfg, "eta_hz", 5e4).couplings[0].eta \
        == pytest.approx(TWO_PI * 5e4)
    assert ol.apply_parameter(cfg, "theta_rad", 1.0).couplings[0].theta == 1.0
    assert ol.apply_parameter(cfg, "theta_pi_units", 0.5).couplings[0].theta \
        == pytest.approx(math.pi / 2)


def test_apply_parameter_guards(split_config):
    with pytest.raises(ol.InvalidParameterError, match="unknown sweep"):
        ol.apply_parameter(split_config, "finesse", 1.0)
    with pytest.raises(ol.InvalidParameterError, match="out of range"):
        ol.apply_parameter(split_config, "omega_hz", 9e5, index=5)
    with pytest.raises(ol.InvalidParameterError, match="out of range"):
        ol.apply_parameter(split_config, "eta_hz", 1e4, index=1)


def test_sweep_spec_validation():
    with pytest.raises(ol.InvalidParameterError):
        ol.SweepSpec(parameter="finesse", values=(1.0,))
    with pytest.raises(ol.InvalidParameterError):
        ol.SweepSpec(parameter="power_pump_w", values=())
    spec = ol.SweepSpec(parameter="power_pump_w", values=[1, 2])
    assert spec.values == (1.0, 2.0)


def test_run_sweep_records_failures(split_config):
    spec = ol.SweepSpec(parameter="power_pump_w",
                        values=(5e-4, -1e-3, 1.5e-3))
    bundle = ol.run_sweep(split_config, spec, span=(0.95, 1.05), points=101,
                          include_second_order=False)
    assert bundle.n_failed == 1
    assert bundle.spectra[1] is None
    assert "InvalidParameterError" in bundle.errors[1]
    assert bundle.spectra[0] is not None and bundle.spectra[2] is not None
    assert bundle.errors[0] is None and bundle.errors[2] is None


def test_run_sweep_rejects_out_of_range_index(split_config):
    # An index past the chain would fail every point alike, so the sweep
    # raises before computing any point instead of returning a dead bundle.
    for parameter, index in (("theta_rad", 1), ("eta_hz", 5),
                             ("omega_hz", 2), ("gamma_hz", -1)):
        spec = ol.SweepSpec(parameter=parameter, values=(0.0, 1.0),
                            index=index)
        with pytest.raises(ol.InvalidParameterError, match="out of range"):
            ol.run_sweep(split_config, spec, points=11)
    # Global keys ignore the index, as apply_parameter does.
    spec = ol.SweepSpec(parameter="probe_ratio", values=(0.01,), index=7)
    bundle = ol.run_sweep(split_config, spec, span=(0.95, 1.05), points=11,
                          include_second_order=False)
    assert bundle.n_failed == 0


def test_repeat_sweep_writes_identical_bundle(split_config, tmp_path):
    spec = ol.SweepSpec(parameter="theta_pi_units", values=(0.0, 0.5, 1.0),
                        lock_delta=split_config.omega_ref)
    kw = dict(span=(0.9, 1.1), points=151, include_second_order=False)
    dir_a = tmp_path / "first"
    dir_b = tmp_path / "second"
    ol.write_bundle(ol.run_sweep(split_config, spec, **kw), dir_a)
    ol.write_bundle(ol.run_sweep(split_config, spec, **kw), dir_b)
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    assert "point_002.csv" in names
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_csv_schema_and_value_round_trip(small_spectrum, tmp_path):
    path = tmp_path / "spectrum.csv"
    ol.write_spectrum_csv(small_spectrum, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(small_spectrum.omega)
    table = np.genfromtxt(path, delimiter=",", names=True)
    for column, values in (
            ("omega_over_omega_m", small_spectrum.omega_normalized),
            ("transmission", small_spectrum.transmission),
            ("efficiency_percent", small_spectrum.efficiency_percent),
            ("phase_rad", small_spectrum.phase),
            ("group_delay_s", small_spectrum.group_delay),
            ("route_discrepancy", small_spectrum.route_discrepancy)):
        parsed = table[column]
        finite = np.isfinite(values)
        # repr() printing guarantees bit-exact float round trips
        assert np.array_equal(parsed[finite], values[finite])
        assert np.all(np.isnan(parsed[~finite]))


def test_spectrum_to_dict_is_json_clean(split_config):
    spectrum = ol.compute_spectrum(split_config, span=(0.95, 1.05),
                                   points=51, include_second_order=False)
    payload = ol.spectrum_to_dict(spectrum)
    text = json.dumps(payload, allow_nan=False)  # must not need NaN tokens
    back = json.loads(text)
    cols = back["columns"]
    assert cols["efficiency_percent"][25] is None  # second order disabled
    assert cols["group_delay_s"][0] is None        # grid edge
    assert cols["transmission"][25] == pytest.approx(
        spectrum.transmission[25], rel=1e-15)
    assert back["metadata"]["n_modes"] == 2


def test_write_bundle_layout_and_manifest(split_config, tmp_path):
    spec = ol.SweepSpec(parameter="power_pump_w", values=(5e-4, -1.0, 1e-3))
    bundle = ol.run_sweep(split_config, spec, span=(0.95, 1.05), points=101,
                          include_second_order=False)
    out = tmp_path / "bundle"
    written = ol.write_bundle(bundle, out, fmt="csv")
    names = {p.name for p in written}
    assert names == {"point_000.csv", "point_002.csv", "bundle.json",
                     "manifest.json"}
    index = json.loads((out / "bundle.json").read_text(encoding="utf-8"))
    assert index["parameter"] == "power_pump_w"
    assert index["values"] == [5e-4, -1.0, 1e-3]
    assert index["points"][0]["file"] == "point_000.csv"
    assert index["points"][1]["file"] is None
    assert "InvalidParameterError" in index["points"][1]["error"]
    assert index["points"][2]["metadata"]["n_modes"] == 2

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["files"]) == names - {"manifest.json"}
    for name, entry in manifest["files"].items():
        blob = (out / name).read_bytes()
        assert entry["bytes"] == len(blob)
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()


def test_write_bundle_json_format(split_config, tmp_path):
    spec = ol.SweepSpec(parameter="probe_ratio", values=(0.01,))
    bundle = ol.run_sweep(split_config, spec, span=(0.95, 1.05), points=51)
    written = ol.write_bundle(bundle, tmp_path / "jb", fmt="json")
    point = next(p for p in written if p.name == "point_000.json")
    data = json.loads(point.read_text(encoding="utf-8"))
    assert list(data["columns"]) == list(CSV_COLUMNS)
    with pytest.raises(ol.InvalidParameterError):
        ol.write_bundle(bundle, tmp_path / "bad", fmt="xml")
