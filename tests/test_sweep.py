"""Parameter sweeps, CSV/JSON output, and manifest integrity."""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import omit_lab as ol
from omit_lab import sweep
from omit_lab.sweep import CSV_COLUMNS

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pooled writer needs the fork start method")

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


@pytest.mark.parametrize("key, value", [
    ("power_pump_w", 2e-3), ("probe_ratio", 0.02), ("delta_c_hz", 1e6),
    ("omega_hz", 1e6), ("gamma_hz", 200.0), ("g_hz", 2.5), ("eta_hz", 5e4),
    ("theta_rad", 1.0), ("theta_pi_units", 0.5)])
def test_swept_config_round_trips(split_config, key, value):
    # A swept config must survive a save and reload.  The split config's
    # modes record a mass, which derived g at the old omega, so moving
    # omega keeps g and drops the mass rather than emitting a mass that
    # reloads to another g.
    swept = ol.apply_parameter(split_config, key, value)
    assert ol.loads_config(ol.emit_config(swept)) == swept
    if key == "omega_hz":
        assert swept.modes[0].g == split_config.modes[0].g
        assert swept.modes[0].mass is None


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


def test_non_finite_lock_delta_refused_before_any_point(split_config,
                                                      monkeypatch):
    # A lock target that is not finite fails every point alike, so the
    # spec refuses it, as run_sweep refuses a bad grid.
    def no_point(*args, **kwargs):
        raise AssertionError("a point was computed")
    monkeypatch.setattr(ol.sweep, "compute_spectrum", no_point)
    for lock in (math.nan, math.inf, -math.inf):
        with pytest.raises(ol.InvalidParameterError, match="lock_delta"):
            ol.run_sweep(split_config, ol.SweepSpec(
                parameter="theta_rad", values=(0.0, 1.0), lock_delta=lock))


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


def test_preset_theta_sweep_refuses_failed_points(monkeypatch):
    # A figure is never drawn from a partial sweep: the preset helper
    # raises, naming how many points failed and the first error.
    real = sweep.compute_spectrum

    def failing(config, *args, **kwargs):
        theta = config.couplings[0].theta
        if theta in (1.0, 2.0):
            raise ol.SingularSystemError(f"no response at theta = {theta}")
        return real(config, *args, **kwargs)

    monkeypatch.setattr(sweep, "compute_spectrum", failing)
    with pytest.raises(ol.InvalidParameterError,
                       match=r"^2 sweep point\(s\) failed; first error: "
                             r"SingularSystemError: no response at "
                             r"theta = 1\.0$"):
        ol.presets._theta_sweep(0.05, (0.0, 1.0, 2.0), points=11,
                                include_second_order=False)


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


def test_run_sweep_rejects_bad_grid_before_any_point(split_config,
                                                    monkeypatch):
    # A grid compute_spectrum refuses would fail every point alike, so the
    # sweep refuses it up front, as the CLI does with exit code 2.
    def no_point(*args, **kwargs):
        raise AssertionError("a point was computed")
    monkeypatch.setattr(ol.sweep, "compute_spectrum", no_point)
    spec = ol.SweepSpec(parameter="theta_rad", values=(0.0, 1.0))
    for grid in ({"points": 1}, {"span": (1.2, 0.8)}, {"points": 2.5},
                 {"omega": np.array([])}, {"omega": 1.0e6}):
        with pytest.raises(ol.InvalidParameterError):
            ol.run_sweep(split_config, spec, **grid)


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


@pytest.fixture(scope="module")
def failing_bundle(split_config):
    spec = ol.SweepSpec(parameter="power_pump_w",
                        values=(5e-4, -1.0, 1e-3, 1.5e-3))
    return ol.run_sweep(split_config, spec, span=(0.95, 1.05), points=101)


_WRITE_POINT = sweep._write_point


def _pin_writer(monkeypatch, cpus: int, in_parent: bool) -> None:
    """Pretend ``cpus`` usable CPUs; fail a point written on the wrong side."""
    parent = os.getpid()

    def checked(*args):
        assert (os.getpid() == parent) == in_parent, "written on wrong side"
        return _WRITE_POINT(*args)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(sweep, "_write_point", checked)


@needs_fork
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pooled_and_in_process_writes_match(failing_bundle, tmp_path,
                                            monkeypatch, fmt):
    _pin_writer(monkeypatch, 2, in_parent=False)
    pooled = ol.write_bundle(failing_bundle, tmp_path / "pooled", fmt=fmt)
    _pin_writer(monkeypatch, 1, in_parent=True)
    alone = ol.write_bundle(failing_bundle, tmp_path / "alone", fmt=fmt)
    names = [p.name for p in pooled]
    assert names == [p.name for p in alone]
    assert names == [f"point_000.{fmt}", f"point_002.{fmt}",
                     f"point_003.{fmt}", "bundle.json", "manifest.json"]
    assert sorted(p.name for p in (tmp_path / "pooled").iterdir()) \
        == sorted(names)
    for name in names:
        assert (tmp_path / "pooled" / name).read_bytes() \
            == (tmp_path / "alone" / name).read_bytes()


@pytest.mark.parametrize("cpus", [pytest.param(2, marks=needs_fork), 1])
def test_point_write_error_reaches_caller(failing_bundle, tmp_path,
                                          monkeypatch, cpus):
    # A directory squatting on a point file's name makes that write fail;
    # the error surfaces as itself and no index or manifest is written.
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
    out = tmp_path / "bundle"
    (out / "point_002.csv").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        ol.write_bundle(failing_bundle, out)
    assert not (out / "bundle.json").exists()
    assert not (out / "manifest.json").exists()


def _write_names(bundle, out) -> list[str]:
    return [p.name for p in ol.write_bundle(bundle, out)]


@needs_fork
def test_write_bundle_inside_daemonic_worker(failing_bundle, tmp_path,
                                             monkeypatch):
    # A daemonic process may not have children, so the files are written
    # in it rather than in a pool of its own.
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        names = pool.apply_async(
            _write_names, (failing_bundle, tmp_path / "b")).get(timeout=120)
    assert names == ["point_000.csv", "point_002.csv", "point_003.csv",
                     "bundle.json", "manifest.json"]
    assert (tmp_path / "b" / "manifest.json").exists()


def test_stale_point_files_refused(split_config, tmp_path):
    kw = dict(span=(0.95, 1.05), points=51, include_second_order=False)
    five = ol.run_sweep(split_config, ol.SweepSpec(
        parameter="theta_rad", values=(0.0, 0.5, 1.0, 1.5, 2.0)), **kw)
    two = ol.run_sweep(split_config, ol.SweepSpec(
        parameter="theta_rad", values=(0.0, 0.5)), **kw)
    out = tmp_path / "bundle"
    ol.write_bundle(five, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # Rewriting the same sweep into its own directory is fine.
    ol.write_bundle(five, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    for bundle, fmt, stale in ((two, "json", "point_000.csv"),
                               (two, "csv", "point_004.csv")):
        with pytest.raises(ol.InvalidParameterError, match=stale):
            ol.write_bundle(bundle, out, fmt=fmt)
        # Refused before anything is written; nothing is deleted.
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_import_leaves_process_machinery_unloaded():
    # write_bundle imports its worker pool on first use, so the package
    # import does not pay for multiprocessing or concurrent.futures.
    src = str(Path(ol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, omit_lab; "
            "print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
