"""Command-line driver: argument handling, output formats, exit codes."""

from __future__ import annotations

import json
import math
import shlex
from pathlib import Path

import pytest

import omit_lab as ol
from omit_lab import cli
from omit_lab.sweep import CSV_COLUMNS, _spectrum_text

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def config_file(tmp_path, split_config):
    path = tmp_path / "system.cfg"
    ol.save_config(split_config, path)
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert ol.__version__ in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["resonate"])
    assert exc.value.code == 2


def test_spectrum_csv_to_stdout(config_file, capsys):
    assert cli.main(["spectrum", "--config", config_file,
                     "--omega-grid", "0.9:1.1:51"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 52


def test_spectrum_json_to_file(config_file, tmp_path, capsys):
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--config", config_file,
                     "--omega-grid", "0.95:1.05:21", "--format", "json",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(out.read_text(encoding="utf-8"))
    assert list(data["columns"]) == list(CSV_COLUMNS)
    assert len(data["columns"]["transmission"]) == 21


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["spectrum", "--config",
                     str(tmp_path / "absent.cfg")]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_bad_grid_exits_2(config_file, tmp_path):
    assert cli.main(["spectrum", "--config", config_file,
                     "--omega-grid", "0.9:1.1"]) == 2
    for grid in ("0.9:1.1:1", "1.1:0.9:51", "0.9:1.1:many"):
        assert cli.main(["spectrum", "--config", config_file,
                         "--omega-grid", grid]) == 2
        assert cli.main(["sweep", "--config", config_file,
                         "--param", "theta_rad", "--values", "0,1",
                         "--omega-grid", grid,
                         "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exits_3(config_file, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ol.SingularSystemError("response singular at requested point")
    monkeypatch.setattr(cli, "compute_spectrum", boom)
    assert cli.main(["spectrum", "--config", config_file]) == 3
    assert "singular" in capsys.readouterr().err


def test_darkmode_report(config_file, capsys):
    assert cli.main(["darkmode", "--config", config_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dark_mode_broken"] is True
    assert data["hybrid_skipped"] is None
    assert data["steady"]["photon_number"] > 0
    assert data["hybrid"]["g_plus"] > 0
    assert data["predicted_linewidth_rad_s"] is None  # needs eta == 0
    assert data["prediction_skipped"]


def test_darkmode_report_steady_branches(config_file, split_config, capsys):
    assert cli.main(["darkmode", "--config", config_file]) == 0
    steady = json.loads(capsys.readouterr().out)["steady"]
    solved = ol.solve_steady_state(split_config)
    assert steady["branches_omega_m"] == pytest.approx([1.0], rel=1e-12)
    assert steady["branch_index"] == 0
    assert steady["stability_margin_per_s"] == pytest.approx(solved.margin,
                                                             rel=1e-12)
    assert steady["stability_margin_per_s"] > 0.0


def test_darkmode_report_without_hopping(tmp_path, capsys):
    # At eta = 0 the report carries the per-mode adiabatic rates and the
    # one linewidth prediction built from them.
    config = ol.standard_setup(2)
    path = tmp_path / "plain.cfg"
    path.write_text(ol.emit_config(config), encoding="utf-8")
    assert cli.main(["darkmode", "--config", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["adiabatic"]) == {"gamma_opt", "omega_opt"}
    assert len(data["adiabatic"]["gamma_opt"]) == 2
    assert len(data["adiabatic"]["omega_opt"]) == 2
    loaded = ol.load_config(path)
    assert data["predicted_linewidth_rad_s"] == ol.predict_linewidth(
        loaded, ol.solve_steady_state(loaded))


@pytest.mark.parametrize("n", [1, 3])
def test_darkmode_report_beyond_two_modes(tmp_path, capsys, n):
    # The hybrid basis is the two-mode pair's; the adiabatic rates and the
    # linewidth prediction take any number of uncoupled modes.
    path = tmp_path / f"chain{n}.cfg"
    path.write_text(ol.emit_config(ol.standard_setup(n)), encoding="utf-8")
    assert cli.main(["darkmode", "--config", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hybrid"] is None
    assert data["dark_mode_broken"] is None and data["coupling_ratio"] is None
    assert "two-mode layout only" in data["hybrid_skipped"]
    assert len(data["adiabatic"]["gamma_opt"]) == n
    loaded = ol.load_config(path)
    assert data["predicted_linewidth_rad_s"] == ol.predict_linewidth(
        loaded, ol.solve_steady_state(loaded))


def test_darkmode_hopping_chain_skips_hybrid(tmp_path, capsys, monkeypatch):
    # A three-mode chain with hopping has neither a hybrid pair nor an
    # adiabatic elimination, and is still reported; a numerical failure
    # of the hybrid report is not a skip.
    path = tmp_path / "chain3.cfg"
    ol.save_config(ol.standard_setup(3, eta_frac=0.05), path)
    assert cli.main(["darkmode", "--config", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "two" in data["hybrid_skipped"]
    assert data["adiabatic"] is None and data["adiabatic_skipped"]

    def boom(*args):
        raise ol.SingularSystemError("hybrid report failed")
    monkeypatch.setattr(cli, "hybridize_two_mode", boom)
    assert cli.main(["darkmode", "--config", str(path)]) == 3
    assert "hybrid report failed" in capsys.readouterr().err


def test_nmode_count_only(capsys):
    assert cli.main(["nmode", "--n", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    # Unbroken three-mode chain: k = 2 is dark, k = 1 and 3 stay bright.
    assert cli.main(["nmode", "--n", "3", "--theta-pi", "0",
                     "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert cli.main(["nmode", "--n", "2", "--theta-pi", "0",
                     "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_nmode_basis_and_count_only_exclusive(capsys):
    # Each flag picks what nmode prints; the pair is refused at parse time
    # instead of one of them being dropped.
    with pytest.raises(SystemExit) as exc:
        cli.main(["nmode", "--n", "3", "--basis", "--count-only"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_nmode_spectrum_csv(capsys):
    # Without --basis or --count-only, nmode prints the first-order
    # spectrum of the uniform chain.
    assert cli.main(["nmode", "--n", "3", "--omega-grid", "0.9:1.1:201"]) == 0
    spectrum = ol.compute_spectrum(
        ol.standard_setup(3, eta_frac=0.05, theta=math.pi / 2),
        include_second_order=False, span=(0.9, 1.1), points=201)
    assert capsys.readouterr().out == _spectrum_text(spectrum, "csv")


def test_nmode_basis_json(capsys):
    assert cli.main(["nmode", "--n", "2", "--theta-pi", "0", "--basis"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2
    assert len(data["frequencies_rad_s"]) == 2
    assert data["dark_mode_indices"] == [2]


@pytest.mark.parametrize("theta_pi", [0.0, 0.5, 1.0])
def test_nmode_basis_dark_list_agrees_with_dark_mode_broken(theta_pi,
                                                            capsys):
    # One definition of a dark mode: --basis lists none exactly when
    # dark_mode_broken reports the two-mode chain broken.
    assert cli.main(["nmode", "--n", "2", "--theta-pi", str(theta_pi),
                     "--basis"]) == 0
    dark = json.loads(capsys.readouterr().out)["dark_mode_indices"]
    config = ol.standard_setup(2, eta_frac=0.05, theta=theta_pi * math.pi)
    broken, _ = ol.dark_mode_broken(config, ol.solve_steady_state(config))
    assert (dark == []) == broken
    assert len(dark) == (0 if theta_pi == 0.5 else 1)


def test_sweep_cli_writes_bundle(config_file, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", config_file,
                     "--param", "theta_pi_units", "--values", "0,0.5",
                     "--omega-grid", "0.9:1.1:101", "--no-second-order",
                     "--out-dir", str(out_dir)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert (out_dir / "bundle.json").exists()
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "point_000.csv").exists()
    assert str(out_dir / "point_001.csv") in printed


def test_sweep_values_range_exclusive(config_file, tmp_path):
    assert cli.main(["sweep", "--config", config_file,
                     "--param", "power_pump_w", "--values", "1e-3",
                     "--range", "1e-4:1e-3:3",
                     "--out-dir", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("flag, text, message", [
    ("--values", "0,half", "--values expects comma-separated numbers"),
    ("--range", "0:1:0", "--range COUNT must be >= 1"),
])
def test_sweep_bad_values_exit_2(config_file, tmp_path, capsys, flag, text,
                                 message):
    out_dir = tmp_path / "bad_values"
    assert cli.main(["sweep", "--config", config_file, "--param",
                     "theta_rad", flag, text, "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_out_of_range_index_exits_2(config_file, tmp_path, capsys):
    out_dir = tmp_path / "bad_index"
    assert cli.main(["sweep", "--config", config_file,
                     "--param", "theta_rad", "--values", "0,1,2",
                     "--index", "5", "--out-dir", str(out_dir)]) == 2
    assert "coupling index 5 out of range" in capsys.readouterr().err
    assert not out_dir.exists()


def test_oracle_cli(config_file, tmp_path):
    out = tmp_path / "closure.json"
    assert cli.main(["oracle", "--config", config_file,
                     "--omega-frac", "0.95", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["reliable"] is True and report["reason"] == ""
    assert report["rel_err_first"] < 0.01
    assert report["iterations"] >= 1
    assert report["map_residual"] <= 1e-12
    assert 0.0 < report["multiplier"] < 1.0


def test_oracle_bad_tolerance_exits_2(config_file, capsys):
    # The oracle runs at one fixed tolerance: the former flag is an unknown
    # argument, refused before any solve.
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--config", config_file,
                  "--omega-frac", "0.95", "--rtol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rtol" in capsys.readouterr().err


def test_figure_has_no_worker_setting():
    # Sweeps are serial: the former flag is an unknown argument, refused
    # before any figure runs.  The pin test runs every preset with the
    # former worker-count variable set.
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["figure", "fig3", "--jobs", "2"])
    assert exc.value.code == 2


def _documented_commands() -> list[list[str]]:
    """Every ``omit-lab`` example of README's "Command line" block and of
    the CLI module docstring, continuation lines joined, split by shlex."""
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1]
    block = block.split("```bash", 1)[1].split("```", 1)[0]
    usage = cli.__doc__.split("Subcommands::", 1)[1].split("Exit codes", 1)[0]
    lines = (block + usage).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.strip().startswith("omit-lab ")]


def test_documented_commands_parse():
    # Parsing only, nothing runs: a flag removed from the parser cannot
    # linger in the documentation.
    commands = _documented_commands()
    assert len(commands) >= 13
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"documented command does not parse: "
                        f"{shlex.join(argv)}")
