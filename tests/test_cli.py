"""Command-line driver: argument handling, output formats, exit codes."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

import omit_lab as ol
from omit_lab import cli
from omit_lab.sweep import CSV_COLUMNS

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
    for grid in ("0.9:1.1:1", "1.1:0.9:51"):
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


def test_darkmode_three_modes_exits_4(tmp_path, capsys):
    path = tmp_path / "chain3.cfg"
    ol.save_config(ol.standard_setup(3, eta_frac=0.05), path)
    assert cli.main(["darkmode", "--config", str(path)]) == 4
    assert "two" in capsys.readouterr().err


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


def test_nmode_basis_json(capsys):
    assert cli.main(["nmode", "--n", "2", "--theta-pi", "0", "--basis"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2
    assert len(data["frequencies_rad_s"]) == 2
    assert data["dark_mode_indices"] == [2]


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
    assert cli.main(["oracle", "--config", config_file,
                     "--omega-frac", "0.95", "--rtol", "-1"]) == 2
    assert "rtol" in capsys.readouterr().err


def test_figure_preset_cli(tmp_path, capsys):
    out_dir = tmp_path / "fig4"
    assert cli.main(["figure", "fig4", "--out-dir", str(out_dir)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line]
    assert printed
    for line in printed:
        assert Path(line).exists()
    assert (out_dir / "fig4_windows_vs_theta.csv").exists()


def test_figure_has_no_worker_setting(tmp_path, monkeypatch):
    # Sweeps are serial: the former worker-count variable is ignored and
    # the former flag is an unknown argument.
    monkeypatch.setenv("OMIT_LAB_JOBS", "many")
    assert cli.main(["figure", "fig3", "--out-dir", str(tmp_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "fig3", "--jobs", "2",
                  "--out-dir", str(tmp_path)])
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
