"""Smoke test of the public surface: the demo scripts and ``__all__``.

A public name that is deleted or renamed breaks the demos only when they
run, so they all run here.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

import omit_lab as ol

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", [
    "01_transparency_window.py",
    "02_dark_mode_breaking.py",
    "03_nmode_chains.py",
    "04_time_domain_closure.py",
    "05_sweeps_and_figures.py",
])
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos 01 and 05 write to the cwd
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out


def test_every_exported_name_resolves():
    missing = [name for name in ol.__all__ if not hasattr(ol, name)]
    assert missing == []
