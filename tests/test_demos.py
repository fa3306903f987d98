"""Smoke test of the public surface: the demo scripts, ``__all__`` and the
benchmark's self-test.

A public name that is deleted or renamed breaks the demos and the
benchmark only when they run, so they all run here.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import omit_lab as ol

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


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
    # Each public name is declared once, in its module's __all__, and the
    # package exports exactly those.
    declared = {"__version__"}.union(*(
        getattr(importlib.import_module(f"omit_lab.{info.name}"),
                "__all__", ())
        for info in pkgutil.iter_modules(ol.__path__)
        if not info.name.startswith("_")))
    assert sorted(ol.__all__) == sorted(declared)


def test_perfbench_selftest_passes():
    # Every benchmark check accepts the real output and rejects a
    # corrupted one, through the same public calls the benchmark makes.
    src = str(Path(ol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = str(ROOT / "perfbench" / "selftest.py")
    out = subprocess.run([sys.executable, script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "15/15 self-test cases passed" in out.stdout
