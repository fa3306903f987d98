"""Refusal reach: the ``raise`` and ``warnings.warn`` lines Tier-1 never runs.

Run from anywhere, with any extra pytest arguments::

    python tests/run_reach.py

It runs the Tier-1 suite in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records only frames
whose code lives in ``src/omit_lab``.  Every line of that package that
starts a ``raise`` statement or a ``warnings.warn(`` call, found with
``ast``, must have run.  It prints the count reached and each line that
was not, and exits 1 if there is any (2 if pytest itself could not run).
pytest does not collect this file.

Only this process is traced: a line reached only in a child process (the
forked bundle writers of ``sweep.write_bundle``, or a CLI run in a
subprocess) counts as unreached.  The traced run takes about 1.5 times
as long as Tier-1.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "omit_lab"


def refusal_lines() -> dict[tuple[str, int], str]:
    """``(file, line)`` of each raise and warnings.warn call, with its text."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            warn = (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "warn"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "warnings")
            if isinstance(node, ast.Raise) or warn:
                found[str(path), node.lineno] = lines[node.lineno - 1].strip()
    return found


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest here under the tracer; its exit code and the lines run."""
    prefix = str(PACKAGE) + os.sep
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-o", "addopts=",
                            "--continue-on-collection-errors",
                            str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import omit_lab
    if not omit_lab.__file__.startswith(prefix):
        raise SystemExit(f"omit_lab was imported from {omit_lab.__file__}, "
                         f"not from {PACKAGE}")
    return int(code), seen


def main(argv: list[str]) -> int:
    targets = refusal_lines()
    code, seen = run_traced(argv)
    if code not in (0, 1):
        print(f"reach: pytest exited {code}; no reach reported")
        return 2
    missed = sorted(key for key in targets if key not in seen)
    print(f"reach: {len(targets) - len(missed)} of {len(targets)} raise and "
          "warnings.warn lines in src/omit_lab ran under Tier-1")
    for path, line in missed:
        rel = Path(path).relative_to(ROOT)
        print(f"  not reached: {rel}:{line}: {targets[path, line]}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
