"""Refusal reach: the ``raise`` and ``warnings.warn`` lines Tier-1 never runs.

Run from anywhere, with any extra pytest arguments::

    python tests/run_reach.py

It runs the Tier-1 suite in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records only frames
whose code lives in ``src/omit_lab``.  Every line of that package that
starts a ``raise`` statement or a ``warnings.warn(`` call, found with
``ast``, must have run.  The shared scalar checks, the ``_require_*``
functions of ``model.py``, raise for many callers, so their own ``raise``
lines are replaced by each call of them from outside them: when a shared
``raise`` line runs, the tracer records the line of the frame that called
into the shared checks, and that call must have refused at least once.
That stands for every refusal of the call only while each shared check
holds one ``raise``, so the script exits 2, before any test runs, if
one holds more.
It prints the count reached and each line that was not, and exits 1 if
there is any (2 if pytest itself could not run).  pytest does not collect
this file.

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
MODEL = PACKAGE / "model.py"


def shared_checks() -> dict[str, list[int]]:
    """Each ``_require_*`` function of ``model.py``, with the lines of the
    ``raise`` statements inside it."""
    tree = ast.parse(MODEL.read_text(encoding="utf-8"), filename=str(MODEL))
    return {node.name: [raise_.lineno for raise_ in ast.walk(node)
                        if isinstance(raise_, ast.Raise)]
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_require_")}


def refusal_lines(checks: set[str]) -> tuple[dict[tuple[str, int], str],
                                              dict[tuple[str, int], str]]:
    """``(file, line)`` of each raise and warnings.warn call, with its text.

    The shared checks are left out of the first dict and stand in, in the
    second, by their calls from outside them: a call of one of ``checks``
    in ``model.py``, or in a module that imports it from ``.model``.
    """
    found, calls = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        if path == MODEL:
            shared = checks
            roots = [node for node in tree.body
                     if getattr(node, "name", None) not in checks]
        else:
            shared = checks & {
                alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "model"
                for alias in node.names}
            roots = [tree]
        for node in (node for root in roots for node in ast.walk(root)):
            call = isinstance(node, ast.Call)
            warn = (call and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "warn"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "warnings")
            if isinstance(node, ast.Raise) or warn:
                found[str(path), node.lineno] = lines[node.lineno - 1].strip()
            elif (call and isinstance(node.func, ast.Name)
                  and node.func.id in shared):
                calls[str(path), node.lineno] = lines[node.lineno - 1].strip()
    return found, calls


def run_traced(pytest_args: list[str], checks: set[str], raises: set[int],
               ) -> tuple[int, set[tuple[str, int]], set[tuple[str, int]]]:
    """Run pytest here under the tracer.

    Returns its exit code, the lines run, and the lines of the frames that
    called into the shared ``checks`` when one of their ``raises`` lines
    ran.
    """
    prefix = str(PACKAGE) + os.sep
    model = str(MODEL)
    seen: set[tuple[str, int]] = set()
    refused: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
            if (frame.f_code.co_filename == model
                    and frame.f_lineno in raises):
                while (frame.f_code.co_filename == model
                       and frame.f_code.co_name in checks):
                    frame = frame.f_back
                refused.add((frame.f_code.co_filename, frame.f_lineno))
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
    return int(code), seen, refused


def main(argv: list[str]) -> int:
    refusals = shared_checks()
    several = sorted(name for name, found in refusals.items()
                     if len(found) > 1)
    if several:
        print(f"reach: more than one raise in model.py's "
              f"{', '.join(several)}; a call refused once would not show "
              "that each of its refusals ran")
        return 2
    checks = set(refusals)
    raises = {line for found in refusals.values() for line in found}
    lines, calls = refusal_lines(checks)
    code, seen, refused = run_traced(argv, checks, raises)
    if code not in (0, 1):
        print(f"reach: pytest exited {code}; no reach reported")
        return 2
    missed_lines = [key for key in lines if key not in seen]
    missed_calls = [key for key in calls if key not in refused]
    print(f"reach: in src/omit_lab, {len(lines) - len(missed_lines)} of "
          f"{len(lines)} raise and warnings.warn lines ran and "
          f"{len(calls) - len(missed_calls)} of {len(calls)} calls of "
          "model's shared checks refused under Tier-1")
    missed = sorted(missed_lines + missed_calls)
    for path, line in missed:
        rel = Path(path).relative_to(ROOT)
        text = lines.get((path, line)) or calls[path, line]
        print(f"  not reached: {rel}:{line}: {text}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
