"""omit-lab benchmark: end-to-end and per-module figures for three workloads.

    python3 perfbench/run.py --workload chain_spectra --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each round is a fresh interpreter (``worker.py``) that
imports ``omit_lab``, builds the workload from the seed, runs every
operation once and checks every output.  Rounds repeat until ``--seconds``
have passed; the figures reported are medians over the rounds.

``--trace 0`` reports the end-to-end metrics of the chosen workload.
``--trace 1`` reports the per-layer metrics: import times from ``python -X
importtime``, then one traced round of every workload, whose spans give
each module's self time, and one untraced round of the chosen workload for
the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Results and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("chain_spectra", "theta_sweep", "oracle_closure")
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  Times are self times summed over the spans of
# the traced rounds; see README.md for what each should move.
LAYERS = {
    "import.omit_lab.s": "s",
    "import.scipy_signal.s": "s",
    "import.scipy_integrate.s": "s",
    "import.scipy_constants.s": "s",
    "model.solve_steady_state.s": "s",
    "model.solve_steady_state.calls": "count",
    "model.steady_iterations": "count",
    "model.lock_effective_detuning.s": "s",
    "sidebands.compute_spectrum.s": "s",
    "sidebands.grid_points": "count",
    "sidebands.us_per_point": "us",
    "sidebands.compute_spectrum.peak_mb": "MB",
    "sidebands.solve_first_order.s": "s",
    "sidebands.solve_second_order.s": "s",
    "sidebands.closed_form.s": "s",
    "nmode.transmission_via_normal_modes.s": "s",
    "nmode.transmission_via_normal_modes.peak_mb": "MB",
    "darkmode.fit_linewidth.s": "s",
    "darkmode.windows_found": "count",
    "sweep.run_sweep.s": "s",
    "sweep.points": "count",
    "sweep.write_bundle.s": "s",
    "sweep.bytes_written": "bytes",
    "sweep.write_mb_per_s": "MB/s",
    "config_io.load_config.s": "s",
    "oracle.sideband_closure.s": "s",
    "oracle.integrate_mean_field.s": "s",
    "oracle.trace_samples": "count",
    "oracle.demodulate.s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}

IMPORTED = {
    "omit_lab": "import.omit_lab.s",
    "scipy.signal": "import.scipy_signal.s",
    "scipy.integrate": "import.scipy_integrate.s",
    "scipy.constants": "import.scipy_constants.s",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts child interpreters one at a time within the run's budget."""

    def __init__(self, seed: int):
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("OMIT_LAB_JOBS", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + path if path else "")

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        left = RUN_BUDGET_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run budget exhausted")
        try:
            return subprocess.run(argv, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=left)
        except subprocess.TimeoutExpired:
            # subprocess.run kills the child and waits for it.
            raise BenchError(f"{argv[1:3]} timed out") from None

    def round(self, workload: str, trace: bool) -> dict:
        t0 = time.monotonic()
        proc = self._spawn([
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(self.seed), "--t0", repr(t0),
            "--trace", "1" if trace else "0", "--out", str(OUT)])
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{workload} round failed "
                             f"(exit {proc.returncode}):\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for problem in result["problems"]:
            print(f"check failed: {workload}: {problem}", file=sys.stderr)
        return result

    def import_times(self) -> dict[str, float]:
        """Cumulative import time (s) of each module in IMPORTED."""
        proc = self._spawn([sys.executable, "-X", "importtime", "-c",
                            "import omit_lab"])
        if proc.returncode != 0:
            raise BenchError(f"import omit_lab failed:\n{proc.stderr}")
        return {metric: import_seconds(proc.stderr, module)
                for module, metric in IMPORTED.items()}

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def import_seconds(report: str, module: str) -> float:
    """Cumulative time of ``module`` in a ``-X importtime`` report.

    A package imported while one of its own submodules is being imported
    gets no line of its own; its outermost submodules are summed instead.
    """
    lines = []
    for line in report.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            lines.append((len(name) - len(name.lstrip()), name.strip(),
                          int(fields[1]) / 1e6))
    total = 0.0
    for i, (depth, name, cumulative) in enumerate(lines):
        if name == module:
            return cumulative
        if name.startswith(module + "."):
            parent = next((n for d, n, _ in lines[i + 1:] if d < depth), "")
            if not parent.startswith(module + "."):
                total += cumulative
    return total


def measure(runner: Runner, workload: str, seconds: float):
    rounds = []
    while not rounds or runner.elapsed() < seconds:
        rounds.append(runner.round(workload, trace=False))
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in END_TO_END}
    return rounds, metrics


def layer_values(traced: list[dict], plain: dict, workload: str) -> dict:
    """Per-layer metrics of one traced round per workload."""
    values = dict.fromkeys(LAYERS, 0.0)
    for r in traced:
        for name, value in r["layers"].items():
            if name.endswith(".peak_mb"):
                values[name] = max(values[name], value)
            elif name in values:
                values[name] += value
    values["sidebands.us_per_point"] = (
        1e6 * values["sidebands.compute_spectrum.s"]
        / values["sidebands.grid_points"])
    values["sweep.write_mb_per_s"] = (
        values["sweep.bytes_written"] / 1e6 / values["sweep.write_bundle.s"])
    values["process.cpu_s"] = sum(r["cpu_s"] for r in traced)
    values["trace.overhead_s"] = (
        traced[WORKLOADS.index(workload)]["wall_s"] - plain["wall_s"])
    return values


def measure_layers(runner: Runner, workload: str, seconds: float):
    imports = [runner.import_times() for _ in range(IMPORT_REPEATS)]
    passes = []
    while not passes or runner.elapsed() < seconds:
        traced = [runner.round(w, trace=True) for w in WORKLOADS]
        passes.append((traced, runner.round(workload, trace=False)))
    per_pass = [layer_values(traced, plain, workload)
                for traced, plain in passes]
    metrics = {name: statistics.median(v[name] for v in per_pass)
               for name in LAYERS if not name.startswith("import.")}
    for name in IMPORTED.values():
        metrics[name] = statistics.median(i[name] for i in imports)
    rounds = [r for traced, plain in passes for r in traced + [plain]]
    return rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "omit_lab" / "__init__.py").is_file():
        print(f"no omit_lab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.seed)
    try:
        if args.trace:
            rounds, values = measure_layers(runner, args.workload,
                                            args.seconds)
            units = LAYERS
        else:
            rounds, values = measure(runner, args.workload, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": all(not r["problems"] for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds, {attempted} operations, {failed} failed")
    for name, unit in units.items():
        print(f"  {name:45s} {values[name]:14.6g} {unit}")
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "rounds": rounds}, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
