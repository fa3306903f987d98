"""One round of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per round.  It imports ``omit_lab``,
builds the workload's inputs from the seed, runs every operation once with
no warm-up, then checks every output with ``checks.py``.  The last line it
prints is a JSON object with the round's timings, counts and problems.

    python3 perfbench/worker.py --workload chain_spectra --seed 1 \
        --t0 <time.monotonic() of the parent at spawn> --trace 0 --out DIR

With ``--trace 1`` the calls into each module are wrapped in spans kept in
memory and written to ``DIR/trace-<workload>-seed<seed>.json`` at the end;
calls that cross into another module (``run_sweep``, ``sideband_closure``)
are replayed step by step through the public functions of those modules.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHAIN_SIZES = (2, 4, 8, 16, 32)
CHAIN_ETA_FRAC = 0.05
WINDOW_CHECK_MAX_N = 8
SWEEP_POINTS = 61
GRID_POINTS = 4001
# Left window, centre, right window, in units of omega_m.  The integrator's
# step count jumps by up to 25% between detunings 0.5% apart, so the
# detunings stay fixed and the seed sets only their order.
CLOSURE_DETUNINGS = (0.95, 1.00, 1.05)
CLOSURE_PROBE_RATIO = 0.01
CLOSURE_PERIODS = 150
SAMPLES_PER_SPECTRUM = 32
SAMPLES_PER_SWEEP_POINT = 8


class Tracer:
    """Spans (name, start, end, parent, op) and counters, kept in memory."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def self_times(self) -> Counter:
        """Per span name: duration minus the time covered by child spans."""
        child_time = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return totals

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _peak_mb(fn, *args, **kwargs) -> float:
    """tracemalloc peak (MB) inside one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Workloads.  Each builds its inputs in __init__ (counted as set-up), runs
# its operations in run() (timed), and checks them in check(), which
# returns one list of problems per operation.


class ChainSpectra:
    """Uniform N-mode chains, dark and broken, one spectrum each."""

    def __init__(self, ol, np, checks, seed: int, tracer: Tracer,
                 out: Path):
        self.ol, self.tr = ol, tracer
        rng = np.random.default_rng(seed)
        theta = 0.5 * math.pi * (1.0 + 0.1 * (2.0 * rng.random() - 1.0))
        self.ops = []
        for n in CHAIN_SIZES:
            for dark in (True, False):
                cfg = ol.standard_setup(
                    n, eta_frac=0.0 if dark else CHAIN_ETA_FRAC,
                    theta=0.0 if dark else theta)
                self.ops.append((n, dark, cfg))
        self.samples = [
            checks.sample_indices(rng, GRID_POINTS, SAMPLES_PER_SPECTRUM)
            for _ in self.ops]

    def run(self):
        ol, tr = self.ol, self.tr
        self.results = []
        for i, (n, dark, cfg) in enumerate(self.ops):
            with tr.span("chain_spectra.op", op=i):
                try:
                    ss = tr.call("model.solve_steady_state",
                                 ol.solve_steady_state, cfg)
                    sp = tr.call("sidebands.compute_spectrum",
                                 ol.compute_spectrum, cfg, points=GRID_POINTS,
                                 include_second_order=False, steady=ss)
                    star = tr.call("nmode.transmission_via_normal_modes",
                                   ol.transmission_via_normal_modes,
                                   cfg, ss, sp.omega)
                    fits = tr.call("darkmode.fit_linewidth",
                                   ol.fit_linewidth, sp)
                except ol.OmitLabError as exc:
                    self.results.append(exc)
                    continue
            tr.count("model.steady_iterations", ss.iterations)
            tr.count("sidebands.grid_points", len(sp.omega))
            tr.count("darkmode.windows_found", len(fits))
            self.results.append((ss, sp, star, fits))

    def check(self, checks):
        problems = []
        for (n, dark, cfg), idx, res in zip(self.ops, self.samples,
                                            self.results):
            if isinstance(res, Exception):
                problems.append([f"N={n}: {type(res).__name__}: {res}"])
                continue
            ss, sp, star, fits = res
            lock = cfg.omega_ref
            found = (checks.check_steady(cfg, ss, lock)
                     + checks.check_transmission(cfg, sp, idx, lock)
                     + checks.check_normal_modes(sp, star))
            if n <= WINDOW_CHECK_MAX_N:
                found += checks.check_windows(cfg, fits, dark)
            label = f"N={n} {'dark' if dark else 'broken'}"
            problems.append([f"{label}: {p}" for p in found])
        return problems

    def replay(self, metrics):
        """tracemalloc peaks of the largest chain's two dense solves."""
        i = max(range(len(self.ops)), key=lambda j: self.ops[j][0])
        cfg = self.ops[i][2]
        ss, sp, _, _ = self.results[i]
        metrics["sidebands.compute_spectrum.peak_mb"] = _peak_mb(
            self.ol.compute_spectrum, cfg, points=GRID_POINTS,
            include_second_order=False, steady=ss)
        metrics["nmode.transmission_via_normal_modes.peak_mb"] = _peak_mb(
            self.ol.transmission_via_normal_modes, cfg, ss, sp.omega)


class ThetaSweep:
    """Two-mode split-window system swept over theta, written as a bundle."""

    def __init__(self, ol, np, checks, seed: int, tracer: Tracer,
                 out: Path):
        self.ol, self.tr = ol, tracer
        self.cfg = tracer.call(
            "config_io.load_config", ol.load_config,
            ROOT / "demos" / "configs" / "split_window.cfg")
        values = np.linspace(0.0, 2.0 * math.pi, SWEEP_POINTS)
        self.lock = self.cfg.omega_ref
        self.spec = ol.SweepSpec(parameter="theta_rad", values=tuple(values),
                                 lock_delta=self.lock)
        rng = np.random.default_rng(seed)
        self.samples = [
            checks.sample_indices(rng, GRID_POINTS, SAMPLES_PER_SWEEP_POINT)
            for _ in values]
        self.dir = Path(tempfile.mkdtemp(prefix="bundle-", dir=out))

    def run(self):
        ol, tr = self.ol, self.tr
        self.bundle = tr.call("sweep.run_sweep", ol.run_sweep, self.cfg,
                              self.spec, points=GRID_POINTS)
        self.written = tr.call("sweep.write_bundle", ol.write_bundle,
                               self.bundle, self.dir)
        if tr.enabled:  # untraced rounds should not time the stat() calls
            tr.count("sweep.points", len(self.spec.values))
            tr.count("sweep.bytes_written",
                     sum(p.stat().st_size for p in self.written))

    def check(self, checks):
        spectra, errors = self.bundle.spectra, self.bundle.errors
        problems = []
        for i, (value, sp, err, idx) in enumerate(zip(
                self.spec.values, spectra, errors, self.samples)):
            if err is not None or sp is None:
                problems.append([f"theta={value:.4f}: {err}"])
                continue
            cfg = replace(self.cfg, couplings=(
                replace(self.cfg.couplings[0], theta=value),))
            found = (checks.check_route(sp)
                     + checks.check_locked_metadata(cfg, sp.metadata,
                                                    self.lock)
                     + checks.check_transmission(cfg, sp, idx, self.lock)
                     + checks.check_second_order(cfg, sp, idx, self.lock))
            mirror = spectra[len(spectra) - 1 - i]
            if mirror is not None:
                found += checks.check_mirror(sp, mirror)
            problems.append([f"theta={value:.4f}: {p}" for p in found])
        if any(s is None for s in spectra):
            problems.append(["bundle not checked: a point failed"])
        else:
            problems.append(checks.check_bundle(self.bundle, self.dir))
        shutil.rmtree(self.dir)
        return problems

    def replay(self, metrics):
        """Each sweep point's steps through the public functions."""
        ol, tr = self.ol, self.tr
        for i, value in enumerate(self.spec.values):
            with tr.span("sweep.replay_point", op=i):
                cfg = ol.apply_parameter(self.cfg, "theta_rad", value)
                cfg = tr.call("model.lock_effective_detuning",
                              ol.lock_effective_detuning, cfg, self.lock)
                ss = tr.call("model.solve_steady_state",
                             ol.solve_steady_state, cfg)
                sp = tr.call("sidebands.compute_spectrum",
                             ol.compute_spectrum, cfg, points=GRID_POINTS,
                             steady=ss)
                first = tr.call("sidebands.solve_first_order",
                                ol.solve_first_order, cfg, ss, sp.omega)
                tr.call("sidebands.solve_second_order", ol.solve_second_order,
                        cfg, ss, sp.omega, first)
                with tr.span("sidebands.closed_form"):
                    ol.first_order_closed_form(cfg, ss, sp.omega)
                    ol.second_order_closed_form(cfg, ss, sp.omega)
            tr.count("model.steady_iterations", ss.iterations)
            tr.count("sidebands.grid_points", len(sp.omega))


class OracleClosure:
    """Time-domain closure of the split-window system at three detunings."""

    def __init__(self, ol, np, checks, seed: int, tracer: Tracer,
                 out: Path):
        self.ol, self.tr = ol, tracer
        self.cfg = ol.standard_setup(2, eta_frac=CHAIN_ETA_FRAC,
                                     theta=0.5 * math.pi)
        order = np.random.default_rng(seed).permutation(len(CLOSURE_DETUNINGS))
        self.omegas = [CLOSURE_DETUNINGS[i] * self.cfg.omega_ref
                       for i in order]

    def run(self):
        ol, tr = self.ol, self.tr
        self.reports = []
        for i, w in enumerate(self.omegas):
            with tr.span("oracle_closure.op", op=i):
                try:
                    self.reports.append(tr.call(
                        "oracle.sideband_closure", ol.sideband_closure,
                        self.cfg, w, probe_ratio=CLOSURE_PROBE_RATIO,
                        periods=CLOSURE_PERIODS))
                except ol.OmitLabError as exc:
                    self.reports.append(exc)

    def check(self, checks):
        problems = []
        for w, report in zip(self.omegas, self.reports):
            label = f"Omega/omega_m={w / self.cfg.omega_ref:.4f}"
            if isinstance(report, Exception):
                problems.append([f"{label}: {type(report).__name__}: {report}"])
                continue
            found = checks.check_closure(self.cfg, w, CLOSURE_PROBE_RATIO,
                                         report)
            problems.append([f"{label}: {p}" for p in found])
        return problems

    def replay(self, metrics):
        """The closure at the first listed detuning, step by step through
        the public functions (whatever order the seed gave the rounds)."""
        ol, tr = self.ol, self.tr
        w = CLOSURE_DETUNINGS[0] * self.cfg.omega_ref
        cfg = replace(self.cfg, drive=replace(
            self.cfg.drive, probe_ratio=CLOSURE_PROBE_RATIO, power_probe=None))
        with tr.span("oracle.replay_closure", op=0):
            ss = tr.call("model.solve_steady_state", ol.solve_steady_state,
                         cfg)
            first = tr.call("sidebands.solve_first_order",
                            ol.solve_first_order, cfg, ss, w)
            tr.call("sidebands.solve_second_order", ol.solve_second_order,
                    cfg, ss, w, first)
            omega, gamma, _ = cfg.mode_arrays()
            g_lin = ol.linearized_couplings(cfg, ss)
            optical = sum(ol.optical_damping_rate(gl, cfg.cavity.kappa,
                                                  ss.delta_eff, om)
                          for gl, om in zip(g_lin, omega))
            settle = 40.0 / (float(min(gamma)) + 0.5 * optical)
            t_final = settle + (CLOSURE_PERIODS + 1) * 2.0 * math.pi / w
            trace = tr.call("oracle.integrate_mean_field",
                            ol.integrate_mean_field, cfg, t_final,
                            omega_probe=w, initial=(ss.alpha, ss.betas))
            tr.call("oracle.demodulate", ol.demodulate, trace, w,
                    settle=settle, min_cycles=CLOSURE_PERIODS)
        tr.count("model.steady_iterations", ss.iterations)
        tr.count("oracle.trace_samples", len(trace.times))


WORKLOADS = {
    "chain_spectra": ChainSpectra,
    "theta_sweep": ThetaSweep,
    "oracle_closure": OracleClosure,
}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy as np
    import omit_lab as ol

    import checks

    source = (ROOT / "src" / "omit_lab").resolve()
    if Path(ol.__file__).resolve().parent != source:
        print(f"omit_lab imported from {ol.__file__}, not {source}",
              file=sys.stderr)
        return 2
    tracer = Tracer(bool(args.trace))
    workload = WORKLOADS[args.workload](ol, np, checks, args.seed, tracer,
                                        args.out)
    setup_s = time.monotonic() - args.t0

    cpu0 = _cpu_s()
    start = time.perf_counter()
    workload.run()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workload.check(checks)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": cpu_s,
        "attempted": len(problems),
        "failed": sum(1 for p in problems if p),
        "problems": [p for found in problems for p in found][:20],
    }
    if args.trace:
        metrics: dict[str, float] = {}
        workload.replay(metrics)
        for name, seconds in tracer.self_times().items():
            metrics[f"{name}.s"] = seconds
        metrics.update(tracer.counts)
        metrics["model.solve_steady_state.calls"] = sum(
            1 for s in tracer.spans if s[0] == "model.solve_steady_state")
        result["layers"] = metrics
        tracer.dump(args.out / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
