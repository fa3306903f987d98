"""Self-test of the benchmark's checks: each must reject a corrupted output.

    PYTHONPATH=src python3 perfbench/selftest.py

For every check the benchmark relies on, the real output is first shown to
pass, then a corrupted copy is shown to fail: a perturbed transmission
point, a flipped byte in a written CSV, a shifted closure amplitude and a
steady state on the wrong branch.  Exits 1 if any check accepts a corrupted
output or rejects a correct one.  Takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import omit_lab as ol

import checks

HERE = Path(__file__).resolve().parent

results: list[tuple[str, bool]] = []


def expect(label: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    results.append((label, ok))
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def transmission_cases(rng) -> None:
    cfg = ol.standard_setup(4, eta_frac=0.05, theta=0.5 * math.pi)
    ss = ol.solve_steady_state(cfg)
    sp = ol.compute_spectrum(cfg, include_second_order=False, steady=ss)
    star = ol.transmission_via_normal_modes(cfg, ss, sp.omega)
    idx = checks.sample_indices(rng, len(sp.omega), 32)
    lock = cfg.omega_ref
    expect("transmission, as computed",
           checks.check_transmission(cfg, sp, idx, lock), False)
    expect("normal-mode basis, as computed",
           checks.check_normal_modes(sp, star), False)
    expect("windows, as computed",
           checks.check_windows(cfg, ol.fit_linewidth(sp), dark=False), False)

    sampled, unsampled = int(idx[5]), int(np.setdiff1d(np.arange(10, 4000),
                                                       idx)[0])
    for label, point in (("sampled", sampled), ("unsampled", unsampled)):
        amplitude = sp.amplitude.copy()
        amplitude[point] *= 1.0 + 1e-6
        bad = replace(sp, amplitude=amplitude)
        found = (checks.check_transmission(cfg, bad, idx, lock)
                 + checks.check_normal_modes(bad, star))
        expect(f"transmission perturbed by 1e-6 at a {label} point",
               found, True)
    expect("broken chain with a window dropped",
           checks.check_windows(cfg, ol.fit_linewidth(sp)[1:], dark=False),
           True)


def bundle_cases() -> None:
    cfg = ol.load_config(HERE.parent / "demos" / "configs"
                         / "split_window.cfg")
    spec = ol.SweepSpec(parameter="theta_rad", values=(0.0, 1.0, 2.0),
                        lock_delta=cfg.omega_ref)
    bundle = ol.run_sweep(cfg, spec, points=101)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        ol.write_bundle(bundle, work)
        expect("bundle, as written", checks.check_bundle(bundle, work), False)
        path = work / "point_001.csv"
        data = bytearray(path.read_bytes())
        pos = data.index(b"\n") + 5
        while not chr(data[pos]).isdigit():
            pos += 1
        data[pos] ^= 0x01                    # a digit stays a digit
        path.write_bytes(bytes(data))
        expect("CSV with one flipped byte",
               checks.check_bundle(bundle, work), True)
        # Same flip with the manifest rewritten to match: the parse-back
        # comparison alone must still catch it.
        ol.write_bundle(bundle, work)
        path.write_bytes(bytes(data))
        manifest = work / "manifest.json"
        index = json.loads(manifest.read_text("utf-8"))
        index["files"][path.name]["sha256"] = hashlib.sha256(data).hexdigest()
        manifest.write_text(json.dumps(index), encoding="utf-8")
        expect("flipped byte behind a matching manifest",
               checks.check_bundle(bundle, work), True)
    finally:
        shutil.rmtree(work)


def closure_cases() -> None:
    cfg = ol.standard_setup(2, eta_frac=0.05, theta=0.5 * math.pi)
    w = 1.05 * cfg.omega_ref
    report = ol.sideband_closure(cfg, w, probe_ratio=0.01, periods=150)
    expect("closure, as computed",
           checks.check_closure(cfg, w, 0.01, report), False)
    shifted = replace(report, a1_time=report.a1_time * 1.02)
    expect("closure with a1_time shifted by 2%",
           checks.check_closure(cfg, w, 0.01, shifted), True)
    shifted = replace(report, a2_freq=report.a2_freq * (1.0 + 1e-6))
    expect("closure with a2_freq shifted by 1e-6",
           checks.check_closure(cfg, w, 0.01, shifted), True)


def other_branch(cfg) -> float:
    """A fixed point of Delta = Delta_c + 2 sum g Re beta(Delta) away from
    the locked one, found by scanning and bisecting our own map."""
    om = cfg.omega_ref

    def gap(delta):
        return cfg.cavity.delta_c + checks.fixed_point(cfg, delta)[2] - delta

    grid = np.linspace(-2.0 * om, 3.0 * om, 2001)
    values = [gap(d) for d in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa * fb < 0.0:
            for _ in range(100):
                mid = 0.5 * (a + b)
                if gap(mid) * fa > 0.0:
                    a, fa = mid, gap(mid)
                else:
                    b = mid
            roots.append(0.5 * (a + b))
    return max(roots, key=lambda r: abs(r - om))


def steady_cases() -> None:
    cfg = ol.standard_setup(8)
    ss = ol.solve_steady_state(cfg)
    expect("steady state, as computed",
           checks.check_steady(cfg, ss, cfg.omega_ref), False)
    delta = other_branch(cfg)
    alpha, betas, _ = checks.fixed_point(cfg, delta)
    wrong = replace(ss, alpha=complex(alpha), betas=tuple(betas),
                    delta_eff=delta)
    found = checks.check_steady(cfg, wrong, cfg.omega_ref)
    expect(f"steady state on the branch Delta/omega_m = "
           f"{delta / cfg.omega_ref:.4f}", found, True)
    expect("that branch is a true fixed point (only the lock check fires)",
           [p for p in found if "locked branch" not in p], False)


def main() -> int:
    rng = np.random.default_rng(0)
    transmission_cases(rng)
    bundle_cases()
    steady_cases()
    closure_cases()
    failed = [label for label, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-test cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
