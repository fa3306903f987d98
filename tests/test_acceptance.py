"""End-to-end acceptance gate for the package.

Each test checks one advertised capability at its stated tolerance and
prints a single ``[criterion NN] ... -> PASS/FAIL`` line with the measured
numbers, so a full run doubles as a quantitative report.

One criterion is currently red, deliberately so:

* criterion 04 -- the transparency window of an N-mode degenerate bright
  mode grows as ``-kappa + sqrt(kappa**2 + 4*N*G**2)``, which is sublinear
  in N once ``sqrt(N)*G`` is comparable to ``kappa``.  At the benchmark
  drive the measured FWHM ratios for N = 3, 4 fall short of the naive
  N-fold target (2.66 and 3.39 against windows [2.7, 3.3] and [3.6, 4.4]).

Criterion 11 compares the fitted window FWHM with ``2 * gamma_eff``:
``gamma_eff = gamma_m + 2*gamma_opt`` is an amplitude decay rate, i.e. the
half width of the window.  In the weak-coupling limit the ratio tends to
1 (1.005 at 0.01 mW); at the benchmark drive (G ~ 0.3 kappa) it reads
0.867, inside the stated band.

The assertions are kept at their stated targets rather than widened: they
document the scaling claims, and the failure quantifies exactly where the
simple scaling laws stop applying.
"""

from __future__ import annotations

import math

import numpy as np

import omit_lab as ol
from conftest import random_two_mode

PI = math.pi
OM = ol.standard_setup(1).omega_ref


def _criterion(num: int, ok: bool, detail: str) -> None:
    flag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {detail} -> {flag}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_route_equivalence():
    rng = np.random.default_rng(20260814)
    worst1 = worst2 = 0.0
    for _ in range(1000):
        cfg, steady, omega = random_two_mode(rng)
        d1 = ol.solve_first_order(cfg, steady, omega)
        c1 = ol.first_order_closed_form(cfg, steady, omega)
        d2 = ol.solve_second_order(cfg, steady, omega)
        c2 = ol.second_order_closed_form(cfg, steady, omega)
        pairs = ((d1.a_minus, c1.a_minus),
                 (d1.a_plus_conj, c1.a_plus_conj),
                 (d1.b_minus[0], c1.b_minus[0]),
                 (d1.b_minus[1], c1.b_minus[1]),
                 (d1.b_plus_conj[0], c1.b_plus_conj[0]),
                 (d1.b_plus_conj[1], c1.b_plus_conj[1]))
        for direct, closed in pairs:
            worst1 = max(worst1,
                         abs(direct - closed) / max(abs(closed), 1e-300))
        worst2 = max(worst2, abs(d2.a_minus - c2) / max(abs(c2), 1e-300))
    _criterion(1, worst1 < 1e-10 and worst2 < 1e-9,
               f"1000 draws: first-order worst rel {worst1:.3e} (<1e-10), "
               f"second-order {worst2:.3e} (<1e-9)")


def test_criterion_02_bright_mode_reduction():
    grid = np.linspace(0.8, 1.2, 1601) * OM
    worst = 0.0
    for n in (2, 3, 4):
        multi = ol.compute_spectrum(
            ol.standard_setup(n, eta_frac=0.0), grid,
            include_second_order=False)
        single = ol.compute_spectrum(
            ol.standard_setup(1, g_scales=(math.sqrt(n),)), grid,
            include_second_order=False)
        worst = max(worst,
                    float(np.max(np.abs(multi.amplitude - single.amplitude))),
                    float(np.max(np.abs(multi.transmission
                                        - single.transmission))))
    _criterion(2, worst < 1e-8,
               f"N in 2..4 vs sqrt(N)-boosted single mode: worst pointwise "
               f"deviation {worst:.3e} (<1e-8)")


def test_criterion_03_linewidth_doubling():
    ratios = []
    for p_mw in (0.5, 1.0, 1.5, 2.0):
        fwhm = {}
        for n in (1, 2):
            cfg = ol.standard_setup(n, eta_frac=0.0, power_w=p_mw * 1e-3)
            spectrum = ol.compute_spectrum(cfg, points=4001,
                                           include_second_order=False)
            fits = ol.fit_linewidth(spectrum)
            assert len(fits) == 1
            fwhm[n] = fits[0].fwhm
        ratios.append(fwhm[2] / fwhm[1])
    ok = all(1.8 <= r <= 2.05 for r in ratios)
    _criterion(3, ok,
               "FWHM(2 modes)/FWHM(1 mode) at 0.5/1/1.5/2 mW: "
               + ", ".join(f"{r:.4f}" for r in ratios) + " (each in [1.8, 2.05])")


def test_criterion_04_linewidth_n_scaling():
    fwhm = {}
    for n in (1, 2, 3, 4):
        cfg = ol.standard_setup(n, eta_frac=0.0)
        spectrum = ol.compute_spectrum(cfg, points=4001,
                                       include_second_order=False)
        fwhm[n] = ol.fit_linewidth(spectrum)[0].fwhm
    ratios = {n: fwhm[n] / fwhm[1] for n in (2, 3, 4)}
    ok = all(abs(ratios[n] - n) <= 0.1 * n for n in (2, 3, 4))
    _criterion(4, ok,
               "FWHM(N)/FWHM(1) for N=2,3,4: "
               + ", ".join(f"{ratios[n]:.4f}" for n in (2, 3, 4))
               + " (each within 10% of N)")


def test_criterion_05_window_splitting():
    parts = []
    split = ol.compute_spectrum(
        ol.standard_setup(2, eta_frac=0.05, theta=PI / 2),
        points=4001, include_second_order=False)
    fits = ol.fit_linewidth(split)
    centers = sorted(f.center / OM for f in fits)
    ok_split = (len(fits) == 2
                and abs(centers[0] - 0.95) <= 0.005
                and abs(centers[1] - 1.05) <= 0.005)
    parts.append(f"theta=pi/2: {len(fits)} windows at "
                 + ", ".join(f"{c:.4f}" for c in centers))
    counts = {}
    for theta in (0.0, PI):
        spectrum = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=0.05, theta=theta),
            points=4001, include_second_order=False)
        counts[theta] = len(ol.fit_linewidth(spectrum))
    ok_unbroken = counts[0.0] == 1 and counts[PI] == 1
    parts.append(f"theta=0/pi: {counts[0.0]}/{counts[PI]} window(s)")
    ok_chain = True
    for n in (3, 4):
        spectrum = ol.compute_spectrum(
            ol.standard_setup(n, eta_frac=0.05, theta=PI / 2),
            points=4001, include_second_order=False)
        got = len(ol.fit_linewidth(spectrum))
        ok_chain = ok_chain and got == n
        parts.append(f"N={n} broken: {got} windows")
    _criterion(5, ok_split and ok_unbroken and ok_chain, "; ".join(parts))


def test_criterion_06_phase_parity_and_periodicity():
    rng = np.random.default_rng(11)
    grid = np.linspace(0.85, 1.15, 101) * OM
    worst = 0.0
    for _ in range(20):
        theta = float(rng.uniform(0.0, 2 * PI))
        base = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=0.05, theta=theta), grid)
        mirrored = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=0.05, theta=2 * PI - theta), grid)
        shifted = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=0.05, theta=theta + 2 * PI), grid)
        for other in (mirrored, shifted):
            worst = max(
                worst,
                float(np.max(np.abs(base.transmission - other.transmission)
                             / np.maximum(base.transmission, 1e-30))),
                float(np.max(np.abs(base.efficiency_percent
                                    - other.efficiency_percent)
                             / np.maximum(base.efficiency_percent, 1e-30))))
    _criterion(6, worst < 1e-10,
               f"20 random phases, theta -> 2*pi-theta and theta+2*pi: "
               f"worst rel deviation {worst:.3e} (<1e-10)")


def test_criterion_07_even_mode_decoupling():
    worst_even = 0.0
    min_bright = math.inf
    for n in range(2, 17):
        aligned = ol.standard_setup(n, eta_frac=0.05, theta=0.0)
        steady0 = ol.solve_steady_state(aligned)
        basis0 = ol.build_normal_modes(aligned, steady0)
        g_scale = float(ol.linearized_couplings(aligned, steady0)[0])
        for k in range(2, n + 1, 2):
            worst_even = max(worst_even,
                             abs(basis0.couplings[k - 1]) / g_scale)
        broken = ol.standard_setup(n, eta_frac=0.05, theta=PI / 2)
        basis1 = ol.build_normal_modes(broken, ol.solve_steady_state(broken))
        min_bright = min(min_bright,
                         min(abs(c) for c in basis1.couplings) / g_scale)
    _criterion(7, worst_even < 1e-12 and min_bright > 1e-6,
               f"N=2..16: worst even-mode |coupling|/G {worst_even:.3e} "
               f"(<1e-12); min coupling after breaking {min_bright:.3e} G "
               f"(all bright)")


def test_criterion_08_second_order_enhancement():
    grid = np.linspace(0.6, 1.4, 2001) * OM
    peak = {}
    for theta in (0.0, PI):
        spectrum = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=0.2, theta=theta), grid)
        peak[theta] = float(np.nanmax(spectrum.efficiency_percent))
    sweep_max = 0.0
    for eta_frac in np.linspace(0.0, 0.2, 21):
        spectrum = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=float(eta_frac), theta=PI / 2),
            grid)
        sweep_max = max(sweep_max,
                        float(np.nanmax(spectrum.efficiency_percent)))
    ratio = peak[PI] / peak[0.0]
    ok = (2.2 <= ratio <= 4.0 and 6.0 <= sweep_max <= 12.0
          and 9.0 <= peak[PI] <= 16.0)
    _criterion(8, ok,
               f"peak efficiency ratio theta=pi/theta=0 {ratio:.3f} "
               f"(in [2.2, 4.0]); theta=pi/2 eta-sweep max {sweep_max:.3f}% "
               f"(in [6, 12]); theta=pi max {peak[PI]:.3f}% (in [9, 16])")


def _delay_at(config: ol.SystemConfig, frac: float) -> float:
    local = np.linspace(frac - 0.002, frac + 0.002, 41) * OM
    spectrum = ol.compute_spectrum(config, local,
                                   include_second_order=False)
    return ol.group_delay(spectrum, frac * OM).delay


def test_criterion_09_group_delay_enhancement():
    best_left = best_right = 0.0
    for theta in np.linspace(0.0, 2 * PI, 61):
        cfg = ol.standard_setup(2, eta_frac=0.05, theta=float(theta))
        best_left = max(best_left, _delay_at(cfg, 0.95))
        best_right = max(best_right, _delay_at(cfg, 1.05))
    unbroken = ol.standard_setup(2, eta_frac=0.05, theta=0.0)
    tau0 = abs(_delay_at(unbroken, 1.0))
    ratio = max(best_left, best_right) / tau0
    ok = (350e-6 <= best_left <= 700e-6 and 430e-6 <= best_right <= 810e-6
          and ratio > 10.0)
    _criterion(9, ok,
               f"max delay over phase: left {best_left * 1e6:.1f} us "
               f"(in [350, 700]), right {best_right * 1e6:.1f} us "
               f"(in [430, 810]); broken/unbroken ratio {ratio:.1f} (>10)")


def test_criterion_10_time_domain_closure():
    cfg = ol.standard_setup(2, eta_frac=0.05, theta=PI / 2)
    worst = 0.0
    all_reliable = True
    for frac in (0.90, 0.95, 1.00, 1.05, 1.10):
        report = ol.sideband_closure(cfg, frac * OM, probe_ratio=0.01)
        worst = max(worst, report.rel_err_first, report.rel_err_second)
        all_reliable = all_reliable and report.reliable
    _criterion(10, worst < 0.01 and all_reliable,
               f"five detunings across both windows: worst sideband "
               f"closure error {worst:.3e} (<0.01)")


def test_criterion_11_adiabatic_limits():
    g_lin, kappa = 1e-2, 1e-3
    gamma_opt = ol.optical_damping_rate(g_lin, kappa, 1.0, 1.0)
    dev = abs(gamma_opt - g_lin ** 2 / kappa) / (g_lin ** 2 / kappa)
    cfg = ol.standard_setup(2, eta_frac=0.0)
    steady = ol.solve_steady_state(cfg)
    predicted = ol.predict_linewidth(cfg, steady)
    spectrum = ol.compute_spectrum(cfg, points=4001,
                                   include_second_order=False)
    fitted = ol.fit_linewidth(spectrum)[0].fwhm
    # predicted is the half width gamma_eff; the fit is a full width.
    ratio = fitted / (2.0 * predicted)
    ok = dev < 0.005 and 0.85 <= ratio <= 1.15
    _criterion(11, ok,
               f"gamma_opt vs G^2/kappa at kappa/omega=1e-3: rel dev "
               f"{dev:.3e} (<0.005); fitted FWHM / (2*gamma_eff) "
               f"{ratio:.3f} (in [0.85, 1.15])")


def test_criterion_12_numerical_hygiene():
    cfg = ol.standard_setup(2, eta_frac=0.05, theta=PI / 2)
    delays = {}
    for points in (2001, 4001):
        spectrum = ol.compute_spectrum(cfg, points=points,
                                       include_second_order=False)
        delays[points] = ol.group_delay(spectrum, 0.95 * OM).delay
    richardson = abs(delays[2001] - delays[4001]) / abs(delays[4001])

    residual = ol.solve_steady_state(cfg).residual
    big = ol.standard_setup(64, eta_frac=0.05, theta=PI / 2)
    steady64 = ol.solve_steady_state(big)
    residual = max(residual, steady64.residual)
    basis = ol.build_normal_modes(big, steady64)
    gram = basis.transform @ basis.transform.conj().T
    unitarity = float(np.max(np.abs(gram - np.eye(basis.n))))
    ok = richardson < 1e-3 and residual < 1e-12 and unitarity < 1e-12
    _criterion(12, ok,
               f"group delay drift under grid halving {richardson:.3e} "
               f"(<1e-3); steady-state residual {residual:.3e} (<1e-12); "
               f"N=64 transform unitarity defect {unitarity:.3e} (<1e-12)")
