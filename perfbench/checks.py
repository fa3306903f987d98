"""Checks of omit-lab outputs against computations made apart from it.

Everything here is rebuilt from the equations of motion stated in
``omit_lab.model`` and ``omit_lab.sidebands``; nothing calls into the
package.  Only the public fields of a ``SystemConfig`` are read.  Every
``check_*`` function returns a list of problems; an empty list means the
output passed.

Equations (frame rotating at the pump, all rates angular)::

    da/dt   = -(kappa + i Delta_c) a - i a sum_l g_l (b_l + b_l*) + eps_L
    db_l/dt = -(gamma_l + i omega_l) b_l - i g_l |a|^2 - i (C b)_l

with the hopping matrix ``C[l, l+1] = eta_l e^{i theta_l}`` and
``C[l+1, l] = eta_l e^{-i theta_l}``.  Expanding ``a = alpha + A1- e^{-iWt}
+ A1+ e^{iWt} + A2- e^{-2iWt} + ...`` order by order in the probe gives a
linear system in ``(A-, conj(A+), B-, conj(B+))`` per order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

HBAR = 6.62607015e-34 / (2.0 * math.pi)   # J s (h is exact in the 2019 SI)
C_LIGHT = 299792458.0           # m/s (exact)

# Relative agreement demanded of two exact routes to the same number.
EXACT_TOL = 1e-9
# Dark-window FWHM against -kappa + sqrt(kappa^2 + 4 N G^2).
WIDTH_TOL = 0.05
# Criterion 10 of the acceptance suite.
CLOSURE_TOL = 1e-2
ROUTE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Independent physics


def _arrays(cfg):
    omega = np.array([m.omega for m in cfg.modes], dtype=float)
    gamma = np.array([m.gamma for m in cfg.modes], dtype=float)
    g = np.array([m.g for m in cfg.modes], dtype=float)
    return omega, gamma, g


def hopping_matrix(cfg) -> np.ndarray:
    """Hermitian N x N phonon hopping matrix C of the chain."""
    n = len(cfg.modes)
    hop = np.zeros((n, n), dtype=complex)
    for j, c in enumerate(cfg.couplings):
        hop[j, j + 1] = c.eta * np.exp(1j * c.theta)
        hop[j + 1, j] = c.eta * np.exp(-1j * c.theta)
    return hop


def pump_eps(cfg) -> float:
    """Pump field amplitude sqrt(2 kappa P / (hbar omega_L))."""
    omega_l = cfg.drive.omega_pump
    if omega_l is None:
        omega_l = 2.0 * math.pi * C_LIGHT / cfg.cavity.wavelength
    return math.sqrt(2.0 * cfg.cavity.kappa * cfg.drive.power_pump
                     / (HBAR * omega_l))


def probe_eps(cfg) -> float:
    """Probe amplitude; every benchmark config gives it as a pump ratio."""
    return cfg.drive.probe_ratio * pump_eps(cfg)


def static_betas(cfg, photons: float) -> np.ndarray:
    """Static displacements: 0 = -(gamma + i omega) b - i g n - i C b."""
    omega, gamma, g = _arrays(cfg)
    lhs = np.diag(gamma + 1j * omega) + 1j * hopping_matrix(cfg)
    return np.linalg.solve(lhs, -1j * g * photons)


def fixed_point(cfg, delta: float):
    """(alpha, betas, static shift 2 sum g Re beta) at effective detuning delta."""
    alpha = pump_eps(cfg) / (cfg.cavity.kappa + 1j * delta)
    betas = static_betas(cfg, abs(alpha) ** 2)
    _, _, g = _arrays(cfg)
    return alpha, betas, 2.0 * float(np.dot(g, betas.real))


def _response(cfg, alpha: complex, delta: float, freq: float) -> np.ndarray:
    """Sideband matrix at one frequency, unknowns (A-, A+*, B-, B+*)."""
    omega, gamma, g = _arrays(cfg)
    n = len(omega)
    kap = cfg.cavity.kappa
    hop = hopping_matrix(cfg)
    m = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    bm = slice(2, 2 + n)
    bp = slice(2 + n, 2 + 2 * n)
    m[0, 0] = kap + 1j * (delta - freq)
    m[0, bm] = m[0, bp] = 1j * alpha * g
    m[1, 1] = kap - 1j * (delta + freq)
    m[1, bm] = m[1, bp] = -1j * np.conj(alpha) * g
    m[bm, 0] = 1j * np.conj(alpha) * g
    m[bm, 1] = 1j * alpha * g
    m[bm, bm] = np.diag(gamma + 1j * (omega - freq)) + 1j * hop
    m[bp, 0] = -1j * np.conj(alpha) * g
    m[bp, 1] = -1j * alpha * g
    m[bp, bp] = np.diag(gamma - 1j * (omega + freq)) - 1j * np.conj(hop)
    return m


def sideband_amplitudes(cfg, alpha: complex, delta: float, freq: float,
                        second: bool = False):
    """First-order (and optionally second-order) amplitude vectors at freq."""
    n = len(cfg.modes)
    rhs = np.zeros(2 * n + 2, dtype=complex)
    rhs[0] = probe_eps(cfg)
    x1 = np.linalg.solve(_response(cfg, alpha, delta, freq), rhs)
    if not second:
        return x1, None
    _, _, g = _arrays(cfg)
    s1 = np.dot(g, x1[2:2 + n] + x1[2 + n:])
    cross = x1[0] * x1[1]
    rhs2 = np.concatenate(([-1j * x1[0] * s1, 1j * x1[1] * s1],
                           -1j * g * cross, 1j * g * cross))
    x2 = np.linalg.solve(_response(cfg, alpha, delta, 2.0 * freq), rhs2)
    return x1, x2


def transmission_at(cfg, alpha: complex, delta: float, freq: float) -> complex:
    x1, _ = sideband_amplitudes(cfg, alpha, delta, freq)
    return 1.0 - cfg.cavity.kappa / probe_eps(cfg) * x1[0]


def sample_indices(rng: np.random.Generator, k: int, count: int) -> np.ndarray:
    """Seeded grid sample, always holding both ends."""
    inner = rng.choice(np.arange(1, k - 1), size=count - 2, replace=False)
    return np.sort(np.concatenate(([0, k - 1], inner)))


def dark_window_width(cfg) -> float:
    """-kappa + sqrt(kappa^2 + 4 N G^2) with G = g |alpha| at Delta = omega_m."""
    kap = cfg.cavity.kappa
    alpha, _, _ = fixed_point(cfg, cfg.modes[0].omega)
    big_g = cfg.modes[0].g * abs(alpha)
    return -kap + math.sqrt(kap ** 2 + 4.0 * len(cfg.modes) * big_g ** 2)


# ---------------------------------------------------------------------------
# Checks


def _rel(a, b) -> float:
    return float(abs(a - b) / max(abs(a), abs(b), 1e-300))


def _operating_point(cfg, delta, delta_c, alpha_got, betas_got,
                     delta_lock) -> list[str]:
    problems = []
    alpha, betas, shift = fixed_point(cfg, delta)
    if _rel(alpha_got, alpha) > EXACT_TOL:
        problems.append(f"alpha {alpha_got} != eps_L/(kappa+i Delta) {alpha}")
    if betas_got is not None:
        got = np.asarray(betas_got, dtype=complex)
        scale = max(float(np.max(np.abs(betas))), 1e-300)
        if float(np.max(np.abs(got - betas))) / scale > EXACT_TOL:
            problems.append("betas differ from the chain solve")
    if _rel(delta_c + shift, delta) > EXACT_TOL:
        problems.append(f"Delta_c + 2 sum g Re beta = {delta_c + shift} "
                        f"!= Delta {delta}")
    if _rel(delta, delta_lock) > EXACT_TOL:
        problems.append(f"Delta/omega_lock = {delta / delta_lock:.6f}, "
                        "not on the locked branch")
    return problems


def check_steady(cfg, steady, delta_lock: float) -> list[str]:
    """(alpha, beta, Delta) solve the fixed point on the locked branch."""
    return _operating_point(cfg, steady.delta_eff, cfg.cavity.delta_c,
                            steady.alpha, steady.betas, delta_lock)


def check_locked_metadata(cfg, metadata, delta_lock: float) -> list[str]:
    """The same for a sweep point, from the numbers its spectrum carries.

    ``cfg`` is the point's config before locking; the locked bare
    detuning is read from the metadata.
    """
    alpha = complex(metadata["alpha_re"], metadata["alpha_im"])
    return _operating_point(cfg, metadata["delta_eff"], metadata["delta_c"],
                            alpha, None, delta_lock)


def check_transmission(cfg, spectrum, indices, delta_lock: float) -> list[str]:
    """First-order transmission at sampled points against our own solve."""
    alpha, _, _ = fixed_point(cfg, delta_lock)
    problems = []
    for i in indices:
        own = transmission_at(cfg, alpha, delta_lock, float(spectrum.omega[i]))
        got = spectrum.amplitude[i]
        if abs(own - got) > EXACT_TOL * max(abs(own), 1.0):
            problems.append(f"t_p[{i}] = {got} but the own solve gives {own}")
        if abs(spectrum.transmission[i] - abs(got) ** 2) > EXACT_TOL:
            problems.append(f"|t_p|^2[{i}] inconsistent with t_p")
    return problems


def check_normal_modes(spectrum, star) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(star) - spectrum.amplitude)))
    if not gap <= EXACT_TOL:
        return [f"star basis differs from site basis by {gap:.3e}"]
    return []


def check_windows(cfg, fits, dark: bool) -> list[str]:
    n = len(cfg.modes)
    if not dark:
        return [] if len(fits) == n else [f"{len(fits)} windows, expected {n}"]
    if len(fits) != 1:
        return [f"{len(fits)} windows in a dark chain, expected 1"]
    expected = dark_window_width(cfg)
    if abs(fits[0].fwhm / expected - 1.0) > WIDTH_TOL:
        return [f"FWHM {fits[0].fwhm:.6g} vs sqrt law {expected:.6g}"]
    return []


def check_second_order(cfg, spectrum, indices, delta_lock: float) -> list[str]:
    """Second-order efficiency at sampled points against our own solve."""
    alpha, _, _ = fixed_point(cfg, delta_lock)
    scale = cfg.cavity.kappa / probe_eps(cfg)
    problems = []
    for i in indices:
        _, x2 = sideband_amplitudes(cfg, alpha, delta_lock,
                                    float(spectrum.omega[i]), second=True)
        own = 100.0 * abs(scale * x2[0])
        if _rel(own, spectrum.efficiency_percent[i]) > EXACT_TOL:
            problems.append(f"efficiency[{i}] = "
                            f"{spectrum.efficiency_percent[i]} vs own {own}")
    return problems


def check_route(spectrum) -> list[str]:
    worst = float(np.nanmax(spectrum.route_discrepancy))
    if not worst < ROUTE_TOL:
        return [f"route discrepancy {worst:.3e} >= {ROUTE_TOL}"]
    return []


def check_mirror(a, b) -> list[str]:
    """Spectra at theta and 2 pi - theta (or 0 and 2 pi) must agree."""
    gap = float(np.max(np.abs(a.transmission - b.transmission)))
    if not gap <= EXACT_TOL:
        return [f"mirrored spectra differ by {gap:.3e}"]
    return []


def check_closure(cfg, omega: float, probe_ratio: float, report) -> list[str]:
    """Closure amplitudes against our own first- and second-order solve."""
    cfg = replace(cfg, drive=replace(cfg.drive, probe_ratio=probe_ratio,
                                     power_probe=None))
    alpha, _, _ = fixed_point(cfg, cfg.modes[0].omega)
    x1, x2 = sideband_amplitudes(cfg, alpha, cfg.modes[0].omega, omega,
                                 second=True)
    problems = []
    if not report.reliable:
        problems.append("demodulation flagged unreliable")
    for label, freq_dom, time_dom, own in (
            ("first", report.a1_freq, report.a1_time, x1[0]),
            ("second", report.a2_freq, report.a2_time, x2[0])):
        if _rel(freq_dom, own) > EXACT_TOL:
            problems.append(f"{label}-order frequency-domain amplitude "
                            f"{freq_dom} vs own {own}")
        err = _rel(time_dom, own)
        if not err < CLOSURE_TOL:
            problems.append(f"{label}-order closure error {err:.3e}")
    for err in (report.rel_err_first, report.rel_err_second):
        if not err < CLOSURE_TOL:
            problems.append(f"reported closure error {err:.3e}")
    return problems


# ---------------------------------------------------------------------------
# Written bundles


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.where(np.isnan(a), np.nan, a)
    b = np.where(np.isnan(b), np.nan, b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_bundle(bundle, out_dir: Path) -> list[str]:
    """Manifest hashes against the bytes on disk; CSVs parse back bit-exact."""
    out_dir = Path(out_dir)
    problems = []
    manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
    index = json.loads((out_dir / "bundle.json").read_text("utf-8"))
    for name, entry in manifest["files"].items():
        data = (out_dir / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"{name}: SHA-256 differs from the manifest")
        if len(data) != entry["bytes"]:
            problems.append(f"{name}: size differs from the manifest")
    for point, spectrum in zip(index["points"], bundle.spectra):
        if point["file"] is None or point["file"] not in manifest["files"]:
            problems.append(f"point {point['value']}: file missing")
            continue
        try:
            table = np.loadtxt(out_dir / point["file"], delimiter=",",
                               skiprows=1, ndmin=2)
        except ValueError as exc:
            problems.append(f"{point['file']}: does not parse: {exc}")
            continue
        expected = np.column_stack([
            spectrum.omega_normalized, spectrum.transmission,
            spectrum.efficiency_percent, spectrum.phase,
            spectrum.group_delay, spectrum.route_discrepancy])
        if not _same_bits(table, expected):
            problems.append(f"{point['file']}: does not parse back bit-exact")
    return problems
