"""Reference parameter sets and canned study presets.

The reference numbers describe a membrane-in-cavity experiment that has
become a de-facto benchmark for multimode OMIT work: a 25 mm cavity at
1064 nm with a 215 kHz linewidth, mechanical modes at 947 kHz with quality
factor 6700 and 145 ng effective mass, pumped at the red sideband
(effective detuning locked to the mechanical frequency).

``run_figure_preset`` regenerates the data behind each of the six standard
study figures as deterministic CSV files -- a quick way to reproduce every
headline result of the package from the command line (``omit-lab figure
fig3 --out-dir out``).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .darkmode import fit_linewidth, predict_linewidth
from .errors import InvalidParameterError
from .model import (
    CavityParams,
    DriveSpec,
    MechanicalMode,
    PhononCoupling,
    SystemConfig,
    derive_single_photon_coupling,
    lock_effective_detuning,
    solve_steady_state,
)
from .nmode import count_windows
from .sidebands import compute_spectrum, group_delay
from .sweep import (
    SweepSpec,
    _csv_table,
    _write_text,
    run_sweep,
    write_spectrum_csv,
)

__all__ = [
    "REFERENCE",
    "reference_cavity",
    "reference_mode",
    "standard_setup",
    "figure_presets",
    "run_figure_preset",
]

TWO_PI = 2.0 * math.pi

# Benchmark membrane-in-cavity numbers.
REFERENCE = {
    "wavelength_m": 1.064e-6,
    "cavity_length_m": 25e-3,
    "kappa_hz": 215e3,
    "omega_m_hz": 947e3,
    "mass_kg": 1.45e-10,
    "q_factor": 6700.0,
    "power_pump_w": 1.5e-3,
    "probe_ratio": 0.05,
}


def reference_cavity(delta_c: float = 0.0) -> CavityParams:
    """Benchmark cavity; ``delta_c`` (rad/s) is normally set by locking."""
    return CavityParams(
        kappa=TWO_PI * REFERENCE["kappa_hz"],
        delta_c=delta_c,
        wavelength=REFERENCE["wavelength_m"],
        cavity_length=REFERENCE["cavity_length_m"],
    )


def reference_mode(g_scale: float = 1.0) -> MechanicalMode:
    """Benchmark mechanical mode, coupling derived from the effective mass.

    ``g_scale`` rescales the single-photon coupling (``0`` decouples the
    mode entirely, the trick used to emulate a standard single-mode system
    inside a two-mode layout).
    """
    omega = TWO_PI * REFERENCE["omega_m_hz"]
    g = derive_single_photon_coupling(
        REFERENCE["wavelength_m"], REFERENCE["cavity_length_m"],
        REFERENCE["mass_kg"], omega)
    return MechanicalMode(
        omega=omega,
        gamma=omega / REFERENCE["q_factor"],
        g=g * g_scale,
        mass=REFERENCE["mass_kg"] if g_scale == 1.0 else None,
    )


def standard_setup(n_modes: int = 2, *,
                   power_w: float | None = None,
                   probe_ratio: float | None = None,
                   eta_frac: float = 0.0,
                   theta: float = 0.0,
                   g_scales: tuple[float, ...] | None = None,
                   lock_delta_frac: float | None = 1.0) -> SystemConfig:
    """Benchmark chain of ``n_modes`` identical modes.

    Parameters
    ----------
    n_modes : int
    power_w, probe_ratio : float, optional
        Pump power and probe fraction (benchmark defaults).
    eta_frac : float
        Hopping strength as a fraction of the mechanical frequency,
        applied uniformly to every link.
    theta : float
        Phase of the *first* link; all later links are phase-free.
    g_scales : tuple of float, optional
        Per-mode coupling scale factors (default all 1).
    lock_delta_frac : float, optional
        Lock the effective detuning to this multiple of the mechanical
        frequency (default 1, the red sideband); ``None`` leaves the bare
        detuning at zero.
    """
    if n_modes < 1:
        raise InvalidParameterError("n_modes must be >= 1")
    if g_scales is None:
        g_scales = (1.0,) * n_modes
    if len(g_scales) != n_modes:
        raise InvalidParameterError(
            f"g_scales must have length {n_modes}, got {len(g_scales)}")
    omega_m = TWO_PI * REFERENCE["omega_m_hz"]
    modes = tuple(reference_mode(s) for s in g_scales)
    theta_list = [theta] + [0.0] * max(n_modes - 2, 0)
    couplings = tuple(
        PhononCoupling(eta=eta_frac * omega_m, theta=theta_list[j])
        for j in range(n_modes - 1))
    drive = DriveSpec(
        power_pump=REFERENCE["power_pump_w"] if power_w is None else power_w,
        probe_ratio=(REFERENCE["probe_ratio"] if probe_ratio is None
                     else probe_ratio),
    )
    config = SystemConfig(cavity=reference_cavity(), modes=modes,
                          couplings=couplings, drive=drive)
    if lock_delta_frac is not None:
        config = lock_effective_detuning(config, lock_delta_frac * omega_m)
    return config


# ---------------------------------------------------------------------------
# Figure presets


def _require_ok(bundle) -> None:
    if bundle.n_failed:
        first = next(e for e in bundle.errors if e is not None)
        raise InvalidParameterError(
            f"{bundle.n_failed} sweep point(s) failed; first error: {first}")


def _omega_m() -> float:
    return TWO_PI * REFERENCE["omega_m_hz"]


def _fig2(out: Path) -> list[Path]:
    """Dark mode present: linewidth vs power, spectra single vs two-mode.

    The ``fwhm_*`` columns are fitted full widths; the ``predicted_*``
    columns are ``predict_linewidth``, the half width ``gamma_eff``.
    """
    written = []
    powers = np.linspace(0.1e-3, 2.0e-3, 20)
    rows = []
    for p in powers:
        row = [p]
        for n in (1, 2):
            cfg = standard_setup(n, power_w=float(p))
            steady = solve_steady_state(cfg)
            spec = compute_spectrum(cfg, include_second_order=False,
                                    steady=steady)
            fits = fit_linewidth(spec)
            row.append(fits[0].fwhm if fits else float("nan"))
            row.append(predict_linewidth(cfg, steady))
        rows.append(tuple(row))
    path = out / "fig2_linewidth_vs_power.csv"
    _write_text(path, _csv_table(
        ("power_w", "fwhm_single_rad_s", "predicted_single_rad_s",
         "fwhm_double_rad_s", "predicted_double_rad_s"), rows))
    written.append(path)

    for label, scales in (("standard", (1.0, 0.0)), ("two_mode", (1.0, 1.0))):
        spec = compute_spectrum(standard_setup(2, g_scales=scales))
        path = out / f"fig2_spectrum_{label}.csv"
        write_spectrum_csv(spec, path)
        written.append(path)
    return written


def _fig3(out: Path) -> list[Path]:
    """Breaking the dark mode: single window splits in two."""
    written = []
    for label, eta_frac, theta in (("unbroken", 0.0, 0.0),
                                   ("broken", 0.05, math.pi / 2)):
        spec = compute_spectrum(standard_setup(2, eta_frac=eta_frac,
                                               theta=theta))
        path = out / f"fig3_{label}.csv"
        write_spectrum_csv(spec, path)
        written.append(path)
    return written


def _fig4(out: Path) -> list[Path]:
    """Window switching with the modulation phase."""
    written = []
    omega_m = _omega_m()
    for label, theta in (("0p0pi", 0.0), ("0p5pi", math.pi / 2),
                         ("1p0pi", math.pi)):
        spec = compute_spectrum(
            standard_setup(2, eta_frac=0.05, theta=theta),
            include_second_order=False)
        path = out / f"fig4_theta_{label}.csv"
        write_spectrum_csv(spec, path)
        written.append(path)

    thetas = np.linspace(0.0, TWO_PI, 81)
    base = standard_setup(2, eta_frac=0.05, lock_delta_frac=None)
    bundle = run_sweep(
        base,
        SweepSpec("theta_rad", tuple(thetas), lock_delta=omega_m),
        omega=np.array([0.95 * omega_m, 1.05 * omega_m]),
        include_second_order=False)
    _require_ok(bundle)
    rows = []
    for theta, spec in zip(thetas, bundle.spectra):
        rows.append((theta, spec.transmission[0], spec.transmission[1]))
    path = out / "fig4_windows_vs_theta.csv"
    _write_text(path, _csv_table(
        ("theta_rad", "transmission_left", "transmission_right"), rows))
    written.append(path)
    return written


def _fig5(out: Path) -> list[Path]:
    """Second-order sideband enhancement at strong hopping."""
    written = []
    omega_m = _omega_m()
    # Dressed windows sit at omega_m +/- eta, so widen the grid.
    for label, theta in (("0p0pi", 0.0), ("1p0pi", math.pi)):
        spec = compute_spectrum(standard_setup(2, eta_frac=0.2, theta=theta),
                                span=(0.6, 1.4))
        path = out / f"fig5_theta_{label}.csv"
        write_spectrum_csv(spec, path)
        written.append(path)

    thetas = np.linspace(0.0, TWO_PI, 61)
    base = standard_setup(2, eta_frac=0.2, lock_delta_frac=None)
    bundle = run_sweep(
        base, SweepSpec("theta_rad", tuple(thetas), lock_delta=omega_m),
        span=(0.6, 1.4), points=2001)
    _require_ok(bundle)
    rows = [(theta, float(np.nanmax(spec.efficiency_percent)))
            for theta, spec in zip(thetas, bundle.spectra)]
    path = out / "fig5_max_efficiency_vs_theta.csv"
    _write_text(path, _csv_table(("theta_rad", "max_efficiency_percent"),
                                 rows))
    written.append(path)
    return written


def _fig6(out: Path) -> list[Path]:
    """Group delay enhancement at the split windows."""
    written = []
    omega_m = _omega_m()
    spec = compute_spectrum(
        standard_setup(2, eta_frac=0.05, theta=math.pi / 2),
        include_second_order=False)
    path = out / "fig6_spectrum_broken.csv"
    write_spectrum_csv(spec, path)
    written.append(path)

    thetas = np.linspace(0.0, TWO_PI, 61)
    base = standard_setup(2, eta_frac=0.05, lock_delta_frac=None)
    rows_by_theta = {t: [t] for t in thetas}
    for target in (0.95, 1.05):
        local = np.linspace((target - 0.002) * omega_m,
                            (target + 0.002) * omega_m, 41)
        bundle = run_sweep(
            base, SweepSpec("theta_rad", tuple(thetas), lock_delta=omega_m),
            omega=local, include_second_order=False)
        _require_ok(bundle)
        for theta, sp in zip(thetas, bundle.spectra):
            est = group_delay(sp, target * omega_m)
            rows_by_theta[theta].append(est.delay)
    path = out / "fig6_delay_vs_theta.csv"
    _write_text(path, _csv_table(
        ("theta_rad", "delay_left_s", "delay_right_s"),
        [rows_by_theta[t] for t in thetas]))
    written.append(path)
    return written


def _fig7(out: Path) -> list[Path]:
    """N-mode chains: one window when dark, N windows when broken.

    In the summary table ``fwhm_unbroken_rad_s`` is a fitted full width and
    ``predicted_rad_s`` is ``predict_linewidth``, the half width
    ``gamma_eff``.
    """
    written = []
    for n in (3, 4, 5):
        spec = compute_spectrum(
            standard_setup(n, eta_frac=0.05, theta=math.pi / 2),
            include_second_order=False)
        path = out / f"fig7_n{n}_broken.csv"
        write_spectrum_csv(spec, path)
        written.append(path)

    rows = []
    for n in range(1, 6):
        cfg_dark = standard_setup(n)
        steady = solve_steady_state(cfg_dark)
        spec_dark = compute_spectrum(cfg_dark, include_second_order=False,
                                     steady=steady)
        fits = fit_linewidth(spec_dark)
        fwhm = fits[0].fwhm if fits else float("nan")
        predicted = predict_linewidth(cfg_dark, steady)
        if n >= 2:
            spec_broken = compute_spectrum(
                standard_setup(n, eta_frac=0.05, theta=math.pi / 2),
                include_second_order=False)
            broken_windows = count_windows(spec_broken)
        else:
            broken_windows = 1
        rows.append((n, fwhm, predicted, count_windows(spec_dark),
                     broken_windows))
    path = out / "fig7_summary.csv"
    _write_text(path, _csv_table(
        ("n_modes", "fwhm_unbroken_rad_s", "predicted_rad_s",
         "windows_unbroken", "windows_broken"), rows))
    written.append(path)
    return written


_FIGURES = {
    "fig2": (_fig2, "dark mode present: window linewidth vs pump power; "
                    "single- vs two-mode spectra"),
    "fig3": (_fig3, "dark-mode breaking: single window splits into two"),
    "fig4": (_fig4, "window switching with the modulation phase"),
    "fig5": (_fig5, "second-order sideband enhancement at strong hopping"),
    "fig6": (_fig6, "group delay enhancement at the split windows"),
    "fig7": (_fig7, "N-mode chains: window count and linewidth scaling"),
}


def figure_presets() -> dict[str, str]:
    """Mapping of preset name to a one-line description."""
    return {name: desc for name, (_, desc) in _FIGURES.items()}


def run_figure_preset(name: str, out_dir) -> list[Path]:
    """Regenerate the data files behind one standard figure.

    Returns the list of files written (deterministic bytes for a given
    package version).
    """
    try:
        builder, _ = _FIGURES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown figure preset {name!r}; choose from "
            f"{', '.join(sorted(_FIGURES))}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return builder(out)
