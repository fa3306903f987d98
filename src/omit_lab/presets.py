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
from .sidebands import Spectrum, compute_spectrum, group_delay
from .sweep import (
    SweepSpec,
    _csv_table,
    _write_text,
    run_sweep,
    write_spectrum_csv,
)

__all__ = ["REFERENCE", "standard_setup", "figure_presets",
           "run_figure_preset"]

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

_OMEGA_M = TWO_PI * REFERENCE["omega_m_hz"]


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
        Per-mode scale factors of the single-photon coupling, which is
        derived from the effective mass (default all 1).  Only a mode at
        scale 1 records that mass; scale 0 decouples the mode, the trick
        used to emulate a single-mode system in a two-mode layout.
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
    g = derive_single_photon_coupling(
        REFERENCE["wavelength_m"], REFERENCE["cavity_length_m"],
        REFERENCE["mass_kg"], _OMEGA_M)
    modes = tuple(
        MechanicalMode(omega=_OMEGA_M, gamma=_OMEGA_M / REFERENCE["q_factor"],
                       g=g * s,
                       mass=REFERENCE["mass_kg"] if s == 1.0 else None)
        for s in g_scales)
    theta_list = [theta] + [0.0] * max(n_modes - 2, 0)
    couplings = tuple(
        PhononCoupling(eta=eta_frac * _OMEGA_M, theta=theta_list[j])
        for j in range(n_modes - 1))
    drive = DriveSpec(
        power_pump=REFERENCE["power_pump_w"] if power_w is None else power_w,
        probe_ratio=(REFERENCE["probe_ratio"] if probe_ratio is None
                     else probe_ratio),
    )
    cavity = CavityParams(kappa=TWO_PI * REFERENCE["kappa_hz"], delta_c=0.0,
                          wavelength=REFERENCE["wavelength_m"],
                          cavity_length=REFERENCE["cavity_length_m"])
    config = SystemConfig(cavity=cavity, modes=modes, couplings=couplings,
                          drive=drive)
    if lock_delta_frac is not None:
        config = lock_effective_detuning(config, lock_delta_frac * _OMEGA_M)
    return config


# ---------------------------------------------------------------------------
# Figure presets

# The two-mode split-window chain; fig7 breaks longer chains the same way.
_BROKEN = {"eta_frac": 0.05, "theta": math.pi / 2}


def _spectrum_file(path: Path, n_modes: int, setup: dict, **options) -> Path:
    """Write ``compute_spectrum(standard_setup(n_modes, **setup),
    **options)`` to ``path`` as CSV."""
    write_spectrum_csv(
        compute_spectrum(standard_setup(n_modes, **setup), **options), path)
    return path


def _table_file(path: Path, columns, rows) -> Path:
    _write_text(path, _csv_table(columns, rows))
    return path


def _theta_sweep(eta_frac: float, thetas, **grid) -> tuple[Spectrum, ...]:
    """Spectra of the two-mode chain at each link phase in ``thetas``,
    re-locked to the mechanical frequency (``grid`` goes to run_sweep);
    raises InvalidParameterError naming the first failed point."""
    base = standard_setup(2, eta_frac=eta_frac, lock_delta_frac=None)
    bundle = run_sweep(
        base, SweepSpec("theta_rad", tuple(thetas), lock_delta=_OMEGA_M),
        **grid)
    if bundle.n_failed:
        first = next(e for e in bundle.errors if e is not None)
        raise InvalidParameterError(
            f"{bundle.n_failed} sweep point(s) failed; first error: {first}")
    return bundle.spectra


def _dark_window(n_modes: int, **setup) -> tuple[float, float, Spectrum]:
    """The first window's fitted full width (NaN when none is found), the
    ``predict_linewidth`` half width and the first-order spectrum of
    ``standard_setup(n_modes, **setup)``."""
    config = standard_setup(n_modes, **setup)
    steady = solve_steady_state(config)
    spec = compute_spectrum(config, include_second_order=False, steady=steady)
    fits = fit_linewidth(spec)
    return (fits[0].fwhm if fits else float("nan"),
            predict_linewidth(config, steady), spec)


def _fig2(out: Path) -> list[Path]:
    """Dark mode present: linewidth vs power, spectra single vs two-mode.

    The ``fwhm_*`` columns are fitted full widths; the ``predicted_*``
    columns are ``predict_linewidth``, the half width ``gamma_eff``.
    """
    rows = [(p, *_dark_window(1, power_w=float(p))[:2],
             *_dark_window(2, power_w=float(p))[:2])
            for p in np.linspace(0.1e-3, 2.0e-3, 20)]
    return [
        _table_file(out / "fig2_linewidth_vs_power.csv",
                    ("power_w", "fwhm_single_rad_s", "predicted_single_rad_s",
                     "fwhm_double_rad_s", "predicted_double_rad_s"), rows),
        *(_spectrum_file(out / f"fig2_spectrum_{label}.csv", 2,
                         {"g_scales": scales})
          for label, scales in (("standard", (1.0, 0.0)),
                                ("two_mode", (1.0, 1.0)))),
    ]


def _fig3(out: Path) -> list[Path]:
    """Breaking the dark mode: single window splits in two."""
    return [_spectrum_file(out / f"fig3_{label}.csv", 2, setup)
            for label, setup in (("unbroken", {}), ("broken", _BROKEN))]


def _fig4(out: Path) -> list[Path]:
    """Window switching with the modulation phase."""
    written = [
        _spectrum_file(out / f"fig4_theta_{label}.csv", 2,
                       {"eta_frac": 0.05, "theta": theta},
                       include_second_order=False)
        for label, theta in (("0p0pi", 0.0), ("0p5pi", math.pi / 2),
                             ("1p0pi", math.pi))]
    thetas = np.linspace(0.0, TWO_PI, 81)
    spectra = _theta_sweep(
        0.05, thetas, omega=np.array([0.95 * _OMEGA_M, 1.05 * _OMEGA_M]),
        include_second_order=False)
    rows = [(theta, spec.transmission[0], spec.transmission[1])
            for theta, spec in zip(thetas, spectra)]
    written.append(_table_file(
        out / "fig4_windows_vs_theta.csv",
        ("theta_rad", "transmission_left", "transmission_right"), rows))
    return written


def _fig5(out: Path) -> list[Path]:
    """Second-order sideband enhancement at strong hopping."""
    # Dressed windows sit at omega_m +/- eta, so widen the grid.
    written = [_spectrum_file(out / f"fig5_theta_{label}.csv", 2,
                              {"eta_frac": 0.2, "theta": theta},
                              span=(0.6, 1.4))
               for label, theta in (("0p0pi", 0.0), ("1p0pi", math.pi))]
    thetas = np.linspace(0.0, TWO_PI, 61)
    spectra = _theta_sweep(0.2, thetas, span=(0.6, 1.4), points=2001)
    rows = [(theta, float(np.nanmax(spec.efficiency_percent)))
            for theta, spec in zip(thetas, spectra)]
    written.append(_table_file(out / "fig5_max_efficiency_vs_theta.csv",
                               ("theta_rad", "max_efficiency_percent"), rows))
    return written


def _fig6(out: Path) -> list[Path]:
    """Group delay enhancement at the split windows."""
    written = [_spectrum_file(out / "fig6_spectrum_broken.csv", 2, _BROKEN,
                              include_second_order=False)]
    thetas = np.linspace(0.0, TWO_PI, 61)
    delays = []
    for target in (0.95, 1.05):
        local = np.linspace((target - 0.002) * _OMEGA_M,
                            (target + 0.002) * _OMEGA_M, 41)
        spectra = _theta_sweep(0.05, thetas, omega=local,
                               include_second_order=False)
        delays.append([group_delay(sp, target * _OMEGA_M).delay
                       for sp in spectra])
    written.append(_table_file(
        out / "fig6_delay_vs_theta.csv",
        ("theta_rad", "delay_left_s", "delay_right_s"),
        list(zip(thetas, *delays))))
    return written


def _fig7(out: Path) -> list[Path]:
    """N-mode chains: one window when dark, N windows when broken.

    In the summary table ``fwhm_unbroken_rad_s`` is a fitted full width and
    ``predicted_rad_s`` is ``predict_linewidth``, the half width
    ``gamma_eff``.
    """
    written = [_spectrum_file(out / f"fig7_n{n}_broken.csv", n, _BROKEN,
                              include_second_order=False)
               for n in (3, 4, 5)]
    rows = []
    for n in range(1, 6):
        fwhm, predicted, spec_dark = _dark_window(n)
        broken_windows = 1
        if n >= 2:
            broken_windows = count_windows(compute_spectrum(
                standard_setup(n, **_BROKEN), include_second_order=False))
        rows.append((n, fwhm, predicted, count_windows(spec_dark),
                     broken_windows))
    written.append(_table_file(
        out / "fig7_summary.csv",
        ("n_modes", "fwhm_unbroken_rad_s", "predicted_rad_s",
         "windows_unbroken", "windows_broken"), rows))
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
