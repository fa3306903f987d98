"""Dark-mode analysis: hybridisation, breaking, and effective linewidths.

Two mechanical modes coupled to one cavity hybridise.  With no direct
phonon exchange (``eta = 0``) the combinations ::

    B_plus  = (G1 b1 + G2 b2) / G_plus     (bright)
    B_minus = (G2 b1 - G1 b2) / G_plus     (dark)

decouple the *dark* mode from the light entirely when the modes are
degenerate: only the bright mode interferes with the probe, so the OMIT
spectrum shows a single window whose linewidth collects the optical
damping of both modes.

Switching on the phonon hopping ``eta * exp(i*theta)`` first diagonalises
the mechanical pair into normal modes at ``omega_tilde_plus/minus``; the
cavity couples to those with rotated strengths ``g_tilde_plus/minus`` that
depend on ``theta``.  At ``theta = n*pi`` one rotated coupling vanishes
exactly -- a dark mode survives -- while any other phase makes both normal
modes optically active ("dark-mode breaking"), splitting the single
transparency window in two.

:func:`adiabatic_elimination` integrates out a fast cavity
(``omega >> kappa >> G >> gamma``) for any number of modes without
phonon exchange and gives each mode an optically induced damping
``gamma_opt`` and spring shift ``omega_opt``, one entry per mode; it is
the one place these rates are computed.  For ``N`` identical modes
sharing one bright mode the effective decay rate is ``gamma_eff =
gamma_m + N * gamma_opt``, returned once, by :func:`predict_linewidth`,
which sums those entries.  Like ``kappa`` and ``gamma`` this is an
amplitude decay rate, so it is the half width (HWHM) of the transparency
window; in the weak-coupling limit the window's full width is ``2 *
gamma_eff``.  ``fit_linewidth`` measures the actual window FWHM from a
computed spectrum, to be compared with ``2 * gamma_eff``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    RegimeViolationError,
    UnsupportedTopologyError,
)
from .model import SteadyState, SystemConfig, _require_positive
from .sidebands import Spectrum, _require_two_modes, _uniform_step

__all__ = [
    "HybridModeReport",
    "AdiabaticParams",
    "LinewidthFit",
    "linearized_couplings",
    "hybridize_two_mode",
    "dark_mode_broken",
    "optical_damping_rate",
    "optical_spring_shift",
    "adiabatic_elimination",
    "predict_linewidth",
    "fit_linewidth",
]

# A normal mode is optically active ("bright") when its rotated coupling
# exceeds this fraction of g_plus.
_BRIGHT_TOL = 1e-6

# fit_linewidth reports peaks whose prominence is at least this fraction
# of the spectrum's full swing.
_REL_PROMINENCE = 0.05


@dataclass(frozen=True)
class HybridModeReport:
    """Hybridised description of the two-mode mechanical pair.

    The bright/dark block describes the ``eta = 0`` optically mediated
    hybridisation; the tilde block describes the phonon-exchange normal
    modes and their rotated optical couplings.

    Attributes
    ----------
    g1, g2 : float
        Linearised couplings ``G_l = g_l * |alpha|`` (rad/s).
    g_plus : float
        Bright-mode coupling ``sqrt(G1^2 + G2^2)`` (rad/s).
    omega_plus, omega_minus : float
        Bright and dark mode frequencies (rad/s).
    zeta : float
        Residual bright-dark coupling, nonzero only for nondegenerate
        modes (rad/s).
    omega_tilde_plus, omega_tilde_minus : float
        Phonon-exchange normal-mode frequencies (rad/s).
    f, h : float
        Rotation coefficients of the normal-mode transform (f^2 + h^2 = 1).
    g_tilde_plus, g_tilde_minus : complex
        Optical couplings of the normal modes (rad/s); one of them
        vanishes exactly when ``theta`` is an integer multiple of pi.
    """

    g1: float
    g2: float
    g_plus: float
    omega_plus: float
    omega_minus: float
    zeta: float
    omega_tilde_plus: float
    omega_tilde_minus: float
    f: float
    h: float
    g_tilde_plus: complex
    g_tilde_minus: complex


@dataclass(frozen=True)
class AdiabaticParams:
    """Per-mode optically induced rates after eliminating the cavity.

    One entry per mode, in mode order, for any number of modes without
    phonon exchange: mode ``l`` decays at ``gamma_l + gamma_opt[l]`` and
    oscillates at ``omega_l - omega_opt[l]``.  For identical modes the
    window's effective decay rate ``gamma_eff = gamma_m + sum(gamma_opt)``
    is :func:`predict_linewidth`, the half width (HWHM) of the window.
    """

    gamma_opt: tuple[float, ...]
    omega_opt: tuple[float, ...]


@dataclass(frozen=True)
class LinewidthFit:
    """One transparency window measured from a spectrum."""

    center: float       # window centre (rad/s)
    fwhm: float         # full width at half prominence (rad/s)
    prominence: float   # peak prominence in |t_p|^2


def linearized_couplings(config: SystemConfig,
                         steady: SteadyState) -> np.ndarray:
    """Linearised optomechanical couplings ``G_l = g_l * |alpha|``."""
    _, _, g = config.mode_arrays()
    return g * abs(steady.alpha)


def hybridize_two_mode(config: SystemConfig,
                       steady: SteadyState) -> HybridModeReport:
    """Hybridised mode frequencies and couplings of the two-mode system.

    Returns both pictures at once: the optically mediated bright/dark pair
    (how the system organises itself at ``eta = 0``) and the
    phonon-exchange normal modes with their theta-dependent rotated
    couplings (how a finite ``eta`` redistributes the optical coupling).

    The rotation coefficients are ::

        f = |omega_tilde_minus - omega_1| / sqrt((omega_tilde_minus -
            omega_1)^2 + eta^2),         h = eta * f / (omega_tilde_minus
            - omega_1)

    with the degenerate limit ``f = 1/sqrt(2), h = -1/sqrt(2)``; the
    rotated couplings are ``g_tilde_plus = f G1 - e^{-i theta} h G2`` and
    ``g_tilde_minus = e^{i theta} h G1 + f G2``.
    """
    _require_two_modes(config, "mode hybridisation")
    g1, g2 = linearized_couplings(config, steady)
    (o1, o2), _, _ = config.mode_arrays()
    eta = config.couplings[0].eta
    theta = config.couplings[0].theta

    g_plus = math.hypot(g1, g2)
    if g_plus > 0.0:
        omega_plus = (g1 ** 2 * o1 + g2 ** 2 * o2) / g_plus ** 2
        omega_minus = (g2 ** 2 * o1 + g1 ** 2 * o2) / g_plus ** 2
        zeta = g1 * g2 * (o1 - o2) / g_plus ** 2
    else:
        # No optical coupling at all: the bright/dark split is vacuous.
        omega_plus, omega_minus, zeta = o1, o2, 0.0

    gap = math.sqrt((o1 - o2) ** 2 + 4.0 * eta ** 2)
    omega_tilde_plus = 0.5 * (o1 + o2 + gap)
    omega_tilde_minus = 0.5 * (o1 + o2 - gap)

    d = omega_tilde_minus - o1
    if eta == 0.0:
        if o1 == o2:
            # Degenerate limit of the rotation (continuation from eta->0).
            f, h = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
        elif o1 < o2:
            f, h = 0.0, -1.0
        else:
            f, h = 1.0, 0.0
    else:
        f = abs(d) / math.sqrt(d * d + eta * eta)
        h = eta * f / d
    phase = complex(math.cos(theta), math.sin(theta))
    g_tilde_plus = f * g1 - np.conj(phase) * h * g2
    g_tilde_minus = phase * h * g1 + f * g2

    return HybridModeReport(
        g1=float(g1), g2=float(g2), g_plus=float(g_plus),
        omega_plus=float(omega_plus), omega_minus=float(omega_minus),
        zeta=float(zeta),
        omega_tilde_plus=float(omega_tilde_plus),
        omega_tilde_minus=float(omega_tilde_minus),
        f=float(f), h=float(h),
        g_tilde_plus=complex(g_tilde_plus),
        g_tilde_minus=complex(g_tilde_minus),
    )


def dark_mode_broken(config: SystemConfig,
                     steady: SteadyState) -> tuple[bool, float]:
    """Is the dark mode optically active?

    Returns ``(broken, coupling_ratio)`` where ``coupling_ratio`` is the
    smaller rotated coupling ``min(|g_tilde_plus|, |g_tilde_minus|)``
    normalised by ``g_plus``.  The dark mode counts as broken when both
    normal modes keep an optical coupling above ``_BRIGHT_TOL * g_plus``
    (``1e-6 * g_plus``).  For degenerate modes with equal nonzero couplings
    and nonzero ``eta`` that happens exactly when ``theta`` is not an
    integer multiple of pi; detuned modes or unequal couplings can keep
    both normal modes coupled at ``theta = 0`` too.
    """
    return _dark_mode_broken(hybridize_two_mode(config, steady))


def _dark_mode_broken(report: HybridModeReport) -> tuple[bool, float]:
    """:func:`dark_mode_broken` from a report already built."""
    if report.g_plus == 0.0:
        return False, 0.0
    ratio = min(abs(report.g_tilde_plus), abs(report.g_tilde_minus))
    ratio /= report.g_plus
    return bool(ratio > _BRIGHT_TOL), float(ratio)


def _dark_indices(couplings: np.ndarray) -> list[int]:
    """1-based indices of the normal modes that are dark as
    :func:`dark_mode_broken` counts it: coupled at most ``_BRIGHT_TOL``
    times the bright-mode coupling ``g_plus = ||couplings||``."""
    bright = _BRIGHT_TOL * float(np.linalg.norm(couplings))
    return [k + 1 for k, c in enumerate(couplings) if abs(c) <= bright]


def optical_damping_rate(g_lin: float, kappa: float, delta: float,
                         omega: float) -> float:
    """Optically induced damping of one mode after cavity elimination.

    ``gamma_opt = G^2 kappa [1/(kappa^2 + (Delta-omega)^2) -
    1/(kappa^2 + (Delta+omega)^2)]`` -- positive on the red sideband.
    """
    _require_positive("kappa", kappa)
    return g_lin ** 2 * kappa * (
        1.0 / (kappa ** 2 + (delta - omega) ** 2)
        - 1.0 / (kappa ** 2 + (delta + omega) ** 2))


def optical_spring_shift(g_lin: float, kappa: float, delta: float,
                         omega: float) -> float:
    """Optically induced frequency pull of one mode (same elimination).

    ``omega_opt = G^2 [(Delta+omega)/(kappa^2 + (Delta+omega)^2) +
    (Delta-omega)/(kappa^2 + (Delta-omega)^2)]``; the shifted mechanical
    frequency is ``omega - omega_opt``.
    """
    _require_positive("kappa", kappa)
    return g_lin ** 2 * (
        (delta + omega) / (kappa ** 2 + (delta + omega) ** 2)
        + (delta - omega) / (kappa ** 2 + (delta - omega) ** 2))


def adiabatic_elimination(config: SystemConfig,
                          steady: SteadyState) -> AdiabaticParams:
    """Optical damping and spring shift of each mode, cavity integrated out.

    Valid for any number of modes without phonon exchange in the resolved
    sideband, weak-coupling regime ``omega >> kappa >> G >> gamma``; the
    numbers are still computed outside that regime, with a warning.

    Raises
    ------
    RegimeViolationError
        Nonzero phonon exchange on any link (the elimination below does
        not include the hopping term).
    """
    eta, _ = config.coupling_arrays()
    if np.any(eta != 0.0):
        raise RegimeViolationError(
            "adiabatic elimination is derived without phonon exchange; "
            "set eta = 0 or use the full sideband solve")
    omega, gamma, _ = config.mode_arrays()
    g_lin = linearized_couplings(config, steady)
    kappa = config.cavity.kappa
    delta = steady.delta_eff

    if not (omega.min() > 2.0 * kappa and kappa > 2.0 * g_lin.max()
            and (g_lin.min() > 2.0 * gamma.max() or g_lin.max() == 0.0)):
        warnings.warn(
            "parameters violate omega >> kappa >> G >> gamma; "
            "adiabatic rates are indicative only", stacklevel=2)

    return AdiabaticParams(
        gamma_opt=tuple(float(optical_damping_rate(gl, kappa, delta, om))
                        for gl, om in zip(g_lin, omega)),
        omega_opt=tuple(float(optical_spring_shift(gl, kappa, delta, om))
                        for gl, om in zip(g_lin, omega)),
    )


def predict_linewidth(config: SystemConfig, steady: SteadyState) -> float:
    """Effective decay rate ``gamma_eff = gamma_m + N * gamma_opt``.

    Applies to ``N`` identical modes sharing a single bright mode, i.e. no
    phonon exchange and degenerate (omega, gamma, g) across the chain: the
    bare rate plus the ``gamma_opt`` of :func:`adiabatic_elimination`,
    summed in mode order, with that function's regime warning.

    The result is an amplitude decay rate: the half width (HWHM) of the
    transparency window, not its full width.  Compare ``2 * gamma_eff``
    with the FWHM from :func:`fit_linewidth`; the two agree in the
    weak-coupling limit ``G << kappa``.  At stronger coupling the window
    follows the sublinear ``-kappa + sqrt(kappa**2 + 4*N*G**2)`` and
    ``2 * gamma_eff`` overestimates it.

    Raises
    ------
    RegimeViolationError
        Any nonzero phonon exchange.
    UnsupportedTopologyError
        Modes are not identical.
    """
    gamma_opt = adiabatic_elimination(config, steady).gamma_opt
    omega, gamma, g = config.mode_arrays()
    if (np.ptp(omega) != 0.0 or np.ptp(gamma) != 0.0 or np.ptp(g) != 0.0):
        raise UnsupportedTopologyError(
            "linewidth prediction assumes identical mechanical modes")
    return float(gamma[0] + sum(gamma_opt))


def _find_windows(power: np.ndarray, min_prominence: float
                  ) -> list[tuple[int, float, float]]:
    """``(peak index, width in samples, prominence)`` of each window.

    The same algorithm, and the same floating-point operations, as
    ``scipy.signal.find_peaks(power, prominence=min_prominence)`` followed
    by ``peak_widths(power, peaks, rel_height=0.5)``:

    * a peak is a strict rise, a run of equal samples and a strict fall;
      it sits at the middle of the run, rounded down, so the first and
      last samples are never peaks;
    * on each side the base is the lowest sample before the first one
      higher than the peak (or the edge), the one nearest the peak on
      ties; the prominence is the peak minus the higher of the two bases;
    * the width is taken at half prominence, walking out from the peak no
      further than the bases and interpolating linearly between samples.
    """
    x = np.asarray(power, dtype=float)
    change = np.flatnonzero(x[1:] != x[:-1])  # x[j] != x[j + 1]
    rising = x[change + 1] > x[change]
    tops = np.flatnonzero(rising[:-1] & ~rising[1:])  # rise, then fall
    peaks = (change[tops] + 1 + change[tops + 1]) // 2
    last = len(x) - 1
    windows = []
    for p in peaks.tolist():
        top = x[p]
        higher = x > top  # False at p, so argmax 0 means "none"
        d = int(higher[p::-1].argmax())
        lo = p - d + 1 if d else 0
        d = int(higher[p:].argmax())
        hi = p + d - 1 if d else last
        left = p - int(x[lo:p + 1][::-1].argmin())
        right = p + int(x[p:hi + 1].argmin())
        prominence = top - max(x[left], x[right])
        if not min_prominence <= prominence:
            continue
        height = top - prominence * 0.5
        below = np.flatnonzero(x[left + 1:p + 1] <= height)
        i = left + 1 + int(below[-1]) if len(below) else left
        left_ip = float(i)
        if x[i] < height:
            left_ip += (height - x[i]) / (x[i + 1] - x[i])
        below = np.flatnonzero(x[p:right] <= height)
        i = p + int(below[0]) if len(below) else right
        right_ip = float(i)
        if x[i] < height:
            right_ip -= (height - x[i]) / (x[i - 1] - x[i])
        windows.append((p, right_ip - left_ip, float(prominence)))
    return windows


def fit_linewidth(spectrum: Spectrum) -> list[LinewidthFit]:
    """Locate transparency windows and measure their widths.

    Peaks of ``|t_p|^2`` with prominence at least ``_REL_PROMINENCE``
    (5 %) of the full swing of the spectrum are fitted (the threshold is
    inclusive); the width is taken at half prominence (the usual FWHM
    convention for peaks on a baseline), interpolated linearly between
    grid points.  A peak is a rise, a run of equal samples and a fall;
    on a flat top the centre is the middle sample of the run, rounded
    down.  A window whose top lies at either end of the grid is not
    reported.  The algorithm is that of ``scipy.signal.find_peaks`` and
    ``peak_widths`` and gives bit-identical results.  Requires a uniform
    grid.

    Returns
    -------
    list of LinewidthFit
        One entry per window, ordered by increasing centre frequency;
        empty when the spectrum is featureless.

    Raises
    ------
    InvalidParameterError
        Fewer than 5 grid points, a non-uniform grid, or a non-finite
        transmission value.
    """
    w = spectrum.omega
    if len(w) < 5:
        raise InvalidParameterError("spectrum too short to fit windows")
    h = _uniform_step(w)
    if h is None:
        raise InvalidParameterError("linewidth fitting requires a uniform grid")
    power = spectrum.transmission
    bad = np.flatnonzero(~np.isfinite(power))
    if len(bad):
        raise InvalidParameterError(
            f"transmission has {len(bad)} non-finite point(s), the first "
            f"at omega = {w[bad[0]]:.6e}")
    swing = float(np.max(power) - np.min(power))
    if swing <= 0.0:
        return []
    return [
        LinewidthFit(center=float(w[p]), fwhm=float(width * h),
                     prominence=prom)
        for p, width, prom in _find_windows(power, _REL_PROMINENCE * swing)
    ]
