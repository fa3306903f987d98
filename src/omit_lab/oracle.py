"""Time-domain cross-check of the frequency-domain sideband solution.

The sideband amplitudes of :mod:`omit_lab.sidebands` come from a
perturbative ansatz.  This module integrates the *full nonlinear*
mean-field equations ::

    da/dt   = -(kappa + i Delta_c) a - i a sum_l g_l (b_l + b_l^*)
              + eps_L + eps_p exp(-i Omega t)
    db_l/dt = -(gamma_l + i omega_l) b_l - i g_l |a|^2
              - i eta_{l-1} e^{-i theta_{l-1}} b_{l-1}
              - i eta_l e^{+i theta_l} b_{l+1}

with the explicit eighth-order Dormand-Prince scheme DOP853 (a numpy loop
in :mod:`omit_lab._dop853` that reproduces SciPy's ``solve_ivp`` bit for
bit), waits for the driven steady oscillation, and reads the sideband
amplitudes back out by least-squares demodulation of the cavity trace at
``+-Omega`` and ``+-2 Omega``.  Since this route shares no algebra with the linear-system
solves, agreement (to the accuracy the finite probe allows) validates the
whole frequency-domain stack; it also quantifies the error of truncating
the sideband hierarchy at a finite probe strength.

A practical note on time scales: the transient decays at the *optically
broadened* mechanical rates (tens of kilohertz here), not at the bare
mechanical damping, so a few milliseconds of settling is usually enough
even though ``1/gamma_m`` is much longer.  The built-in defaults are
deliberately conservative; pass ``settle`` explicitly for speed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._dop853 import dop853
from .darkmode import _total_optical_damping
from .errors import InvalidParameterError, UnstableIntegrationError
from .model import (
    SteadyState,
    SystemConfig,
    probe_amplitude,
    pump_amplitude,
    solve_steady_state,
)
from .sidebands import solve_first_order, solve_second_order

__all__ = [
    "TimeTrace",
    "DemodResult",
    "ClosureReport",
    "integrate_mean_field",
    "demodulate",
    "sideband_closure",
]

# Resample no coarser than this many samples per fastest period.
_MIN_SAMPLES_PER_PERIOD = 50
_DEFAULT_SAMPLES_PER_PERIOD = 64
_OVERFLOW_FACTOR = 1e6
# Tighter relative tolerances are below what double precision resolves.
_MIN_RTOL = 100.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class TimeTrace:
    """Uniformly sampled mean-field trajectory.

    ``cavity[i]`` and ``mechanics[l, i]`` hold the complex amplitudes at
    ``times[i]``; ``omega_probe`` records the probe detuning used (None
    for a pump-only run).
    """

    times: np.ndarray
    cavity: np.ndarray
    mechanics: np.ndarray
    omega_probe: float | None
    step: float


@dataclass(frozen=True)
class DemodResult:
    """Sideband content of a trace segment.

    ``a1_lower`` multiplies ``exp(-i Omega t)`` (the component at the probe
    frequency), ``a1_upper`` multiplies ``exp(+i Omega t)``, and the
    ``a2_*`` pair the same at ``2 Omega``.  ``residual`` is the rms of the
    part of the signal the five-term model does not explain, relative to
    the rms of the oscillating part; ``reliable`` is a conservative flag
    (enough cycles and a small residual).
    """

    mean: complex
    a1_lower: complex
    a1_upper: complex
    a2_lower: complex
    a2_upper: complex
    residual: float
    n_cycles: int
    reliable: bool


@dataclass(frozen=True)
class ClosureReport:
    """Frequency-domain vs time-domain sideband amplitudes at one detuning.

    ``a1_*`` and ``a2_*`` are the first- and second-order lower cavity
    sidebands from each route, for any mode count; ``rel_err_*`` their
    relative gaps.
    """

    omega: float
    probe_ratio: float
    a1_freq: complex
    a1_time: complex
    a2_freq: complex
    a2_time: complex
    rel_err_first: float
    rel_err_second: float
    residual: float
    n_cycles: int
    reliable: bool


def _fastest_rate(config: SystemConfig, omega_probe: float | None) -> float:
    omega, _, _ = config.mode_arrays()
    rates = [float(np.max(omega)), abs(config.cavity.delta_c),
             config.cavity.kappa]
    if omega_probe is not None:
        rates.append(2.0 * abs(omega_probe))
    return max(rates)


def _mean_field_rhs(config: SystemConfig, eps_l: float, eps_p: float,
                    w_probe: float):
    """Right-hand side of the mean-field equations on real coordinates.

    ``y = (Re a, Im a, Re b_1, Im b_1, ...)``.  The linear part (decay,
    detunings, hopping) is one real operator built here once; the returned
    ``rhs(t, y)`` adds the radiation-pressure terms and the drives.
    """
    n = config.n_modes
    omega, gamma, g = config.mode_arrays()
    eta, theta = config.coupling_arrays()
    # Complex generator on (a, b_1, ..., b_N), then its real 2x2 blocks.
    gen = np.diag(np.concatenate((
        [-(config.cavity.kappa + 1j * config.cavity.delta_c)],
        -(gamma + 1j * omega))))
    idx = np.arange(1, n)
    gen[idx, idx + 1] = -1j * eta * np.exp(1j * theta)
    gen[idx + 1, idx] = -1j * eta * np.exp(-1j * theta)
    op = np.empty((2 * (n + 1), 2 * (n + 1)))
    op[0::2, 0::2] = op[1::2, 1::2] = gen.real
    op[0::2, 1::2] = -gen.imag
    op[1::2, 0::2] = gen.imag
    # x = 2 sum_l g_l Re b_l, and -g_l |a|^2 into each Im b_l.
    gx = np.zeros(2 * (n + 1))
    gx[2::2] = 2.0 * g
    push = np.zeros(2 * (n + 1))
    push[3::2] = -g

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        out = op @ y
        ar, ai = y[:2].tolist()
        x = gx.dot(y)
        out += (ar * ar + ai * ai) * push
        # -i a x + eps_L + eps_p exp(-i Omega t) on the cavity.
        wt = w_probe * t
        out[0] += ai * x + eps_l + eps_p * math.cos(wt)
        out[1] -= ar * x + eps_p * math.sin(wt)
        return out

    return rhs


def _check_rtol(rtol: float) -> None:
    if not _MIN_RTOL <= rtol < 1.0:
        raise InvalidParameterError(
            f"rtol must lie in [{_MIN_RTOL:.3e}, 1), got {rtol}")


def integrate_mean_field(config: SystemConfig, t_final: float, *,
                         omega_probe: float | None = None,
                         include_probe: bool = True,
                         step: float | None = None,
                         initial="steady",
                         rtol: float = 1e-10) -> TimeTrace:
    """Integrate the nonlinear mean-field equations.

    Parameters
    ----------
    config : SystemConfig
    t_final : float
        End time (s), integration starts at 0; at least one sampling
        step.
    omega_probe : float, optional
        Probe-pump detuning Omega (rad/s); required whenever the probe is
        on and its amplitude is nonzero.
    include_probe : bool
        Switch the probe drive off to integrate the pump-only problem.
    step : float, optional
        Output sample step (s).  Defaults to 1/64 of the fastest period in
        the problem; must resolve it with at least 50 samples.
    initial : "steady", "vacuum", or (alpha0, betas0)
        Start from the pump-only steady state (default), from zero fields,
        or from explicit amplitudes.
    rtol : float
        Relative tolerance of the adaptive DOP853 integrator, in
        ``[100 eps, 1)``; the absolute tolerance is ``rtol`` times the
        cavity amplitude scale.  The scheme is explicit and eighth order,
        and has no algebra in common with the frequency-domain route;
        ``tests/test_oracle.py`` checks its output against SciPy's
        ``solve_ivp(method="DOP853")`` bit for bit.

    Raises
    ------
    InvalidParameterError
        ``t_final``, ``step`` or ``rtol`` is out of range, an initial
        amplitude is not finite, or the probe is on without
        ``omega_probe``.
    UnstableIntegrationError
        The cavity amplitude ran away (parametric instability); the error
        message reports the end of the first step past the limit.
    NonConvergentError
        The adaptive integrator needed a step below ten ulps of t.
    """
    if not 0.0 < t_final < math.inf:
        raise InvalidParameterError(
            f"t_final must be finite and > 0, got {t_final}")
    _check_rtol(rtol)
    eps_l = pump_amplitude(config)
    eps_p = probe_amplitude(config) if include_probe else 0.0
    if eps_p > 0.0 and omega_probe is None:
        raise InvalidParameterError(
            "omega_probe is required when the probe drive is on")

    fastest = _fastest_rate(config, omega_probe if eps_p > 0 else None)
    shortest_period = 2.0 * math.pi / fastest
    if step is None:
        step = shortest_period / _DEFAULT_SAMPLES_PER_PERIOD
    elif not step > 0.0:
        raise InvalidParameterError(f"step must be > 0, got {step}")
    elif step > shortest_period / _MIN_SAMPLES_PER_PERIOD:
        raise InvalidParameterError(
            f"step {step:.3e} s undersamples the fastest period "
            f"{shortest_period:.3e} s (need >= {_MIN_SAMPLES_PER_PERIOD} "
            "samples per period)")
    if t_final < step:
        raise InvalidParameterError(
            f"t_final {t_final:.3e} s is shorter than one sampling step "
            f"{step:.3e} s")

    n = config.n_modes
    kappa = config.cavity.kappa
    w_probe = float(omega_probe) if omega_probe is not None else 0.0

    if isinstance(initial, str):
        if initial == "steady":
            ss = solve_steady_state(config)
            alpha0 = ss.alpha
            betas0 = np.asarray(ss.betas, dtype=complex)
        elif initial == "vacuum":
            alpha0 = 0.0 + 0.0j
            betas0 = np.zeros(n, dtype=complex)
        else:
            raise InvalidParameterError(
                f"initial must be 'steady', 'vacuum', or amplitudes, "
                f"got {initial!r}")
    else:
        alpha0, betas0 = initial
        alpha0 = complex(alpha0)
        betas0 = np.asarray(betas0, dtype=complex)
        if betas0.shape != (n,):
            raise InvalidParameterError(
                f"initial mechanical amplitudes must have shape ({n},)")
        if not np.all(np.isfinite(np.append(betas0, alpha0))):
            raise InvalidParameterError("initial amplitudes must be finite")

    # The linear part of the equations is a precomputed real operator.
    rhs = _mean_field_rhs(config, eps_l, eps_p, w_probe)

    scale = max(abs(alpha0), eps_l / kappa, 1.0)
    limit_sq = (_OVERFLOW_FACTOR * scale) ** 2

    def overflow(t: float, y: np.ndarray) -> None:
        if y[0] ** 2 + y[1] ** 2 >= limit_sq:
            raise UnstableIntegrationError(
                f"cavity amplitude exceeded {_OVERFLOW_FACTOR:.0e} x its "
                f"steady scale by t = {t:.6e} s; the operating point is "
                "unstable")

    y0 = np.empty(2 * (n + 1))
    y0[0], y0[1] = alpha0.real, alpha0.imag
    y0[2::2], y0[3::2] = betas0.real, betas0.imag

    t_eval = np.arange(0.0, t_final + 0.5 * step, step)
    t_eval = t_eval[t_eval <= t_final]
    # Starting at a fixed point the right-hand side is nearly zero, so an
    # automatic first-step guess would overshoot wildly; the first trial
    # step is the sampling step instead.
    ys = dop853(rhs, y0, t_final, t_eval, first_step=step, rtol=rtol,
                atol=rtol * scale, check=overflow)

    cavity = ys[0] + 1j * ys[1]
    mechanics = ys[2::2] + 1j * ys[3::2]
    return TimeTrace(
        times=t_eval,
        cavity=cavity,
        mechanics=mechanics,
        omega_probe=omega_probe if eps_p > 0.0 else None,
        step=float(step),
    )


def demodulate(trace: TimeTrace, omega: float, *,
               settle: float | None = None,
               min_cycles: int = 50) -> DemodResult:
    """Extract the sideband amplitudes at ``+-omega`` and ``+-2 omega``.

    Fits ``mean + a1_lower e^{-i w t} + a1_upper e^{+i w t} + a2_lower
    e^{-2i w t} + a2_upper e^{+2i w t}`` to the cavity trace by linear
    least squares over a whole number of probe cycles after ``settle``.

    Parameters
    ----------
    trace : TimeTrace
    omega : float
        Demodulation frequency (rad/s); normally ``trace.omega_probe``.
    settle : float, optional
        Transient to discard (s).  The default, twenty bare lifetimes
        ``20 / min(kappa, gamma_l)``, is very conservative; pass the
        optically broadened time scale explicitly when speed matters.
    min_cycles : int
        Minimum number of full cycles the fit window must contain.

    Raises
    ------
    InvalidParameterError
        The trace does not extend ``min_cycles`` cycles past ``settle``.
    """
    if omega <= 0.0:
        raise InvalidParameterError(f"omega must be > 0, got {omega}")
    if min_cycles < 1:
        raise InvalidParameterError("min_cycles must be >= 1")
    times = trace.times
    period = 2.0 * math.pi / omega
    t_end = float(times[-1])
    if settle is None:
        # A trace carries no decay rates, so the default just discards the
        # first half of the record (or less, if that would not leave
        # min_cycles whole cycles).  Callers who know the physical settling
        # time should pass it.
        settle = max(0.0, min(0.5 * t_end, t_end - min_cycles * period))
    if settle < 0.0:
        raise InvalidParameterError("settle must be >= 0")
    n_cycles = int(math.floor((t_end - settle) / period))
    if n_cycles < min_cycles:
        raise InvalidParameterError(
            f"trace supports only {max(n_cycles, 0)} full cycles after the "
            f"settle time; {min_cycles} required")
    window_start = t_end - n_cycles * period
    mask = times >= window_start - 1e-9 * period
    ts = times[mask]
    ys = trace.cavity[mask]

    columns = np.column_stack([
        np.ones_like(ts, dtype=complex),
        np.exp(-1j * omega * ts),
        np.exp(1j * omega * ts),
        np.exp(-2j * omega * ts),
        np.exp(2j * omega * ts),
    ])
    coef, _, _, _ = np.linalg.lstsq(columns, ys, rcond=None)
    fitted = columns @ coef
    wiggle = ys - coef[0]
    denom = float(np.sqrt(np.mean(np.abs(wiggle) ** 2)))
    resid = float(np.sqrt(np.mean(np.abs(ys - fitted) ** 2)))
    residual = resid / denom if denom > 0.0 else float("inf")
    reliable = bool(n_cycles >= min_cycles and residual < 1e-3)
    return DemodResult(
        mean=complex(coef[0]),
        a1_lower=complex(coef[1]),
        a1_upper=complex(coef[2]),
        a2_lower=complex(coef[3]),
        a2_upper=complex(coef[4]),
        residual=residual,
        n_cycles=n_cycles,
        reliable=reliable,
    )


def _default_settle(config: SystemConfig, steady: SteadyState) -> float:
    """Forty lifetimes of the slowest optically broadened mode."""
    _, gamma, _ = config.mode_arrays()
    total_opt = _total_optical_damping(config, steady)
    rate = float(np.min(gamma)) + 0.5 * total_opt
    return 40.0 / rate


def sideband_closure(config: SystemConfig, omega: float, *,
                     probe_ratio: float = 0.01,
                     periods: int = 200,
                     settle: float | None = None,
                     rtol: float = 1e-10) -> ClosureReport:
    """Compare frequency-domain and time-domain sideband amplitudes.

    Runs both routes at one probe detuning and reports the relative
    disagreement of the first- and second-order lower sideband amplitudes,
    for any number of modes.
    The frequency-domain result is exact in the linearised hierarchy, so
    the gap measures probe-nonlinearity plus integration error and shrinks
    with ``probe_ratio``.

    Parameters
    ----------
    config : SystemConfig
        The probe strength inside is overridden by ``probe_ratio``.
    omega : float
        Probe-pump detuning (rad/s).
    probe_ratio : float
        Probe amplitude as a fraction of the pump; small values isolate
        the linear response (default 0.01).
    periods : int
        Probe cycles to demodulate over, at least one.
    settle : float, optional
        Transient to discard (s, finite and >= 0); defaults to forty
        optically broadened mechanical lifetimes.
    rtol : float
        Integrator tolerance, in ``[100 eps, 1)``.

    Raises
    ------
    InvalidParameterError
        ``omega``, ``periods``, ``settle`` or ``rtol`` is out of range;
        checked before any solve.
    """
    if not 0.0 < omega < math.inf:
        raise InvalidParameterError(
            f"omega must be finite and > 0, got {omega}")
    if not periods >= 1:
        raise InvalidParameterError(f"periods must be >= 1, got {periods}")
    if settle is not None and not 0.0 <= settle < math.inf:
        raise InvalidParameterError(
            f"settle must be finite and >= 0, got {settle}")
    _check_rtol(rtol)
    config = replace(config,
                     drive=replace(config.drive, probe_ratio=probe_ratio,
                                   power_probe=None))
    steady = solve_steady_state(config)
    first = solve_first_order(config, steady, omega)
    second = solve_second_order(config, steady, omega, first)

    if settle is None:
        settle = _default_settle(config, steady)
    period = 2.0 * math.pi / omega
    t_final = settle + (periods + 1) * period
    trace = integrate_mean_field(config, t_final, omega_probe=omega,
                                 initial=(steady.alpha, steady.betas),
                                 rtol=rtol)
    demod = demodulate(trace, omega, settle=settle, min_cycles=periods)

    a1_fd = complex(first.a_minus)
    a1_td = demod.a1_lower
    err1 = abs(a1_fd - a1_td) / max(abs(a1_fd), abs(a1_td), 1e-300)
    a2_fd = complex(second.a_minus)
    a2_td = demod.a2_lower
    err2 = abs(a2_fd - a2_td) / max(abs(a2_fd), abs(a2_td), 1e-300)
    return ClosureReport(
        omega=float(omega),
        probe_ratio=float(probe_ratio),
        a1_freq=a1_fd,
        a1_time=a1_td,
        a2_freq=a2_fd,
        a2_time=a2_td,
        rel_err_first=float(err1),
        rel_err_second=float(err2),
        residual=demod.residual,
        n_cycles=demod.n_cycles,
        reliable=demod.reliable,
    )
