"""Time-domain cross-check of the frequency-domain sideband solution.

The sideband amplitudes of :mod:`omit_lab.sidebands` come from a
perturbative ansatz.  This module integrates the *full nonlinear*
mean-field equations ::

    da/dt   = -(kappa + i Delta_c) a - i a sum_l g_l (b_l + b_l^*)
              + eps_L + eps_p exp(-i Omega t)
    db_l/dt = -(gamma_l + i omega_l) b_l - i g_l |a|^2
              - i eta_{l-1} e^{-i theta_{l-1}} b_{l-1}
              - i eta_l e^{+i theta_l} b_{l+1}

with the explicit eighth-order Dormand-Prince scheme DOP853 (a numpy
stepper in :mod:`omit_lab._dop853` whose steps equal SciPy's bit for bit),
waits for the driven steady oscillation, and reads the sideband amplitudes
back out by least-squares demodulation of the cavity trace at ``+-Omega``
and ``+-2 Omega``.  Samples lie on a uniform grid, ``i * step``, and each
comes from the dense output of the first step that reaches it.  Since this
route shares no algebra with the linear-system solves, agreement (to the
accuracy the finite probe allows) validates the whole frequency-domain
stack; it also quantifies the error of truncating the sideband hierarchy at
a finite probe strength.

A practical note on time scales: the transient mostly decays at the
*optically broadened* mechanical rates (tens of kilohertz here), not at
the bare mechanical damping, so well under a millisecond of settling is
usually enough even though ``1/gamma_m`` is much longer.  That estimate
only sets the pace of :func:`sideband_closure`'s checks, not its result:
it integrates on until two successive demodulation windows, aligned on the
probe phase, agree, and it flags a run that never gets there.  A chain
whose slowest mode the estimate misses simply takes longer: three modes
with eta = 0.05 omega_m and theta = 0.37 pi, probed at 0.97 omega_m, need
about 84 estimated lifetimes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._dop853 import dop853_steps
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
# The checked settle of sideband_closure, in lifetimes of the slowest
# optically broadened mode: demodulate every ~2 lifetimes, stop once a1 and
# a2 both move by at most _SETTLE_RTOL (relative), give up at 160.
_SETTLE_RTOL = 1e-7
_CHECK_LIFETIMES = 2.0
_SETTLE_CAP_LIFETIMES = 160.0


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
    relative gaps.  ``residual``, ``n_cycles`` and ``reliable`` describe
    the demodulation window (see :class:`DemodResult`); ``settle`` is the
    time (s) integrated before that window.  ``settle_change`` is the
    larger relative change of the time-domain ``a1`` and ``a2`` against
    the check window before: at most 1e-7 unless the checked settle hit
    its cap, and then ``reliable`` is False.
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
    settle: float
    settle_change: float


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


def _start(config: SystemConfig, eps_l: float, alpha0: complex,
           betas0: np.ndarray):
    """Real start vector, amplitude scale and overflow guard of one run."""
    scale = max(abs(alpha0), eps_l / config.cavity.kappa, 1.0)
    limit_sq = (_OVERFLOW_FACTOR * scale) ** 2

    def overflow(t: float, y: np.ndarray) -> None:
        if y[0] ** 2 + y[1] ** 2 >= limit_sq:
            raise UnstableIntegrationError(
                f"cavity amplitude exceeded {_OVERFLOW_FACTOR:.0e} x its "
                f"steady scale by t = {t:.6e} s; the operating point is "
                "unstable")

    y0 = np.empty(2 * (config.n_modes + 1))
    y0[0], y0[1] = alpha0.real, alpha0.imag
    y0[2::2], y0[3::2] = betas0.real, betas0.imag
    return y0, scale, overflow


def _last_sample(t: float, step: float) -> int:
    """Index of the last sample ``i * step`` at or before ``t``."""
    i = int(t / step)
    while (i + 1) * step <= t:
        i += 1
    while i * step > t:
        i -= 1
    return i


def _check_rtol(rtol: float) -> None:
    if not _MIN_RTOL <= rtol < 1.0:
        raise InvalidParameterError(
            f"rtol must lie in [{_MIN_RTOL:.3e}, 1), got {rtol}")


def integrate_mean_field(config: SystemConfig, t_final: float, *,
                         omega_probe: float | None = None,
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
        Probe-pump detuning Omega (rad/s); required whenever the probe
        amplitude is nonzero.  A config with ``probe_ratio = 0`` integrates
        the pump-only problem.
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
        ``solve_ivp(method="DOP853", t_eval=...)`` bit for bit.

    Raises
    ------
    InvalidParameterError
        ``t_final``, ``step`` or ``rtol`` is out of range, an initial
        amplitude is not finite, or the probe amplitude is nonzero without
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
    eps_p = probe_amplitude(config)
    if eps_p > 0.0 and omega_probe is None:
        raise InvalidParameterError(
            "omega_probe is required when the probe amplitude is nonzero")

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
    y0, scale, overflow = _start(config, eps_l, alpha0, betas0)

    times = np.arange(_last_sample(t_final, step) + 1) * step
    ys = np.empty((y0.size, len(times)))
    done = 0
    # Starting at a fixed point the right-hand side is nearly zero, so an
    # automatic first-step guess would overshoot wildly; the first trial
    # step is the sampling step instead.
    for _, t, dense in dop853_steps(rhs, y0, t_final, first_step=step,
                                    rtol=rtol, atol=rtol * scale,
                                    check=overflow):
        upto = _last_sample(t, step) + 1
        if upto > done:
            ys[:, done:upto] = dense(times[done:upto])
            done = upto

    cavity = ys[0] + 1j * ys[1]
    mechanics = ys[2::2] + 1j * ys[3::2]
    return TimeTrace(
        times=times,
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
        Demodulation frequency (rad/s, finite and > 0); normally
        ``trace.omega_probe``.
    settle : float, optional
        Transient to discard (s, finite and >= 0).  The default discards
        the first half of the record, or less if that would not leave
        ``min_cycles`` whole cycles.
    min_cycles : int
        Minimum number of full cycles the fit window must contain, >= 1.

    Raises
    ------
    InvalidParameterError
        ``omega``, ``settle`` or ``min_cycles`` is out of range, or the
        trace does not extend ``min_cycles`` cycles past ``settle``.
    """
    if not 0.0 < omega < math.inf:
        raise InvalidParameterError(
            f"omega must be finite and > 0, got {omega}")
    if not min_cycles >= 1:
        raise InvalidParameterError(
            f"min_cycles must be >= 1, got {min_cycles}")
    times = trace.times
    period = 2.0 * math.pi / omega
    t_end = float(times[-1])
    if settle is None:
        # A trace carries no decay rates, so the default just discards the
        # first half of the record (or less, if that would not leave
        # min_cycles whole cycles).  Callers who know the physical settling
        # time should pass it.
        settle = max(0.0, min(0.5 * t_end, t_end - min_cycles * period))
    if not 0.0 <= settle < math.inf:
        raise InvalidParameterError(
            f"settle must be finite and >= 0, got {settle}")
    n_cycles = int(math.floor((t_end - settle) / period))
    if n_cycles < min_cycles:
        raise InvalidParameterError(
            f"trace supports only {max(n_cycles, 0)} full cycles after the "
            f"settle time; {min_cycles} required")
    window_start = t_end - n_cycles * period
    mask = times >= window_start - 1e-9 * period
    return _fit_harmonics(times[mask], trace.cavity[mask], omega, n_cycles)


def _fit_harmonics(ts: np.ndarray, ys: np.ndarray, omega: float,
                   n_cycles: int) -> DemodResult:
    """The least-squares fit of :func:`demodulate` on one window."""
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
    return DemodResult(
        mean=complex(coef[0]),
        a1_lower=complex(coef[1]),
        a1_upper=complex(coef[2]),
        a2_lower=complex(coef[3]),
        a2_upper=complex(coef[4]),
        residual=residual,
        n_cycles=n_cycles,
        reliable=residual < 1e-3,
    )


def _lifetime(config: SystemConfig, steady: SteadyState) -> float:
    """Lifetime (s) of the slowest optically broadened mechanical mode."""
    _, gamma, _ = config.mode_arrays()
    total_opt = _total_optical_damping(config, steady)
    return 1.0 / (float(np.min(gamma)) + 0.5 * total_opt)


def _check_schedule(config: SystemConfig, steady: SteadyState, omega: float,
                    periods: int) -> tuple[float, int, int, int, int]:
    """Sampling and check points of the checked settle.

    Returns ``(step, width, every, first, last)``.  Sample ``i`` is the
    state at ``i * step``, with a whole number ``q`` of samples per probe
    period and ``step`` no coarser than the default of
    :func:`integrate_mean_field`.  A check demodulates samples
    ``end - width ... end`` (``periods`` cycles) with ``end`` running
    ``first, first + every, ..., last``; every ``end`` is a multiple of
    ``q``, so all windows start and end on the same probe phase.
    ``every`` is the whole number of periods closest to
    ``_CHECK_LIFETIMES`` lifetimes, and the last window starts no later
    than ``_SETTLE_CAP_LIFETIMES`` lifetimes.
    """
    tau = _lifetime(config, steady)
    period = 2.0 * math.pi / omega
    q = math.ceil(_DEFAULT_SAMPLES_PER_PERIOD * _fastest_rate(config, omega)
                  / omega)
    m = max(1, round(_CHECK_LIFETIMES * tau / period))
    first = math.ceil(periods / m) * m
    last = max(first + m, math.floor(
        (_SETTLE_CAP_LIFETIMES * tau / period + periods) / m) * m)
    return period / q, periods * q, m * q, first * q, last * q


def _rel_change(new: complex, old: complex) -> float:
    return abs(new - old) / abs(new)


def _checked_settle(config: SystemConfig, steady: SteadyState, omega: float,
                    periods: int, rtol: float):
    """Integrate until two successive check windows agree.

    Returns the demodulation of the last window, its start time (s) and
    the larger relative change of ``a1_lower`` and ``a2_lower`` against
    the window before.  A run that reaches the cap unconverged comes back
    with ``reliable=False``.  Only one window of cavity samples is kept,
    and samples no window uses are never interpolated.
    """
    step, width, every, end, last = _check_schedule(config, steady, omega,
                                                    periods)
    eps_l = pump_amplitude(config)
    rhs = _mean_field_rhs(config, eps_l, probe_amplitude(config),
                          float(omega))
    y0, scale, overflow = _start(config, eps_l, complex(steady.alpha),
                                 np.asarray(steady.betas, dtype=complex))
    # buf[j] holds sample start + j of the current window, start..end.
    buf = np.empty(width + 1, dtype=complex)
    start = taken = end - width  # taken: the next sample to store
    previous = None
    change = math.inf
    for t_old, t, dense in dop853_steps(rhs, y0, last * step,
                                        first_step=step, rtol=rtol,
                                        atol=rtol * scale, check=overflow):
        # This step's samples are those in (t_old, t].
        upto = _last_sample(t, step)
        if upto < taken:
            continue
        ys = dense(np.arange(taken, upto + 1) * step)
        samples = ys[0] + 1j * ys[1]
        while taken <= upto:
            stop = min(upto, end)
            buf[taken - start:stop + 1 - start] = samples[:stop + 1 - taken]
            samples = samples[stop + 1 - taken:]
            taken = stop + 1
            if stop < end:
                break
            demod = _fit_harmonics(np.arange(start, end + 1) * step, buf,
                                   omega, periods)
            settle = start * step
            if previous is not None:
                change = max(_rel_change(demod.a1_lower, previous.a1_lower),
                             _rel_change(demod.a2_lower, previous.a2_lower))
                if change <= _SETTLE_RTOL:
                    return demod, settle, change
            previous = demod
            end += every
            start = end - width
            if start <= taken:
                # Overlapping windows: keep the samples they share.
                buf[:taken - start] = buf[every:]
            else:
                samples = samples[start - taken:]
                taken = start
    return replace(demod, reliable=False), settle, change


def sideband_closure(config: SystemConfig, omega: float, *,
                     probe_ratio: float = 0.01,
                     periods: int = 200,
                     rtol: float = 1e-10) -> ClosureReport:
    """Compare frequency-domain and time-domain sideband amplitudes.

    Runs both routes at one probe detuning and reports the relative
    disagreement of the first- and second-order lower sideband amplitudes,
    for any number of modes.
    The frequency-domain result is exact in the linearised hierarchy, so
    the gap measures probe-nonlinearity plus integration error and shrinks
    with ``probe_ratio``.

    The transient is not discarded for a fixed time but checked: the
    integration runs on, and the last ``periods`` probe cycles are
    demodulated every whole number of cycles closest to two lifetimes of
    the slowest optically broadened mechanical mode.  It stops as soon
    as ``a1`` and ``a2`` both change by at most 1e-7 (relative) from one
    window to the next and reports that last window.  A run that has not
    converged after 160 lifetimes reports its last window with
    ``reliable=False``.  All windows start on the same probe phase, so a
    harmonic the fit leaves out leaks the same way into each of them.

    Parameters
    ----------
    config : SystemConfig
        The probe strength inside is overridden by ``probe_ratio``.
    omega : float
        Probe-pump detuning (rad/s).
    probe_ratio : float
        Probe amplitude as a fraction of the pump, finite and > 0; small
        values isolate the linear response (default 0.01).
    periods : int
        Probe cycles to demodulate over, a whole number >= 1.
    rtol : float
        Integrator tolerance, in ``[100 eps, 1)``.

    Raises
    ------
    InvalidParameterError
        ``omega``, ``probe_ratio``, ``periods`` or ``rtol`` is out of
        range; checked before any solve.
    """
    if not 0.0 < omega < math.inf:
        raise InvalidParameterError(
            f"omega must be finite and > 0, got {omega}")
    if not 0.0 < probe_ratio < math.inf:
        raise InvalidParameterError(
            f"probe_ratio must be finite and > 0, got {probe_ratio}")
    if not periods >= 1 or periods % 1:
        raise InvalidParameterError(
            f"periods must be a whole number >= 1, got {periods}")
    periods = int(periods)
    _check_rtol(rtol)
    config = replace(config,
                     drive=replace(config.drive, probe_ratio=probe_ratio,
                                   power_probe=None))
    steady = solve_steady_state(config)
    first = solve_first_order(config, steady, omega)
    second = solve_second_order(config, steady, omega, first)

    demod, settle, change = _checked_settle(config, steady, omega, periods,
                                            rtol)

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
        settle=float(settle),
        settle_change=float(change),
    )
