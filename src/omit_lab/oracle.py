"""Time-domain cross-check of the frequency-domain sideband solution.

The sideband amplitudes of :mod:`omit_lab.sidebands` come from a
perturbative ansatz.  :func:`sideband_closure` checks them against the
*full nonlinear* mean-field equations ::

    da/dt   = -(kappa + i Delta_c) a - i a sum_l g_l (b_l + b_l^*)
              + eps_L + eps_p exp(-i Omega t)
    db_l/dt = -(gamma_l + i omega_l) b_l - i g_l |a|^2
              - i eta_{l-1} e^{-i theta_{l-1}} b_{l-1}
              - i eta_l e^{+i theta_l} b_{l+1}

integrated with the explicit eighth-order Dormand-Prince scheme DOP853 (a
numpy stepper in :mod:`omit_lab._dop853` whose steps equal SciPy's bit for
bit), and reads the sideband amplitudes back out by least-squares
demodulation of the cavity at ``+-Omega`` and ``+-2 Omega``.  Samples lie
on a uniform grid, ``i * step``, and each comes from the dense output of
the first step that reaches it.  Since the integration shares no algebra
with the linear-system solves, agreement (to the accuracy the finite probe
allows) validates the whole frequency-domain stack; it also quantifies the
error of truncating the sideband hierarchy at a finite probe strength.

A practical note on time scales: in the pump frame the probed equations
are exactly periodic in ``T = 2 pi / Omega``, so the driven steady
response is a T-periodic orbit.  Waiting for it means integrating out a
transient whose slowest part the cavity sees can decay at little more
than the bare mechanical damping near a dark mode: hundreds of probe
periods, or thousands.  :func:`sideband_closure` does not wait.  It
solves ``x(T; x) = x`` for the orbit's start by chord-Newton shooting
(Aprille & Trick, Proc. IEEE 60, 108 (1972); Seydel, *Practical
Bifurcation and Stability Analysis*, 3rd ed., ch. 7), which takes a
handful of periods whatever the decay rates.  The shooting starts on the
exact periodic response of the flow linearised at the pump-only steady
state, so it corrects only the nonlinear part.  The period of the last
map evaluation is then demodulated from that run's own steps.
:func:`integrate_mean_field` and :func:`demodulate` keep only a plain
fixed-settle run and fit, which the closure does not use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._dop853 import dop853_steps
from .errors import InvalidParameterError, UnstableIntegrationError
from .model import (
    SteadyState,
    SystemConfig,
    _drift_matrix,
    _require_nonnegative,
    _require_positive,
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

_SAMPLES_PER_PERIOD = 64
# Integrator tolerance of every run.
_RTOL = 1e-10
_OVERFLOW_FACTOR = 1e6
# A fit leaving this much of the oscillating cavity signal unexplained is
# unreliable.
_MAX_FIT_RESIDUAL = 1e-3
# Shooting for the probed orbit in sideband_closure: a start vector is
# accepted once one period moves it by at most _ORBIT_RTOL (relative); the
# search gives up after _MAX_ITERATIONS periods, or once the residual of
# one period stops shrinking.
_ORBIT_RTOL = 1e-12
_MAX_ITERATIONS = 30
# Taylor terms of exp(A) once ||A||_1 <= 1/2: the remainder is < 1e-17.
_TAYLOR_TERMS = 14


@dataclass(frozen=True)
class TimeTrace:
    """Uniformly sampled cavity amplitude: ``cavity[i]`` at ``times[i]``."""

    times: np.ndarray
    cavity: np.ndarray


@dataclass(frozen=True)
class DemodResult:
    """Sideband content of a trace segment.

    ``a1_lower`` multiplies ``exp(-i Omega t)`` (the component at the probe
    frequency), ``a1_upper`` multiplies ``exp(+i Omega t)``, and the
    ``a2_*`` pair the same at ``2 Omega``.  ``residual`` is the rms of the
    part of the signal the five-term model does not explain, relative to
    the rms of the oscillating part.
    """

    mean: complex
    a1_lower: complex
    a1_upper: complex
    a2_lower: complex
    a2_upper: complex
    residual: float

    @property
    def reliable(self) -> bool:
        """The fit leaves under 1e-3 unexplained (False for a NaN)."""
        return self.residual < _MAX_FIT_RESIDUAL


@dataclass(frozen=True)
class ClosureReport:
    """Frequency-domain vs time-domain sideband amplitudes at one detuning.

    ``a1_*`` and ``a2_*`` are the first- and second-order lower cavity
    sidebands from each route, for any mode count; ``rel_err_*`` their
    relative gaps.  ``residual`` is the fit residual over the demodulated
    period of the orbit (see :class:`DemodResult`).
    ``iterations`` counts the one-period map evaluations of the shooting,
    ``map_residual`` is the last one's ``||x(T) - x|| / ||x||`` (at most
    1e-12 once converged), and ``multiplier`` is the largest Floquet
    multiplier ``|eig exp(J T)| = exp(-T margin)`` of the flow linearised
    at the pump-only steady state, whose stability margin comes from
    :func:`~omit_lab.model.solve_steady_state`.  ``reliable`` is False when
    the shooting found no orbit, the multiplier is >= 1 or the fit residual
    is >= 1e-3; ``reason`` names each of these that holds, and is empty
    for a reliable report.
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
    reliable: bool
    iterations: int
    map_residual: float
    multiplier: float
    reason: str


def _fastest_rate(config: SystemConfig, omega_probe: float) -> float:
    omega, _, _ = config.mode_arrays()
    return max(float(np.max(omega)), abs(config.cavity.delta_c),
               config.cavity.kappa, 2.0 * omega_probe)


def _mean_field_rhs(config: SystemConfig, eps_l: float, eps_p: float,
                    w_probe: float):
    """Right-hand side ``rhs(t, y)`` of the mean-field equations on real
    coordinates ``y = (Re a, Im a, Re b_1, Im b_1, ...)``.

    The linear part (decay, detunings, hopping) is one real operator built
    here once; ``rhs`` adds the radiation-pressure terms and the drives.
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


def _expm(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` of a small real matrix by scaling and squaring.

    ``a / 2**s`` has a 1-norm of at most 1/2, where ``_TAYLOR_TERMS``
    Taylor terms suffice; ``s`` squarings undo the scaling.
    """
    s = max(0, math.frexp(np.linalg.norm(a, 1))[1] + 1)
    a = a / 2.0 ** s
    out = term = np.eye(len(a))
    for k in range(1, _TAYLOR_TERMS + 1):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _start(config: SystemConfig, eps_l: float, alpha0: complex,
           betas0: np.ndarray):
    """Real start vector, amplitude scale and overflow guard of one run."""
    scale = max(abs(alpha0), eps_l / config.cavity.kappa, 1.0)
    limit_sq = (_OVERFLOW_FACTOR * scale) ** 2

    def overflow(t: float, y: np.ndarray) -> None:
        # "Not below" so that a NaN state trips it too.
        if not y[0] ** 2 + y[1] ** 2 < limit_sq:
            raise UnstableIntegrationError(
                f"cavity amplitude exceeded {_OVERFLOW_FACTOR:.0e} x its "
                f"steady scale or is not finite by t = {t:.6e} s; the "
                "operating point is unstable")

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


def _steps(rhs, y0: np.ndarray, t_final: float, step: float, rtol: float,
           atol: float, check):
    """The accepted steps of a run over ``[0, t_final]`` from ``y0``, each
    end state passed to ``check``.

    Starting at a fixed point the right-hand side is nearly zero, so an
    automatic first-step guess would overshoot wildly; the first trial
    step is ``step`` instead.
    """
    for span in dop853_steps(rhs, y0, t_final, first_step=step, rtol=rtol,
                             atol=atol):
        check(span[1], span[2])
        yield span


def _sample(steps, step: float, out: np.ndarray) -> None:
    """Fill ``out[:, i]`` with the first ``len(out)`` components at
    ``i * step``, each from the dense output of the first of ``steps``
    that reaches it."""
    rows, count = out.shape
    done = 0
    for _, t, _, dense in steps:
        upto = min(_last_sample(t, step) + 1, count)
        if upto > done:
            out[:, done:upto] = dense(np.arange(done, upto) * step)[:rows]
            done = upto


def integrate_mean_field(config: SystemConfig, t_final: float, *,
                         omega_probe: float, initial) -> TimeTrace:
    """Integrate the nonlinear mean-field equations from given amplitudes.

    The cavity is sampled every 1/64 of the fastest period in the problem
    (mechanical, cavity and doubled probe frequencies, cavity decay), at
    the fixed integrator tolerance 1e-10 of every oracle run.

    Parameters
    ----------
    config : SystemConfig
    t_final : float
        End time (s), integration starts at 0; at least one sampling
        step.
    omega_probe : float
        Probe-pump detuning Omega (rad/s), finite and > 0.
    initial : (alpha0, betas0)
        Cavity and mechanical amplitudes at ``t = 0``.

    Raises
    ------
    InvalidParameterError
        ``t_final`` or ``omega_probe`` is out of range, or an initial
        amplitude has the wrong shape or is not finite.
    UnstableIntegrationError
        The cavity amplitude ran away (parametric instability); the error
        message reports the end of the first step past the limit.
    NonConvergentError
        The adaptive integrator needed a step below ten ulps of t.
    """
    _require_positive("t_final", t_final)
    _require_positive("omega_probe", omega_probe)
    step = 2.0 * math.pi / (_fastest_rate(config, omega_probe)
                            * _SAMPLES_PER_PERIOD)
    if t_final < step:
        raise InvalidParameterError(
            f"t_final {t_final:.3e} s is shorter than one sampling step "
            f"{step:.3e} s")
    alpha0, betas0 = initial
    alpha0 = complex(alpha0)
    betas0 = np.asarray(betas0, dtype=complex)
    if betas0.shape != (config.n_modes,):
        raise InvalidParameterError(
            f"initial mechanical amplitudes need shape ({config.n_modes},)")
    if not np.all(np.isfinite(np.append(betas0, alpha0))):
        raise InvalidParameterError("initial amplitudes must be finite")

    eps_l = pump_amplitude(config)
    rhs = _mean_field_rhs(config, eps_l, probe_amplitude(config),
                          float(omega_probe))
    y0, scale, overflow = _start(config, eps_l, alpha0, betas0)
    ys = np.empty((2, _last_sample(t_final, step) + 1))
    _sample(_steps(rhs, y0, t_final, step, _RTOL, _RTOL * scale, overflow),
            step, ys)
    return TimeTrace(times=np.arange(ys.shape[1]) * step,
                     cavity=ys[0] + 1j * ys[1])


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
        Demodulation frequency (rad/s, finite and > 0); normally the
        trace's probe detuning.
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
    _require_positive("omega", omega)
    if not min_cycles >= 1:
        raise InvalidParameterError(
            f"min_cycles must be >= 1, got {min_cycles}")
    times = trace.times
    period = 2.0 * math.pi / omega
    t_end = float(times[-1])
    if settle is None:
        settle = max(0.0, min(0.5 * t_end, t_end - min_cycles * period))
    _require_nonnegative("settle", settle)
    n_cycles = int(math.floor((t_end - settle) / period))
    if n_cycles < min_cycles:
        raise InvalidParameterError(
            f"trace supports only {max(n_cycles, 0)} full cycles after the "
            f"settle time; {min_cycles} required")
    window_start = t_end - n_cycles * period
    mask = times >= window_start - 1e-9 * period
    return _fit_harmonics(times[mask], trace.cavity[mask], omega)


def _fit_harmonics(ts: np.ndarray, ys: np.ndarray,
                   omega: float) -> DemodResult:
    """The least-squares fit of :func:`demodulate` on one window."""
    columns = np.column_stack([
        np.ones_like(ts, dtype=complex),
        np.exp(-1j * omega * ts),
        np.exp(1j * omega * ts),
        np.exp(-2j * omega * ts),
        np.exp(2j * omega * ts),
    ])
    coef = np.linalg.lstsq(columns, ys, rcond=None)[0]
    denom = float(np.sqrt(np.mean(np.abs(ys - coef[0]) ** 2)))
    resid = float(np.sqrt(np.mean(np.abs(ys - columns @ coef) ** 2)))
    residual = resid / denom if denom > 0.0 else float("inf")
    return DemodResult(
        mean=complex(coef[0]),
        a1_lower=complex(coef[1]),
        a1_upper=complex(coef[2]),
        a2_lower=complex(coef[3]),
        a2_upper=complex(coef[4]),
        residual=residual,
    )


def _periodic_orbit(config: SystemConfig, steady: SteadyState,
                    omega: float):
    """Shoot for the probed orbit, then demodulate one period of it.

    ``J`` is the drift matrix of the flow linearised at the pump-only
    state ``x0`` (:func:`~omit_lab.model._drift_matrix`).  The start is
    ``x0 + Re u``, the orbit's start in that linearised flow:
    ``(-i Omega I - J) u`` equals the probe drive ``eps_p (1, -i, 0,
    ...)``, whose real part at ``t`` is the ``(eps_p cos, -eps_p sin)`` of
    ``rhs``.  Then chord Newton on the one-period map ``P``: ``x <- x -
    (Phi - I)^-1 (P(x) - x)``, ``Phi = exp(J T)``.  The accepted steps of
    the last map evaluation are sampled over the half-open period, so the
    fit is a DFT.  Returns the fit, the number of map evaluations and the
    last map residual.
    """
    eps_l, eps_p = pump_amplitude(config), probe_amplitude(config)
    rhs = _mean_field_rhs(config, eps_l, eps_p, float(omega))
    x, scale, overflow = _start(config, eps_l, complex(steady.alpha),
                                np.asarray(steady.betas, dtype=complex))
    period = 2.0 * math.pi / omega
    q = math.ceil(_SAMPLES_PER_PERIOD * _fastest_rate(config, omega) / omega)
    step = period / q
    jac = _drift_matrix(config, steady.delta_eff)
    phi = _expm(jac * period)
    drive = np.zeros(x.size, dtype=complex)
    drive[:2] = eps_p, -1j * eps_p
    x = x + np.linalg.solve(-1j * omega * np.eye(x.size) - jac, drive).real
    previous = math.inf
    for iterations in range(1, _MAX_ITERATIONS + 1):
        steps = list(_steps(rhs, x, period, step, _RTOL, _RTOL * scale,
                            overflow))
        end = steps[-1][2]
        residual = float(np.linalg.norm(end - x) / np.linalg.norm(x))
        if (residual <= _ORBIT_RTOL or not residual < previous
                or iterations == _MAX_ITERATIONS):
            break
        previous = residual
        x = x - np.linalg.solve(phi - np.eye(x.size), end - x)
    # (Re a, Im a) rows of a sample array that is also the complex cavity.
    samples = np.empty((q, 2))
    _sample(steps, step, samples.T)
    demod = _fit_harmonics(np.arange(q) * step, samples.view(complex)[:, 0],
                           omega)
    return demod, iterations, residual


def sideband_closure(config: SystemConfig, omega: float, *,
                     probe_ratio: float = 0.01,
                     periods: int | None = None) -> ClosureReport:
    """Compare frequency-domain and time-domain sideband amplitudes.

    Runs both routes at one probe detuning and reports the relative
    disagreement of the first- and second-order lower sideband amplitudes,
    for any number of modes.
    The frequency-domain result is exact in the linearised hierarchy, so
    the gap measures probe-nonlinearity plus integration error and shrinks
    with ``probe_ratio``.

    The time-domain side does not wait out the transient.  It shoots for
    the probed T-periodic orbit, ``T = 2 pi / omega``: chord Newton on the
    one-period map, steered by ``exp(J T)`` of the flow linearised at the
    pump-only steady state, until one period moves the state by at most
    1e-12 relative; ``J`` is the drift matrix whose eigenvalues gave that
    state its stability margin.  It starts from that linearised flow's own
    periodic response to the probe, solved from ``J`` in closed form.  It
    gives up after 30 periods, or as soon as that residual stops
    shrinking.  It then demodulates the period of the last map evaluation,
    sampled from that run's steps, where the fit is a DFT; the orbit
    drifts by at most about 1e-12 / (1 - multiplier), so longer windows
    add nothing.  As ``eig exp(J T) = exp(eig(J) T)``, the largest Floquet
    multiplier is ``exp(-T margin)``.  The report is ``reliable=False``,
    with a ``reason``, when the shooting does not converge, when that
    multiplier is >= 1 (the orbit is not stable, so no run would settle on
    it), or when the fit residual is >= 1e-3.

    Parameters
    ----------
    config : SystemConfig
        The probe strength inside is overridden by ``probe_ratio``.
    omega : float
        Probe-pump detuning (rad/s).
    probe_ratio : float
        Probe amplitude as a fraction of the pump, finite and > 0; small
        values isolate the linear response (default 0.01).
    periods : int, optional
        Deprecated and ignored: passing it warns ``DeprecationWarning``.
        One period of the orbit is always demodulated.

    Raises
    ------
    InvalidParameterError
        ``omega`` or ``probe_ratio`` is out of range; checked before any
        solve.
    """
    _require_positive("omega", omega)
    _require_positive("probe_ratio", probe_ratio)
    if periods is not None:
        warnings.warn("The periods keyword of sideband_closure is deprecated "
                      "and ignored: one period of the orbit is demodulated",
                      DeprecationWarning, stacklevel=2)
    config = replace(config,
                     drive=replace(config.drive, probe_ratio=probe_ratio,
                                   power_probe=None))
    steady = solve_steady_state(config)
    first = solve_first_order(config, steady, omega)
    second = solve_second_order(config, steady, omega, first)

    demod, iterations, map_residual = _periodic_orbit(config, steady, omega)
    multiplier = math.exp(-2.0 * math.pi / omega * steady.margin)
    reasons = []
    if not map_residual <= _ORBIT_RTOL:
        reasons.append(f"no periodic orbit after {iterations} of at most "
                       f"{_MAX_ITERATIONS} periods: map residual "
                       f"{map_residual:.1e} > {_ORBIT_RTOL:.0e}")
    if not multiplier < 1.0:
        reasons.append(f"largest Floquet multiplier {multiplier:.6f} >= 1: "
                       "the orbit is not stable")
    if not demod.reliable:
        reasons.append(f"demodulation residual {demod.residual:.1e} >= "
                       f"{_MAX_FIT_RESIDUAL:.0e}")

    a1_fd, a2_fd = complex(first.a_minus), complex(second.a_minus)
    a1_td, a2_td = demod.a1_lower, demod.a2_lower
    err1, err2 = (abs(fd - td) / max(abs(fd), abs(td), 1e-300)
                  for fd, td in ((a1_fd, a1_td), (a2_fd, a2_td)))
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
        reliable=not reasons,
        iterations=iterations,
        map_residual=map_residual,
        multiplier=multiplier,
        reason="; ".join(reasons),
    )
