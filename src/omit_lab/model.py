"""System description and classical steady state.

The model is a single driven cavity mode coupled by radiation pressure to a
chain of mechanical modes.  Neighbouring mechanical modes exchange phonons
with a complex hopping amplitude ``eta * exp(i*theta)``; together with the
two optomechanical links this closes an interference loop, which is what
makes the phase ``theta`` physically meaningful.

In the frame rotating at the pump frequency the classical (mean-field)
equations of motion are ::

    d(alpha)/dt = -(kappa + i*Delta_c) alpha
                  - i alpha * sum_l g_l (beta_l + beta_l*) + eps_L
    d(beta_l)/dt = -(gamma_l + i*omega_l) beta_l - i g_l |alpha|^2
                   - i eta_{l-1} e^{-i theta_{l-1}} beta_{l-1}
                   - i eta_l e^{+i theta_l} beta_{l+1}

All frequencies and rates in this package are angular (rad/s).  Laser powers
are in watts, lengths in metres, masses in kilograms.

The steady state couples the cavity amplitude to the static mechanical
displacements through the effective detuning

    Delta = Delta_c + sum_l g_l (beta_l + beta_l*),

and the displacements are linear in the photon number ``|alpha|^2``.  So
``solve_steady_state`` reduces the fixed point to a real cubic in
``Delta``, takes every real root, and checks each root's linear stability.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, NonConvergentError

__all__ = [
    "CavityParams",
    "MechanicalMode",
    "PhononCoupling",
    "DriveSpec",
    "SystemConfig",
    "SteadyState",
    "drive_amplitude",
    "derive_single_photon_coupling",
    "pump_frequency",
    "pump_amplitude",
    "probe_amplitude",
    "effective_detuning",
    "solve_mechanical_displacements",
    "solve_steady_state",
    "stability_margin",
    "steady_state_residual",
    "lock_effective_detuning",
]

TWO_PI = 2.0 * math.pi

# Exact SI values (2019 redefinition) of the speed of light and of hbar.
_C_LIGHT = 299792458.0
_HBAR = 6.62607015e-34 / (2 * math.pi)

# Probe drives beyond this fraction of the pump invalidate the perturbative
# sideband expansion outright; between WARN and HARD we only warn.
_PROBE_RATIO_WARN = 0.05
_PROBE_RATIO_HARD = 0.10

# Steady state: a cubic root is real when |Im| < _REAL_ROOT_TOL |root|, and
# _NEWTON_STEPS Newton steps must bring its residual below _RESIDUAL_TOL.
_REAL_ROOT_TOL = 1e-6
_NEWTON_STEPS = 4
_RESIDUAL_TOL = 1e-12


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < math.inf:
        raise InvalidParameterError(
            f"{name} must be > 0 and finite, got {value!r}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise InvalidParameterError(
            f"{name} must be >= 0 and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class CavityParams:
    """Optical cavity parameters.

    Parameters
    ----------
    kappa : float
        Cavity field decay rate (rad/s).
    delta_c : float
        Bare cavity-pump detuning ``omega_c - omega_L`` (rad/s).  May be
        negative (blue-detuned pump).
    wavelength : float, optional
        Pump wavelength (m); used to derive the pump frequency and, with
        `cavity_length`, the single-photon coupling of a mode given by mass.
    cavity_length : float, optional
        Cavity length (m).
    """

    kappa: float
    delta_c: float
    wavelength: float | None = None
    cavity_length: float | None = None

    def __post_init__(self) -> None:
        _require_positive("kappa", self.kappa)
        _require_finite("delta_c", self.delta_c)
        if self.wavelength is not None:
            _require_positive("wavelength", self.wavelength)
        if self.cavity_length is not None:
            _require_positive("cavity_length", self.cavity_length)


@dataclass(frozen=True)
class MechanicalMode:
    """One mechanical mode: frequency, damping, and optomechanical coupling.

    ``g`` is the single-photon coupling (rad/s); set it directly or derive it
    from an effective mass via :func:`derive_single_photon_coupling`.
    """

    omega: float          # resonance frequency (rad/s)
    gamma: float          # amplitude damping rate (rad/s)
    g: float              # single-photon optomechanical coupling (rad/s)
    mass: float | None = None   # effective mass (kg) when g was derived

    def __post_init__(self) -> None:
        _require_positive("omega", self.omega)
        _require_positive("gamma", self.gamma)
        _require_nonnegative("g", self.g)
        if self.mass is not None:
            _require_positive("mass", self.mass)


@dataclass(frozen=True)
class PhononCoupling:
    """Phase-dependent phonon exchange between neighbouring modes.

    The hopping term in the Hamiltonian is ``eta * (e^{i theta} b_l^dag
    b_{l+1} + h.c.)``.  ``theta`` is stored canonicalised to ``[0, 2*pi)``;
    physics is strictly 2*pi periodic in it.
    """

    eta: float            # exchange rate (rad/s)
    theta: float = 0.0    # modulation phase (rad)

    def __post_init__(self) -> None:
        _require_nonnegative("eta", self.eta)
        _require_finite("theta", self.theta)
        object.__setattr__(self, "theta", self.theta % math.tau)


@dataclass(frozen=True)
class DriveSpec:
    """Pump and probe drive description.

    Exactly one of ``probe_ratio`` (probe amplitude as a fraction of the pump
    amplitude) or ``power_probe`` (watts) fixes the probe strength.  The
    sideband expansion is perturbative in the probe, so ratios above
    0.05 trigger a warning and above 0.1 an error.
    """

    power_pump: float                  # pump power (W)
    probe_ratio: float | None = 0.05   # eps_p / eps_L
    power_probe: float | None = None   # probe power (W), alternative
    omega_pump: float | None = None    # pump frequency (rad/s), optional

    def __post_init__(self) -> None:
        _require_nonnegative("power_pump", self.power_pump)
        if (self.probe_ratio is None) == (self.power_probe is None):
            raise InvalidParameterError(
                "specify exactly one of probe_ratio or power_probe")
        if self.probe_ratio is not None:
            _require_nonnegative("probe_ratio", self.probe_ratio)
            _check_probe_scale(self.probe_ratio)
        if self.power_probe is not None:
            _require_nonnegative("power_probe", self.power_probe)
        if self.omega_pump is not None:
            _require_positive("omega_pump", self.omega_pump)


def _check_probe_scale(ratio: float) -> None:
    if ratio > _PROBE_RATIO_HARD:
        raise InvalidParameterError(
            f"probe/pump amplitude ratio {ratio:.4g} exceeds {_PROBE_RATIO_HARD};"
            " the perturbative sideband expansion does not apply")
    if ratio > _PROBE_RATIO_WARN:
        warnings.warn(
            f"probe/pump amplitude ratio {ratio:.4g} above {_PROBE_RATIO_WARN};"
            " sideband results are first order in the probe",
            stacklevel=3)


@dataclass(frozen=True)
class SystemConfig:
    """Full system: cavity, mechanical chain, couplings, drives.

    ``couplings[j]`` links ``modes[j]`` to ``modes[j+1]``, so a chain of
    ``n`` modes carries exactly ``n - 1`` couplings.
    """

    cavity: CavityParams
    modes: tuple[MechanicalMode, ...]
    couplings: tuple[PhononCoupling, ...]
    drive: DriveSpec

    def __post_init__(self) -> None:
        modes = tuple(self.modes)
        couplings = tuple(self.couplings)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "couplings", couplings)
        if len(modes) < 1:
            raise InvalidParameterError("at least one mechanical mode required")
        if len(couplings) != len(modes) - 1:
            raise InvalidParameterError(
                f"a chain of {len(modes)} modes needs {len(modes) - 1} "
                f"couplings, got {len(couplings)}")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def omega_ref(self) -> float:
        """Reference mechanical frequency (first mode) used to scale grids."""
        return self.modes[0].omega

    # Array views used by the solvers -------------------------------------

    def mode_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(omega, gamma, g) as float arrays of length n_modes."""
        omega = np.array([m.omega for m in self.modes], dtype=float)
        gamma = np.array([m.gamma for m in self.modes], dtype=float)
        g = np.array([m.g for m in self.modes], dtype=float)
        return omega, gamma, g

    def coupling_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(eta, theta) as float arrays of length n_modes - 1."""
        eta = np.array([c.eta for c in self.couplings], dtype=float)
        theta = np.array([c.theta for c in self.couplings], dtype=float)
        return eta, theta


@dataclass(frozen=True)
class SteadyState:
    """Classical steady state of the pump-only problem.

    ``branches`` holds the effective detuning of every fixed point,
    ascending.  The operating point is the first stable one in order of
    distance from the bare detuning, or the nearest one when none is
    stable (see :func:`solve_steady_state`).  ``margin`` is its stability
    margin (:func:`stability_margin`), negative when it is unstable;
    ``multistable`` says that another branch is stable too, and
    :func:`stability_margin` of each entry of ``branches`` says which.
    """

    alpha: complex                # cavity amplitude
    betas: tuple[complex, ...]    # static mechanical amplitudes
    delta_eff: float              # effective detuning (rad/s)
    iterations: int               # Newton steps on the chosen root
    residual: float               # its relative fixed-point residual
    multistable: bool             # two or more fixed points are stable
    branches: tuple[float, ...] = ()   # empty if not from the solver
    margin: float = math.nan           # 1/s; NaN if not from the solver

    @property
    def branch_index(self) -> int | None:
        """Position of the operating point in ``branches`` (None if empty)."""
        gaps = [abs(d - self.delta_eff) for d in self.branches]
        return gaps.index(min(gaps)) if gaps else None

    @property
    def photon_number(self) -> float:
        """Mean intracavity photon number |alpha|^2."""
        return abs(self.alpha) ** 2


# ---------------------------------------------------------------------------
# Elementary relations


def drive_amplitude(power: float, kappa: float, omega: float) -> float:
    """Field drive amplitude ``sqrt(2 * kappa * P / (hbar * omega))``.

    Parameters
    ----------
    power : float
        Laser power (W).
    kappa : float
        Cavity decay rate (rad/s).
    omega : float
        Laser angular frequency (rad/s).

    Raises
    ------
    InvalidParameterError
        An input is out of range, or the amplitude overflows.
    """
    power = _require_nonnegative("power", power)
    kappa = _require_positive("kappa", kappa)
    omega = _require_positive("omega", omega)
    amplitude = math.sqrt(2.0 * kappa * power / (_HBAR * omega))
    if not math.isfinite(amplitude):
        raise InvalidParameterError(
            f"drive amplitude overflows for power {power!r} W, kappa "
            f"{kappa!r} rad/s, omega {omega!r} rad/s")
    return amplitude


def derive_single_photon_coupling(wavelength: float, cavity_length: float,
                                  mass: float, omega_m: float) -> float:
    """Single-photon coupling for an end-mirror (membrane) geometry.

    ``g = (omega_cav / L) * x_zpf`` with ``x_zpf = sqrt(hbar / (2 m omega))``
    and ``omega_cav = 2 pi c / wavelength``.
    """
    wavelength = _require_positive("wavelength", wavelength)
    cavity_length = _require_positive("cavity_length", cavity_length)
    mass = _require_positive("mass", mass)
    omega_m = _require_positive("omega_m", omega_m)
    omega_cav = TWO_PI * _C_LIGHT / wavelength
    x_zpf = math.sqrt(_HBAR / (2.0 * mass * omega_m))
    return omega_cav / cavity_length * x_zpf


def pump_frequency(config: SystemConfig) -> float:
    """Pump laser angular frequency, from the drive spec or the wavelength."""
    if config.drive.omega_pump is not None:
        return config.drive.omega_pump
    if config.cavity.wavelength is not None:
        return TWO_PI * _C_LIGHT / config.cavity.wavelength
    raise InvalidParameterError(
        "pump frequency unknown: set DriveSpec.omega_pump or CavityParams.wavelength")


def pump_amplitude(config: SystemConfig) -> float:
    """Pump drive amplitude eps_L (rad/s-ish field units)."""
    return drive_amplitude(config.drive.power_pump, config.cavity.kappa,
                           pump_frequency(config))


def probe_amplitude(config: SystemConfig) -> float:
    """Probe drive amplitude eps_p, from the ratio or the probe power."""
    eps_l = pump_amplitude(config)
    if config.drive.probe_ratio is not None:
        return config.drive.probe_ratio * eps_l
    eps_p = drive_amplitude(config.drive.power_probe, config.cavity.kappa,
                            pump_frequency(config))
    if eps_l > 0.0:
        _check_probe_scale(eps_p / eps_l)
    return eps_p


# ---------------------------------------------------------------------------
# Steady state


def effective_detuning(config: SystemConfig, betas: np.ndarray) -> float:
    """Effective detuning ``Delta_c + sum_l g_l (beta_l + beta_l^*)``."""
    _, _, g = config.mode_arrays()
    betas = np.asarray(betas, dtype=complex)
    return float(config.cavity.delta_c + np.dot(g, 2.0 * betas.real))


def _chain_matrix(config: SystemConfig) -> np.ndarray:
    """``gamma_l + i omega_l`` on the diagonal, ``i eta_l e^{+-i theta_l}``
    beside it: the mechanical chain's static linear operator."""
    omega, gamma, _ = config.mode_arrays()
    eta, theta = config.coupling_arrays()
    mat = np.diag(gamma + 1j * omega)
    j = np.arange(config.n_modes - 1)
    mat[j, j + 1] = 1j * eta * np.exp(1j * theta)    # beta_{j+1} feeding j
    mat[j + 1, j] = 1j * eta * np.exp(-1j * theta)   # beta_j feeding j+1
    return mat


def solve_mechanical_displacements(config: SystemConfig,
                                   photon_number: float) -> np.ndarray:
    """Static mechanical amplitudes for a given intracavity photon number.

    Solves the linear chain ::

        (gamma_l + i omega_l) beta_l
            + i eta_{l-1} e^{-i theta_{l-1}} beta_{l-1}
            + i eta_l     e^{+i theta_l}     beta_{l+1}  = -i g_l |alpha|^2

    Returns
    -------
    numpy.ndarray
        Complex array of length ``n_modes``.
    """
    _, _, g = config.mode_arrays()
    return np.linalg.solve(_chain_matrix(config), -1j * g * photon_number)


def _drift_matrix(config: SystemConfig, delta: float) -> np.ndarray:
    """Real Jacobian of the mean-field equations at the fixed point with
    effective detuning ``delta`` on ``(Re a, Im a, Re b_1, Im b_1, ...)``,
    the sideband matrix at zero probe detuning: ``dz/dt = L z + C z*`` on
    ``z = (da, db)`` with ``da' = -(kappa + i Delta) da - i alpha g.(db +
    db*)`` and ``db' = -(chain operator) db - i g (alpha* da + alpha da*)``."""
    n = config.n_modes
    _, _, g = config.mode_arrays()
    alpha = pump_amplitude(config) / (config.cavity.kappa + 1j * delta)
    lin = np.zeros((n + 1, n + 1), dtype=complex)
    con = np.zeros_like(lin)
    lin[0, 0] = -(config.cavity.kappa + 1j * delta)
    lin[1:, 1:] = -_chain_matrix(config)
    lin[0, 1:] = con[0, 1:] = con[1:, 0] = -1j * alpha * g
    lin[1:, 0] = -1j * np.conj(alpha) * g
    # z = x + iy: L z + C z* = (L + C) x + i (L - C) y.
    plus, minus = lin + con, lin - con
    drift = np.empty((2 * (n + 1), 2 * (n + 1)))
    drift[0::2, 0::2], drift[1::2, 0::2] = plus.real, plus.imag
    drift[0::2, 1::2], drift[1::2, 1::2] = -minus.imag, minus.real
    return drift


def stability_margin(config: SystemConfig, delta: float) -> float:
    """Stability margin (1/s) of the fixed point with effective detuning
    ``delta``: minus the largest real part of its drift-matrix eigenvalues
    (Routh-Hurwitz).  Positive is stable; negative is the growth rate of
    small deviations."""
    eig = np.linalg.eigvals(_drift_matrix(config, delta))
    return float(-np.max(eig.real))


def _polish(delta: float, delta_c: float, kappa: float,
            load: float) -> tuple[float, int, float]:
    """Newton on ``f(D) = D - Delta_c - load / (kappa^2 + D^2)`` until
    ``f`` is zero or ``_NEWTON_STEPS`` are taken; returns (root, steps,
    ``|f|`` relative to the largest detuning in it)."""
    for steps in range(_NEWTON_STEPS + 1):
        den = kappa * kappa + delta * delta
        f = delta - delta_c - load / den
        if f == 0.0 or steps == _NEWTON_STEPS:
            break
        delta -= f / (1.0 + 2.0 * load * delta / (den * den))
    return float(delta), steps, abs(f) / max(abs(delta), abs(delta_c), 1.0)


def _select_branch(branches, margins, delta_c: float) -> int:
    """The first stable branch (margin > 0) in order of distance from the
    bare detuning; the nearest branch when none is stable."""
    order = np.argsort(np.abs(np.subtract(branches, delta_c)), kind="stable")
    return int(next((i for i in order if margins[i] > 0.0), order[0]))


def solve_steady_state(config: SystemConfig) -> SteadyState:
    """Solve the coupled classical steady state of cavity and mechanics.

    One chain solve at unit photon number gives the detuning shift per
    photon ``s = 2 sum_l g_l Re beta_l(1)``, so the fixed points are the
    real roots of ``(Delta - Delta_c) (kappa^2 + Delta^2) = s eps_L^2``,
    taken with ``numpy.roots``, Newton-polished and kept when their
    relative residual is below 1e-12.  Each gets a stability margin
    (:func:`stability_margin`).  Selection rule: walk the roots in order
    of ``|Delta - Delta_c|`` and take the first stable one; when none is
    stable, take the nearest, whose negative margin reports it.  An
    unstable point is returned, never raised; `NonConvergentError` is
    raised when the cubic overflows or a real root misses the tolerance.
    """
    eps_l = pump_amplitude(config)
    kappa, delta_c = config.cavity.kappa, config.cavity.delta_c
    _, _, g = config.mode_arrays()
    unit = solve_mechanical_displacements(config, 1.0)
    load = float(np.dot(g, 2.0 * unit.real)) * eps_l * eps_l

    # In units of kappa: x^3 - xc x^2 + x - (xc + load / kappa^3) = 0.
    xc = delta_c / kappa
    coeffs = np.array([1.0, -xc, 1.0, -xc - load / kappa ** 3])
    if not np.all(np.isfinite(coeffs)):
        raise NonConvergentError(
            f"steady-state cubic overflows (pump amplitude {eps_l:.3e})",
            residual=math.inf, iterations=0)
    found = sorted(_polish(kappa * r.real, delta_c, kappa, load)
                   for r in np.roots(coeffs)
                   if abs(r.imag) <= _REAL_ROOT_TOL * max(abs(r), 1.0))
    worst = max((p[2] for p in found), default=math.inf)
    if not worst < _RESIDUAL_TOL:
        raise NonConvergentError(
            f"a root of the steady-state cubic kept residual {worst:.3e} "
            f">= {_RESIDUAL_TOL:.0e} after {_NEWTON_STEPS} Newton steps",
            residual=worst, iterations=_NEWTON_STEPS)

    branches = [p[0] for p in found]
    margins = [stability_margin(config, d) for d in branches]
    pick = _select_branch(branches, margins, delta_c)
    alpha = eps_l / (kappa + 1j * branches[pick])
    betas = abs(alpha) ** 2 * unit
    delta_eff = effective_detuning(config, betas)
    return SteadyState(
        alpha=complex(alpha),
        betas=tuple(complex(b) for b in betas),
        delta_eff=delta_eff,
        iterations=found[pick][1],
        residual=found[pick][2],
        multistable=sum(m > 0.0 for m in margins) >= 2,
        branches=tuple(branches),
        margin=margins[pick],
    )


def steady_state_residual(config: SystemConfig, state: SteadyState) -> float:
    """Largest relative residual of the mean-field fixed-point equations.

    Checks all three coupled relations (cavity amplitude, mechanical
    displacements, detuning consistency); useful as an independent
    verification of a :class:`SteadyState`.
    """
    eps_l = pump_amplitude(config)
    kappa = config.cavity.kappa
    alpha_pred = eps_l / (kappa + 1j * state.delta_eff)
    res_a = abs(alpha_pred - state.alpha) / max(abs(state.alpha), 1.0)
    betas_pred = solve_mechanical_displacements(config, state.photon_number)
    betas = np.asarray(state.betas, dtype=complex)
    scale_b = max(float(np.max(np.abs(betas))), 1.0)
    res_b = float(np.max(np.abs(betas_pred - betas))) / scale_b
    delta_pred = effective_detuning(config, betas)
    res_d = abs(delta_pred - state.delta_eff) / max(abs(state.delta_eff), 1.0)
    return max(res_a, res_b, res_d)


def lock_effective_detuning(config: SystemConfig,
                            delta_target: float) -> SystemConfig:
    """Return a config whose *effective* detuning equals ``delta_target``.

    Experiments quote the shifted detuning ``Delta``, not the bare
    ``Delta_c``.  Since the cavity amplitude is fixed once ``Delta`` is
    fixed, the static mechanical shift can be evaluated directly at the
    target and subtracted -- no iteration involved, and the result is an
    exact fixed point of the steady-state equations.
    """
    delta_target = _require_finite("delta_target", delta_target)
    eps_l = pump_amplitude(config)
    alpha = eps_l / (config.cavity.kappa + 1j * delta_target)
    betas = solve_mechanical_displacements(config, abs(alpha) ** 2)
    _, _, g = config.mode_arrays()
    shift = float(np.dot(g, 2.0 * np.asarray(betas).real))
    new_cavity = replace(config.cavity, delta_c=delta_target - shift)
    return replace(config, cavity=new_cavity)
