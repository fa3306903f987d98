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

so ``solve_steady_state`` iterates the fixed point with damping and checks
for multistability by running the iteration from two different starting
points.
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


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value < 0.0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")
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

    @property
    def quality_factor(self) -> float:
        return self.omega / self.gamma


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

    Attributes
    ----------
    alpha : complex
        Cavity amplitude.
    betas : tuple of complex
        Static mechanical amplitudes.
    delta_eff : float
        Effective cavity detuning including the static mechanical shift.
    converged : bool
        Whether the fixed-point iteration met its tolerance.
    iterations : int
        Iterations used by the primary run.
    residual : float
        Final relative residual of the primary run.
    multistable : bool
        True when iterations from independent starting points landed on
        distinct fixed points (optical bistability).
    alt_delta : float
        Effective detuning found from the alternative start (diagnostic).
    """

    alpha: complex
    betas: tuple[complex, ...]
    delta_eff: float
    converged: bool
    iterations: int
    residual: float
    multistable: bool
    alt_delta: float

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
    """
    power = _require_nonnegative("power", power)
    kappa = _require_positive("kappa", kappa)
    omega = _require_positive("omega", omega)
    return math.sqrt(2.0 * kappa * power / (_HBAR * omega))


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
    n = config.n_modes
    omega, gamma, g = config.mode_arrays()
    eta, theta = config.coupling_arrays()
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(n), np.arange(n)] = gamma + 1j * omega
    for j in range(n - 1):
        hop = eta[j] * np.exp(1j * theta[j])
        mat[j, j + 1] = 1j * hop            # beta_{j+1} feeding mode j
        mat[j + 1, j] = 1j * np.conj(hop)   # beta_j feeding mode j+1
    rhs = -1j * g * photon_number
    return np.linalg.solve(mat, rhs)


def _iterate_steady_state(config: SystemConfig, delta0: float, *,
                          tol: float, max_iterations: int,
                          damping: float) -> tuple[float, int, float]:
    """Damped fixed-point iteration on the effective detuning.

    Returns (delta, iterations, residual); convergence is judged on the
    relative change of delta between substitutions.
    """
    eps_l = pump_amplitude(config)
    kappa = config.cavity.kappa
    delta = float(delta0)
    residual = math.inf
    for it in range(1, max_iterations + 1):
        alpha = eps_l / (kappa + 1j * delta)
        betas = solve_mechanical_displacements(config, abs(alpha) ** 2)
        delta_new = effective_detuning(config, betas)
        residual = abs(delta_new - delta) / max(abs(delta_new), 1.0)
        delta = (1.0 - damping) * delta + damping * delta_new
        if residual < tol:
            return delta, it, residual
    return delta, max_iterations, residual


def solve_steady_state(config: SystemConfig, *, tol: float = 1e-12,
                       max_iterations: int = 10000,
                       damping: float = 0.5) -> SteadyState:
    """Solve the coupled classical steady state of cavity and mechanics.

    The cavity amplitude depends on the effective detuning, which in turn
    depends on the static mechanical displacements driven by the photon
    number: a scalar fixed-point problem in ``Delta``.  A damped iteration
    (default damping 0.5) is run from two starting points -- the bare
    detuning and the detuning implied by the bare-cavity amplitude -- and
    the results are compared to detect bistability.

    Parameters
    ----------
    config : SystemConfig
    tol : float
        Relative tolerance on successive detuning updates.
    max_iterations : int
        Iteration cap per starting point.
    damping : float
        Fixed-point damping factor in (0, 1].

    Returns
    -------
    SteadyState

    Raises
    ------
    NonConvergentError
        If the primary iteration does not reach ``tol``; the exception
        carries the best residual achieved.
    """
    if not 0.0 < damping <= 1.0:
        raise InvalidParameterError(f"damping must be in (0, 1], got {damping}")
    if max_iterations < 1:
        raise InvalidParameterError("max_iterations must be >= 1")
    eps_l = pump_amplitude(config)
    kappa = config.cavity.kappa
    delta_c = config.cavity.delta_c

    delta_a, iters, residual = _iterate_steady_state(
        config, delta_c, tol=tol, max_iterations=max_iterations,
        damping=damping)
    if residual >= tol:
        raise NonConvergentError(
            f"steady state did not converge after {iters} iterations "
            f"(residual {residual:.3e} >= tol {tol:.3e})",
            residual=residual, iterations=iters)

    # Undamped polish: the damped loop stops on step size, which leaves a
    # fixed-point defect of order tol.  Near the solution the map is a mild
    # contraction, so plain re-substitution shrinks the defect to rounding
    # noise; stop as soon as it fails to improve.
    prev_step = residual
    for _ in range(30):
        alpha = eps_l / (kappa + 1j * delta_a)
        betas = solve_mechanical_displacements(config, abs(alpha) ** 2)
        delta_new = effective_detuning(config, betas)
        step = abs(delta_new - delta_a) / max(abs(delta_new), 1.0)
        if not step < prev_step:
            break
        delta_a, prev_step = delta_new, step
        if step < 1e-16:
            break
    residual = min(residual, prev_step)

    # Second start: assume the bare-cavity amplitude first, then take the
    # implied (shifted) detuning as the seed.
    alpha0 = eps_l / (kappa + 1j * delta_c)
    betas0 = solve_mechanical_displacements(config, abs(alpha0) ** 2)
    seed_b = effective_detuning(config, betas0)
    delta_b, _, residual_b = _iterate_steady_state(
        config, seed_b, tol=tol, max_iterations=max_iterations,
        damping=damping)
    multistable = (residual_b < tol and
                   abs(delta_b - delta_a) > 1e-6 * max(abs(delta_a), 1.0))

    # Re-substitute once at the converged detuning so alpha, betas, and
    # delta_eff reported together are mutually consistent.
    alpha = eps_l / (kappa + 1j * delta_a)
    betas = solve_mechanical_displacements(config, abs(alpha) ** 2)
    delta_eff = effective_detuning(config, betas)
    return SteadyState(
        alpha=complex(alpha),
        betas=tuple(complex(b) for b in betas),
        delta_eff=float(delta_eff),
        converged=True,
        iterations=iters,
        residual=float(residual),
        multistable=bool(multistable),
        alt_delta=float(delta_b),
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
