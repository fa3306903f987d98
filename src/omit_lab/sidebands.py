"""Probe response: first- and second-order sideband amplitudes.

With a strong pump at ``omega_L`` and a weak probe at ``omega_p = omega_L +
Omega``, every field develops sidebands at ``omega_L +/- n*Omega``.  Writing
``a = alpha + A1m e^{-i Omega t} + A1p e^{+i Omega t} + A2m e^{-2i Omega t}
+ ...`` (and similarly for each mechanical mode) and collecting terms order
by order in the probe turns the nonlinear mean-field equations into a
hierarchy of linear systems:

* order 1: a linear system in ``A1m``, ``conj(A1p)`` and the mechanical
  pairs, driven by the probe amplitude.  Each mechanical sideband is a
  tridiagonal chain that sees the cavity through one scalar, so one
  Thomas sweep per chain eliminates the mechanics (``O(n)`` per
  frequency), leaving a 2x2 cavity solve and a back-substitution;
* order 2: the same operator evaluated at ``2*Omega``, driven by
  quadratic combinations of the first-order amplitudes, on the cavity and
  on the mechanics.

Both orders go through the same solve, so both hold for any number of
modes and return the same :class:`SidebandAmplitudes` layout.

Two observables summarise the response:

* probe transmission ``t_p = 1 - (kappa/eps_p) * A1m`` -- its squared
  modulus is the OMIT spectrum;
* second-order sideband efficiency ``|kappa * A2m / eps_p|`` -- the
  amplitude of the frequency-doubled output relative to the probe.

For the two-mode system the linear hierarchy also admits closed-form
solutions built from a small set of polynomial coefficients; these are
implemented here as an independent route and cross-checked against the
chain-elimination solves (the ``route_discrepancy`` column of a spectrum).
Both routes are exact to rounding; a disagreement indicates a bug, not an
approximation error.

Group delay is the slope of the transmission phase, ``tau = d(arg t_p) /
d(Omega)``: a five-point central stencil on the unwrapped phase, derived
like ``|t_p|^2`` from the ``t_p`` a :class:`Spectrum` stores.
:func:`group_delay` reads one point of that column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import (
    DegeneratePointError,
    InvalidParameterError,
    SingularSystemError,
    UnsupportedTopologyError,
)
from .model import (
    SteadyState,
    SystemConfig,
    probe_amplitude,
    pump_amplitude,
    solve_steady_state,
)

__all__ = [
    "SidebandAmplitudes",
    "Spectrum",
    "GroupDelayEstimate",
    "solve_first_order",
    "solve_second_order",
    "first_order_closed_form",
    "second_order_closed_form",
    "transmission",
    "second_order_efficiency",
    "compute_spectrum",
    "group_delay",
]

_TINY = 1e-300


# ---------------------------------------------------------------------------
# Containers


@dataclass(frozen=True)
class SidebandAmplitudes:
    """Sideband amplitudes of one order of the hierarchy.

    ``a_minus`` is the lower cavity sideband (at ``omega_L - n*Omega`` for
    order ``n``; the probe frequency at first order), ``a_plus_conj`` the
    conjugated upper sideband; ``b_minus`` and ``b_plus_conj`` hold the
    mechanical pairs, one column per mode.  Scalar frequency input gives
    complex scalars / 1-D mode arrays, a grid gives arrays with the
    leading grid axis.
    """

    a_minus: complex | np.ndarray
    a_plus_conj: complex | np.ndarray
    b_minus: np.ndarray
    b_plus_conj: np.ndarray


@dataclass(frozen=True)
class GroupDelayEstimate:
    """Group delay at one grid point.

    ``delay`` in seconds (positive = slow light), ``omega`` the detuning it
    was evaluated at, ``step`` the grid step used by the stencil.
    """

    delay: float
    omega: float
    index: int
    step: float


@dataclass(frozen=True)
class Spectrum:
    """Sideband response sampled on a detuning grid.

    The fields below hold what the solve produced; ``transmission``,
    ``phase`` and ``group_delay`` are properties computed from ``amplitude``
    and ``omega`` on each access, never stored, so they follow the amplitude.

    Attributes
    ----------
    omega : numpy.ndarray
        Probe-pump detuning grid (rad/s).
    amplitude : numpy.ndarray
        Complex probe transmission amplitude ``t_p``.
    efficiency_percent : numpy.ndarray
        Second-order sideband efficiency in percent; NaN when the second
        order was switched off (``include_second_order=False``).
    route_discrepancy : numpy.ndarray
        Pointwise relative disagreement between the chain-elimination
        solve and the closed-form route; NaN when no closed form exists for the layout.
    metadata : dict
        Steady-state numbers and solver facts for the run.
    """

    omega: np.ndarray
    amplitude: np.ndarray
    efficiency_percent: np.ndarray
    route_discrepancy: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def transmission(self) -> np.ndarray:
        """``|t_p|^2``."""
        return np.abs(self.amplitude) ** 2

    @property
    def phase(self) -> np.ndarray:
        """Unwrapped ``arg(t_p)`` (rad)."""
        return np.unwrap(np.angle(self.amplitude))

    @property
    def group_delay(self) -> np.ndarray:
        """``d(phase)/d(omega)`` (s) by the five-point stencil; NaN on the two
        points at each edge, and everywhere on a non-uniform grid."""
        w = self.omega
        delay = np.full(len(w), np.nan)
        h = _uniform_step(w) if len(w) >= 5 else None
        if h is not None:
            phase = self.phase
            delay[2:-2] = (8.0 * (phase[3:-1] - phase[1:-3])
                           - (phase[4:] - phase[:-4])) / (12.0 * h)
        return delay

    @property
    def omega_normalized(self) -> np.ndarray:
        """Grid in units of the reference mechanical frequency."""
        return self.omega / self.metadata["omega_ref"]

    def nearest_index(self, omega: float) -> int:
        """Index of the grid point closest to ``omega`` (rad/s)."""
        return int(np.argmin(np.abs(self.omega - float(omega))))


# ---------------------------------------------------------------------------
# Internal plain-array view


@dataclass(frozen=True)
class _View:
    kappa: float
    delta: float
    alpha: complex
    eps_p: float
    omega: np.ndarray
    gamma: np.ndarray
    g: np.ndarray
    eta: np.ndarray
    theta: np.ndarray


def _view(config: SystemConfig, steady: SteadyState) -> _View:
    omega, gamma, g = config.mode_arrays()
    eta, theta = config.coupling_arrays()
    return _View(
        kappa=config.cavity.kappa,
        delta=steady.delta_eff,
        alpha=complex(steady.alpha),
        eps_p=probe_amplitude(config),
        omega=omega, gamma=gamma, g=g, eta=eta, theta=theta,
    )


def _as_grid(omega: float | np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if arr.ndim != 1:
        raise InvalidParameterError("omega must be a scalar or 1-D array")
    if arr.size == 0:
        raise InvalidParameterError("omega grid is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("omega grid contains non-finite values")
    return arr, np.ndim(omega) == 0


def _spectrum_grid(omega: np.ndarray | None, span: tuple[float, float],
                   points: int, omega_ref: float) -> np.ndarray:
    """The checked detuning grid of :func:`compute_spectrum`.

    An explicit ``omega`` is copied; otherwise ``points`` samples cover
    ``span`` in units of ``omega_ref``.
    """
    if omega is not None:
        w, scalar = _as_grid(omega)
        if scalar:
            raise InvalidParameterError("omega grid must have >= 1 dimension")
        return w.copy()
    lo, hi = span
    if not (hi > lo and math.isfinite(hi - lo)):
        raise InvalidParameterError(
            f"span must be finite and increase, got {span}")
    try:
        count = int(points)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != points:
        raise InvalidParameterError(
            f"points must be a whole number, got {points!r}")
    if count < 2:
        raise InvalidParameterError("points must be >= 2")
    return np.linspace(lo * omega_ref, hi * omega_ref, count)


def _uniform_step(w: np.ndarray) -> float | None:
    """Step of an increasing uniform grid (``len(w) >= 2``), else None."""
    steps = np.diff(w)
    h = steps[0]
    # NaN anywhere makes the comparison False.
    if h > 0 and np.abs(steps - h).max() <= 1e-9 * h:
        return float(h)
    return None


def _relative_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), _TINY)
    return np.abs(a - b) / scale


# ---------------------------------------------------------------------------
# Response solve (any number of modes, any mechanical basis)


def _chain_solve(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray,
                 rhs: np.ndarray) -> None:
    """Thomas sweep for one tridiagonal chain per grid point, in place.

    ``diag`` is ``(N, K)``; the chains share the off-diagonals ``upper``
    and ``lower`` (length ``N - 1``); ``rhs`` is ``(N, K, R)`` and is
    overwritten with the solution; ``diag`` is left as it was.  Every
    chain is ``gamma*I + i*(Hermitian)``, so each pivot has a real part of
    at least ``min(gamma) > 0``: the sweep needs no pivoting and no
    singularity check.
    """
    x = rhs
    ratio = np.empty((len(upper),) + diag.shape[1:], dtype=complex)
    pivot = diag[0]
    x[0] /= pivot[:, None]
    for l in range(1, len(diag)):
        ratio[l - 1] = upper[l - 1] / pivot
        pivot = diag[l] - lower[l - 1] * ratio[l - 1]
        x[l] -= lower[l - 1] * x[l - 1]
        x[l] /= pivot[:, None]
    for l in range(len(diag) - 2, -1, -1):
        x[l] -= ratio[l][:, None] * x[l + 1]


def _sideband_response(kappa: float, delta: float, damping: np.ndarray,
                       frequencies: np.ndarray, hop: np.ndarray,
                       coupling: np.ndarray, phase: complex, w: np.ndarray,
                       order: int, cavity_rhs: tuple,
                       mech_drive: np.ndarray | None = None,
                       ) -> tuple[np.ndarray, ...]:
    """Solve one order of the sideband hierarchy at ``v = order * w``.

    The mechanics see the cavity only through ``X = conj(p) A- + p
    conj(A+)``, with ``p`` the pump phase, weighted by the coupling vector
    ``u`` (``g_l |alpha|`` on the sites, the complex ``c_k`` in the
    normal-mode star basis).  The mechanical sidebands obey the chains ::

        M- B- = -d - i u X,              M- = gamma + i(H - v)
        M+ conj(B+) = d + i conj(u) X,   M+ = gamma - i(conj(H) + v)

    where ``H`` is Hermitian tridiagonal (``frequencies`` on the diagonal,
    ``hop`` above it).  One Thomas sweep per chain gives the self-energy
    ``sigma = u^T M+^-1 conj(u) - u^H M-^-1 u``, which leaves a 2x2 cavity
    system per grid point; the mechanical amplitudes follow by
    back-substitution.  ``cavity_rhs`` drives ``(A-, conj(A+))`` and the
    ``(N, K)`` array ``mech_drive = d`` the two chains.  Only ``d`` is
    held: its negation is written straight into the first chain's block.

    Returns ``(A-, conj(A+), B-, conj(B+))``, the last two ``(K, N)``.

    Raises
    ------
    SingularSystemError
        The cavity determinant vanishes or the solution is not finite at
        some grid point.
    """
    v = order * w
    # One (N, K, R) block per chain, solved in place: column 0 answers the
    # cavity coupling, column 1 the mechanical drive.  The block layout is
    # part of the numbers: ``@`` contracts a strided operand with numpy's
    # own loop and a contiguous one with BLAS, which round differently, so
    # solving into (R, N, K) blocks would move the second order's last bits.
    shape = (len(frequencies), len(w), 1 if mech_drive is None else 2)
    sol_m = np.empty(shape, dtype=complex)
    sol_p = np.empty(shape, dtype=complex)
    sol_m[:, :, 0] = coupling[:, None]
    sol_p[:, :, 0] = np.conj(coupling)[:, None]
    if mech_drive is not None:
        np.negative(mech_drive, out=sol_m[:, :, 1])
        sol_p[:, :, 1] = mech_drive
    # Both chains share one diagonal buffer, gamma + i(omega - v) and then
    # gamma - i(omega + v), its imaginary part formed as 0 - (omega + v) so
    # that an exact zero comes out +0, as complex subtraction gives it.
    diag = np.empty(shape[:2], dtype=complex)
    diag.real = damping[:, None]
    d0 = kappa + 1j * (delta - v)
    d1 = kappa - 1j * (delta + v)
    # Overflow and a zero cavity determinant both end in non-finite
    # amplitudes, reported once below.
    with np.errstate(all="ignore"):
        np.subtract(frequencies[:, None], v, out=diag.imag)
        _chain_solve(diag, 1j * hop, 1j * np.conj(hop), sol_m)
        np.add(frequencies[:, None], v, out=diag.imag)
        np.subtract(0.0, diag.imag, out=diag.imag)
        _chain_solve(diag, -1j * np.conj(hop), -1j * hop, sol_p)
        del diag  # freed before the z copies below
        # y: response to the cavity coupling; z: to the mechanical drive,
        # copied contiguous so that ``@`` contracts it with BLAS (see the
        # block layout above).
        y_m, y_p = sol_m[:, :, 0], sol_p[:, :, 0]
        sigma = coupling @ y_p - np.conj(coupling) @ y_m
        f0, f1 = cavity_rhs
        if mech_drive is not None:
            z_m = np.ascontiguousarray(sol_m[:, :, 1])
            z_p = np.ascontiguousarray(sol_p[:, :, 1])
            s0 = np.conj(coupling) @ z_m + coupling @ z_p
            f0 = f0 - 1j * phase * s0
            f1 = f1 + 1j * np.conj(phase) * s0
        else:
            # No drive, no z and no s0; the scalar zero keeps the signed
            # zeros of 0 - t and 0 + t below.
            z_m = z_p = 0.0
        det = d0 * d1 + 2j * delta * sigma
        a_minus = (f0 * (d1 + sigma) + sigma * phase ** 2 * f1) / det
        a_plus_conj = ((d0 - sigma) * f1
                       - sigma * np.conj(phase) ** 2 * f0) / det
        x = np.conj(phase) * a_minus + phase * a_plus_conj
        # B- = z- - (i X) y- and conj(B+) = z+ + (i X) y+, formed over y.
        # The operand order (i X) * y matters: complex products do not
        # commute bit for bit, and ``y *= 1j * x`` rounds differently.
        b_minus = np.multiply(1j * x, y_m, out=y_m)
        np.subtract(z_m, b_minus, out=b_minus)
        b_plus_conj = np.multiply(1j * x, y_p, out=y_p)
        np.add(z_p, b_plus_conj, out=b_plus_conj)
        ok = (np.isfinite(a_minus) & np.isfinite(a_plus_conj)
              & np.isfinite(b_minus).all(axis=0)
              & np.isfinite(b_plus_conj).all(axis=0))
    if not ok.all():
        raise SingularSystemError(
            "sideband response matrix is singular near omega = "
            f"{w[np.argmin(ok)]:.6e} rad/s")
    return a_minus, a_plus_conj, b_minus.T, b_plus_conj.T


def _pump_phase(alpha: complex) -> complex:
    """Unit phase of the intracavity pump field; 1 with the pump off."""
    size = abs(alpha)
    return alpha / size if size > 0.0 else 1.0


def _site_response(view: _View, w: np.ndarray, order: int,
                   cavity_rhs: tuple,
                   mech_drive=None) -> tuple[np.ndarray, ...]:
    """:func:`_sideband_response` for the site-basis chain of ``view``."""
    return _sideband_response(
        view.kappa, view.delta, view.gamma, view.omega,
        view.eta * np.exp(1j * view.theta), view.g * abs(view.alpha),
        _pump_phase(view.alpha), w, order, cavity_rhs, mech_drive)


def _first_order_raw(view: _View, w: np.ndarray) -> tuple[np.ndarray, ...]:
    return _site_response(view, w, 1, (view.eps_p, 0.0))


def _second_order_raw(view: _View, w: np.ndarray,
                      x1: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    a1m, a1pc, b1m, b1pc = x1
    # Mechanical back-action sum S1 = sum_l g_l (B_l- + conj(B_l+)).
    s1 = (b1m + b1pc) @ view.g
    drive = 1j * np.outer(view.g, a1pc * a1m)
    return _site_response(view, w, 2, (-1j * a1m * s1, 1j * a1pc * s1),
                          drive)


def _amplitudes(parts: tuple[np.ndarray, ...],
                scalar: bool) -> SidebandAmplitudes:
    if not scalar:
        return SidebandAmplitudes(*parts)
    a_minus, a_plus_conj, b_minus, b_plus_conj = parts
    return SidebandAmplitudes(complex(a_minus[0]), complex(a_plus_conj[0]),
                              b_minus[0].copy(), b_plus_conj[0].copy())


def solve_first_order(config: SystemConfig, steady: SteadyState,
                      omega: float | np.ndarray) -> SidebandAmplitudes:
    """Solve the first-order sideband system directly (any mode count).

    Parameters
    ----------
    config : SystemConfig
    steady : SteadyState
        Operating point (from :func:`omit_lab.model.solve_steady_state`).
    omega : float or array
        Probe-pump detuning(s), rad/s.

    Returns
    -------
    SidebandAmplitudes
    """
    w, scalar = _as_grid(omega)
    return _amplitudes(_first_order_raw(_view(config, steady), w), scalar)


def solve_second_order(config: SystemConfig, steady: SteadyState,
                       omega: float | np.ndarray,
                       first: SidebandAmplitudes | None = None,
                       ) -> SidebandAmplitudes:
    """Solve the second-order sideband system (any mode count).

    The second-order system is driven by products of first-order
    amplitudes; pass ``first`` (computed on the same grid) to reuse it,
    otherwise it is solved internally.
    """
    w, scalar = _as_grid(omega)
    view = _view(config, steady)
    if first is None:
        x1 = _first_order_raw(view, w)
    else:
        x1 = (*np.atleast_1d(first.a_minus, first.a_plus_conj),
              *np.atleast_2d(first.b_minus, first.b_plus_conj))
        if len(x1[0]) != len(w):
            raise InvalidParameterError(
                "first-order amplitudes were computed on a different grid")
    return _amplitudes(_second_order_raw(view, w, x1), scalar)


# ---------------------------------------------------------------------------
# Closed-form route (two modes)


def _require_two_modes(config: SystemConfig, what: str) -> None:
    if config.n_modes != 2:
        raise UnsupportedTopologyError(
            f"{what} exists for the two-mode layout only, "
            f"got {config.n_modes} modes")


def _t_polys(omega_m: np.ndarray, gamma: np.ndarray, eta: float,
             w: float | np.ndarray) -> tuple:
    """T1, T2, T3_1, T3_2 of the mechanical pair at ``w``."""
    o1, o2 = omega_m
    g1v, g2v = gamma
    t1 = -o1 * o2 + eta ** 2 + (g1v - 1j * w) * (g2v - 1j * w)
    t2 = ((eta ** 2 + (-1j * g1v + o1 - w) * (1j * g2v - o2 + w))
          * (eta ** 2 + (g1v - 1j * (o1 + w)) * (g2v - 1j * (o2 + w))))
    t3_1 = (g1v ** 2 + o1 ** 2 - w ** 2 - 2j * g1v * w) * o2 - o1 * eta ** 2
    t3_2 = (g2v ** 2 + o2 ** 2 - w ** 2 - 2j * g2v * w) * o1 - o2 * eta ** 2
    return t1, t2, t3_1, t3_2


def _closed_terms(view: _View, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """T2 and the mechanical and loop sums the T-polynomials feed at ``w``."""
    eta, theta = view.eta[0], view.theta[0]
    t1, t2, t3_1, t3_2 = _t_polys(view.omega, view.gamma, eta, w)
    gg1, gg2 = view.g
    mech = gg2 ** 2 * t3_1 + gg1 ** 2 * t3_2
    loop = gg1 * gg2 * eta * t1 * math.cos(theta)
    return t2, mech, loop


def _v_factors(view: _View, w: float | np.ndarray) -> tuple:
    """V1, V2, V3 of the closed-form mechanical amplitudes at ``w``."""
    o1, o2 = view.omega
    g1v, g2v = view.gamma
    eta = view.eta[0]
    cav = view.kappa - 1j * (view.delta + w)
    v1 = (-eta ** 2 + (1j * g1v + o1 + w) * (1j * g2v + o2 + w)) * cav ** 2
    v2 = (eta ** 2 + (-1j * g1v + o1 - w) * (1j * g2v - o2 + w)) * cav ** 2
    v3 = (-eta ** 2 + (1j * g1v - o1 + w) * (1j * g2v - o2 + w)) * cav
    return v1, v2, v3


def _closed_first_arrays(view: _View, w: np.ndarray
                         ) -> tuple[np.ndarray, ...]:
    """Closed-form first-order amplitudes on a grid (two modes).

    Returns (A1m, conj(A1p), B1m, B2m, conj(B1p), conj(B2p)).
    """
    o1, o2 = view.omega
    g1v, g2v = view.gamma
    gg1, gg2 = view.g
    eta, theta = view.eta[0], view.theta[0]
    kap, delta, eps_p = view.kappa, view.delta, view.eps_p
    asq = abs(view.alpha) ** 2
    ac = np.conj(view.alpha)

    t2, mech, loop = _closed_terms(view, w)
    denom = (-t2 * (delta ** 2 + (kap - 1j * w) ** 2)
             + 4.0 * asq * delta * mech + 8.0 * loop * asq * delta)
    a1m = (t2 * (-kap + 1j * (delta + w)) - 2j * asq * mech
           - 4j * loop * asq) / denom * eps_p
    shared = (1j * kap + delta + w) * denom
    a1pc = (-2.0 * ac ** 2 * (kap - 1j * (delta + w))
            * (2.0 * loop + mech)) / shared * eps_p

    v1, v2, v3 = _v_factors(view, w)
    b1m = (gg1 * ac * v1 * (g2v + 1j * (o2 - w))
           - 1j * gg2 * ac * v1 * eta * np.exp(1j * theta)) / shared * eps_p
    b2m = (gg2 * ac * v1 * (g1v + 1j * (o1 - w))
           - 1j * gg1 * ac * v1 * eta * np.exp(-1j * theta)) / shared * eps_p
    b1pc = (-1j * v2 * (gg1 * ac * (1j * g2v + o2 + w)
                        - gg2 * ac * eta * np.exp(-1j * theta))) / shared * eps_p
    # Note the +denom here: the naive sign on this lone amplitude is
    # inconsistent with the governing linear system (it flips the sign of
    # conj(B2+)); the matrix solve fixes the convention.
    b2pc = (-np.exp(1j * theta) * gg1 * ac * eta * v3
            + gg2 * ac * v3 * (1j * g1v + o1 + w)) / denom * eps_p
    return a1m, a1pc, b1m, b2m, b1pc, b2pc


def first_order_closed_form(config: SystemConfig, steady: SteadyState,
                            omega: float | np.ndarray
                            ) -> SidebandAmplitudes:
    """Closed-form first-order amplitudes for the two-mode system.

    Algebraically identical to :func:`solve_first_order`; kept as an
    independent route so the two can be cross-checked to rounding error.
    """
    _require_two_modes(config, "the closed-form first-order solution")
    w, scalar = _as_grid(omega)
    a1m, a1pc, b1m, b2m, b1pc, b2pc = _closed_first_arrays(
        _view(config, steady), w)
    return _amplitudes((a1m, a1pc, np.stack([b1m, b2m], axis=-1),
                        np.stack([b1pc, b2pc], axis=-1)), scalar)


def _chi_pair(view: _View, w: np.ndarray, fo: tuple[np.ndarray, ...]
              ) -> tuple[np.ndarray, ...]:
    """chi1, chi2 at the doubled detuning, and the back-action sum S1.

    ``fo`` is the closed-form first order at ``w``.
    """
    kap, delta, alpha = view.kappa, view.delta, view.alpha
    asq = abs(alpha) ** 2
    gg1, gg2 = view.g
    a1m, _, b1m, b2m, b1pc, b2pc = fo
    w2 = 2.0 * w
    t2, mech, loop = _closed_terms(view, w2)
    s_comb = gg1 * (b1m + b1pc) + gg2 * (b2m + b2pc)
    chi1 = (2j * alpha * (alpha * s_comb - a1m * (1j * kap + delta + w2))
            * (2.0 * loop + mech)
            / ((1j * kap + delta + w2) * t2 - 2.0 * asq * mech
               - 4.0 * loop * asq))
    chi2 = 1.0 / (1.0 / (kap - 1j * (delta + w2))
                  - 1j * t2 / (2.0 * asq * (mech + 2.0 * loop)))
    return chi1, chi2, s_comb


def _closed_second_arrays(view: _View, w: np.ndarray,
                          fo: tuple[np.ndarray, ...]) -> np.ndarray:
    """Closed-form second-order cavity amplitude A2m on a grid."""
    chi1, chi2, s_comb = _chi_pair(view, w, fo)
    return ((chi1 * fo[1] + 1j * s_comb * fo[0])
            / (chi2 - (view.kappa + 1j * (view.delta - 2.0 * w))))


def second_order_closed_form(config: SystemConfig, steady: SteadyState,
                             omega: float | np.ndarray
                             ) -> complex | np.ndarray:
    """Closed-form second-order cavity amplitude for the two-mode system.

    Uses the closed first-order route internally; cross-check against
    :func:`solve_second_order`.
    """
    _require_two_modes(config, "the closed-form second-order solution")
    w, scalar = _as_grid(omega)
    view = _view(config, steady)
    a2m = _closed_second_arrays(view, w, _closed_first_arrays(view, w))
    return complex(a2m[0]) if scalar else a2m


# ---------------------------------------------------------------------------
# Observables


def transmission(a_minus: complex | np.ndarray, eps_p: float,
                 kappa: float) -> tuple[complex | np.ndarray,
                                        float | np.ndarray]:
    """Probe transmission from the lower cavity sideband amplitude.

    ``t_p = 1 - (kappa / eps_p) * A1m``; returns ``(t_p, |t_p|^2)``.
    """
    if eps_p <= 0.0:
        raise InvalidParameterError("eps_p must be > 0 to define transmission")
    t_p = 1.0 - (kappa / eps_p) * np.asarray(a_minus)
    power = np.abs(t_p) ** 2
    if np.ndim(a_minus) == 0:
        return complex(t_p), float(power)
    return t_p, power


def second_order_efficiency(a2_minus: complex | np.ndarray, eps_p: float,
                            kappa: float) -> float | np.ndarray:
    """Second-order sideband efficiency ``|kappa * A2m / eps_p|``.

    Returned as a fraction of the probe amplitude (multiply by 100 for the
    percentage used in plots and CSV output).
    """
    if eps_p <= 0.0:
        raise InvalidParameterError("eps_p must be > 0 to define efficiency")
    eff = np.abs(kappa * np.asarray(a2_minus) / eps_p)
    return float(eff) if np.ndim(a2_minus) == 0 else eff


def _check_second_order_flag(value) -> None:
    if not isinstance(value, bool):
        raise InvalidParameterError(
            f"include_second_order must be True or False, got {value!r}")


def compute_spectrum(config: SystemConfig,
                     omega: np.ndarray | None = None, *,
                     span: tuple[float, float] = (0.8, 1.2),
                     points: int = 4001,
                     include_second_order: bool = True,
                     steady: SteadyState | None = None) -> Spectrum:
    """Full sideband spectrum of a configuration.

    Solves the steady state, then the first- and second-order sideband
    systems on a detuning grid, and assembles the transmission amplitude
    and efficiency, together with the closed-form cross-check for the
    two-mode layout.

    Parameters
    ----------
    config : SystemConfig
    omega : array, optional
        Explicit detuning grid (rad/s).  When omitted, a uniform grid of
        ``points`` samples spanning ``span`` (in units of the reference
        mechanical frequency) is used.
    span, points
        Default grid construction; ignored when ``omega`` is given.
    include_second_order : bool
        ``False`` skips the second order, leaving ``efficiency_percent``
        NaN and the route check to the first order.  Anything but a
        ``bool`` is refused.
    steady : SteadyState, optional
        Reuse a precomputed operating point.

    Returns
    -------
    Spectrum
    """
    _check_second_order_flag(include_second_order)
    w = _spectrum_grid(omega, span, points, config.omega_ref)

    if steady is None:
        steady = solve_steady_state(config)
    view = _view(config, steady)
    if view.eps_p <= 0.0:
        raise InvalidParameterError(
            "probe amplitude must be > 0 to compute a spectrum")

    x1 = _first_order_raw(view, w)
    t_p, _ = transmission(x1[0], view.eps_p, view.kappa)

    discrepancy = np.full(len(w), np.nan)
    efficiency = np.full(len(w), np.nan)
    if config.n_modes == 2:
        fo_closed = _closed_first_arrays(view, w)
        discrepancy = _relative_gap(x1[0], fo_closed[0])
    if include_second_order:
        x2 = _second_order_raw(view, w, x1)
        efficiency = 100.0 * second_order_efficiency(
            x2[0], view.eps_p, view.kappa)
        if config.n_modes == 2:
            a2_closed = _closed_second_arrays(view, w, fo_closed)
            discrepancy = np.maximum(
                discrepancy, _relative_gap(x2[0], a2_closed))

    metadata: dict[str, Any] = {
        "n_modes": config.n_modes,
        "omega_ref": config.omega_ref,
        "kappa": config.cavity.kappa,
        "delta_c": config.cavity.delta_c,
        "delta_eff": steady.delta_eff,
        "alpha_re": steady.alpha.real,
        "alpha_im": steady.alpha.imag,
        "photon_number": steady.photon_number,
        "eps_pump": pump_amplitude(config),
        "eps_probe": view.eps_p,
        "steady_converged": steady.converged,
        "steady_iterations": steady.iterations,
        "steady_residual": steady.residual,
        "multistable": steady.multistable,
        "second_order": include_second_order,
        "grid_points": len(w),
        "grid_start": float(w[0]),
        "grid_stop": float(w[-1]),
        "route_discrepancy_max": (float(np.nanmax(discrepancy))
                                  if np.any(np.isfinite(discrepancy))
                                  else float("nan")),
    }
    return Spectrum(
        omega=w,
        amplitude=t_p,
        efficiency_percent=efficiency,
        route_discrepancy=discrepancy,
        metadata=metadata,
    )


def group_delay(spectrum: Spectrum, at: float) -> GroupDelayEstimate:
    """Group delay ``d(arg t_p)/d(omega)`` at the grid point nearest ``at``.

    Reads the spectrum's ``group_delay`` column, the five-point central
    stencil on the unwrapped phase, after checking that the target sits at
    least five grid points away from either edge of a uniform grid.

    Raises
    ------
    InvalidParameterError
        Non-uniform grid, or target too close to the grid edge.
    DegeneratePointError
        ``|t_p|`` vanishes at the target, making the phase undefined.
    """
    w = spectrum.omega
    k = len(w)
    idx = spectrum.nearest_index(at)
    if idx < 5 or idx > k - 6:
        raise InvalidParameterError(
            f"target {at:.6e} rad/s sits {min(idx, k - 1 - idx)} points from "
            "the grid edge; at least 5 are required")
    h = _uniform_step(w)
    if h is None:
        raise InvalidParameterError("group delay requires a uniform grid")
    scale = float(np.max(np.abs(spectrum.amplitude)))
    if abs(spectrum.amplitude[idx]) < 1e-12 * max(scale, 1.0):
        raise DegeneratePointError(
            f"transmission amplitude vanishes at omega = {w[idx]:.6e} rad/s; "
            "phase slope is undefined there")
    return GroupDelayEstimate(delay=float(spectrum.group_delay[idx]),
                              omega=float(w[idx]), index=idx, step=h)
