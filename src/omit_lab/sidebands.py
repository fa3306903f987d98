"""Probe response: first- and second-order sideband amplitudes.

With a strong pump at ``omega_L`` and a weak probe at ``omega_p = omega_L +
Omega``, every field develops sidebands at ``omega_L +/- n*Omega``.  Writing
``a = alpha + A1m e^{-i Omega t} + A1p e^{+i Omega t} + A2m e^{-2i Omega t}
+ ...`` (and similarly for each mechanical mode) and collecting terms order
by order in the probe turns the nonlinear mean-field equations into a
hierarchy of linear systems:

* order 1: a linear system in ``A1m``, ``conj(A1p)`` and the mechanical
  pairs, driven by the probe amplitude.  Each mechanical sideband is a
  tridiagonal chain that sees the cavity through one scalar, and the
  upper sideband's chain is the lower one's at ``-Omega``, conjugated, so
  one Thomas sweep over the detunings ``(Omega, -Omega)`` eliminates the
  mechanics (``O(n)`` per frequency), leaving a 2x2 cavity solve; a
  chain without hopping (the normal-mode basis, ``eta = 0`` on every
  link, one mode) is diagonal and takes a division per site instead of
  the sweep.  The mechanical amplitudes follow by back-substitution,
  formed only for callers that read them;
* order 2: the same operator evaluated at ``2*Omega``, driven on the
  cavity and on the mechanics by products of the first order's cavity
  amplitudes, whose ``conj(A1p)`` row fixes the mechanical back-action
  sum.  The mechanical drive ``i g conj(A1p) A1m`` is parallel to the
  coupling column ``g |alpha|``, so it folds into the cavity drive and the
  back-substitution as one weight per frequency, and the second order
  solves the same single column as the first.

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
approximation error.  Each polynomial is written once: the paper's ``T2 =
p q`` factors into the determinants ``p`` and ``q`` of the two mechanical
chains, and with ``cav = kappa - i(Delta + Omega)`` its V-factors are
``V1 = -q cav**2``, ``V2 = p cav**2`` and ``V3 = -p cav``.

Group delay is the slope of the transmission phase, ``tau = d(arg t_p) /
d(Omega)``: a five-point central stencil on the unwrapped phase, derived
like ``|t_p|^2`` from the ``t_p`` a :class:`Spectrum` stores.
:func:`group_delay` returns one point of that column as a number.
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
    _require_positive,
    probe_amplitude,
    pump_amplitude,
    solve_steady_state,
)

__all__ = [
    "SidebandAmplitudes",
    "Spectrum",
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


def _chain_solve(damping: np.ndarray, frequencies: np.ndarray, v: np.ndarray,
                 upper: np.ndarray, lower: np.ndarray, x: np.ndarray) -> None:
    """Solve ``(gamma + i(H - v)) z = x`` at each detuning ``v``, in place.

    ``x`` is ``(N, K)``, ``v`` is ``(K,)``; ``H`` has ``frequencies`` on
    its diagonal, ``upper`` above and ``lower`` below it.  One Thomas
    sweep forms each site's diagonal row when it reaches that site.  Each
    pivot of ``gamma*I + i*(Hermitian)`` has a real part of at least
    ``min(gamma) > 0``, so the sweep needs no pivoting and no singularity
    check.  Without hops (the star basis, ``eta = 0`` on every link, one
    mode) the pivots are the diagonal rows and the updates would subtract
    zeros, so they are skipped and each row of ``x`` is only divided: the
    same bits, up to the sign of an exact zero.
    """
    hops = upper.any() or lower.any()
    pivot = np.empty(x.shape[1:], dtype=complex)
    if hops:
        ratio = np.empty((len(upper),) + x.shape[1:], dtype=complex)
    for l in range(len(x)):
        pivot.real = damping[l]
        np.subtract(frequencies[l], v, out=pivot.imag)
        if hops and l > 0:
            pivot -= lower[l - 1] * ratio[l - 1]
            x[l] -= lower[l - 1] * x[l - 1]
        x[l] /= pivot
        if hops and l < len(upper):
            np.divide(upper[l], pivot, out=ratio[l])
    if hops:
        for l in range(len(x) - 2, -1, -1):
            x[l] -= ratio[l] * x[l + 1]


def _sideband_response(kappa: float, delta: float, damping: np.ndarray,
                       frequencies: np.ndarray, hop: np.ndarray,
                       coupling: np.ndarray, phase: complex, w: np.ndarray,
                       order: int, cavity_rhs: tuple,
                       m: np.ndarray | None = None,
                       ) -> tuple[np.ndarray, ...]:
    """Solve one order of the sideband hierarchy at ``v = order * w``.

    The mechanics see the cavity only through ``X = conj(p) A- + p
    conj(A+)``, with ``p`` the pump phase, weighted by the coupling vector
    ``u`` (``g_l |alpha|`` on the sites, the complex ``c_k`` in the
    normal-mode star basis).  A mechanical drive ``d = i m u`` parallel to
    ``u``, with one weight ``m`` per grid point, enters as a shift of
    ``X``.  The mechanical sidebands obey the chains ::

        M- B- = -i u (X + m),              M-(v) = gamma + i(H - v)
        M+ conj(B+) = i conj(u) (X + m),   M+(v) = gamma - i(conj(H) + v)

    where ``H`` is Hermitian tridiagonal (``frequencies`` on the diagonal,
    ``hop`` above it).  As ``conj(M+(v)) = M-(-v)``, one
    :func:`_chain_solve` of ``M-`` over the detunings ``(v, -v)``, with
    ``u`` in every column, holds ``y- = M-^-1 u`` in its first half and
    ``conj(y+)``, ``y+ = M+^-1 conj(u)``, in its second.  ``sigma = u^T y+
    - u^H y-`` is two products, one per half: one product over both
    halves sums in another order and moves the last bits.  That leaves a
    2x2 cavity system per grid point.  ``cavity_rhs`` drives ``(A-,
    conj(A+))``; the optional ``(K,)`` weight ``m`` adds ``(p m sigma,
    -conj(p) m sigma)`` to it.

    Returns ``(A-, conj(A+), chains)``.  The mechanical amplitudes are not
    formed here: a caller that reads them passes the whole triple to
    :func:`_with_mechanics`, which back-substitutes into ``chains``.

    Raises
    ------
    SingularSystemError
        The cavity determinant vanishes or the cavity amplitudes are not
        finite at some grid point.
    """
    v = order * w
    k = len(w)
    y = np.empty((len(frequencies), 2 * k), dtype=complex)
    y[...] = coupling[:, None]
    uc = np.conj(coupling)
    d0 = kappa + 1j * (delta - v)
    d1 = kappa - 1j * (delta + v)
    # Overflow and a zero cavity determinant both end in non-finite
    # amplitudes, reported once below.
    with np.errstate(all="ignore"):
        _chain_solve(damping, frequencies, np.concatenate((v, -v)),
                     1j * hop, 1j * np.conj(hop), y)
        sigma = np.conj(uc @ y[:, k:]) - uc @ y[:, :k]
        f0, f1 = cavity_rhs
        if m is not None:
            m_sigma = m * sigma
            f0 = f0 + phase * m_sigma
            f1 = f1 - np.conj(phase) * m_sigma
        det = d0 * d1 + 2j * delta * sigma
        a_minus = (f0 * (d1 + sigma) + sigma * phase ** 2 * f1) / det
        a_plus_conj = ((d0 - sigma) * f1
                       - sigma * np.conj(phase) ** 2 * f0) / det
        x = np.conj(phase) * a_minus + phase * a_plus_conj
        # Without a drive X stays as it is: adding a zero m would turn the
        # signed zeros of the first order's mechanics.
        ix = 1j * (x if m is None else x + m)
        _require_finite(np.isfinite(a_minus) & np.isfinite(a_plus_conj), w)
    return a_minus, a_plus_conj, (w, ix, y)


def _with_mechanics(response: tuple) -> tuple[np.ndarray, ...]:
    """``(A-, conj(A+), B-, conj(B+))`` from a :func:`_sideband_response`
    triple, the last two ``(K, N)``; overwrites its chain solutions.

    Raises SingularSystemError where a mechanical amplitude is not finite.
    """
    a_minus, a_plus_conj, (w, ix, y) = response
    k = len(w)
    y_m, y_p = y[:, :k], y[:, k:]
    # B- = 0 - (i (X + m)) y- and conj(B+) = 0 + (i (X + m)) y+, formed
    # over y once its second half, conj(y+), is conjugated.  The zero terms
    # keep the signs of exact zeros, and the operand order (i X) * y
    # matters: complex products do not commute bit for bit, and ``y *=
    # ix`` rounds differently.
    with np.errstate(all="ignore"):
        np.conj(y_p, out=y_p)
        b_minus = np.multiply(ix, y_m, out=y_m)
        np.subtract(0.0, b_minus, out=b_minus)
        b_plus_conj = np.multiply(ix, y_p, out=y_p)
        np.add(0.0, b_plus_conj, out=b_plus_conj)
    ok = np.isfinite(y).all(axis=0)
    _require_finite(ok[:k] & ok[k:], w)
    return a_minus, a_plus_conj, b_minus.T, b_plus_conj.T


def _require_finite(ok: np.ndarray, w: np.ndarray) -> None:
    if not ok.all():
        raise SingularSystemError(
            "sideband response matrix is singular near omega = "
            f"{w[np.argmin(ok)]:.6e} rad/s")


def _pump_phase(alpha: complex) -> complex:
    """Unit phase of the intracavity pump field; 1 with the pump off."""
    size = abs(alpha)
    return alpha / size if size > 0.0 else 1.0


def _site_response(view: _View, w: np.ndarray, order: int,
                   cavity_rhs: tuple, m=None) -> tuple:
    """:func:`_sideband_response` for the site-basis chain of ``view``."""
    return _sideband_response(
        view.kappa, view.delta, view.gamma, view.omega,
        view.eta * np.exp(1j * view.theta), view.g * abs(view.alpha),
        _pump_phase(view.alpha), w, order, cavity_rhs, m)


def _first_order_raw(view: _View, w: np.ndarray) -> tuple:
    return _site_response(view, w, 1, (view.eps_p, 0.0))


def _second_order_raw(view: _View, w: np.ndarray, a1m: np.ndarray,
                      a1pc: np.ndarray) -> tuple:
    """Second-order :func:`_sideband_response` from A1- and conj(A1+)."""
    # The first order's conj(A+) row, (kappa - i(Delta + w)) conj(A1+) =
    # i conj(alpha) S1, gives S1 = sum_l g_l (B_l- + conj(B_l+)); the drive
    # i g conj(A1+) A1- is i m u with u = g |alpha|.  With the pump off
    # u = 0 and A1+ = 0, so S1 and m are 0 rather than 0/0.
    s1 = m = np.zeros_like(a1m)
    if view.alpha != 0.0:
        s1 = (-1j * (view.kappa - 1j * (view.delta + w)) * a1pc
              / np.conj(view.alpha))
        m = a1pc * a1m / abs(view.alpha)
    return _site_response(view, w, 2, (-1j * a1m * s1, 1j * a1pc * s1), m)


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
    return _amplitudes(
        _with_mechanics(_first_order_raw(_view(config, steady), w)), scalar)


def solve_second_order(config: SystemConfig, steady: SteadyState,
                       omega: float | np.ndarray,
                       first: SidebandAmplitudes) -> SidebandAmplitudes:
    """Solve the second-order sideband system (any mode count).

    It is driven by products of first-order amplitudes and reads only the
    cavity pair ``first.a_minus``, ``first.a_plus_conj`` on the same grid.
    """
    w, scalar = _as_grid(omega)
    a1m, a1pc = np.atleast_1d(first.a_minus, first.a_plus_conj)
    if len(a1m) != len(w):
        raise InvalidParameterError(
            "first-order amplitudes were computed on a different grid")
    return _amplitudes(_with_mechanics(
        _second_order_raw(_view(config, steady), w, a1m, a1pc)), scalar)


# ---------------------------------------------------------------------------
# Closed-form route (two modes)


def _require_two_modes(config: SystemConfig, what: str) -> None:
    if config.n_modes != 2:
        raise UnsupportedTopologyError(
            f"{what} exists for the two-mode layout only, "
            f"got {config.n_modes} modes")


def _closed_polys(view: _View, w: float | np.ndarray) -> tuple:
    """The polynomials ``p``, ``q`` and ``s`` of the mechanical pair at ``w``.

    ``p = det(gamma + i(H - w))`` and ``q = det(gamma - i(conj(H) + w))``
    are the determinants of the two mechanical chains and the two factors
    of the paper's ``T2 = p q``; they carry its V-factors too: with ``cav =
    kappa - i(Delta + w)``, ``V1 = -q cav**2``, ``V2 = p cav**2`` and ``V3
    = -p cav``.  ``s = g2**2 T3_1 + g1**2 T3_2 + 2 g1 g2 eta T1 cos(theta)``
    is the loop-coupled numerator.
    """
    o1, o2 = view.omega
    g1v, g2v = view.gamma
    gg1, gg2 = view.g
    eta, theta = view.eta[0], view.theta[0]
    p = eta ** 2 + (-1j * g1v + o1 - w) * (1j * g2v - o2 + w)
    q = eta ** 2 + (g1v - 1j * (o1 + w)) * (g2v - 1j * (o2 + w))
    t1 = -o1 * o2 + eta ** 2 + (g1v - 1j * w) * (g2v - 1j * w)
    t3_1 = (g1v ** 2 + o1 ** 2 - w ** 2 - 2j * g1v * w) * o2 - o1 * eta ** 2
    t3_2 = (g2v ** 2 + o2 ** 2 - w ** 2 - 2j * g2v * w) * o1 - o2 * eta ** 2
    s = (gg2 ** 2 * t3_1 + gg1 ** 2 * t3_2
         + 2.0 * gg1 * gg2 * eta * t1 * math.cos(theta))
    return p, q, s


def _closed_first_arrays(view: _View, w: np.ndarray
                         ) -> tuple[np.ndarray, ...]:
    """Closed-form first-order amplitudes on a grid (two modes).

    Returns (A1m, conj(A1p), B1m, B2m, conj(B1p), conj(B2p)).
    """
    o1, o2 = view.omega
    g1v, g2v = view.gamma
    gg1, gg2 = view.g
    hop = view.eta[0] * np.exp(1j * view.theta[0])
    kap, delta, eps_p = view.kappa, view.delta, view.eps_p
    asq = abs(view.alpha) ** 2
    ac = np.conj(view.alpha)

    p, q, s = _closed_polys(view, w)
    t2 = p * q
    cav = kap - 1j * (delta + w)
    denom = -t2 * (delta ** 2 + (kap - 1j * w) ** 2) + 4.0 * asq * delta * s
    a1m = -(t2 * cav + 2j * asq * s) / denom * eps_p
    a1pc = 2j * ac ** 2 * s / denom * eps_p
    k = ac * cav * eps_p / denom
    b1m = 1j * q * k * (gg1 * (g2v + 1j * (o2 - w)) - 1j * gg2 * hop)
    b2m = 1j * q * k * (gg2 * (g1v + 1j * (o1 - w)) - 1j * gg1 * np.conj(hop))
    b1pc = -p * k * (gg1 * (1j * g2v + o2 + w) - gg2 * np.conj(hop))
    b2pc = -p * k * (gg2 * (1j * g1v + o1 + w) - gg1 * hop)
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


def _closed_second_arrays(view: _View, w: np.ndarray,
                          fo: tuple[np.ndarray, ...]) -> np.ndarray:
    """Closed-form second-order cavity amplitude A2m on a grid.

    ``fo`` is the closed-form first order at ``w``; the response is the
    first order's, with its polynomials evaluated at ``2 w``.
    """
    kap, delta, alpha = view.kappa, view.delta, view.alpha
    asq = abs(alpha) ** 2
    gg1, gg2 = view.g
    a1m, a1pc, b1m, b2m, b1pc, b2pc = fo
    p, q, s = _closed_polys(view, 2.0 * w)
    cav = kap - 1j * (delta + 2.0 * w)
    # Back-action sum S1 = sum_l g_l (B_l- + conj(B_l+)).
    s1 = gg1 * (b1m + b1pc) + gg2 * (b2m + b2pc)
    # chi1 and chi2 over their shared denominator, which stays nonzero
    # with the pump off.
    shared = 2.0 * asq * s - 1j * cav * p * q
    chi1 = -2j * alpha * (alpha * s1 - 1j * cav * a1m) * s / shared
    chi2 = 2.0 * asq * s * cav / shared
    return ((chi1 * a1pc + 1j * s1 * a1m)
            / (chi2 - (kap + 1j * (delta - 2.0 * w))))


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
    _require_positive("eps_p", eps_p)
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
    _require_positive("eps_p", eps_p)
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

    # The spectrum reads A1- and A2-, and the second order reads only the
    # first order's cavity amplitudes, so no mechanics are formed.
    a1m, a1pc = _first_order_raw(view, w)[:2]
    t_p, _ = transmission(a1m, view.eps_p, view.kappa)

    discrepancy = np.full(len(w), np.nan)
    efficiency = np.full(len(w), np.nan)
    if config.n_modes == 2:
        fo_closed = _closed_first_arrays(view, w)
        discrepancy = _relative_gap(a1m, fo_closed[0])
    if include_second_order:
        a2m = _second_order_raw(view, w, a1m, a1pc)[0]
        efficiency = 100.0 * second_order_efficiency(
            a2m, view.eps_p, view.kappa)
        if config.n_modes == 2:
            a2_closed = _closed_second_arrays(view, w, fo_closed)
            discrepancy = np.maximum(
                discrepancy, _relative_gap(a2m, a2_closed))

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


def group_delay(spectrum: Spectrum, at: float) -> float:
    """Group delay ``d(arg t_p)/d(omega)`` at the grid point nearest ``at``.

    Returns the number in seconds (positive = slow light): the spectrum's
    ``group_delay`` column, the five-point central stencil on the
    unwrapped phase, at ``spectrum.nearest_index(at)``.

    Raises
    ------
    InvalidParameterError
        The column is NaN there: a non-uniform grid, or a target within
        two points of the grid edge.
    DegeneratePointError
        ``|t_p|`` vanishes at the target, making the phase undefined.
    """
    idx = spectrum.nearest_index(at)
    delay = float(spectrum.group_delay[idx])
    if math.isnan(delay):
        raise InvalidParameterError(
            f"group delay is undefined at {at:.6e} rad/s: the five-point "
            "stencil needs a uniform grid and two points on either side")
    scale = float(np.max(np.abs(spectrum.amplitude)))
    if abs(spectrum.amplitude[idx]) < 1e-12 * max(scale, 1.0):
        raise DegeneratePointError(
            "transmission amplitude vanishes at omega = "
            f"{spectrum.omega[idx]:.6e} rad/s; phase slope is undefined there")
    return delay
