"""Chains of N identical mechanical modes: normal modes and window counting.

A uniform open chain of ``N`` degenerate modes (frequency ``omega_m``,
hopping ``eta`` with link phases ``theta_j``) diagonalises, after gauging
the link phases onto the sites, into the standard sine normal modes ::

    Omega_k = omega_m + 2 eta cos(k pi / (N+1)),   k = 1 .. N

Each normal mode couples to the cavity with an effective strength ``c_k``
obtained by summing the gauged site amplitudes; at ``theta_j = 0`` all the
interference is constructive for odd patterns and every even-``k`` mode is
exactly dark, while a nonzero first-link phase redistributes the coupling
and can light up all ``N`` modes at once.  The OMIT spectrum then shows one
transparency window per optically active normal mode, which is what
``count_windows`` measures.

``transmission_via_normal_modes`` recomputes the first-order response
entirely in the rotated basis (a star-shaped system: cavity coupled to N
independent oscillators) and must agree with the site-basis solve to
rounding error -- a strong structural check on the transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .darkmode import (
    _require_identical_modes,
    fit_linewidth,
    linearized_couplings,
)
from .errors import InvalidParameterError, UnsupportedTopologyError
from .model import (
    SteadyState,
    SystemConfig,
    _require_positive,
    probe_amplitude,
)
from .sidebands import (
    Spectrum,
    _as_grid,
    _pump_phase,
    _sideband_response,
    transmission,
)

__all__ = [
    "NormalModeBasis",
    "build_normal_modes",
    "even_mode_coupling",
    "count_windows",
    "transmission_via_normal_modes",
]


@dataclass(frozen=True)
class NormalModeBasis:
    """Normal modes of a uniform chain and their optical couplings.

    Index ``k - 1`` of each array corresponds to normal mode ``k`` in
    ``1 .. N``.  ``transform`` maps normal-mode amplitudes back to site
    amplitudes, ``site = transform @ normal``; its columns are orthonormal.
    ``couplings[k-1]`` is the effective optical coupling ``c_k`` of normal
    mode ``k`` (rad/s, complex); ``phases[j-1]`` is the accumulated link
    phase gauged onto site ``j``.
    """

    frequencies: np.ndarray
    damping: np.ndarray
    phases: np.ndarray
    transform: np.ndarray
    couplings: np.ndarray

    @property
    def n(self) -> int:
        return len(self.frequencies)


def _uniform_chain(config: SystemConfig) -> tuple[float, float, float,
                                                  np.ndarray]:
    """Validate uniformity and return (omega_m, gamma, eta, thetas)."""
    if config.n_modes < 2:
        raise UnsupportedTopologyError(
            "normal-mode analysis needs a chain of at least 2 modes")
    omega, gamma, _ = _require_identical_modes(config, "normal-mode analysis")
    eta, theta = config.coupling_arrays()
    if np.ptp(eta) != 0.0:
        raise UnsupportedTopologyError(
            "normal-mode analysis assumes a uniform hopping strength")
    return float(omega[0]), float(gamma[0]), float(eta[0]), theta


def build_normal_modes(config: SystemConfig,
                       steady: SteadyState) -> NormalModeBasis:
    """Diagonalise a uniform chain and rotate the optical coupling.

    The link phases are first gauged onto the sites
    (``site_j -> e^{-i phi_j} site_j`` with ``phi_j = theta_1 + ... +
    theta_{j-1}``), after which the chain is the textbook open chain with
    sine eigenvectors.  The returned couplings fold in the linearised
    optomechanical strength ``G = g |alpha|``.
    """
    n = config.n_modes
    omega_m, gamma, eta, thetas = _uniform_chain(config)
    g_lin = linearized_couplings(config, steady)[0]

    k = np.arange(1, n + 1)
    frequencies = omega_m + 2.0 * eta * np.cos(k * math.pi / (n + 1))
    phases = np.concatenate(([0.0], np.cumsum(thetas)))
    norm = math.sqrt((n + 1) / 2.0)
    j = np.arange(1, n + 1)
    sine = np.sin(np.outer(j, k) * math.pi / (n + 1)) / norm
    transform = np.exp(-1j * phases)[:, None] * sine
    # c_k multiplies the normal-mode creation operator in the interaction:
    # conjugate-sum of the transform column, times the linearised coupling.
    couplings = g_lin * np.conj(transform).sum(axis=0)
    return NormalModeBasis(
        frequencies=frequencies,
        damping=np.full(n, gamma),
        phases=phases,
        transform=transform,
        couplings=couplings,
    )


def even_mode_coupling(config: SystemConfig, steady: SteadyState,
                       k: int) -> complex:
    """Closed-form coupling of an even-indexed normal mode.

    When only the first link carries a phase (``theta_1`` arbitrary, all
    later links at zero), the sine sums telescope and every even ``k``
    reduces to ::

        c_k = (G / A) (1 - e^{i theta_1}) sin(k pi / (N+1)),
        A = sqrt((N+1)/2)

    which vanishes identically at ``theta_1 = 0``: those modes are dark.

    Raises
    ------
    InvalidParameterError
        ``k`` odd or out of range.
    UnsupportedTopologyError
        A later link carries a nonzero phase.
    """
    n = config.n_modes
    omega_m, gamma, eta, thetas = _uniform_chain(config)
    if not 1 <= k <= n:
        raise InvalidParameterError(f"mode index k must be in 1..{n}, got {k}")
    if k % 2 != 0:
        raise InvalidParameterError(
            f"the closed form holds for even mode indices only, got k={k}")
    if len(thetas) > 1 and np.any(thetas[1:] != 0.0):
        raise UnsupportedTopologyError(
            "the closed form assumes all link phases after the first vanish")
    g_lin = linearized_couplings(config, steady)[0]
    norm = math.sqrt((n + 1) / 2.0)
    theta1 = thetas[0]
    return complex(g_lin / norm * (1.0 - np.exp(1j * theta1))
                   * math.sin(k * math.pi / (n + 1)))


def count_windows(spectrum: Spectrum) -> int:
    """Number of transparency windows in a transmission spectrum."""
    return len(fit_linewidth(spectrum))


def transmission_via_normal_modes(config: SystemConfig, steady: SteadyState,
                                  omega: np.ndarray) -> np.ndarray:
    """Probe transmission amplitude ``t_p`` computed in the normal-mode
    (star) basis.

    Solves the first-order sideband response of a cavity coupled to the
    ``N`` independent normal modes with their rotated couplings (a chain
    operator with no hopping), instead of the site-basis chain.  Both bases
    go through the same chain sweep and cavity solve of
    :mod:`omit_lab.sidebands`; a chain with no hopping is diagonal, so
    each mode adds ``|c_k|^2 / d_k`` to the back-action sum, one division
    per grid point and mode.  Only the cavity amplitude is formed, not the
    normal-mode amplitudes, so the working memory does not grow with
    ``N``.  The complex ``t_p`` must match the one from
    :func:`omit_lab.sidebands.solve_first_order` to rounding error; any
    systematic gap means the basis transform is wrong.  Returns a 1-D
    array, also for a scalar ``omega``.

    Raises
    ------
    InvalidParameterError
        ``omega`` is empty, not finite or more than 1-D, or the probe
        amplitude is zero (``t_p`` is undefined); both are refused before
        the basis is built.
    """
    w, _ = _as_grid(omega)
    eps_p = _require_positive("probe amplitude", probe_amplitude(config))
    basis = build_normal_modes(config, steady)
    kap = config.cavity.kappa
    # The rotated couplings c_k already carry the linearised magnitude
    # g*|alpha|; the solve only needs the pump's unit phase on top, or
    # the optomechanical strength would be counted twice.
    a_minus = _sideband_response(
        kap, steady.delta_eff, basis.damping, basis.frequencies,
        np.zeros(basis.n - 1), basis.couplings,
        _pump_phase(steady.alpha), w, 1, (eps_p, 0.0))[0]
    return transmission(a_minus, eps_p, kap)[0]
