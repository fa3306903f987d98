"""Shared fixtures and frozen reference values.

The ``FROZEN_*`` constants below were produced by this package itself on
first validation and are pinned so that refactors cannot silently change
numerical behaviour.  Derived quantities (drive amplitude, single-photon
coupling, locked detuning) were additionally checked against independent
hand evaluations of their defining formulas before freezing.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import omit_lab as ol

TWO_PI = 2.0 * math.pi

# Benchmark system: kappa = 2*pi*215 kHz, omega_m = 2*pi*947 kHz,
# Q = 6700, m = 145 ng, lambda = 1064 nm, L = 25 mm, P = 1.5 mW.
FROZEN_OMEGA_M = 5950176.485899068
FROZEN_KAPPA = 1350884.841043611
FROZEN_GAMMA_M = 888.0860426715027
FROZEN_G = 17.50624864536972
FROZEN_EPS_L = 147333748799.0267
FROZEN_OMEGA_L = 1770349217395538.5

# Two degenerate modes, eta = 0.05*omega_m, theta = pi/2, effective
# detuning locked to omega_m ("split-window" configuration).
FROZEN_DELTA_C_SPLIT = 6070602.636880555
FROZEN_ALPHA_SPLIT = 5346.055706590972 - 23547.510484379767j

# First/second-order amplitudes of that configuration at 0.95*omega_m.
FROZEN_A1_MINUS = 34.119312324294754 - 610.9969792084624j
FROZEN_A1_PLUS_CONJ = -266.8290749852867 - 554.2208289032233j
FROZEN_B1_MINUS = 7545.402178500287 - 9378.537336513658j
FROZEN_B2_PLUS_CONJ = -0.17348023215670225 - 1.290674240731311j
FROZEN_TP = 0.9937432852715105 + 0.11204310809494625j
FROZEN_TRANSMISSION = 1.0000793750937902
FROZEN_A2_MINUS = -9.900178561476471 - 31.68692092028562j
FROZEN_EFFICIENCY_PCT = 0.6087676418843898
FROZEN_TAU_095 = 7.14124919016619e-06

# Same pair with the phonon link switched off (eta = 0).
FROZEN_DELTA_C_PLAIN = 6070301.571536703
FROZEN_G_LIN = 422719.0189269531
FROZEN_GAMMA_OPT = 130594.44198219819
FROZEN_GAMMA_EFF = 262076.97000706787
FROZEN_FWHM_TWO = 454197.716730455
FROZEN_FWHM_ONE = 242590.37253160475

# Hybrid-basis numbers of the split configuration.
FROZEN_G_TILDE = 298907.4848197732 - 298907.484819773j
FROZEN_OMEGA_TILDE_PLUS = 6247685.310194022
FROZEN_OMEGA_TILDE_MINUS = 5652667.661604115

# Three-mode chain (eta = 0.05*omega_m, theta_1 = pi/2).
FROZEN_N3_FREQS = (6370917.500142666, 5950176.485899068, 5529435.471655471)
FROZEN_N3_C2 = 298907.484819773 - 298907.484819773j


@pytest.fixture(scope="session")
def split_config() -> ol.SystemConfig:
    return ol.standard_setup(2, eta_frac=0.05, theta=math.pi / 2)


@pytest.fixture(scope="session")
def split_steady(split_config) -> ol.SteadyState:
    return ol.solve_steady_state(split_config)


@pytest.fixture(scope="session")
def plain_config() -> ol.SystemConfig:
    return ol.standard_setup(2, eta_frac=0.0)


@pytest.fixture(scope="session")
def plain_steady(plain_config) -> ol.SteadyState:
    return ol.solve_steady_state(plain_config)


def synthetic_steady(alpha: complex, delta: float,
                     n_modes: int) -> ol.SteadyState:
    """A SteadyState carrying given (alpha, Delta), for linear-layer tests.

    The sideband equations take the working point as input; route-
    equivalence and similar identities hold for any (alpha, Delta), not
    just self-consistent ones, so tests may probe arbitrary points.
    """
    return ol.SteadyState(alpha=complex(alpha), betas=(0j,) * n_modes,
                          delta_eff=float(delta), iterations=0,
                          residual=0.0, multistable=False,
                          alt_delta=float(delta))


def random_config(rng: np.random.Generator, n: int = 2, *,
                  hopping: bool = True) -> ol.SystemConfig:
    """Random ``n``-mode chain: the one random-configuration builder.

    Rates are drawn log-uniformly, angles and detunings uniformly: mode 1
    at 6e6 * U(0.5, 2) rad/s, each later mode at that times U(0.8, 1.25),
    and the cavity detuning in +-3 times mode 1's frequency.  With
    ``hopping=False`` every link has eta = 0.
    """
    om1 = 6e6 * float(rng.uniform(0.5, 2.0))
    oms = [om1] + [om1 * float(rng.uniform(0.8, 1.25)) for _ in range(n - 1)]
    return ol.SystemConfig(
        cavity=ol.CavityParams(
            kappa=om1 * 10 ** float(rng.uniform(-2.0, -0.2)),
            delta_c=float(rng.uniform(-3.0, 3.0)) * om1),
        modes=tuple(
            ol.MechanicalMode(omega=om,
                              gamma=om * 10 ** float(rng.uniform(-5, -2)),
                              g=10 ** float(rng.uniform(0.0, 1.8)))
            for om in oms),
        couplings=tuple(
            ol.PhononCoupling(eta=(float(rng.uniform(0.0, 0.15)) * om1
                                   if hopping else 0.0),
                              theta=float(rng.uniform(0.0, TWO_PI)))
            for _ in range(n - 1)),
        drive=ol.DriveSpec(power_pump=1.5e-3, omega_pump=1.77e15),
    )


def random_working_point(rng: np.random.Generator, n: int = 2, *,
                         hopping: bool = True, points: int | None = None):
    """A :func:`random_config` chain with a random working point.

    The intracavity field is drawn log-uniformly in magnitude with a
    uniform phase; the probe detuning spans +-3 times mode 1's frequency
    so both sidebands and far-off-resonance behaviour get exercised.
    ``omega`` is one detuning, or ``points`` of them.

    Returns (config, steady, omega).
    """
    cfg = random_config(rng, n, hopping=hopping)
    om1 = cfg.modes[0].omega
    alpha = 10 ** float(rng.uniform(2, 5)) * np.exp(
        1j * float(rng.uniform(0.0, TWO_PI)))
    omega = rng.uniform(-3.0, 3.0, points) * om1
    return cfg, synthetic_steady(alpha, cfg.cavity.delta_c, n), omega
