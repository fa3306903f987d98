"""Parameter containers, derived quantities, and the classical steady state."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import c as speed_of_light
from scipy.constants import hbar

import omit_lab as ol
from omit_lab import model
from omit_lab.model import solve_mechanical_displacements
from omit_lab.oracle import _mean_field_rhs

from conftest import (
    FROZEN_ALPHA_SPLIT,
    FROZEN_DELTA_C_PLAIN,
    FROZEN_DELTA_C_SPLIT,
    FROZEN_EPS_L,
    FROZEN_G,
    FROZEN_GAMMA_M,
    FROZEN_KAPPA,
    FROZEN_OMEGA_L,
    FROZEN_OMEGA_M,
    TWO_PI,
    random_config,
)


# ---------------------------------------------------------------------------
# Derived drive / coupling quantities


def test_reference_constants_frozen(split_config):
    cfg = split_config
    assert cfg.cavity.kappa == pytest.approx(FROZEN_KAPPA, rel=1e-14)
    assert cfg.omega_ref == pytest.approx(FROZEN_OMEGA_M, rel=1e-14)
    assert cfg.modes[0].gamma == pytest.approx(FROZEN_GAMMA_M, rel=1e-14)
    assert cfg.modes[0].g == pytest.approx(FROZEN_G, rel=1e-14)
    assert ol.pump_amplitude(cfg) == pytest.approx(FROZEN_EPS_L, rel=1e-14)
    assert ol.pump_frequency(cfg) == pytest.approx(FROZEN_OMEGA_L, rel=1e-14)
    assert cfg.cavity.delta_c == pytest.approx(FROZEN_DELTA_C_SPLIT,
                                               rel=1e-14)


def test_drive_amplitude_formula():
    # |eps|^2 = 2 kappa P / (hbar omega): check against a direct evaluation.
    kappa, power, omega = 2.0e6, 1.0e-3, 1.8e15
    expected = math.sqrt(2.0 * kappa * power / (hbar * omega))
    assert ol.drive_amplitude(power, kappa, omega) == pytest.approx(
        expected, rel=1e-15)


def test_single_photon_coupling_formula():
    lam, length, mass, omega = 1.064e-6, 25e-3, 1.45e-10, FROZEN_OMEGA_M
    omega_c = TWO_PI * speed_of_light / lam
    expected = omega_c / length * math.sqrt(hbar / (2.0 * mass * omega))
    got = ol.derive_single_photon_coupling(lam, length, mass, omega)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(FROZEN_G, rel=1e-14)


def test_probe_amplitude_scales_with_ratio(split_config):
    eps_l = ol.pump_amplitude(split_config)
    assert ol.probe_amplitude(split_config) == pytest.approx(
        0.05 * eps_l, rel=1e-15)


def test_probe_ratio_guardrails(split_config):
    with pytest.warns(UserWarning):
        ol.DriveSpec(power_pump=1e-3, probe_ratio=0.08)
    # A probe power is checked as the amplitude ratio sqrt(P_p / P), here
    # 0.08, once the probe amplitude is computed.
    probed = replace(split_config, drive=ol.DriveSpec(
        power_pump=1e-3, probe_ratio=None, power_probe=6.4e-6))
    with pytest.warns(UserWarning, match="ratio 0.08 above"):
        ol.probe_amplitude(probed)
    with pytest.raises(ol.InvalidParameterError):
        ol.DriveSpec(power_pump=1e-3, probe_ratio=0.2)


def test_drive_spec_exclusive_probe_definitions():
    with pytest.raises(ol.InvalidParameterError):
        ol.DriveSpec(power_pump=1e-3, probe_ratio=0.05, power_probe=1e-6)


def test_parameter_validation():
    with pytest.raises(ol.InvalidParameterError):
        ol.CavityParams(kappa=-1.0, delta_c=0.0)
    with pytest.raises(ol.InvalidParameterError, match="finite"):
        ol.CavityParams(kappa=math.nan, delta_c=0.0)
    with pytest.raises(ol.InvalidParameterError):
        ol.MechanicalMode(omega=1e6, gamma=0.0, g=10.0)
    with pytest.raises(ol.InvalidParameterError):
        ol.PhononCoupling(eta=-5.0)
    with pytest.raises(ol.InvalidParameterError):
        ol.SystemConfig(
            cavity=ol.CavityParams(kappa=1e6, delta_c=0.0),
            modes=(ol.MechanicalMode(omega=1e6, gamma=1.0, g=1.0),) * 2,
            couplings=(),  # needs exactly n-1 couplings
            drive=ol.DriveSpec(power_pump=1e-3, omega_pump=1.8e15),
        )
    with pytest.raises(ol.InvalidParameterError, match="at least one"):
        ol.SystemConfig(cavity=ol.CavityParams(kappa=1e6, delta_c=0.0),
                        modes=(), couplings=(),
                        drive=ol.DriveSpec(power_pump=1e-3))
    # Neither a pump frequency nor a wavelength to derive it from.
    unknown = ol.SystemConfig(
        cavity=ol.CavityParams(kappa=1e6, delta_c=0.0),
        modes=(ol.MechanicalMode(omega=1e6, gamma=1.0, g=1.0),),
        couplings=(), drive=ol.DriveSpec(power_pump=1e-3))
    with pytest.raises(ol.InvalidParameterError, match="pump frequency"):
        ol.pump_frequency(unknown)


_CAVITY = {"kappa": 1e6, "delta_c": 0.0}
_MODE = {"omega": 1e6, "gamma": 1.0, "g": 1.0}
_COUPLING = (589e-9, 0.025, 1.45e-10, 6e6)


@pytest.mark.parametrize("call, name", [
    (lambda: ol.CavityParams(**{**_CAVITY, "delta_c": math.nan}), "delta_c"),
    (lambda: ol.CavityParams(**_CAVITY, wavelength=0.0), "wavelength"),
    (lambda: ol.CavityParams(**_CAVITY, cavity_length=-1.0), "cavity_length"),
    (lambda: ol.MechanicalMode(**{**_MODE, "omega": math.inf}), "omega"),
    (lambda: ol.MechanicalMode(**{**_MODE, "g": -1.0}), "g"),
    (lambda: ol.MechanicalMode(**_MODE, mass=0.0), "mass"),
    (lambda: ol.PhononCoupling(eta=1.0, theta=math.nan), "theta"),
    (lambda: ol.DriveSpec(power_pump=1e-3, probe_ratio=-0.01), "probe_ratio"),
    (lambda: ol.DriveSpec(power_pump=1e-3, probe_ratio=None,
                          power_probe=math.inf), "power_probe"),
    (lambda: ol.DriveSpec(power_pump=1e-3, omega_pump=0.0), "omega_pump"),
    (lambda: ol.drive_amplitude(-1.0, 1e6, 1e15), "power"),
    (lambda: ol.drive_amplitude(1e-3, math.nan, 1e15), "kappa"),
    (lambda: ol.drive_amplitude(1e-3, 1e6, 0.0), "omega"),
    (lambda: ol.derive_single_photon_coupling(0.0, *_COUPLING[1:]),
     "wavelength"),
    (lambda: ol.derive_single_photon_coupling(
        _COUPLING[0], math.inf, *_COUPLING[2:]), "cavity_length"),
    (lambda: ol.derive_single_photon_coupling(
        *_COUPLING[:2], -1.0, _COUPLING[3]), "mass"),
    (lambda: ol.derive_single_photon_coupling(*_COUPLING[:3], math.nan),
     "omega_m"),
    (lambda: ol.lock_effective_detuning(ol.standard_setup(1), math.inf),
     "delta_target"),
], ids=["cavity_delta_c", "cavity_wavelength", "cavity_length",
        "mode_omega", "mode_g", "mode_mass", "link_theta",
        "drive_probe_ratio", "drive_power_probe", "drive_omega_pump",
        "amplitude_power", "amplitude_kappa", "amplitude_omega",
        "g_wavelength", "g_cavity_length", "g_mass", "g_omega_m",
        "lock_delta_target"])
def test_scalar_inputs_refused_where_checked(call, name):
    # One out-of-range value at each call of model's shared scalar checks
    # that no other test refuses; tests/run_reach.py counts each call.
    with pytest.raises(ol.InvalidParameterError, match=rf"^{name} must be"):
        call()


_BOUNDARY = (math.nan, -math.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, math.inf)


@pytest.mark.parametrize("check, accepted, condition", [
    (model._require_finite, (-1.0, -0.0, 0.0, 5e-324, 1.0), "finite"),
    (model._require_positive, (5e-324, 1.0), "> 0 and finite"),
    (model._require_nonnegative, (-0.0, 0.0, 5e-324, 1.0),
     ">= 0 and finite"),
], ids=["finite", "positive", "nonnegative"])
def test_shared_scalar_check_boundaries(check, accepted, condition):
    # Each shared check is one comparison: it returns an accepted value as
    # the same float, sign of zero included, and refuses every other value
    # of the table naming the argument, the condition and the value.
    for value in _BOUNDARY:
        if value in accepted:
            kept = check("x", value)
            assert math.copysign(1.0, kept) == math.copysign(1.0, value)
            assert kept == value
        else:
            with pytest.raises(ol.InvalidParameterError) as exc:
                check("x", value)
            assert str(exc.value) == f"x must be {condition}, got {value!r}"


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: ol.standard_setup(0), "n_modes must be >= 1",
                 id="no_modes"),
    pytest.param(lambda: ol.standard_setup(3, g_scales=(1.0, 1.0)),
                 "g_scales must have length 3", id="g_scales_length"),
    pytest.param(lambda: ol.run_figure_preset("fig9", "unused"),
                 "unknown figure preset", id="unknown_preset"),
])
def test_preset_refusals(call, match):
    with pytest.raises(ol.InvalidParameterError, match=match):
        call()


def test_theta_canonicalized_into_principal_interval():
    c = ol.PhononCoupling(eta=100.0, theta=3.0 + TWO_PI)
    assert c.theta == 3.0
    c = ol.PhononCoupling(eta=100.0, theta=-0.5)
    assert c.theta == pytest.approx(TWO_PI - 0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# Steady state


def test_steady_state_frozen_values(split_config, split_steady):
    st = split_steady
    assert not st.multistable
    assert complex(st.alpha) == pytest.approx(FROZEN_ALPHA_SPLIT, rel=1e-12)
    # The detuning was locked to omega_m when the config was built.
    assert st.delta_eff == pytest.approx(split_config.omega_ref, rel=1e-12)


def test_fixed_point_residual_below_tolerance(split_config, split_steady):
    assert ol.steady_state_residual(split_config, split_steady) < 1e-12


def test_steady_state_bit_identical_under_theta_shift():
    # theta is canonicalized modulo 2*pi at construction; for these values
    # the float subtraction is exact, so the entire solve must agree to
    # the last bit.
    for theta in (0.5, 1.0, 3.0):
        a = ol.standard_setup(2, eta_frac=0.05, theta=theta)
        b = ol.standard_setup(2, eta_frac=0.05, theta=theta + TWO_PI)
        assert a.couplings[0].theta == b.couplings[0].theta
        sa, sb = ol.solve_steady_state(a), ol.solve_steady_state(b)
        assert sa.alpha == sb.alpha
        assert sa.betas == sb.betas
        assert sa.delta_eff == sb.delta_eff


def test_decoupled_displacements_match_closed_form():
    # With eta = 0 each mode sees only the radiation-pressure drive:
    # beta_l = -i g_l |alpha|^2 / (gamma_l + i omega_l).
    cfg = ol.standard_setup(3, eta_frac=0.0)
    photons = 4.2e8
    betas = solve_mechanical_displacements(cfg, photons)
    for mode, beta in zip(cfg.modes, betas):
        expected = -1j * mode.g * photons / (mode.gamma + 1j * mode.omega)
        assert abs(beta - expected) <= 1e-15 * abs(expected)


def test_photon_number_monotone_in_power_on_lower_branch():
    photons = []
    for power in np.linspace(0.2e-3, 2.0e-3, 8):
        cfg = ol.standard_setup(2, eta_frac=0.05, theta=1.0,
                                power_w=float(power))
        st = ol.solve_steady_state(cfg)
        photons.append(st.photon_number)
    assert all(b > a for a, b in zip(photons, photons[1:]))


def test_lock_effective_detuning_is_exact(plain_config):
    target = 1.05 * plain_config.omega_ref
    locked = ol.lock_effective_detuning(plain_config, target)
    st = ol.solve_steady_state(locked)
    assert st.delta_eff == pytest.approx(target, rel=1e-13)
    assert plain_config.cavity.delta_c == pytest.approx(
        FROZEN_DELTA_C_PLAIN, rel=1e-14)


def test_overflowing_drive_raises_invalid_parameter():
    # sqrt(2 kappa P / (hbar omega)) overflows for an absurd but finite
    # power: the drive itself is refused, before any solve.
    with pytest.raises(ol.InvalidParameterError, match="overflows"):
        ol.drive_amplitude(1e300, 1e6, 1e15)
    cfg = ol.standard_setup(2, eta_frac=0.05, theta=1.0, power_w=1e300,
                            lock_delta_frac=None)
    with pytest.raises(ol.InvalidParameterError, match="overflows"):
        ol.solve_steady_state(cfg)


def test_overflowing_cubic_raises_nonconvergent():
    # A finite drive with an absurd coupling still overflows the cubic's
    # constant term: a typed failure carrying the residual, not a
    # LinAlgError.
    base = ol.standard_setup(2, eta_frac=0.05, theta=1.0,
                             lock_delta_frac=None)
    cfg = replace(base, modes=tuple(replace(m, g=m.g * 1e150)
                                    for m in base.modes))
    with pytest.raises(ol.NonConvergentError, match="cubic overflows") \
            as err:
        ol.solve_steady_state(cfg)
    assert err.value.iterations == 0
    assert err.value.residual == math.inf


def test_unpolished_root_is_refused(monkeypatch):
    # Root estimates 1e-4 off with a single Newton step allowed cannot reach
    # the residual tolerance; the solver raises instead of returning them.
    cfg = ol.standard_setup(2, eta_frac=0.05, theta=1.0)
    exact = np.roots
    monkeypatch.setattr(np, "roots", lambda c: exact(c) * (1.0 + 1e-4))
    monkeypatch.setattr(model, "_NEWTON_STEPS", 1)
    with pytest.raises(ol.NonConvergentError) as err:
        ol.solve_steady_state(cfg)
    assert err.value.iterations == 1
    assert err.value.residual > 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64])
def test_every_branch_is_a_fixed_point(n):
    # Each reported branch, re-substituted through a fresh chain solve at
    # its own photon number, reproduces its detuning, and the chosen state
    # meets the full fixed-point equations.
    rng = np.random.default_rng(700 + n)
    for _ in range(4):
        cfg = random_config(rng, n)
        st = ol.solve_steady_state(cfg)
        assert ol.steady_state_residual(cfg, st) < 1e-12
        assert st.branches == tuple(sorted(st.branches))
        assert st.delta_eff == pytest.approx(st.branches[st.branch_index],
                                             rel=1e-12)
        eps_l, kappa = ol.pump_amplitude(cfg), cfg.cavity.kappa
        for delta in st.branches:
            photons = abs(eps_l / (kappa + 1j * delta)) ** 2
            betas = solve_mechanical_displacements(cfg, photons)
            shifted = ol.effective_detuning(cfg, betas)
            assert abs(shifted - delta) / max(abs(delta), 1.0) < 1e-12


def test_six_mode_chain_has_three_branches_one_stable():
    cfg = ol.standard_setup(6, eta_frac=0.05, theta=math.pi / 2)
    st = ol.solve_steady_state(cfg)
    om = cfg.omega_ref
    assert [round(d / om, 3) for d in st.branches] == [-0.050, 0.107, 1.000]
    margins = [ol.stability_margin(cfg, d) for d in st.branches]
    assert margins[0] < 0.0 and margins[1] < 0.0
    assert st.branch_index == 2
    assert st.delta_eff == pytest.approx(om, rel=1e-12)
    assert st.margin == margins[2]
    assert st.margin == pytest.approx(3.874e3, rel=1e-3)
    assert not st.multistable


def test_long_chain_leaves_unstable_locked_point():
    # The config is locked to Delta = omega_m, but at N = 64 that fixed
    # point is unstable; the solver reports it and takes 1.0847 omega_m.
    cfg = ol.standard_setup(64, eta_frac=0.05, theta=math.pi / 2)
    st = ol.solve_steady_state(cfg)
    om = cfg.omega_ref
    assert len(st.branches) == 3
    locked = st.branches[1]
    assert locked == pytest.approx(om, rel=1e-12)
    assert ol.stability_margin(cfg, locked) == pytest.approx(-9.73e5,
                                                             rel=1e-3)
    assert st.branch_index == 2
    assert st.delta_eff / om == pytest.approx(1.0847, abs=1e-4)
    assert st.margin > 0.0
    assert ol.steady_state_residual(cfg, st) < 1e-12


def test_bistable_drive_reports_both_stable_branches():
    # One mode, Delta_c = 3 kappa, 4.9 mW: optical bistability with stable
    # branches near 0.04 and 2.62 kappa around an unstable middle one.
    base = ol.standard_setup(1, lock_delta_frac=None)
    kappa = base.cavity.kappa
    cfg = replace(base, cavity=replace(base.cavity, delta_c=3.0 * kappa),
                  drive=replace(base.drive, power_pump=4.9e-3))
    st = ol.solve_steady_state(cfg)
    assert len(st.branches) == 3
    margins = [ol.stability_margin(cfg, d) for d in st.branches]
    assert margins[0] > 0.0 > margins[1] and margins[2] > 0.0
    assert st.multistable
    assert st.branch_index == 2  # the stable branch nearest Delta_c
    assert st.branches[0] / kappa == pytest.approx(0.0422, abs=1e-4)


def test_selection_rule_first_stable_branch_nearest_bare_detuning():
    select = model._select_branch
    # Nearest to Delta_c = 1.0 is 1.2, but it is unstable: take 0.5.
    assert select([-1.0, 0.5, 1.2], [1.0, 2.0, -3.0], 1.0) == 1
    # Both outer branches stable (bistable): the nearer one wins.
    assert select([-1.0, 0.1, 1.2], [1.0, -2.0, 3.0], -0.8) == 0
    assert select([-1.0, 0.1, 1.2], [1.0, -2.0, 3.0], 0.9) == 2
    # Nothing stable: the nearest branch, unstable margin and all.
    assert select([-1.0, 0.1, 1.2], [-1.0, -2.0, -3.0], 0.3) == 1
    # A zero margin is not stable.
    assert select([0.0, 2.0], [0.0, 5.0], 0.1) == 1


def _central_jacobian(cfg, delta, rng):
    """Central differences of the time-domain oracle's right-hand side at
    the fixed point with effective detuning ``delta``, with the probe on
    at a drawn amplitude, detuning and time.  The probe is an additive
    drive, so it must not enter the Jacobian; the equations are quadratic
    in the fields, so the difference quotient is exact up to rounding."""
    eps_l = ol.pump_amplitude(cfg)
    alpha = eps_l / (cfg.cavity.kappa + 1j * delta)
    betas = solve_mechanical_displacements(cfg, abs(alpha) ** 2)
    rhs = _mean_field_rhs(cfg, eps_l, rng.uniform(1e7, 1e8),
                          rng.uniform(0.5, 1.5) * cfg.omega_ref)
    t = rng.uniform(0.0, 1e-3)
    y0 = np.array([alpha, *betas]).view(float)
    jac = np.empty((len(y0), len(y0)))
    for j in range(len(y0)):
        h = 1e-3 * max(abs(y0[j]), 1.0)
        step = np.zeros_like(y0)
        step[j] = h
        jac[:, j] = (rhs(t, y0 + step) - rhs(t, y0 - step)) / (2.0 * h)
    return jac


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_drift_matrix_is_jacobian_of_mean_field_rhs(n):
    # Independent route: the oracle's right-hand side, at the solver's
    # branch of a uniform chain and at every branch, stable or not, of
    # random non-uniform chains (per-site omega, gamma, g; per-link eta,
    # theta).  The shooting steers by this matrix at the pump-only steady
    # state while the probe is on.
    rng = np.random.default_rng(300 + n)
    cfg = ol.standard_setup(n, eta_frac=0.05, theta=0.3 * math.pi)
    st = ol.solve_steady_state(cfg)
    jac = _central_jacobian(cfg, st.delta_eff, rng)
    drift = model._drift_matrix(cfg, st.delta_eff)
    assert np.max(np.abs(jac - drift)) <= 1e-9 * np.max(np.abs(drift))
    margin_fd = -np.max(np.linalg.eigvals(jac).real)
    assert margin_fd == pytest.approx(st.margin, rel=1e-6)
    signs = {st.margin > 0.0}
    for _ in range(10):
        cfg = random_config(rng, n)
        for delta in ol.solve_steady_state(cfg).branches:
            drift = model._drift_matrix(cfg, delta)
            assert np.max(np.abs(_central_jacobian(cfg, delta, rng) - drift)) \
                <= 1e-9 * np.max(np.abs(drift))
            signs.add(ol.stability_margin(cfg, delta) > 0.0)
    assert signs == {True, False}
