"""Hybrid bright/dark modes, adiabatic elimination, linewidth fitting."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import omit_lab as ol
from omit_lab.darkmode import _find_windows

from conftest import (
    FROZEN_FWHM_ONE,
    FROZEN_FWHM_TWO,
    FROZEN_G_LIN,
    FROZEN_G_TILDE,
    FROZEN_GAMMA_EFF,
    FROZEN_GAMMA_OPT,
    FROZEN_OMEGA_TILDE_MINUS,
    FROZEN_OMEGA_TILDE_PLUS,
    random_config,
    synthetic_steady,
)


# ---------------------------------------------------------------------------
# Hybridization


def test_hybrid_report_frozen(split_config, split_steady):
    rep = ol.hybridize_two_mode(split_config, split_steady)
    assert rep.g1 == pytest.approx(FROZEN_G_LIN, rel=1e-11)
    assert rep.g2 == pytest.approx(FROZEN_G_LIN, rel=1e-11)
    assert rep.omega_tilde_plus == pytest.approx(FROZEN_OMEGA_TILDE_PLUS,
                                                 rel=1e-12)
    assert rep.omega_tilde_minus == pytest.approx(FROZEN_OMEGA_TILDE_MINUS,
                                                  rel=1e-12)
    assert complex(rep.g_tilde_plus) == pytest.approx(FROZEN_G_TILDE,
                                                      rel=1e-11)
    assert complex(rep.g_tilde_minus) == pytest.approx(FROZEN_G_TILDE,
                                                       rel=1e-11)


def test_dark_mode_decouples_exactly_at_integer_pi():
    # theta = 0 leaves the antisymmetric combination dark; theta = pi the
    # symmetric one.  |G~| must vanish to rounding, not merely get small.
    for theta, which in ((0.0, "minus"), (math.pi, "plus"),
                         (3.0 * math.pi, "plus")):
        cfg = ol.standard_setup(2, eta_frac=0.05, theta=theta)
        st = ol.solve_steady_state(cfg)
        rep = ol.hybridize_two_mode(cfg, st)
        g_dark = (rep.g_tilde_minus if which == "minus"
                  else rep.g_tilde_plus)
        assert abs(g_dark) <= 1e-14 * rep.g_plus
        broken, ratio = ol.dark_mode_broken(cfg, st)
        assert not broken
        assert ratio <= 1e-14


def test_dark_mode_broken_at_quarter_turn(split_config, split_steady):
    broken, ratio = ol.dark_mode_broken(split_config, split_steady)
    assert broken
    # Degenerate modes at theta = pi/2 share the coupling evenly.
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_dark_mode_broken_without_optical_coupling(split_config):
    # With every g_l zero there is no bright mode to compare against: the
    # ratio is 0 and nothing counts as broken.
    cfg = dataclasses.replace(split_config, modes=tuple(
        dataclasses.replace(m, g=0.0) for m in split_config.modes))
    assert ol.dark_mode_broken(cfg, ol.solve_steady_state(cfg)) == \
        (False, 0.0)


def test_coupling_weight_conservation():
    # |G~+|^2 + |G~-|^2 == G1^2 + G2^2 for any theta, eta: the hybrid
    # basis is a rotation.  Without hopping it is the identity or a swap,
    # whichever makes the higher-frequency mode the + mode.
    rng = np.random.default_rng(3)
    orders = set()
    for k in range(50):
        hopping = k % 2 == 0
        cfg = random_config(rng, hopping=hopping)
        om1, om2 = (m.omega for m in cfg.modes)
        st = synthetic_steady(2e4 * np.exp(0.3j), om1, 2)
        rep = ol.hybridize_two_mode(cfg, st)
        left = abs(rep.g_tilde_plus) ** 2 + abs(rep.g_tilde_minus) ** 2
        right = rep.g1 ** 2 + rep.g2 ** 2
        assert left == pytest.approx(right, rel=1e-12)
        if not hopping:
            orders.add(om1 > om2)
            assert (rep.f, rep.h) == ((1.0, 0.0) if om1 > om2
                                      else (0.0, -1.0))
    assert orders == {True, False}


def test_hybrid_degenerate_conventions(plain_config, plain_steady):
    # Exactly degenerate and uncoupled: the split is a pure convention and
    # must be the symmetric/antisymmetric pair.
    rep = ol.hybridize_two_mode(plain_config, plain_steady)
    assert rep.f == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert rep.h == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)
    assert rep.zeta == 0.0
    assert rep.omega_plus == rep.omega_minus


def test_bright_mode_frequency_weighting():
    # omega_+ is the coupling-weighted mean of the bare frequencies.
    om1, om2 = 6.0e6, 6.3e6
    cfg = ol.SystemConfig(
        cavity=ol.CavityParams(kappa=1.3e6, delta_c=om1),
        modes=(ol.MechanicalMode(omega=om1, gamma=900.0, g=10.0),
               ol.MechanicalMode(omega=om2, gamma=900.0, g=20.0)),
        couplings=(ol.PhononCoupling(eta=0.0),),
        drive=ol.DriveSpec(power_pump=1.5e-3, omega_pump=1.77e15),
    )
    st = synthetic_steady(1e4, om1, 2)
    rep = ol.hybridize_two_mode(cfg, st)
    g1, g2 = rep.g1, rep.g2
    expected = (g1**2 * om1 + g2**2 * om2) / (g1**2 + g2**2)
    assert rep.omega_plus == pytest.approx(expected, rel=1e-14)
    expected_zeta = g1 * g2 * (om1 - om2) / (g1**2 + g2**2)
    assert rep.zeta == pytest.approx(expected_zeta, rel=1e-14)


# ---------------------------------------------------------------------------
# Adiabatic elimination


def test_optical_damping_sideband_asymmetry():
    # gamma_opt = G^2 kappa [1/(kappa^2+(D-w)^2) - 1/(kappa^2+(D+w)^2)];
    # deep in the resolved-sideband regime at D = w it tends to G^2/kappa.
    g_lin, kappa, omega = 1e-2, 1e-3, 1.0
    got = ol.optical_damping_rate(g_lin, kappa, omega, omega)
    assert got == pytest.approx(g_lin**2 / kappa, rel=5e-3)
    # Anti-damping on the blue side, equal magnitude at this symmetry.
    blue = ol.optical_damping_rate(g_lin, kappa, -omega, omega)
    assert blue == pytest.approx(-got, rel=1e-12)


def test_adiabatic_parameters_frozen(plain_config, plain_steady):
    ad = ol.adiabatic_elimination(plain_config, plain_steady)
    assert ad.gamma_opt[0] == pytest.approx(FROZEN_GAMMA_OPT, rel=1e-11)
    assert ol.predict_linewidth(plain_config, plain_steady) == pytest.approx(
        FROZEN_GAMMA_EFF, rel=1e-11)


def test_adiabatic_elimination_warns_outside_its_regime():
    # At 5 mW G exceeds kappa / 2, so kappa >> G no longer holds.
    cfg = ol.standard_setup(2, power_w=5e-3)
    st = ol.solve_steady_state(cfg)
    assert ol.linearized_couplings(cfg, st)[0] > 0.5 * cfg.cavity.kappa
    with pytest.warns(UserWarning, match="indicative only"):
        ol.adiabatic_elimination(cfg, st)
    with pytest.warns(UserWarning, match="indicative only"):
        ol.predict_linewidth(cfg, st)


def test_adiabatic_elimination_requires_uncoupled_pair(split_config,
                                                       split_steady):
    with pytest.raises(ol.RegimeViolationError):
        ol.adiabatic_elimination(split_config, split_steady)
    # Any number of uncoupled modes; identical modes get equal rates, and
    # the linewidth prediction is their sum in mode order.
    for n in (1, 3, 5):
        cfg = ol.standard_setup(n, eta_frac=0.0)
        st = ol.solve_steady_state(cfg)
        ad = ol.adiabatic_elimination(cfg, st)
        assert len(ad.gamma_opt) == len(ad.omega_opt) == n
        assert len(set(ad.gamma_opt)) == 1
        _, gamma, _ = cfg.mode_arrays()
        assert ol.predict_linewidth(cfg, st) == gamma[0] + sum(ad.gamma_opt)


def test_predict_linewidth_guards(split_config, split_steady):
    with pytest.raises(ol.RegimeViolationError):
        ol.predict_linewidth(split_config, split_steady)
    unequal = ol.standard_setup(2, g_scales=(1.0, 1.1))
    with pytest.raises(ol.UnsupportedTopologyError, match="identical"):
        ol.predict_linewidth(unequal, ol.solve_steady_state(unequal))


# ---------------------------------------------------------------------------
# Linewidth fitting


def test_fit_linewidth_on_synthetic_window(split_config):
    # A single Lorentzian transparency window of known width on a flat
    # background; the fitted FWHM must match the analytic one to the grid
    # resolution.
    sp = ol.compute_spectrum(split_config, points=2001, span=(0.9, 1.1),
                             include_second_order=False)
    w = sp.omega
    w0 = float(np.mean(w))
    width = 4e4  # HWHM in rad/s
    window = 0.8 / (1.0 + ((w - w0) / width) ** 2)
    synthetic = ol.Spectrum(
        omega=w, amplitude=np.sqrt(0.1 + window).astype(complex),
        efficiency_percent=sp.efficiency_percent,
        route_discrepancy=sp.route_discrepancy, metadata=dict(sp.metadata))
    fits = ol.fit_linewidth(synthetic)
    assert len(fits) == 1
    assert fits[0].center == pytest.approx(w0, abs=(w[1] - w[0]))
    assert fits[0].fwhm == pytest.approx(2.0 * width, rel=5e-3)


def test_fit_linewidth_featureless_spectrum(split_config):
    sp = ol.compute_spectrum(split_config, points=101, span=(0.9, 1.1),
                             include_second_order=False)
    flat = ol.Spectrum(
        omega=sp.omega, amplitude=np.ones_like(sp.amplitude),
        efficiency_percent=sp.efficiency_percent,
        route_discrepancy=sp.route_discrepancy, metadata=dict(sp.metadata))
    assert ol.fit_linewidth(flat) == []


@pytest.mark.parametrize("fractions, match", [
    pytest.param(np.linspace(0.9, 1.1, 4), "too short", id="four_points"),
    pytest.param(0.9 + 0.2 * np.linspace(0.0, 1.0, 41) ** 2, "uniform grid",
                 id="non_uniform_grid"),
])
def test_fit_linewidth_refusals(split_config, fractions, match):
    sp = ol.compute_spectrum(split_config, fractions * split_config.omega_ref,
                             include_second_order=False)
    with pytest.raises(ol.InvalidParameterError, match=match):
        ol.fit_linewidth(sp)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_linewidth_rejects_non_finite_transmission(split_config, bad):
    # Two windows are really present; one bad point must not make them
    # vanish (NaN) or add a zero-width window of infinite prominence (inf).
    sp = ol.compute_spectrum(split_config, points=401,
                             include_second_order=False)
    assert len(ol.fit_linewidth(sp)) == 2
    amplitude = sp.amplitude.copy()
    amplitude[123] = bad
    corrupted = dataclasses.replace(sp, amplitude=amplitude)
    with pytest.raises(ol.InvalidParameterError, match="non-finite"):
        ol.fit_linewidth(corrupted)


def _scipy_windows(x, min_prominence):
    """The reference: scipy.signal's peak search, imported only here."""
    from scipy.signal import find_peaks, peak_widths
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-width / zero-prominence notes
        peaks, props = find_peaks(x, prominence=min_prominence)
        widths = peak_widths(x, peaks, rel_height=0.5)[0]
    return list(zip(peaks.tolist(), widths.tolist(),
                    props["prominences"].tolist()))


def _assert_matches_scipy(x, min_prominence):
    # Exact equality: indices, widths and prominences to the bit.
    assert _find_windows(x, min_prominence) == _scipy_windows(
        x, min_prominence), (x.tolist(), min_prominence)


@pytest.mark.parametrize("n_modes, broken", [
    (1, False), (2, False), (2, True), (4, True), (8, True)])
def test_find_windows_matches_scipy_on_spectra(n_modes, broken):
    cfg = (ol.standard_setup(n_modes, eta_frac=0.05, theta=math.pi / 2)
           if broken else ol.standard_setup(n_modes))
    x = ol.compute_spectrum(cfg, points=4001,
                            include_second_order=False).transmission
    swing = float(np.max(x) - np.min(x))
    for rel in (0.0, 0.05, 0.5):
        _assert_matches_scipy(x, rel * swing)
    assert len(_find_windows(x, 0.05 * swing)) == (n_modes if broken else 1)


def test_find_windows_matches_scipy_on_random_arrays():
    rng = np.random.default_rng(20260)
    for k in range(1200):
        n = int(rng.integers(5, 200))
        if k % 2:
            x = np.cumsum(rng.standard_normal(n))
        else:
            # Few distinct values: plateaus at tops, bases and edges.
            x = rng.integers(0, 4, n) * float(rng.choice([1.0, 0.1, 3e-7]))
        swing = float(np.max(x) - np.min(x))
        _assert_matches_scipy(x, float(rng.choice([0.0, 0.05, 0.3])) * swing)


def test_find_windows_matches_scipy_on_edge_cases():
    ramp = np.linspace(0.0, 1.0, 50)
    cases = [
        ramp, ramp[::-1].copy(), np.full(50, 0.7),
        np.array([0.0, 1.0, 0.0, 1.0, 0.0]),
        np.array([0.0, 1.0, 1.0, 1.0, 0.0]),
        np.array([1.0, 0.0, 2.0, 0.0, 1.0]),
        np.array([3.0, 1.0, 2.0, 0.5, 4.0]),   # maxima at 0 and K-1
        np.array([2.0, 2.0, 1.0, 2.0, 2.0]),   # plateaus touching the ends
    ]
    for x in cases:
        for min_prominence in (0.0, 0.5, 1.0):
            _assert_matches_scipy(x, min_prominence)
    # Ends are never peaks, even as global maxima.
    assert [p for p, _, _ in _find_windows(cases[6], 0.0)] == [2]
    # The threshold is inclusive: a prominence exactly at it is kept.
    assert len(_find_windows(np.array([0.0, 1.0, 0.0, 0.0, 0.0]), 1.0)) == 1


def test_import_leaves_scipy_unloaded():
    # fit_linewidth carries its own peak search and the oracle its own
    # DOP853 loop, so importing the package loads no scipy module at all.
    src = str(Path(ol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, omit_lab; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fitted_linewidths_frozen(plain_config):
    sp2 = ol.compute_spectrum(plain_config, points=4001,
                              include_second_order=False)
    assert ol.fit_linewidth(sp2)[0].fwhm == pytest.approx(FROZEN_FWHM_TWO,
                                                          rel=1e-12)
    single = ol.standard_setup(1)
    sp1 = ol.compute_spectrum(single, points=4001,
                              include_second_order=False)
    assert ol.fit_linewidth(sp1)[0].fwhm == pytest.approx(FROZEN_FWHM_ONE,
                                                          rel=1e-12)


def test_prediction_consistency_window_width():
    # Stated consistency band between the adiabatic linewidth prediction
    # and the fitted transparency-window FWHM over the benchmark power
    # range.  predict_linewidth returns gamma_eff = gamma_m + 2*gamma_opt,
    # an amplitude decay rate and so the window's half width: the FWHM to
    # compare with is 2*gamma_eff.  The ratio tends to 1 at weak drive
    # (1.005 at 0.01 mW) and falls as G grows: 0.945 / 0.902 / 0.867 /
    # 0.836 at 0.5 / 1 / 1.5 / 2 mW.  At 2 mW (G ~ 0.36 kappa) the window
    # follows the sublinear square-root width -kappa + sqrt(kappa**2 +
    # 4*N*G**2) and falls 16% short of the perturbative 2*gamma_eff,
    # outside the band.  Kept at the stated band; the 2 mW failure records
    # where the perturbative estimate stops holding.
    for p_mw in (0.5, 1.0, 1.5, 2.0):
        cfg = ol.standard_setup(2, eta_frac=0.0, power_w=p_mw * 1e-3)
        st = ol.solve_steady_state(cfg)
        predicted = 2.0 * ol.predict_linewidth(cfg, st)
        sp = ol.compute_spectrum(cfg, points=4001,
                                 include_second_order=False)
        fitted = ol.fit_linewidth(sp)[0].fwhm
        assert 0.85 <= fitted / predicted <= 1.15, (
            f"P={p_mw} mW: fitted FWHM / (2*gamma_eff) = "
            f"{fitted / predicted:.3f} outside [0.85, 1.15]")
