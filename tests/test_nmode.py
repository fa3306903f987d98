"""Normal-mode analysis of uniform chains and the cross-basis identity."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import omit_lab as ol

from conftest import FROZEN_N3_C2, FROZEN_N3_FREQS, TWO_PI, synthetic_steady


def _chain(n: int, theta1: float, *, etas: float = 0.05) -> ol.SystemConfig:
    return ol.standard_setup(n, eta_frac=etas, theta=theta1)


def _phase_chain(thetas) -> ol.SystemConfig:
    """Uniform chain of ``len(thetas) + 1`` modes with the given phase on
    each link.  The normal-mode basis takes only uniform chains, so tests
    draw the phases rather than a whole configuration."""
    base = ol.standard_setup(len(thetas) + 1, eta_frac=0.05)
    return replace(base, couplings=tuple(
        replace(c, theta=float(theta))
        for c, theta in zip(base.couplings, thetas)))


def test_normal_mode_frequencies_frozen():
    cfg = _chain(3, math.pi / 2)
    st = ol.solve_steady_state(cfg)
    basis = ol.build_normal_modes(cfg, st)
    for got, want in zip(basis.frequencies, FROZEN_N3_FREQS):
        assert got == pytest.approx(want, rel=1e-13)
    assert complex(basis.couplings[1]) == pytest.approx(FROZEN_N3_C2,
                                                        rel=1e-11)


def test_normal_mode_spectrum_is_cosine_ladder():
    # Omega_k = omega_m + 2 eta cos(k pi / (N+1)), k = 1..N.
    for n in (2, 5, 9):
        cfg = _chain(n, 0.7)
        st = ol.solve_steady_state(cfg)
        basis = ol.build_normal_modes(cfg, st)
        omega_m = cfg.modes[0].omega
        eta = cfg.couplings[0].eta
        for k in range(1, n + 1):
            want = omega_m + 2.0 * eta * math.cos(k * math.pi / (n + 1))
            assert basis.frequencies[k - 1] == pytest.approx(want, rel=1e-14)


def test_transform_unitary_up_to_n64():
    # Unitarity is a property of the chain geometry alone, so an arbitrary
    # working point serves; no self-consistent solve is needed.
    rng = np.random.default_rng(17)
    for n in (2, 3, 8, 16, 33, 64):
        cfg = _phase_chain(rng.uniform(0.0, TWO_PI, n - 1))
        st = synthetic_steady(2.0e4 * np.exp(0.41j), cfg.omega_ref, n)
        basis = ol.build_normal_modes(cfg, st)
        m = basis.transform
        gram = m @ m.conj().T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12


def test_even_modes_dark_at_zero_phase():
    for n in range(2, 17):
        cfg = _chain(n, 0.0)
        st = ol.solve_steady_state(cfg)
        basis = ol.build_normal_modes(cfg, st)
        g_lin = ol.linearized_couplings(cfg, st)[0]
        for k in range(2, n + 1, 2):
            assert abs(basis.couplings[k - 1]) < 1e-12 * g_lin
        # Odd modes stay bright.
        for k in range(1, n + 1, 2):
            assert abs(basis.couplings[k - 1]) > 1e-3 * g_lin


def test_even_mode_coupling_closed_form_matches_basis():
    rng = np.random.default_rng(23)
    for _ in range(12):
        n = int(rng.integers(2, 11))
        theta1 = float(rng.uniform(0.0, TWO_PI))
        cfg = _chain(n, theta1)
        st = ol.solve_steady_state(cfg)
        basis = ol.build_normal_modes(cfg, st)
        for k in range(2, n + 1, 2):
            closed = ol.even_mode_coupling(cfg, st, k)
            direct = complex(basis.couplings[k - 1])
            assert abs(closed - direct) <= 1e-10 * max(abs(direct), 1e-300)


def test_even_mode_coupling_guards():
    cfg = _chain(4, 0.3)
    st = ol.solve_steady_state(cfg)
    with pytest.raises(ol.InvalidParameterError):
        ol.even_mode_coupling(cfg, st, 3)  # odd index
    with pytest.raises(ol.InvalidParameterError):
        ol.even_mode_coupling(cfg, st, 6)  # out of range
    rng = np.random.default_rng(1)
    multi = _phase_chain(rng.uniform(0.0, TWO_PI, 3))
    st2 = ol.solve_steady_state(multi)
    with pytest.raises(ol.UnsupportedTopologyError):
        ol.even_mode_coupling(multi, st2, 2)


def test_nonuniform_chain_rejected():
    base = ol.standard_setup(3, eta_frac=0.05)
    modes = list(base.modes)
    modes[1] = ol.MechanicalMode(omega=1.02 * modes[1].omega,
                                 gamma=modes[1].gamma, g=modes[1].g)
    cfg = ol.SystemConfig(cavity=base.cavity, modes=tuple(modes),
                          couplings=base.couplings, drive=base.drive)
    st = ol.solve_steady_state(cfg)
    with pytest.raises(ol.UnsupportedTopologyError):
        ol.build_normal_modes(cfg, st)


def _hopping_varies(n):
    base = ol.standard_setup(n, eta_frac=0.05)
    couplings = (base.couplings[0],
                 ol.PhononCoupling(eta=2.0 * base.couplings[1].eta,
                                   theta=base.couplings[1].theta))
    return ol.SystemConfig(cavity=base.cavity, modes=base.modes,
                           couplings=couplings, drive=base.drive)


@pytest.mark.parametrize("config, match", [
    pytest.param(lambda: ol.standard_setup(1), "at least 2 modes",
                 id="one_mode"),
    pytest.param(lambda: _hopping_varies(3), "uniform hopping",
                 id="non_uniform_hopping"),
])
def test_build_normal_modes_refusals(config, match):
    cfg = config()
    st = ol.solve_steady_state(cfg)
    with pytest.raises(ol.UnsupportedTopologyError, match=match):
        ol.build_normal_modes(cfg, st)


def test_site_and_normal_mode_bases_agree():
    # Same physics in two bases: transmission from the chain (site basis)
    # and from the rotated star system must agree pointwise.
    rng = np.random.default_rng(31)
    grid_frac = np.linspace(0.85, 1.15, 41)
    for n in (2, 3, 4, 6, 16):
        cfg = _phase_chain(rng.uniform(0.0, TWO_PI, n - 1))
        st = ol.solve_steady_state(cfg)
        w = grid_frac * cfg.omega_ref
        site = ol.compute_spectrum(cfg, w, include_second_order=False,
                                   steady=st).amplitude
        star = ol.transmission_via_normal_modes(cfg, st, w)
        assert np.max(np.abs(site - star)) <= 1e-10 * np.max(np.abs(site))


def test_bases_agree_with_the_pump_off():
    # No pump leaves no intracavity field to take a phase from: both
    # bases take phase 1 and return the bare-cavity response.  Nothing is
    # mixed up to 2 Omega either: the second order folds its mechanical
    # drive into the coupling column g |alpha| with the weight conj(A1+)
    # A1- / |alpha|, which is 0 here, not 0/0.
    base = _chain(4, math.pi / 2)
    cfg = ol.SystemConfig(
        cavity=base.cavity, modes=base.modes, couplings=base.couplings,
        drive=ol.DriveSpec(power_pump=0.0, probe_ratio=None,
                           power_probe=1e-6))
    st = ol.solve_steady_state(cfg)
    assert st.alpha == 0.0
    w = np.linspace(0.85, 1.15, 41) * cfg.omega_ref
    site = ol.compute_spectrum(cfg, w, include_second_order=False,
                               steady=st).amplitude
    star = ol.transmission_via_normal_modes(cfg, st, w)
    assert np.max(np.abs(site - star)) <= 1e-12 * np.max(np.abs(site))
    kap, delta = cfg.cavity.kappa, st.delta_eff
    bare = 1.0 - kap / (kap + 1j * (delta - w))
    assert np.allclose(site, bare, rtol=1e-12, atol=0)
    spectrum = ol.compute_spectrum(cfg, w, include_second_order=True,
                                   steady=st)
    assert np.all(spectrum.efficiency_percent == 0.0)
    second = ol.solve_second_order(cfg, st, w,
                                   ol.solve_first_order(cfg, st, w))
    for amplitude in (second.a_minus, second.a_plus_conj, second.b_minus,
                      second.b_plus_conj):
        assert np.all(amplitude == 0.0)


@pytest.mark.parametrize("grid, probe_ratio", [
    ([0.95, math.nan], None), ([], None), ([[0.95, 1.0], [1.0, 1.05]], None),
    ([0.95, 1.05], 0.0),
], ids=["nan", "empty", "two_d", "no_probe"])
def test_normal_mode_transmission_rejects_bad_input(grid, probe_ratio):
    # Refused as InvalidParameterError (exit 2), like the site-basis solve:
    # no singular-system error for a NaN, no empty result, no numpy
    # broadcast error, and no division by a zero probe amplitude.
    cfg = ol.standard_setup(4, eta_frac=0.05, theta=math.pi / 2,
                            probe_ratio=probe_ratio)
    st = ol.solve_steady_state(cfg)
    w = np.asarray(grid, dtype=float) * cfg.omega_ref
    with pytest.raises(ol.InvalidParameterError):
        ol.transmission_via_normal_modes(cfg, st, w)


def test_window_count_matches_mode_count():
    for n, broken, expected in ((2, True, 2), (3, True, 3), (4, True, 4),
                                (2, False, 1), (4, False, 2)):
        theta1 = math.pi / 2 if broken else 0.0
        cfg = _chain(n, theta1)
        sp = ol.compute_spectrum(cfg, include_second_order=False)
        assert ol.count_windows(sp) == expected, (n, broken)
