"""First/second-order sideband solvers, closed forms, and observables."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import omit_lab as ol
from omit_lab import sidebands as sb

from conftest import (
    FROZEN_A1_MINUS,
    FROZEN_A1_PLUS_CONJ,
    FROZEN_A2_MINUS,
    FROZEN_B1_MINUS,
    FROZEN_B2_PLUS_CONJ,
    FROZEN_EFFICIENCY_PCT,
    FROZEN_TAU_095,
    FROZEN_TP,
    FROZEN_TRANSMISSION,
    TWO_PI,
    random_config,
    random_working_point,
    synthetic_steady,
)


# ---------------------------------------------------------------------------
# Frozen working point


def test_first_order_amplitudes_frozen(split_config, split_steady):
    w = 0.95 * split_config.omega_ref
    first = ol.solve_first_order(split_config, split_steady, w)
    assert complex(first.a_minus) == pytest.approx(FROZEN_A1_MINUS, rel=1e-12)
    assert complex(first.a_plus_conj) == pytest.approx(FROZEN_A1_PLUS_CONJ,
                                                       rel=1e-12)
    assert complex(first.b_minus[0]) == pytest.approx(FROZEN_B1_MINUS,
                                                      rel=1e-12)
    assert complex(first.b_plus_conj[1]) == pytest.approx(FROZEN_B2_PLUS_CONJ,
                                                          rel=1e-12)


def test_transmission_frozen(split_config, split_steady):
    w = 0.95 * split_config.omega_ref
    first = ol.solve_first_order(split_config, split_steady, w)
    tp, trans = ol.transmission(first.a_minus,
                                ol.probe_amplitude(split_config),
                                split_config.cavity.kappa)
    assert complex(tp) == pytest.approx(FROZEN_TP, rel=1e-12)
    assert float(trans) == pytest.approx(FROZEN_TRANSMISSION, rel=1e-12)


def test_second_order_frozen(split_config, split_steady):
    w = 0.95 * split_config.omega_ref
    first = ol.solve_first_order(split_config, split_steady, w)
    second = ol.solve_second_order(split_config, split_steady, w, first)
    assert complex(second.a_minus) == pytest.approx(FROZEN_A2_MINUS,
                                                    rel=1e-12)
    eff = ol.second_order_efficiency(second.a_minus,
                                     ol.probe_amplitude(split_config),
                                     split_config.cavity.kappa)
    assert 100.0 * float(eff) == pytest.approx(FROZEN_EFFICIENCY_PCT,
                                               rel=1e-12)


# ---------------------------------------------------------------------------
# Structural identities (route equivalence is criterion 01's)


def test_probe_linearity(split_config, split_steady):
    # First-order amplitudes are strictly linear in the probe amplitude.
    w = np.linspace(0.9, 1.1, 7) * split_config.omega_ref
    base = ol.standard_setup(2, eta_frac=0.05, theta=math.pi / 2,
                             probe_ratio=0.02)
    double = ol.standard_setup(2, eta_frac=0.05, theta=math.pi / 2,
                               probe_ratio=0.04)
    a_base = ol.solve_first_order(base, split_steady, w).a_minus
    a_double = ol.solve_first_order(double, split_steady, w).a_minus
    assert np.all(np.abs(a_double - 2.0 * a_base) <= 1e-12 * np.abs(a_double))


def test_two_pi_periodicity_bit_identical():
    # For these offsets the canonicalisation arithmetic is exact in
    # binary64, so whole spectra must agree bit for bit.
    for theta in (0.5, 1.0, 3.0):
        a = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=0.05, theta=theta),
            points=101, span=(0.9, 1.1))
        b = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=0.05, theta=theta + TWO_PI),
            points=101, span=(0.9, 1.1))
        assert np.array_equal(a.amplitude, b.amplitude)
        assert np.array_equal(a.efficiency_percent, b.efficiency_percent)


# ---------------------------------------------------------------------------
# Spectrum assembly and group delay


def test_spectrum_metadata_and_route_discrepancy(split_config):
    sp = ol.compute_spectrum(split_config, points=201)
    assert sp.metadata["n_modes"] == 2
    assert sp.metadata["second_order"] is True
    assert np.nanmax(sp.route_discrepancy) < 1e-10
    assert sp.omega.shape == sp.amplitude.shape == sp.transmission.shape
    i = sp.nearest_index(0.95 * split_config.omega_ref)
    assert abs(sp.omega_normalized[i] - 0.95) < 1e-3


def test_spectrum_second_order_control(split_config):
    sp = ol.compute_spectrum(split_config, points=51,
                             include_second_order=False)
    assert np.all(np.isnan(sp.efficiency_percent))
    assert sp.metadata["second_order"] is False
    # Beyond two modes the second order is on by default and is exactly
    # the public solve; only the closed-form check stays two-mode.
    three = ol.standard_setup(3, eta_frac=0.05, theta=math.pi / 2)
    sp3 = ol.compute_spectrum(three, points=51)
    assert sp3.metadata["second_order"] is True
    st3 = ol.solve_steady_state(three)
    second = ol.solve_second_order(
        three, st3, sp3.omega, ol.solve_first_order(three, st3, sp3.omega))
    want = 100.0 * ol.second_order_efficiency(
        second.a_minus, ol.probe_amplitude(three), three.cavity.kappa)
    assert sp3.efficiency_percent.tobytes() == want.tobytes()
    assert np.all(np.isnan(sp3.route_discrepancy))
    off = ol.compute_spectrum(three, points=51, include_second_order=False)
    assert np.all(np.isnan(off.efficiency_percent))
    assert off.amplitude.tobytes() == sp3.amplitude.tobytes()


@pytest.mark.parametrize("flag", [None, 0, 1, "auto", np.bool_(True)])
def test_second_order_flag_must_be_bool(split_config, flag):
    # None was the removed "auto" and silently meant off; anything but a
    # bool is refused, by the sweep before its first point.
    with pytest.raises(ol.InvalidParameterError,
                       match="include_second_order"):
        ol.compute_spectrum(split_config, points=5,
                            include_second_order=flag)
    spec = ol.SweepSpec(parameter="theta_rad", values=(0.0, 1.0))
    with pytest.raises(ol.InvalidParameterError,
                       match="include_second_order"):
        ol.run_sweep(split_config, spec, points=5, include_second_order=flag)


def test_group_delay_exact_on_cubic_phase(split_config):
    # A synthetic t_p = exp(i*phi(w)) with cubic phi is differentiated
    # exactly by the five-point stencil (its error term is O(h^4) on the
    # fifth derivative).
    sp = ol.compute_spectrum(split_config, points=41, span=(0.9, 1.1))
    w = sp.omega
    c3, c2, c1 = 3e-21, -1e-13, 7e-6
    w0 = w.mean()
    phi = c3 * (w - w0) ** 3 + c2 * (w - w0) ** 2 + c1 * (w - w0)
    amp = np.exp(1j * phi)
    synthetic = ol.Spectrum(
        omega=w, amplitude=amp,
        efficiency_percent=sp.efficiency_percent,
        route_discrepancy=sp.route_discrepancy, metadata=dict(sp.metadata))
    at = w[len(w) // 2]
    delay = ol.group_delay(synthetic, at)
    expected = 3 * c3 * (at - w0) ** 2 + 2 * c2 * (at - w0) + c1
    assert delay == pytest.approx(expected, rel=1e-10)


def test_group_delay_frozen_value(split_config):
    grid = np.linspace(0.948, 0.952, 41) * split_config.omega_ref
    sp = ol.compute_spectrum(split_config, grid, include_second_order=False)
    at = 0.95 * split_config.omega_ref
    delay = ol.group_delay(sp, at)
    assert delay == pytest.approx(FROZEN_TAU_095, rel=1e-12)
    # One stencil: the estimate is the spectrum's own column, bit for bit,
    # here and on criterion 12's 4001-point grid.
    assert delay == sp.group_delay[sp.nearest_index(at)]
    fine = ol.compute_spectrum(split_config, points=4001,
                               include_second_order=False)
    assert ol.group_delay(fine, at) == fine.group_delay[fine.nearest_index(at)]


def test_derived_columns_follow_amplitude(split_config):
    # transmission, phase and group delay are derived from t_p on access,
    # so a replaced amplitude cannot leave them behind.
    sp = ol.compute_spectrum(split_config, points=41, span=(0.9, 1.1),
                             include_second_order=False)
    # Half the amplitude, plus a linear phase of slope 1e-6 s.
    amp = 0.5 * sp.amplitude * np.exp(1j * 1e-6 * (sp.omega - sp.omega[0]))
    moved = dataclasses.replace(sp, amplitude=amp)
    np.testing.assert_array_equal(moved.transmission, np.abs(amp) ** 2)
    np.testing.assert_array_equal(moved.phase, np.unwrap(np.angle(amp)))
    np.testing.assert_allclose(moved.transmission, 0.25 * sp.transmission,
                               rtol=1e-12)
    np.testing.assert_allclose(moved.group_delay[2:-2],
                               sp.group_delay[2:-2] + 1e-6, rtol=1e-9)
    assert np.all(np.isnan(moved.group_delay[[0, 1, -2, -1]]))


def test_group_delay_guards(split_config):
    sp = ol.compute_spectrum(split_config, points=41, span=(0.9, 1.1))
    with pytest.raises(ol.InvalidParameterError):
        ol.group_delay(sp, sp.omega[0])  # too close to the edge
    # Two points from either edge suffice: the stencil's own reach.
    tiny = ol.compute_spectrum(split_config, points=9, span=(0.94, 0.96))
    at = 0.95 * split_config.omega_ref
    assert ol.group_delay(tiny, at) == tiny.group_delay[4]
    with pytest.raises(ol.InvalidParameterError):
        ol.group_delay(tiny, tiny.omega[1])


def test_group_delay_refuses_one_point_grid(split_config):
    # The column is NaN on a grid too short for the stencil.
    one = ol.compute_spectrum(split_config, [0.95 * split_config.omega_ref])
    assert np.isnan(one.group_delay).all()
    with pytest.raises(ol.InvalidParameterError, match="undefined"):
        ol.group_delay(one, 0.95 * split_config.omega_ref)


def _non_uniform_spectrum(config):
    """A 41-point first-order spectrum on a grid that bunches to the left."""
    grid = (0.9 + 0.2 * np.linspace(0.0, 1.0, 41) ** 2) * config.omega_ref
    return ol.compute_spectrum(config, grid, include_second_order=False)


def _zero_at_centre(config):
    """A uniform spectrum whose t_p vanishes at its centre point."""
    sp = ol.compute_spectrum(config, points=41, span=(0.9, 1.1),
                             include_second_order=False)
    amp = sp.amplitude.copy()
    amp[20] = 0.0
    return dataclasses.replace(sp, amplitude=amp)


def _second_order_on_other_grid(config):
    steady = ol.solve_steady_state(config)
    grid = np.linspace(0.9, 1.1, 11) * config.omega_ref
    first = ol.solve_first_order(config, steady, grid[:5])
    ol.solve_second_order(config, steady, grid, first)


def _spectrum_without_probe(config):
    ol.compute_spectrum(dataclasses.replace(config, drive=dataclasses.replace(
        config.drive, probe_ratio=0.0, power_probe=None)), points=11)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda c: ol.group_delay(_non_uniform_spectrum(c),
                                          c.omega_ref),
                 ol.InvalidParameterError, "uniform grid",
                 id="group_delay_non_uniform_grid"),
    pytest.param(lambda c: ol.group_delay(_zero_at_centre(c), c.omega_ref),
                 ol.DegeneratePointError, "vanishes",
                 id="group_delay_vanishing_tp"),
    pytest.param(_second_order_on_other_grid, ol.InvalidParameterError,
                 "different grid", id="second_order_first_from_other_grid"),
    pytest.param(_spectrum_without_probe, ol.InvalidParameterError,
                 "probe amplitude must be > 0", id="spectrum_probe_ratio_0"),
    pytest.param(lambda c: ol.second_order_efficiency(1.0, 0.0,
                                                      c.cavity.kappa),
                 ol.InvalidParameterError, "eps_p must be > 0",
                 id="efficiency_eps_p_0"),
])
def test_sideband_refusals(split_config, call, error, match):
    with pytest.raises(error, match=match):
        call(split_config)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0],
                         ids=["nan", "inf", "zero"])
@pytest.mark.parametrize("call, name", [
    (lambda x: ol.optical_damping_rate(1e5, x, 1e7, 1e7), "kappa"),
    (lambda x: ol.optical_spring_shift(1e5, x, 1e7, 1e7), "kappa"),
    (lambda x: ol.transmission(1 + 1j, x, 1e6), "eps_p"),
    (lambda x: ol.second_order_efficiency(1 + 1j, x, 1e6), "eps_p"),
], ids=["damping_kappa", "spring_kappa", "transmission_eps_p",
        "efficiency_eps_p"])
def test_observable_scales_must_be_finite_and_positive(call, name, bad):
    # A NaN or infinite scale compares False against 0, so only a finite
    # check refuses it rather than returning NaN, 0 or t_p = 1.
    with pytest.raises(ol.InvalidParameterError, match=name):
        call(bad)


def test_spectrum_grid_validation(split_config):
    with pytest.raises(ol.InvalidParameterError):
        ol.compute_spectrum(split_config, points=1)
    with pytest.raises(ol.InvalidParameterError):
        ol.compute_spectrum(split_config, span=(1.2, 0.8))
    with pytest.raises(ol.InvalidParameterError, match="empty"):
        ol.compute_spectrum(split_config, omega=np.array([]))
    with pytest.raises(ol.InvalidParameterError, match="empty"):
        ol.solve_first_order(split_config, ol.solve_steady_state(split_config),
                             np.array([]))
    for points in (2.5, float("nan"), "5", None):
        with pytest.raises(ol.InvalidParameterError, match="whole number"):
            ol.compute_spectrum(split_config, points=points)
    with pytest.raises(ol.InvalidParameterError, match="finite"):
        ol.compute_spectrum(split_config, span=(0.8, math.inf))
    # A whole float is a whole number of points.
    assert len(ol.compute_spectrum(split_config, points=5.0).omega) == 5


def test_uniform_step_detection():
    h = 0.25
    exact = np.arange(11) * h  # every step is exactly h
    assert sb._uniform_step(exact) == h
    for off, uniform in ((2e-9, False), (0.5e-9, True)):
        grid = exact.copy()
        grid[6:] += off * h  # one step of h * (1 + off)
        assert (sb._uniform_step(grid) is not None) == uniform
        # Same meaning as an elementwise relative tolerance of 1e-9.
        steps = np.diff(grid)
        assert uniform == np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
    with_nan = exact.copy()
    with_nan[4] = np.nan
    assert sb._uniform_step(with_nan) is None
    assert sb._uniform_step(exact[::-1]) is None


def test_spectrum_edge_delay_is_nan(split_config):
    sp = ol.compute_spectrum(split_config, points=51, span=(0.9, 1.1))
    assert np.all(np.isnan(sp.group_delay[:2]))
    assert np.all(np.isnan(sp.group_delay[-2:]))
    assert np.all(np.isfinite(sp.group_delay[2:-2]))


def test_closed_forms_require_two_modes_second_order_does_not():
    three = ol.standard_setup(3, eta_frac=0.05, theta=math.pi / 2)
    st = ol.solve_steady_state(three)
    w = 0.95 * three.omega_ref
    second = ol.solve_second_order(three, st, w,
                                   ol.solve_first_order(three, st, w))
    assert np.isfinite(second.a_minus)
    assert second.b_minus.shape == second.b_plus_conj.shape == (3,)
    for closed in (ol.first_order_closed_form, ol.second_order_closed_form):
        with pytest.raises(ol.UnsupportedTopologyError):
            closed(three, st, w)


def test_closed_forms_with_the_pump_off():
    # With the pump off nothing is mixed up to 2 Omega: the closed second
    # order is 0, as the chain solve gives it, not 0/0, and the route check
    # stays finite.
    base = ol.standard_setup(2, eta_frac=0.05, theta=math.pi / 2)
    cfg = dataclasses.replace(base, drive=ol.DriveSpec(
        power_pump=0.0, probe_ratio=None, power_probe=1e-6))
    st = ol.solve_steady_state(cfg)
    w = np.linspace(0.85, 1.15, 41) * cfg.omega_ref
    with np.errstate(all="raise"):
        a2 = ol.second_order_closed_form(cfg, st, w)
        spectrum = ol.compute_spectrum(cfg, w, steady=st)
    assert np.all(a2 == 0.0)
    assert spectrum.metadata["route_discrepancy_max"] <= 1e-12


def test_zero_detuning_point_is_regular():
    # Omega = 0 sits far from every resonance denominator of a damped
    # system; the solver must return finite amplitudes there, not a false
    # singular-system report.
    cfg, steady, _ = random_working_point(np.random.default_rng(5))
    first = ol.solve_first_order(cfg, steady, np.array([0.0]))
    assert np.all(np.isfinite(first.a_minus))


# ---------------------------------------------------------------------------
# Dense reference for the chain-elimination solve


def _sideband_matrix(view, w: np.ndarray, order: int) -> np.ndarray:
    """Dense sideband matrix at ``order * w`` for each grid frequency.

    Unknown layout: ``[A-, conj(A+), B0-, conj(B0+), B1-, conj(B1+), ...]``.
    """
    n = len(view.omega)
    m = 2 * n + 2
    ww = order * w
    mat = np.zeros((len(w), m, m), dtype=complex)
    mat[:, 0, 0] = view.kappa + 1j * (view.delta - ww)
    mat[:, 1, 1] = view.kappa - 1j * (view.delta + ww)
    a = view.alpha
    ac = np.conj(a)
    for l in range(n):
        rm, rp = 2 + 2 * l, 3 + 2 * l
        gl = view.g[l]
        mat[:, 0, rm] = 1j * gl * a
        mat[:, 0, rp] = 1j * gl * a
        mat[:, 1, rm] = -1j * gl * ac
        mat[:, 1, rp] = -1j * gl * ac
        mat[:, rm, rm] = view.gamma[l] + 1j * (view.omega[l] - ww)
        mat[:, rm, 0] = 1j * gl * ac
        mat[:, rm, 1] = 1j * gl * a
        mat[:, rp, rp] = view.gamma[l] - 1j * (view.omega[l] + ww)
        mat[:, rp, 0] = -1j * gl * ac
        mat[:, rp, 1] = -1j * gl * a
        if l + 1 < n:
            hop = view.eta[l] * np.exp(1j * view.theta[l])
            mat[:, rm, rm + 2] = 1j * hop
            mat[:, rp, rp + 2] = -1j * np.conj(hop)
        if l - 1 >= 0:
            hop = view.eta[l - 1] * np.exp(1j * view.theta[l - 1])
            mat[:, rm, rm - 2] = 1j * np.conj(hop)
            mat[:, rp, rp - 2] = -1j * hop
    return mat


def _dense_solve(view, w: np.ndarray, order: int, rhs: np.ndarray):
    x = np.linalg.solve(_sideband_matrix(view, w, order), rhs[..., None])
    x = x[..., 0]
    return x[:, 0], x[:, 1], x[:, 2::2], x[:, 3::2]


def _dense_orders(view, w: np.ndarray):
    """Dense first- and second-order solves, the second driven by the
    dense first order."""
    n = len(view.omega)
    rhs = np.zeros((len(w), 2 * n + 2), dtype=complex)
    rhs[:, 0] = view.eps_p
    first = _dense_solve(view, w, 1, rhs)
    a1m, a1pc, b1m, b1pc = first
    s1 = (b1m + b1pc) @ view.g
    rhs[:, 0] = -1j * a1m * s1
    rhs[:, 1] = 1j * a1pc * s1
    rhs[:, 2::2] = -1j * np.outer(a1pc * a1m, view.g)
    rhs[:, 3::2] = 1j * np.outer(a1pc * a1m, view.g)
    return first, _dense_solve(view, w, 2, rhs)


def _assert_close_per_point(got, want, w: np.ndarray) -> None:
    # B arrays are compared per grid point against their largest mode
    # amplitude.
    for g, d in zip(got, want):
        g, d = g.reshape(len(w), -1), d.reshape(len(w), -1)
        scale = np.max(np.abs(d), axis=1, keepdims=True)
        assert np.all(np.abs(g - d) <= 1e-10 * scale)


def test_chain_elimination_matches_dense_solve():
    # The chain sweep and cavity solve against a dense (2N+2)x(2N+2)
    # solve of the same sideband system, for the first- and second-order
    # right-hand sides, with the mechanics back-substituted and on the
    # cavity-only path that keeps no rows.  The hop-free draws (eta = 0 on
    # every link) take the sweep's one-division path beyond N = 1.
    rng = np.random.default_rng(2026)
    draws = [(n, True) for n in (1, 2, 3, 8, 16) for _ in range(4)]
    draws += [(n, False) for n in (3, 8) for _ in range(4)]
    for n, hopping in draws:
        cfg, steady, w = random_working_point(rng, n, hopping=hopping,
                                             points=64)
        view = sb._view(cfg, steady)
        dense_first, dense_second = _dense_orders(view, w)
        first = sb._first_order_raw(view, w, mechanics=True)
        second = sb._second_order_raw(view, w, *dense_first[:2],
                                      mechanics=True)
        _assert_close_per_point(first + second,
                                dense_first + dense_second, w)
        cavity = (sb._first_order_raw(view, w)
                  + sb._second_order_raw(view, w, *dense_first[:2]))
        _assert_close_per_point(cavity,
                                dense_first[:2] + dense_second[:2], w)


def _site_chain(config, steady):
    """The builder's arguments for the site chain, as ``_site_response``
    forms them."""
    view = sb._view(config, steady)
    return (view.kappa, view.delta, view.gamma, view.omega,
            view.eta * np.exp(1j * view.theta), view.g * abs(view.alpha),
            sb._pump_phase(view.alpha))


def _star_chain(config, steady):
    """The builder's arguments for the normal-mode star basis, as
    ``transmission_via_normal_modes`` forms them."""
    basis = ol.build_normal_modes(config, steady)
    return (config.cavity.kappa, steady.delta_eff, basis.damping,
            basis.frequencies, np.zeros(basis.n - 1), basis.couplings,
            sb._pump_phase(steady.alpha))


def test_stacked_chain_solve_equals_both_chains(monkeypatch):
    # The builder sweeps M- = gamma + i(H - v) once, over the detunings
    # (v, -v): as conj(M+(v)) = M-(-v), the halves of its sum s = u^H
    # M-^-1 u must hold s- and conj(s+), s+ = u^T M+^-1 conj(u), and so
    # sigma = s+ - s-, with the bits of sweeping M- and M+ = gamma -
    # i(conj(H) + v) apart, and so must the back-substituted y- and
    # conj(y+); the cavity-only sweep, which keeps no rows, must give the
    # same s.  Only the sign of an exact zero may differ, which the
    # comparison clears by adding 0: where M+'s diagonal has a zero
    # imaginary part (v = -omega; each grid holds such points), the
    # stacked row's is omega - (-v) = +0, whose conjugate is -0, not M+'s
    # +0; and with the pump off the direct sweep's column conj(u) is
    # 0 - 0j.
    rng = np.random.default_rng(33)
    chains = []
    for n in range(1, 9):
        for hopping in (True, False):
            chains.append((*random_working_point(rng, n, hopping=hopping,
                                                points=16), _site_chain))
    for n, theta in ((2, 0.37 * math.pi), (3, 0.0), (6, math.pi / 2)):
        cfg = ol.standard_setup(n, eta_frac=0.05, theta=theta)
        chains.append((cfg, ol.solve_steady_state(cfg), None, _star_chain))
    cfg = random_config(rng, 3)
    chains.append((cfg, synthetic_steady(0.0, cfg.cavity.delta_c, 3), None,
                   _site_chain))

    sweep = sb._chain_sweep
    calls = []

    def recorded(*args):
        s, y = sweep(*args)
        calls.append((s.copy(), None if y is None else y.copy()))
        return s, y

    monkeypatch.setattr(sb, "_chain_sweep", recorded)
    for cfg, steady, w, chain in chains:
        args = chain(cfg, steady)
        _, _, damping, frequencies, hop, coupling, _ = args
        ref = cfg.omega_ref
        if w is None:
            w = np.linspace(-1.5, 1.5, 31) * ref
        w = np.concatenate((w, [0.0, -ref, -ref / 2]))
        k = len(w)
        rhs = (np.ones_like(w), np.zeros_like(w))
        for order in (1, 2):
            calls.clear()
            sb._sideband_response(*args, w, order, rhs)
            sb._sideband_response(*args, w, order, rhs, mechanics=True)
            assert len(calls) == 2
            (s, no_rows), (s_kept, y) = calls
            assert no_rows is None and s.tobytes() == s_kept.tobytes()
            v = order * w
            s_m, y_m = sweep(damping, frequencies, v, 1j * hop,
                             1j * np.conj(hop), coupling, True)
            s_p, y_p = sweep(damping, -frequencies, v, -1j * np.conj(hop),
                             -1j * hop, np.conj(coupling), True)
            assert s[:k].tobytes() == s_m.tobytes()
            assert (np.conj(s[k:]) + 0.0).tobytes() == (s_p + 0.0).tobytes()
            assert ((np.conj(s[k:]) - s[:k] + 0.0).tobytes()
                    == (s_p - s_m + 0.0).tobytes())
            assert y[:, :k].tobytes() == y_m.tobytes()
            assert ((np.conj(y[:, k:]) + 0.0).tobytes()
                    == (y_p + 0.0).tobytes())


@pytest.mark.parametrize("n, chain", [
    (1, {}),
    (3, {"eta_frac": 0.05, "theta": 0.37 * math.pi}),
], ids=["n1", "n3_broken"])
def test_second_order_public_api_beyond_two_modes(n, chain):
    # solve_second_order on a grid against the dense solve and the scalar
    # call against the grid; it reads only the first order's cavity pair.
    cfg = ol.standard_setup(n, **chain)
    steady = ol.solve_steady_state(cfg)
    w = np.linspace(0.9, 1.1, 21) * cfg.omega_ref
    first = ol.solve_first_order(cfg, steady, w)
    second = ol.solve_second_order(cfg, steady, w, first)
    assert second.b_minus.shape == second.b_plus_conj.shape == (len(w), n)
    _, dense = _dense_orders(sb._view(cfg, steady), w)
    _assert_close_per_point((second.a_minus, second.a_plus_conj,
                             second.b_minus, second.b_plus_conj), dense, w)
    no_mechanics = dataclasses.replace(
        first, b_minus=np.full_like(first.b_minus, np.nan),
        b_plus_conj=np.full_like(first.b_plus_conj, np.nan))
    again = ol.solve_second_order(cfg, steady, w, no_mechanics)
    for got, want in zip(dataclasses.astuple(again),
                         dataclasses.astuple(second)):
        assert got.tobytes() == want.tobytes()
    point = ol.solve_second_order(cfg, steady, w[7],
                                  ol.solve_first_order(cfg, steady, w[7]))
    assert point.a_minus == pytest.approx(second.a_minus[7], rel=1e-12)
    assert np.allclose(point.b_minus, second.b_minus[7], rtol=1e-12, atol=0)


def test_zero_cavity_determinant_raises_typed_error():
    # kappa = 0 with the mechanics decoupled leaves det = d0 d1, which
    # vanishes where the sideband frequency meets the detuning.  The
    # builder checks the cavity amplitudes itself, so a caller that reads
    # only them gets the typed error without forming the mechanics; n = 1
    # takes the sweep's hop-free division, n = 3 with hopping its
    # recurrences.
    w = np.linspace(0.5, 1.5, 11)
    singular = r"omega = 1\.000000e\+00"
    for n in (1, 3):
        with pytest.raises(ol.SingularSystemError, match=singular):
            sb._sideband_response(
                0.0, 1.0, np.full(n, 0.01), np.ones(n),
                np.full(n - 1, 0.1 + 0.0j), np.zeros(n, dtype=complex), 1.0,
                w, 1, (np.ones_like(w), np.zeros_like(w)))
    # A mode with gamma = 1e-100 and coupling 1e-60 answers the cavity
    # with 1e40 at its resonance v = 1, so B- overflows there (1e320)
    # while A- stays at the drive, 1e280: the cavity-only call returns,
    # and forming the mechanics raises.
    args = (1.0, 1.0, np.array([1e-100]), np.ones(1),
            np.zeros(0, dtype=complex), np.array([1e-60 + 0.0j]), 1.0, w, 1,
            (np.full_like(w, 1e280), np.zeros_like(w)))
    a_minus, a_plus_conj = sb._sideband_response(*args)
    assert np.isfinite(a_minus).all() and np.isfinite(a_plus_conj).all()
    with pytest.raises(ol.SingularSystemError, match=singular):
        sb._sideband_response(*args, mechanics=True)


def _traced_peak_mb(fn) -> float:
    fn()  # warm-up: first-call caches are not the builder's working memory
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_response_builder_working_memory():
    # A spectrum reads only sigma = u^T M+^-1 conj(u) - u^H M-^-1 u per
    # grid point, which one forward sweep over the stacked detunings
    # (v, -v) accumulates while it holds the current site's 1 / d, z and
    # r rows, the sum and one scratch row: five (2K,) complex rows, 0.64
    # MB at K = 4001, whatever N.  At N = 8, 32 and 64 a broken chain's
    # spectrum then peaks at 0.90 MB with the first order and 1.45 MB
    # with the second (the cavity solve's (K,) rows and the first order's
    # amplitudes that drive the second), a dark chain's first order at
    # 0.90 MB, and the star route at 0.87-0.94 MB, its N x N basis
    # included.  The bounds leave about 15 % of margin; each peak stays
    # within 10 % of its N = 8 value.
    peaks = []
    for n in (8, 32, 64):
        lock = {"lock_delta_frac": None} if n == 64 else {}
        cfg = ol.standard_setup(n, eta_frac=0.05, theta=math.pi / 2, **lock)
        dark = ol.standard_setup(n, **lock)
        steady, dark_steady = map(ol.solve_steady_state, (cfg, dark))
        w = np.linspace(0.8, 1.2, 4001) * cfg.omega_ref
        peaks.append([
            _traced_peak_mb(lambda: ol.compute_spectrum(
                cfg, w, include_second_order=False, steady=steady)),
            _traced_peak_mb(lambda: ol.compute_spectrum(
                cfg, w, include_second_order=True, steady=steady)),
            _traced_peak_mb(lambda: ol.compute_spectrum(
                dark, w, include_second_order=False, steady=dark_steady)),
            _traced_peak_mb(lambda: ol.transmission_via_normal_modes(
                cfg, steady, w))])
    peaks = np.array(peaks)
    assert np.all(peaks <= [1.05, 1.7, 1.05, 1.1]), peaks
    assert np.all(peaks <= 1.1 * peaks[0]), peaks
