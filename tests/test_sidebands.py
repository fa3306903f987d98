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
    random_two_mode,
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
    second = ol.solve_second_order(split_config, split_steady, w)
    assert complex(second.a_minus) == pytest.approx(FROZEN_A2_MINUS,
                                                    rel=1e-12)
    eff = ol.second_order_efficiency(second.a_minus,
                                     ol.probe_amplitude(split_config),
                                     split_config.cavity.kappa)
    assert 100.0 * float(eff) == pytest.approx(FROZEN_EFFICIENCY_PCT,
                                               rel=1e-12)


# ---------------------------------------------------------------------------
# Route equivalence and structural identities


def test_routes_agree_over_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        cfg, steady, w = random_two_mode(rng)
        d1 = ol.solve_first_order(cfg, steady, w)
        c1 = ol.first_order_closed_form(cfg, steady, w)
        pairs = (
            (d1.a_minus, c1.a_minus),
            (d1.a_plus_conj, c1.a_plus_conj),
            (d1.b_minus[0], c1.b_minus[0]),
            (d1.b_minus[1], c1.b_minus[1]),
            (d1.b_plus_conj[0], c1.b_plus_conj[0]),
            (d1.b_plus_conj[1], c1.b_plus_conj[1]),
        )
        for direct, closed in pairs:
            assert abs(direct - closed) <= 1e-10 * max(abs(closed), 1e-300)
        d2 = ol.solve_second_order(cfg, steady, w)
        c2 = ol.second_order_closed_form(cfg, steady, w)
        assert abs(d2.a_minus - c2) <= 1e-9 * max(abs(c2), 1e-300)


def test_closed_form_respects_linear_system_sign_convention():
    # The lone conj(B_2^+) amplitude is the one whose naive closed form
    # comes out with an inverted overall sign; the implementation must
    # agree with the matrix solve, not merely up to sign.
    rng = np.random.default_rng(99)
    for _ in range(20):
        cfg, steady, w = random_two_mode(rng)
        direct = ol.solve_first_order(cfg, steady, w).b_plus_conj[1]
        closed = ol.first_order_closed_form(cfg, steady, w).b_plus_conj[1]
        assert abs(direct - closed) <= 1e-10 * abs(direct)
        assert abs(direct + closed) > abs(direct)  # opposite sign would trip


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


def test_theta_parity_of_observables():
    rng = np.random.default_rng(11)
    for _ in range(8):
        theta = float(rng.uniform(0.0, TWO_PI))
        sp = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=0.05, theta=theta), points=61,
            span=(0.85, 1.15))
        sm = ol.compute_spectrum(
            ol.standard_setup(2, eta_frac=0.05, theta=TWO_PI - theta),
            points=61, span=(0.85, 1.15))
        assert np.allclose(sp.transmission, sm.transmission,
                           rtol=1e-10, atol=0.0)
        assert np.allclose(sp.efficiency_percent, sm.efficiency_percent,
                           rtol=1e-10, atol=0.0)


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
    assert sp.metadata["steady_converged"] is True
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
    second = ol.solve_second_order(three, ol.solve_steady_state(three),
                                   sp3.omega)
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
    est = ol.group_delay(synthetic, at)
    h = w[1] - w[0]
    expected = 3 * c3 * (at - w0) ** 2 + 2 * c2 * (at - w0) + c1
    assert est.delay == pytest.approx(expected, rel=1e-10)
    assert est.step == pytest.approx(h, rel=1e-12)


def test_group_delay_frozen_value(split_config):
    grid = np.linspace(0.948, 0.952, 41) * split_config.omega_ref
    sp = ol.compute_spectrum(split_config, grid, include_second_order=False)
    est = ol.group_delay(sp, 0.95 * split_config.omega_ref)
    assert est.delay == pytest.approx(FROZEN_TAU_095, rel=1e-12)
    # One stencil: the estimate is the spectrum's own column, bit for bit,
    # here and on criterion 12's 4001-point grid.
    assert est.delay == sp.group_delay[est.index]
    fine = ol.compute_spectrum(split_config, points=4001,
                               include_second_order=False)
    est = ol.group_delay(fine, 0.95 * split_config.omega_ref)
    assert est.delay == fine.group_delay[est.index]


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
    tiny = ol.compute_spectrum(split_config, points=9, span=(0.94, 0.96))
    with pytest.raises(ol.InvalidParameterError):
        ol.group_delay(tiny, 0.95 * split_config.omega_ref)


def test_group_delay_refuses_one_point_grid(split_config):
    # The edge guard runs before the grid-step check, which needs two points.
    one = ol.compute_spectrum(split_config, [0.95 * split_config.omega_ref])
    assert np.isnan(one.group_delay).all()
    with pytest.raises(ol.InvalidParameterError, match="grid edge"):
        ol.group_delay(one, 0.95 * split_config.omega_ref)


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
    second = ol.solve_second_order(three, st, w)
    assert np.isfinite(second.a_minus)
    assert second.b_minus.shape == second.b_plus_conj.shape == (3,)
    for closed in (ol.first_order_closed_form, ol.second_order_closed_form):
        with pytest.raises(ol.UnsupportedTopologyError):
            closed(three, st, w)


def test_zero_detuning_point_is_regular():
    # Omega = 0 sits far from every resonance denominator of a damped
    # system; the solver must return finite amplitudes there, not a false
    # singular-system report.
    cfg, steady, _ = random_two_mode(np.random.default_rng(5))
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


def _random_chain(rng: np.random.Generator, n: int):
    """Random N-mode chain with a random phase on every link."""
    om = 6e6 * float(rng.uniform(0.5, 2.0))
    cfg = ol.SystemConfig(
        cavity=ol.CavityParams(
            kappa=om * 10 ** float(rng.uniform(-2.0, -0.2)),
            delta_c=float(rng.uniform(-3.0, 3.0)) * om),
        modes=tuple(
            ol.MechanicalMode(omega=om * float(rng.uniform(0.9, 1.1)),
                              gamma=om * 10 ** float(rng.uniform(-5, -2)),
                              g=10 ** float(rng.uniform(0.0, 1.8)))
            for _ in range(n)),
        couplings=tuple(
            ol.PhononCoupling(eta=float(rng.uniform(0.0, 0.15)) * om,
                              theta=float(rng.uniform(0.0, TWO_PI)))
            for _ in range(n - 1)),
        drive=ol.DriveSpec(power_pump=1.5e-3, omega_pump=1.77e15),
    )
    alpha = 10 ** float(rng.uniform(2, 5)) * np.exp(
        1j * float(rng.uniform(0.0, TWO_PI)))
    steady = synthetic_steady(alpha, cfg.cavity.delta_c, n)
    return cfg, steady, rng.uniform(-3.0, 3.0, 64) * om


def test_chain_elimination_matches_dense_solve():
    # The Schur-complement solve against a dense (2N+2)x(2N+2) solve of
    # the same sideband system, for the first- and second-order
    # right-hand sides.
    rng = np.random.default_rng(2026)
    for n in (1, 2, 3, 8, 16):
        for _ in range(4):
            cfg, steady, w = _random_chain(rng, n)
            view = sb._view(cfg, steady)
            first = sb._first_order_raw(view, w)
            dense_first, dense_second = _dense_orders(view, w)
            second = sb._second_order_raw(view, w, dense_first)
            _assert_close_per_point(first + second,
                                    dense_first + dense_second, w)


@pytest.mark.parametrize("n, chain", [
    (1, {}),
    (3, {"eta_frac": 0.05, "theta": 0.37 * math.pi}),
], ids=["n1", "n3_broken"])
def test_second_order_public_api_beyond_two_modes(n, chain):
    # solve_second_order on a grid against the dense solve, the scalar
    # call against the grid, and a passed-in first order against none.
    cfg = ol.standard_setup(n, **chain)
    steady = ol.solve_steady_state(cfg)
    w = np.linspace(0.9, 1.1, 21) * cfg.omega_ref
    first = ol.solve_first_order(cfg, steady, w)
    second = ol.solve_second_order(cfg, steady, w, first)
    assert second.b_minus.shape == second.b_plus_conj.shape == (len(w), n)
    _, dense = _dense_orders(sb._view(cfg, steady), w)
    _assert_close_per_point((second.a_minus, second.a_plus_conj,
                             second.b_minus, second.b_plus_conj), dense, w)
    again = ol.solve_second_order(cfg, steady, w)
    assert again.a_minus.tobytes() == second.a_minus.tobytes()
    point = ol.solve_second_order(cfg, steady, w[7])
    assert point.a_minus == pytest.approx(second.a_minus[7], rel=1e-12)
    assert np.allclose(point.b_minus, second.b_minus[7], rtol=1e-12, atol=0)


def test_zero_cavity_determinant_raises_typed_error():
    # kappa = 0 with the mechanics decoupled leaves det = d0 d1, which
    # vanishes where the sideband frequency meets the detuning.
    w = np.linspace(0.5, 1.5, 11)
    with pytest.raises(ol.SingularSystemError,
                       match=r"omega = 1\.000000e\+00"):
        sb._sideband_response(
            0.0, 1.0, np.array([0.01]), np.array([1.0]),
            np.zeros(0, dtype=complex), np.zeros(1, dtype=complex), 1.0, w,
            1, (np.ones_like(w), np.zeros_like(w)))


def _traced_peak_mb(fn) -> float:
    fn()  # warm-up: first-call caches are not the builder's working memory
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_response_builder_working_memory():
    # The chain solves work in place over the right-hand-side blocks, so
    # a spectrum holds about 4.2 (N, K) complex arrays at its peak with
    # the first order (8.52 MB at N = 32, K = 4001; one array is 2.05 MB)
    # and 9.7 with the second order (19.89 MB).  The bounds leave 10 % and
    # 18 % of margin.  Holding the mechanical drive twice, as (-d, d),
    # reads 21.93 MB; solving on a copy of the blocks 10.57 / 25.58 MB,
    # and a builder that keeps its temporaries 19.28 / 36.21 MB.
    cfg = ol.standard_setup(32, eta_frac=0.05, theta=math.pi / 2)
    steady = ol.solve_steady_state(cfg)
    w = np.linspace(0.8, 1.2, 4001) * cfg.omega_ref
    first = _traced_peak_mb(lambda: ol.compute_spectrum(
        cfg, w, include_second_order=False, steady=steady))
    both = _traced_peak_mb(lambda: ol.compute_spectrum(
        cfg, w, include_second_order=True, steady=steady))
    assert first <= 9.4 and both <= 23.5, (first, both)
