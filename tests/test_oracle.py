"""Time-domain integration, demodulation, and the closure cross-check."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import omit_lab as ol
from omit_lab import oracle as oracle_mod
from omit_lab.model import solve_mechanical_displacements


def _pump_only(config):
    """``config`` with the probe switched off."""
    return replace(config, drive=replace(config.drive, probe_ratio=0.0,
                                         power_probe=None))


def _assert_stationary(config, steady):
    # Starting exactly on the fixed point with the probe off, nothing may
    # move beyond integration tolerance.
    period = 2.0 * math.pi / config.omega_ref
    tr = ol.integrate_mean_field(
        _pump_only(config), 40 * period,
        initial=(steady.alpha, np.asarray(steady.betas)))
    drift = np.max(np.abs(tr.cavity - steady.alpha))
    assert drift <= 1e-6 * abs(steady.alpha)


def test_unprobed_steady_state_is_stationary(split_config, split_steady):
    _assert_stationary(split_config, split_steady)


@pytest.mark.parametrize("n, chain", [
    (1, {}),
    (3, {"eta_frac": 0.05, "theta": 0.37 * math.pi}),
], ids=["n1", "n3_broken"])
def test_unprobed_steady_state_is_stationary_other_chains(n, chain):
    config = ol.standard_setup(n, **chain)
    _assert_stationary(config, ol.solve_steady_state(config))


def test_unstable_branch_is_left_and_chosen_branch_kept():
    # At N = 64 the locked fixed point Delta = omega_m is unstable.  Kicked
    # by 1e-6, the pump-only dynamics leave it within 20 growth times, while
    # the branch the solver chose absorbs the same kick.
    config = ol.standard_setup(64, eta_frac=0.05, theta=math.pi / 2)
    steady = ol.solve_steady_state(config)
    unstable = steady.branches[1]
    rate = -ol.stability_margin(config, unstable)
    assert rate > 0.0 and steady.margin > 0.0
    eps_l, kappa = ol.pump_amplitude(config), config.cavity.kappa
    for delta, leaves in ((unstable, True), (steady.delta_eff, False)):
        alpha = eps_l / (kappa + 1j * delta)
        betas = solve_mechanical_displacements(config, abs(alpha) ** 2)
        tr = ol.integrate_mean_field(_pump_only(config), 20.0 / rate,
                                     initial=(alpha * (1.0 + 1e-6), betas))
        drift = np.abs(tr.cavity - alpha) / abs(alpha)
        if leaves:
            assert drift[-1] > 1e-2
        else:
            assert np.max(drift) <= 2e-6 and drift[-1] < 1e-6


def _equations(config, eps_l, eps_p, w_probe, t, a, b):
    """The module docstring's mean-field equations, term by term."""
    omega, gamma, g = config.mode_arrays()
    eta, theta = config.coupling_arrays()
    kappa, delta_c = config.cavity.kappa, config.cavity.delta_c
    n = config.n_modes
    da = (-(kappa + 1j * delta_c) * a
          - 1j * a * sum(g[l] * (b[l] + np.conj(b[l])) for l in range(n))
          + eps_l + eps_p * np.exp(-1j * w_probe * t))
    db = np.empty(n, dtype=complex)
    for l in range(n):
        db[l] = -(gamma[l] + 1j * omega[l]) * b[l] - 1j * g[l] * abs(a) ** 2
        if l > 0:
            db[l] -= 1j * eta[l - 1] * np.exp(-1j * theta[l - 1]) * b[l - 1]
        if l < n - 1:
            db[l] -= 1j * eta[l] * np.exp(1j * theta[l]) * b[l + 1]
    return da, db


def _random_chain(rng, n):
    """A chain of ``n`` modes with every parameter drawn at random."""
    base = ol.standard_setup(n)
    omega_m = base.omega_ref
    return replace(
        base,
        cavity=replace(base.cavity,
                       delta_c=rng.uniform(-2.0, 2.0) * omega_m),
        modes=tuple(
            replace(m, omega=m.omega * rng.uniform(0.8, 1.2),
                    gamma=m.gamma * rng.uniform(0.5, 2.0),
                    g=m.g * rng.uniform(0.5, 2.0))
            for m in base.modes),
        couplings=tuple(
            ol.PhononCoupling(eta=rng.uniform(0.0, 0.1) * omega_m,
                              theta=rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(n - 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_mean_field_rhs_matches_equations(n):
    rng = np.random.default_rng(100 + n)
    omega_m = ol.standard_setup(n).omega_ref
    for _ in range(4):
        config = _random_chain(rng, n)
        eps_l = rng.uniform(1e9, 1e10)
        w_probe = rng.uniform(0.5, 1.5) * omega_m
        for eps_p in (0.0, rng.uniform(1e7, 1e8)):
            rhs, _ = oracle_mod._mean_field_rhs(config, eps_l, eps_p,
                                                w_probe)
            for _ in range(5):
                t = rng.uniform(0.0, 1e-3)
                a = complex(*rng.normal(scale=1e3, size=2))
                b = rng.normal(scale=1e2, size=n) \
                    + 1j * rng.normal(scale=1e2, size=n)
                y = np.empty(2 * (n + 1))
                y[0], y[1] = a.real, a.imag
                y[2::2], y[3::2] = b.real, b.imag
                da, db = _equations(config, eps_l, eps_p, w_probe, t, a, b)
                want = np.empty_like(y)
                want[0], want[1] = da.real, da.imag
                want[2::2], want[3::2] = db.real, db.imag
                got = rhs(t, y)
                assert np.max(np.abs(got - want)) <= \
                    1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_jacobian_matches_central_differences(n):
    # The equations are quadratic in the fields, so central differences of
    # the right-hand side are exact up to rounding, at any state and time.
    rng = np.random.default_rng(200 + n)
    omega_m = ol.standard_setup(n).omega_ref
    for _ in range(4):
        config = _random_chain(rng, n)
        rhs, jacobian = oracle_mod._mean_field_rhs(
            config, rng.uniform(1e9, 1e10), rng.uniform(1e7, 1e8),
            rng.uniform(0.5, 1.5) * omega_m)
        y = np.concatenate((rng.normal(scale=1e3, size=2),
                            rng.normal(scale=1e2, size=2 * n)))
        t = rng.uniform(0.0, 1e-3)
        fd = np.empty((y.size, y.size))
        for j in range(y.size):
            h = np.zeros_like(y)
            h[j] = 1e-3 * abs(y[j])
            fd[:, j] = (rhs(t, y + h) - rhs(t, y - h)) / (2.0 * h[j])
        jac = jacobian(y)
        assert np.max(np.abs(jac - fd)) <= 1e-9 * np.max(np.abs(jac))


@pytest.mark.parametrize("n, chain, frac", [
    (2, {"eta_frac": 0.05, "theta": math.pi / 2}, 0.95),
    (4, {"eta_frac": 0.05, "theta": 0.0}, 0.97),
], ids=["split_window", "dark_four"])
def test_expm_matches_scipy(n, chain, frac):
    # Phi = exp(J T) of the shooting, at the pump-only steady state.
    from scipy.linalg import expm

    config = ol.standard_setup(n, **chain)
    steady = ol.solve_steady_state(config)
    eps_l = ol.pump_amplitude(config)
    _, jacobian = oracle_mod._mean_field_rhs(config, eps_l, 0.0, 0.0)
    y, _, _ = oracle_mod._start(config, eps_l, steady.alpha,
                                np.asarray(steady.betas))
    a = jacobian(y) * 2.0 * math.pi / (frac * config.omega_ref)
    want = expm(a)
    assert np.max(np.abs(oracle_mod._expm(a) - want)) <= \
        1e-12 * np.max(np.abs(want))


def test_demodulate_recovers_synthetic_harmonics():
    omega = 5.95e6
    step = (2 * math.pi / omega) / 256
    t = np.arange(0.0, 220 * 2 * math.pi / omega, step)
    mean = 120.0 - 40.0j
    a1m, a1p = 3.0 + 1.0j, -0.5 + 2.0j
    a2m, a2p = 0.25 - 0.125j, 0.05 + 0.45j
    y = (mean + a1m * np.exp(-1j * omega * t) + a1p * np.exp(1j * omega * t)
         + a2m * np.exp(-2j * omega * t) + a2p * np.exp(2j * omega * t))
    trace = ol.TimeTrace(times=t, cavity=y,
                         mechanics=np.zeros((1, len(t)), dtype=complex),
                         omega_probe=omega, step=step)
    demod = ol.demodulate(trace, omega)
    assert complex(demod.mean) == pytest.approx(mean, rel=1e-10)
    assert complex(demod.a1_lower) == pytest.approx(a1m, rel=1e-10)
    assert complex(demod.a1_upper) == pytest.approx(a1p, rel=1e-10)
    assert complex(demod.a2_lower) == pytest.approx(a2m, rel=1e-10)
    assert complex(demod.a2_upper) == pytest.approx(a2p, rel=1e-10)
    assert demod.residual < 1e-9
    assert demod.reliable


def test_demodulate_needs_enough_cycles():
    omega = 5.95e6
    period = 2 * math.pi / omega
    step = period / 256
    t = np.arange(0.0, 10 * period, step)
    trace = ol.TimeTrace(times=t, cavity=np.ones_like(t, dtype=complex),
                         mechanics=np.zeros((1, len(t)), dtype=complex),
                         omega_probe=omega, step=step)
    with pytest.raises(ol.InvalidParameterError):
        ol.demodulate(trace, omega, min_cycles=50)


@pytest.mark.parametrize("bad, name", [
    ({"omega": math.nan}, "omega"), ({"omega": math.inf}, "omega"),
    ({"omega": 0.0}, "omega"),
    ({"settle": math.nan}, "settle"), ({"settle": math.inf}, "settle"),
    ({"settle": -1e-9}, "settle"),
    ({"min_cycles": math.nan}, "min_cycles"), ({"min_cycles": 0}, "min_cycles"),
])
def test_demodulate_rejects_bad_arguments(bad, name):
    omega = 5.95e6
    step = (2 * math.pi / omega) / 100
    t = np.arange(1001) * step
    trace = ol.TimeTrace(times=t, cavity=np.exp(-1j * omega * t),
                         mechanics=np.zeros((1, len(t)), dtype=complex),
                         omega_probe=omega, step=step)
    kwargs = {"omega": omega, "min_cycles": 5, **bad}
    with pytest.raises(ol.InvalidParameterError, match=name):
        ol.demodulate(trace, **kwargs)


def test_step_guard_rejects_undersampling(split_config):
    w = 0.95 * split_config.omega_ref
    # Demodulation needs the 2*Omega harmonic resolved, so the fastest
    # relevant period is pi/Omega; period/64 at the probe detuning is too
    # coarse for it.
    with pytest.raises(ol.InvalidParameterError):
        ol.integrate_mean_field(split_config, 1e-4, omega_probe=w,
                                step=(2 * math.pi / w) / 64.0)


def test_overflow_guard_raises(split_config, monkeypatch):
    # The guard exists to catch numerical divergence; trip it cheaply by
    # tightening the overflow threshold below the working amplitude.  The
    # reported time is the end of a step, inside the integration span.
    monkeypatch.setattr(oracle_mod, "_OVERFLOW_FACTOR", 1e-3)
    t_final = 5e-5
    with pytest.raises(ol.UnstableIntegrationError) as err:
        ol.integrate_mean_field(_pump_only(split_config), t_final,
                                initial="vacuum")
    t = float(re.search(r"t = (\S+) s", str(err.value)).group(1))
    assert 0.0 < t <= t_final


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_overflow_guard_trips_on_non_finite_state(split_config, split_steady,
                                                  bad):
    # A NaN compares False against any limit; the guard must still raise
    # rather than let a diverged state run on.
    eps_l = ol.pump_amplitude(split_config)
    y, _, overflow = oracle_mod._start(split_config, eps_l,
                                       split_steady.alpha,
                                       np.asarray(split_steady.betas))
    overflow(0.0, y)  # the steady state itself passes
    y[1] = bad
    with pytest.raises(ol.UnstableIntegrationError, match="not finite"):
        overflow(1e-6, y)


@pytest.mark.parametrize("bad", [
    {"rtol": 0.0}, {"rtol": 1e-15}, {"rtol": -1.0}, {"rtol": 1.0},
    {"rtol": math.nan}, {"rtol": math.inf},
    {"step": 0.0}, {"step": -1e-9}, {"step": math.nan},
    {"t_final": 0.0}, {"t_final": math.nan}, {"t_final": math.inf},
    {"t_final": 1e-12},
    {"initial": (complex("nan"), np.zeros(2))},
    {"initial": (1.0, np.array([math.inf, 0.0]))},
])
def test_integrator_rejects_bad_input(split_config, bad):
    # Refused up front as InvalidParameterError (exit 2 from the CLI):
    # tolerances outside [100 eps, 1), a step that is not positive, a span
    # that is not finite or shorter than one sampling step, and initial
    # amplitudes that are not finite.
    kwargs = {"t_final": 1e-4, "omega_probe": 0.95 * split_config.omega_ref}
    kwargs.update(bad)
    with pytest.raises(ol.InvalidParameterError):
        ol.integrate_mean_field(split_config, **kwargs)


def _scipy_steps(record):
    """A stand-in for ``oracle.dop853_steps`` on SciPy's DOP853 stepper
    (imported only here): ``step()``, then ``dense_output()`` for the
    samples, which is what ``solve_ivp`` does with ``t_eval``.  Each run
    stores its count of rejected trial steps in ``record``."""
    from scipy.integrate import DOP853

    def steps(fun, y0, t_final, *, first_step, rtol, atol):
        solver = DOP853(fun, 0.0, y0, t_final, first_step=first_step,
                        rtol=rtol, atol=atol)
        record["rejected"] = 0
        while solver.status == "running":
            before = solver.nfev
            message = solver.step()
            assert solver.status != "failed", message
            # Every trial step costs twelve right-hand-side evaluations.
            record["rejected"] += (solver.nfev - before) // 12 - 1
            yield (solver.t_old, solver.t, solver.y,
                   lambda times: solver.dense_output()(times))
    return steps


def _parity_case(name):
    """(config, t_final, keyword arguments) of one parity case."""
    split = ol.standard_setup(2, eta_frac=0.05, theta=math.pi / 2)
    if name == "n1":
        config, frac = ol.standard_setup(1), 0.97
    elif name == "n3":
        config = ol.standard_setup(3, eta_frac=0.05, theta=0.37 * math.pi)
        frac = 1.03
    else:
        config, frac = split, 1.0
    omega = frac * config.omega_ref
    period = 2.0 * math.pi / omega
    kwargs = {"omega_probe": omega}
    if name == "pump_only":
        config, kwargs = _pump_only(config), {"initial": "vacuum"}
    elif name == "ragged_end":
        return config, 30.37 * period, kwargs
    elif name == "rejections":
        # Mechanical amplitudes 100x off the fixed point ring down fast
        # enough that some trial steps fail the error test.
        steady = ol.solve_steady_state(config)
        kwargs["initial"] = (steady.alpha, 100.0 * np.asarray(steady.betas))
        return config, 10 * period, kwargs
    return config, 30 * period, kwargs


def _assert_same_trace(got, want):
    for field in ("times", "cavity", "mechanics"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == \
            np.ascontiguousarray(b).tobytes(), field


@pytest.mark.parametrize("name", ["n1", "n2", "n3", "pump_only",
                                  "ragged_end", "rejections"])
def test_dop853_matches_solve_ivp_bit_for_bit(name, monkeypatch):
    # The same trace from SciPy's stepper, sampled by the same code.
    config, t_final, kwargs = _parity_case(name)
    ours = ol.integrate_mean_field(config, t_final, **kwargs)
    record = {}
    monkeypatch.setattr(oracle_mod, "dop853_steps", _scipy_steps(record))
    ref = ol.integrate_mean_field(config, t_final, **kwargs)
    _assert_same_trace(ours, ref)
    if name == "ragged_end":
        assert ours.times[-1] < t_final
    if name == "rejections":
        assert record["rejected"] > 0


@pytest.mark.parametrize("name", ["n2", "ragged_end"])
def test_trace_samples_match_solve_ivp_t_eval(name, monkeypatch):
    # solve_ivp assigns its t_eval to steps by a search of its own, so this
    # checks which step's dense output each sample comes from: a sample
    # taken from a neighbouring step differs in its last bits.
    from scipy.integrate import solve_ivp

    config, t_final, kwargs = _parity_case(name)
    calls = []
    steps = oracle_mod.dop853_steps

    def recording(fun, y0, t_final, **options):
        calls.append((fun, y0.copy(), options))
        return steps(fun, y0, t_final, **options)

    monkeypatch.setattr(oracle_mod, "dop853_steps", recording)
    ours = ol.integrate_mean_field(config, t_final, **kwargs)
    t_eval = np.arange(0.0, t_final + 0.5 * ours.step, ours.step)
    t_eval = t_eval[t_eval <= t_final]
    (fun, y0, options), = calls
    sol = solve_ivp(fun, (0.0, t_final), y0, method="DOP853", t_eval=t_eval,
                    **options)
    assert sol.status == 0
    _assert_same_trace(ours, ol.TimeTrace(
        times=sol.t, cavity=sol.y[0] + 1j * sol.y[1],
        mechanics=sol.y[2::2] + 1j * sol.y[3::2],
        omega_probe=ours.omega_probe, step=ours.step))


def test_shooting_closure_matches_scipy_bit_for_bit(split_config,
                                                    monkeypatch):
    # A whole shooting closure, every map evaluation and the demodulated
    # period, on SciPy's stepper.
    w = 0.95 * split_config.omega_ref
    ours = ol.sideband_closure(split_config, w, probe_ratio=0.01)
    monkeypatch.setattr(oracle_mod, "dop853_steps", _scipy_steps({}))
    ref = ol.sideband_closure(split_config, w, probe_ratio=0.01)
    assert ours.reliable and ours.map_residual <= 1e-12
    assert ours.iterations > 1
    assert repr(ours) == repr(ref)


def test_closure_at_window_detuning(split_config):
    w = 0.95 * split_config.omega_ref
    report = ol.sideband_closure(split_config, w, probe_ratio=0.01)
    assert report.reliable and report.reason == ""
    assert report.rel_err_first < 2e-3
    assert report.rel_err_second < 2e-3
    assert report.map_residual <= 1e-12
    assert 1 < report.iterations < oracle_mod._MAX_ITERATIONS
    assert 0.0 < report.multiplier < 1.0


def test_closure_integrates_one_period_per_map_evaluation(split_config,
                                                          monkeypatch):
    # The shooting's map evaluations plus the demodulated period.  The
    # deprecated periods keyword only warns.
    spans = []
    integrate = oracle_mod._integrate

    def recording(rhs, y0, t_final, *args):
        spans.append(t_final)
        return integrate(rhs, y0, t_final, *args)

    monkeypatch.setattr(oracle_mod, "_integrate", recording)
    w = 0.95 * split_config.omega_ref
    with pytest.warns(DeprecationWarning,
                      match="periods keyword of sideband_closure"):
        old = ol.sideband_closure(split_config, w, probe_ratio=0.01,
                                  periods=150)
    assert spans == [2.0 * math.pi / w] * (old.iterations + 1)
    new = ol.sideband_closure(split_config, w, probe_ratio=0.01)
    assert repr(old) == repr(new)


def test_closure_across_both_windows(split_config):
    # A dense detuning grid across both split windows, not three points.
    failures = []
    for frac in np.linspace(0.90, 1.10, 21):
        report = ol.sideband_closure(split_config,
                                     frac * split_config.omega_ref,
                                     probe_ratio=0.01)
        if not (report.reliable and report.rel_err_first < 2e-3
                and report.rel_err_second < 2e-3):
            failures.append((frac, report))
    assert failures == []


def test_closure_beyond_two_modes():
    # The second order closes against the time domain for a three-mode
    # chain too, within the same bound as the two-mode window check.
    config = ol.standard_setup(3, eta_frac=0.05, theta=0.37 * math.pi)
    report = ol.sideband_closure(config, 0.97 * config.omega_ref,
                                 probe_ratio=0.01)
    assert report.reliable
    assert report.rel_err_first < 2e-3
    assert report.rel_err_second < 2e-3


# Explicit ids keep the cases' names; the gaps were a removed argument's.
@pytest.mark.parametrize("bad, name", [
    pytest.param({"omega": 0.0}, "omega", id="bad0-omega"),
    pytest.param({"omega": math.nan}, "omega", id="bad1-omega"),
    pytest.param({"omega": math.inf}, "omega", id="bad2-omega"),
    pytest.param({"omega": -1.0}, "omega", id="bad6-omega"),
    pytest.param({"rtol": 1.0}, "rtol", id="bad7-rtol"),
    pytest.param({"probe_ratio": math.nan}, "probe_ratio",
                 id="bad8-probe_ratio"),
    pytest.param({"probe_ratio": -0.01}, "probe_ratio",
                 id="bad9-probe_ratio"),
    pytest.param({"rtol": -1.0}, "rtol", id="bad10-rtol"),
    pytest.param({"rtol": 0.0}, "rtol", id="bad11-rtol"),
    pytest.param({"rtol": math.nan}, "rtol", id="bad12-rtol"),
    pytest.param({"probe_ratio": 0.0}, "probe_ratio",
                 id="bad13-probe_ratio"),
    pytest.param({"probe_ratio": math.inf}, "probe_ratio",
                 id="bad14-probe_ratio"),
])
def test_closure_rejects_bad_arguments_before_solving(split_config, bad,
                                                       name, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("argument check came after the solve")
    monkeypatch.setattr(oracle_mod, "solve_steady_state", must_not_run)
    monkeypatch.setattr(oracle_mod, "dop853_steps", must_not_run)
    kwargs = {"omega": 0.95 * split_config.omega_ref, **bad}
    with pytest.raises(ol.InvalidParameterError, match=name):
        ol.sideband_closure(split_config, **kwargs)


@pytest.mark.parametrize("n, chain, frac, settle", [
    (2, {"eta_frac": 0.05, "theta": math.pi / 2}, 0.95, 150),
    (3, {"eta_frac": 0.05, "theta": 0.37 * math.pi}, 0.97, 400),
], ids=["split_window", "three_modes"])
def test_shooting_matches_long_explicit_integration(n, chain, frac, settle):
    # The reference waits out the transient: ``settle`` probe periods from
    # the pump-only steady state, then 101 cycles demodulated.  The
    # three-mode chain has a slow mode the cavity sees: after 300 periods
    # its a2 is still 1.3e-6 away.  The gap left in a2 (measured 3.8e-7
    # and 3.1e-7) is mostly the leakage of higher harmonics into the
    # reference's closed window of 101 q + 1 samples; the orbit's
    # half-open cycles have none.
    config = ol.standard_setup(n, **chain)
    w = frac * config.omega_ref
    period = 2.0 * math.pi / w
    shot = ol.sideband_closure(config, w, probe_ratio=0.01)
    probed = replace(config, drive=replace(config.drive, probe_ratio=0.01,
                                           power_probe=None))
    trace = ol.integrate_mean_field(probed, (settle + 101) * period,
                                    omega_probe=w)
    ref = ol.demodulate(trace, w, settle=settle * period, min_cycles=100)
    assert shot.reliable
    for got, want in ((shot.a1_time, ref.a1_lower),
                      (shot.a2_time, ref.a2_lower)):
        assert abs(got - want) <= 1e-6 * abs(want)


def test_dark_four_mode_chain_closes():
    # With theta = 0 the four-mode chain has dark modes, one decaying at
    # the bare gamma_m (multiplier ~0.999).  Waiting for that transient
    # never settled at this detuning; shooting does not wait for it.
    config = ol.standard_setup(4, eta_frac=0.05, theta=0.0)
    report = ol.sideband_closure(config, 0.97 * config.omega_ref,
                                 probe_ratio=0.01)
    assert report.reliable and report.reason == ""
    assert 0.99 < report.multiplier < 1.0
    assert report.rel_err_first < 2e-3
    assert report.rel_err_second < 2e-3


def test_closure_unreliable_at_iteration_cap(split_config, monkeypatch):
    # One map evaluation from the pump-only steady state is not an orbit.
    monkeypatch.setattr(oracle_mod, "_MAX_ITERATIONS", 1)
    report = ol.sideband_closure(split_config, 0.95 * split_config.omega_ref,
                                 probe_ratio=0.01)
    assert not report.reliable
    assert report.iterations == 1 and report.map_residual > 1e-12
    assert report.reason.startswith(
        "no periodic orbit after 1 of at most 1 periods")


def test_closure_unreliable_for_unstable_orbit():
    # A blue-detuned pump amplifies: shooting still finds the probed orbit,
    # but no run would settle on it, so the closure is not evidence.
    config = ol.standard_setup(2, lock_delta_frac=-1.0)
    report = ol.sideband_closure(config, 0.95 * config.omega_ref,
                                 probe_ratio=0.01)
    assert report.map_residual <= 1e-12 and report.multiplier > 1.0
    assert not report.reliable
    assert report.reason.startswith("largest Floquet multiplier")
    assert "no periodic orbit" not in report.reason


def test_closure_unreliable_when_shooting_diverges():
    # Probed next to the cavity resonance of a weakly detuned pump, the
    # orbit is far from the pump-only linearisation and the chord
    # iteration stops contracting.  It gives up at once instead of
    # following the growing iterates.
    config = ol.standard_setup(2, lock_delta_frac=0.2)
    report = ol.sideband_closure(config, 0.2 * config.omega_ref,
                                 probe_ratio=0.01)
    assert not report.reliable
    assert report.iterations < oracle_mod._MAX_ITERATIONS
    assert report.map_residual > 1e-12
    assert report.reason.startswith("no periodic orbit")


def test_truncation_residual_grows_with_probe(split_config):
    w = 0.95 * split_config.omega_ref
    residuals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ratios above 0.05 warn
        for ratio in (0.01, 0.05, 0.1):
            rep = ol.sideband_closure(split_config, w, probe_ratio=ratio)
            residuals.append(rep.residual)
    assert residuals[0] < residuals[1] < residuals[2]


def test_demodulated_amplitudes_stable_under_tolerance_refinement(
        split_config, split_steady):
    # The adaptive integrator realises "finer steps" through its error
    # control; demodulated amplitudes must already be converged at the
    # default tolerance.
    w = 0.95 * split_config.omega_ref
    period = 2 * math.pi / w
    amps = {}
    for rtol in (1e-11, 1e-12):
        tr = ol.integrate_mean_field(
            split_config, 60 * period, omega_probe=w, step=period / 128,
            rtol=rtol,
            initial=(split_steady.alpha, np.asarray(split_steady.betas)))
        d = ol.demodulate(tr, w, min_cycles=40, settle=10 * period)
        amps[rtol] = (complex(d.a1_lower), complex(d.a2_lower))
    for coarse, fine in zip(amps[1e-11], amps[1e-12]):
        assert abs(coarse - fine) <= 1e-8 * abs(fine)
