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
from omit_lab.model import _drift_matrix, solve_mechanical_displacements

from conftest import random_config


def _pump_only(config):
    """``config`` with the probe switched off."""
    return replace(config, drive=replace(config.drive, probe_ratio=0.0,
                                         power_probe=None))


def _assert_stationary(config, steady):
    # Starting exactly on the fixed point with the probe off, nothing may
    # move beyond integration tolerance.
    period = 2.0 * math.pi / config.omega_ref
    tr = ol.integrate_mean_field(
        _pump_only(config), 40 * period, omega_probe=config.omega_ref,
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
                                     omega_probe=config.omega_ref,
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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_mean_field_rhs_matches_equations(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        config = random_config(rng, n)
        eps_l = rng.uniform(1e9, 1e10)
        w_probe = rng.uniform(0.5, 1.5) * config.omega_ref
        for eps_p in (0.0, rng.uniform(1e7, 1e8)):
            rhs = oracle_mod._mean_field_rhs(config, eps_l, eps_p, w_probe)
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


@pytest.mark.parametrize("n, chain, frac", [
    (2, {"eta_frac": 0.05, "theta": math.pi / 2}, 0.95),
    (4, {"eta_frac": 0.05, "theta": 0.0}, 0.97),
], ids=["split_window", "dark_four"])
def test_expm_matches_scipy(n, chain, frac):
    # Phi = exp(J T) of the shooting, at the pump-only steady state.
    from scipy.linalg import expm

    config = ol.standard_setup(n, **chain)
    steady = ol.solve_steady_state(config)
    a = (_drift_matrix(config, steady.delta_eff) * 2.0 * math.pi
         / (frac * config.omega_ref))
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
    demod = ol.demodulate(ol.TimeTrace(times=t, cavity=y), omega)
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
    trace = ol.TimeTrace(times=t, cavity=np.ones_like(t, dtype=complex))
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
    trace = ol.TimeTrace(times=t, cavity=np.exp(-1j * omega * t))
    kwargs = {"omega": omega, "min_cycles": 5, **bad}
    with pytest.raises(ol.InvalidParameterError, match=name):
        ol.demodulate(trace, **kwargs)


def test_overflow_guard_raises(split_config, monkeypatch):
    # The guard exists to catch numerical divergence; trip it cheaply by
    # tightening the overflow threshold below the working amplitude.  The
    # reported time is the end of a step, inside the integration span.
    monkeypatch.setattr(oracle_mod, "_OVERFLOW_FACTOR", 1e-3)
    t_final = 5e-5
    with pytest.raises(ol.UnstableIntegrationError) as err:
        ol.integrate_mean_field(_pump_only(split_config), t_final,
                                omega_probe=split_config.omega_ref,
                                initial=(0.0, np.zeros(2)))
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


# Explicit ids keep the cases' names; the gaps were a removed step's and
# a removed tolerance argument's.
@pytest.mark.parametrize("bad", [
    pytest.param({"t_final": 0.0}, id="bad9"),
    pytest.param({"t_final": math.nan}, id="bad10"),
    pytest.param({"t_final": math.inf}, id="bad11"),
    pytest.param({"t_final": 1e-12}, id="bad12"),
    pytest.param({"initial": (complex("nan"), np.zeros(2))}, id="bad13"),
    pytest.param({"initial": (1.0, np.array([math.inf, 0.0]))}, id="bad14"),
    pytest.param({"initial": (1.0, np.zeros(3))}, id="bad15"),
    pytest.param({"omega_probe": 0.0}, id="bad16"),
    pytest.param({"omega_probe": -1.0}, id="bad17"),
    pytest.param({"omega_probe": math.nan}, id="bad18"),
    pytest.param({"omega_probe": math.inf}, id="bad19"),
])
def test_integrator_rejects_bad_input(split_config, split_steady, bad):
    # Refused up front as InvalidParameterError (exit 2 from the CLI): a
    # span that is not finite or shorter than one sampling step, initial
    # amplitudes of the wrong shape or not finite, and a probe detuning
    # that is not finite and positive.
    w = 0.95 * split_config.omega_ref
    kwargs = {"t_final": 1e-4, "omega_probe": w,
              "initial": (split_steady.alpha, split_steady.betas)}
    kwargs.update(bad)
    with pytest.raises(ol.InvalidParameterError):
        ol.integrate_mean_field(split_config, **kwargs)


def _scipy_steps(record):
    """A stand-in for ``oracle.dop853_steps`` on SciPy's DOP853 stepper
    (imported only here): ``step()``, then ``dense_output()`` for the
    samples, which is what ``solve_ivp`` does with ``t_eval``.  The dense
    output is taken at yield time, so, like ours, it stays valid after the
    generator advances.  Each run stores its count of rejected trial steps
    in ``record``."""
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
            yield solver.t_old, solver.t, solver.y, solver.dense_output()
    return steps


def _parity_run(name):
    """One parity case: ``(fun, y0, t_final, step, options, check)``, a
    run as the oracle makes it, sampled every ``step`` and handed to
    ``dop853_steps`` with ``options``."""
    if name == "n1":
        config, frac = ol.standard_setup(1), 0.97
    elif name == "n3":
        config = ol.standard_setup(3, eta_frac=0.05, theta=0.37 * math.pi)
        frac = 1.03
    else:
        config = ol.standard_setup(2, eta_frac=0.05, theta=math.pi / 2)
        frac = 1.0
    omega = frac * config.omega_ref
    period = 2.0 * math.pi / omega
    steady = ol.solve_steady_state(config)
    alpha0, betas0 = steady.alpha, np.asarray(steady.betas)
    t_final = 30 * period
    if name == "pump_only":
        config, alpha0, betas0 = _pump_only(config), 0j, 0.0 * betas0
    elif name == "ragged_end":
        t_final = 30.37 * period
    elif name == "rejections":
        # Mechanical amplitudes 100x off the fixed point ring down fast
        # enough that some trial steps fail the error test.
        betas0, t_final = 100.0 * betas0, 10 * period
    eps_l = ol.pump_amplitude(config)
    fun = oracle_mod._mean_field_rhs(config, eps_l,
                                     ol.probe_amplitude(config), omega)
    y0, scale, check = oracle_mod._start(config, eps_l, alpha0, betas0)
    step = 2.0 * math.pi / (oracle_mod._fastest_rate(config, omega)
                            * oracle_mod._SAMPLES_PER_PERIOD)
    rtol = oracle_mod._RTOL
    options = {"first_step": step, "rtol": rtol, "atol": rtol * scale}
    return fun, y0, t_final, step, options, check


def _sampled(run):
    """The full state of ``run`` at every sample, one column each, from
    ``oracle._sample(oracle._steps(...))``."""
    fun, y0, t_final, step, options, check = run
    out = np.empty((y0.size, oracle_mod._last_sample(t_final, step) + 1))
    oracle_mod._sample(oracle_mod._steps(fun, y0, t_final, step,
                                         options["rtol"], options["atol"],
                                         check), step, out)
    return out


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("name", ["n1", "n2", "n3", "pump_only",
                                  "ragged_end", "rejections"])
def test_dop853_matches_solve_ivp_bit_for_bit(name, monkeypatch):
    # The same samples of cavity and mechanics from SciPy's stepper,
    # sampled by the same code.
    run = _parity_run(name)
    ours = _sampled(run)
    record = {}
    monkeypatch.setattr(oracle_mod, "dop853_steps", _scipy_steps(record))
    _assert_same_bytes(ours, _sampled(run))
    _, _, t_final, step, _, _ = run
    if name == "ragged_end":
        assert (ours.shape[1] - 1) * step < t_final
    if name == "rejections":
        assert record["rejected"] > 0


@pytest.mark.parametrize("name", ["n2", "ragged_end"])
def test_trace_samples_match_solve_ivp_t_eval(name):
    # solve_ivp assigns its t_eval to steps by a search of its own, so this
    # checks which step's dense output each sample comes from: a sample
    # taken from a neighbouring step differs in its last bits.
    from scipy.integrate import solve_ivp

    run = _parity_run(name)
    fun, y0, t_final, step, options, _ = run
    ours = _sampled(run)
    t_eval = np.arange(0.0, t_final + 0.5 * step, step)
    t_eval = t_eval[t_eval <= t_final]
    sol = solve_ivp(fun, (0.0, t_final), y0, method="DOP853", t_eval=t_eval,
                    **options)
    assert sol.status == 0
    _assert_same_bytes(np.arange(ours.shape[1]) * step, sol.t)
    _assert_same_bytes(ours, sol.y)


def test_dense_output_outlives_its_step():
    # Every step's dense output evaluated after the generator is
    # exhausted equals the same output evaluated at once, and SciPy's
    # dense_output(), bit for bit.  Rejected trial steps overwrite the
    # stepper's stage storage, which no kept output may share.
    fun, y0, t_final, _, options, _ = _parity_run("rejections")

    def at(t_old, t):
        return np.linspace(t_old, t, 5)

    now = [(t_old, t, y.tobytes(), dense(at(t_old, t)).tobytes())
           for t_old, t, y, dense in oracle_mod.dop853_steps(
               fun, y0, t_final, **options)]
    assert len(now) > 1
    for steps in (oracle_mod.dop853_steps, _scipy_steps({})):
        kept = list(steps(fun, y0, t_final, **options))
        later = [(t_old, t, y.tobytes(), dense(at(t_old, t)).tobytes())
                 for t_old, t, y, dense in kept]
        assert later == now


def test_dop853_refuses_a_vanishing_step():
    # A bounded but near-singular slope at t = 1 shrinks the step without
    # end; the stepper stops at its floor of 10 ulp of t with a typed error
    # (after about 1 700 evaluations) instead of retrying there for ever,
    # which the evaluation budget turns into a failure.
    calls = []

    def fun(t, y):
        calls.append(t)
        assert len(calls) < 100_000, "the step floor never stopped the run"
        return np.array([1.0 / math.sqrt((1.0 - t) ** 2 + 1e-30)])

    steps = oracle_mod.dop853_steps(fun, np.zeros(1), 2.0, first_step=1e-3,
                                    rtol=1e-6, atol=1e-6)
    with pytest.raises(ol.NonConvergentError,
                       match=r"step size fell below .* at t = 1\.0000"):
        for _ in steps:
            pass


def test_replay_call_shape_runs(split_config, split_steady):
    # The benchmark's traced replay makes exactly these two calls, with
    # these keywords, on a longer span.
    import inspect

    params = inspect.signature(ol.integrate_mean_field).parameters.values()
    assert [(p.name, p.kind.name, p.default is p.empty) for p in params] == [
        ("config", "POSITIONAL_OR_KEYWORD", True),
        ("t_final", "POSITIONAL_OR_KEYWORD", True),
        ("omega_probe", "KEYWORD_ONLY", True),
        ("initial", "KEYWORD_ONLY", True)]
    cfg = replace(split_config, drive=replace(
        split_config.drive, probe_ratio=0.01, power_probe=None))
    ss = ol.solve_steady_state(cfg)
    w = 0.95 * cfg.omega_ref
    period = 2.0 * math.pi / w
    trace = ol.integrate_mean_field(cfg, 8 * period, omega_probe=w,
                                    initial=(ss.alpha, ss.betas))
    assert np.all(np.isfinite(trace.cavity))
    assert trace.times.shape == trace.cavity.shape
    demod = ol.demodulate(trace, w, settle=2 * period, min_cycles=5)
    assert np.all(np.isfinite([demod.a1_lower, demod.a2_lower,
                               demod.residual]))
    assert abs(demod.a1_lower) > 0.0


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


def test_closure_integrates_one_period_per_map_evaluation(split_config,
                                                          monkeypatch):
    # One one-period run per map evaluation, each from a new start: the
    # demodulated period is sampled from the last run, not integrated
    # again.  The deprecated periods keyword only warns.
    runs = []
    steps = oracle_mod.dop853_steps

    def recording(fun, y0, t_final, **options):
        runs.append((t_final, y0.tobytes()))
        return steps(fun, y0, t_final, **options)

    monkeypatch.setattr(oracle_mod, "dop853_steps", recording)
    w = 0.95 * split_config.omega_ref
    with pytest.warns(DeprecationWarning,
                      match="periods keyword of sideband_closure"):
        old = ol.sideband_closure(split_config, w, probe_ratio=0.01,
                                  periods=150)
    assert [span for span, _ in runs] == [2.0 * math.pi / w] * old.iterations
    assert len({start for _, start in runs}) == old.iterations
    new = ol.sideband_closure(split_config, w, probe_ratio=0.01)
    assert repr(old) == repr(new)


@pytest.mark.parametrize("frac", [0.95, 1.0, 1.05])
def test_linear_response_start_shortens_the_shooting(split_config, frac):
    # Started on the orbit of the linearised flow, the shooting has only
    # the nonlinear part left to correct: at most 5 map evaluations where
    # a start at the pump-only steady state took 6.
    report = ol.sideband_closure(split_config, frac * split_config.omega_ref,
                                 probe_ratio=0.01)
    assert report.reliable
    assert report.iterations <= 5


def _grid_failures(config):
    """The closures on 21 detunings over 0.90-1.10 omega_m that are not
    reliable or miss the 2e-3 bound on either order."""
    failures = []
    for frac in np.linspace(0.90, 1.10, 21):
        report = ol.sideband_closure(config, frac * config.omega_ref,
                                     probe_ratio=0.01)
        if not (report.reliable and report.rel_err_first < 2e-3
                and report.rel_err_second < 2e-3):
            failures.append((frac, report))
    return failures


def test_closure_across_both_windows(split_config):
    # A dense detuning grid across both split windows, not three points.
    assert _grid_failures(split_config) == []


@pytest.mark.parametrize("n, theta", [
    (3, 0.37 * math.pi), (4, 0.0), (4, math.pi / 2),
], ids=["three_modes", "dark_four_modes", "broken_four_modes"])
def test_closure_across_dense_grid_of_longer_chains(n, theta):
    # The same grid on longer chains, dark modes included.
    config = ol.standard_setup(n, eta_frac=0.05, theta=theta)
    assert _grid_failures(config) == []


# Explicit ids keep the cases' names; the gaps were removed arguments'.
@pytest.mark.parametrize("bad, name", [
    pytest.param({"omega": 0.0}, "omega", id="bad0-omega"),
    pytest.param({"omega": math.nan}, "omega", id="bad1-omega"),
    pytest.param({"omega": math.inf}, "omega", id="bad2-omega"),
    pytest.param({"omega": -1.0}, "omega", id="bad6-omega"),
    pytest.param({"probe_ratio": math.nan}, "probe_ratio",
                 id="bad8-probe_ratio"),
    pytest.param({"probe_ratio": -0.01}, "probe_ratio",
                 id="bad9-probe_ratio"),
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
    # The reference waits out the transient on SciPy alone: ``settle``
    # probe periods from the pump-only steady state, then 101 cycles fitted
    # by numpy least squares.  The three-mode chain has a slow mode the
    # cavity sees: after 300 periods its a2 is still 1.3e-6 away.  The
    # window is 101 half-open cycles of q samples, like the orbit's, so no
    # higher harmonic leaks into the fit (gaps measured 1.8e-8 / 9.7e-8
    # and 5.8e-9 / 8.9e-9).
    from scipy.integrate import solve_ivp

    config = ol.standard_setup(n, **chain)
    w = frac * config.omega_ref
    period = 2.0 * math.pi / w
    shot = ol.sideband_closure(config, w, probe_ratio=0.01)
    probed = replace(config, drive=replace(config.drive, probe_ratio=0.01,
                                           power_probe=None))
    steady = ol.solve_steady_state(probed)
    eps_l = ol.pump_amplitude(probed)
    fun = oracle_mod._mean_field_rhs(probed, eps_l,
                                     ol.probe_amplitude(probed), w)
    y0 = np.array([steady.alpha, *steady.betas]).view(float)
    q = 64
    t_eval = (settle + np.arange(101 * q) / q) * period
    sol = solve_ivp(fun, (0.0, t_eval[-1]), y0, method="DOP853",
                    t_eval=t_eval, first_step=period / q, rtol=1e-10,
                    atol=1e-10 * eps_l / probed.cavity.kappa)
    assert sol.status == 0
    harmonics = np.exp(-1j * w * np.outer(sol.t, [0, 1, -1, 2, -2]))
    ref = np.linalg.lstsq(harmonics, sol.y[0] + 1j * sol.y[1],
                          rcond=None)[0]
    assert shot.reliable
    for got, want in ((shot.a1_time, ref[1]), (shot.a2_time, ref[3])):
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
    # One map evaluation from the linear response is not an orbit.
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
        split_config, monkeypatch):
    # The adaptive integrator realises "finer steps" through its error
    # control; the closure's demodulated amplitudes must not move with it
    # beyond a tenth of the long reference's 1e-6 bound.  One period is
    # fitted, so its integration error is not averaged down: the gap
    # falls tenfold per decade of rtol and reads 1.9e-8 / 1.2e-8 here.
    w = 0.95 * split_config.omega_ref
    reports = []
    for rtol in (1e-11, 1e-12):
        monkeypatch.setattr(oracle_mod, "_RTOL", rtol)
        reports.append(ol.sideband_closure(split_config, w))
    coarse, fine = reports
    assert coarse.reliable and fine.reliable
    for got, want in ((coarse.a1_time, fine.a1_time),
                      (coarse.a2_time, fine.a2_time)):
        assert abs(got - want) <= 1e-7 * abs(want)
