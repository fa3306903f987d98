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


def _assert_stationary(config, steady):
    # Starting exactly on the fixed point with the probe off, nothing may
    # move beyond integration tolerance.
    period = 2.0 * math.pi / config.omega_ref
    tr = ol.integrate_mean_field(
        config, 40 * period, include_probe=False,
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
        tr = ol.integrate_mean_field(config, 20.0 / rate, include_probe=False,
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
    base = ol.standard_setup(n)
    omega_m = base.omega_ref
    for _ in range(4):
        config = replace(
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
        eps_l = rng.uniform(1e9, 1e10)
        w_probe = rng.uniform(0.5, 1.5) * omega_m
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
        ol.integrate_mean_field(split_config, t_final, include_probe=False,
                                initial="vacuum")
    t = float(re.search(r"t = (\S+) s", str(err.value)).group(1))
    assert 0.0 < t <= t_final


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


def _solve_ivp_recorder(calls):
    """A stand-in for ``oracle.dop853`` that runs SciPy's ``solve_ivp``
    (imported only here) and records the arguments it was given."""
    from scipy.integrate import solve_ivp

    def integrate(fun, y0, t_final, t_eval, *, first_step, rtol, atol,
                  check):
        calls.append({"fun": fun, "y0": y0.copy(), "t_final": t_final,
                      "first_step": first_step, "rtol": rtol, "atol": atol})
        sol = solve_ivp(fun, (0.0, t_final), y0, method="DOP853",
                        t_eval=t_eval, first_step=first_step, rtol=rtol,
                        atol=atol)
        assert sol.status == 0
        assert sol.t.tobytes() == t_eval.tobytes()
        return sol.y
    return integrate


def _rejected_steps(call):
    """Trial steps SciPy's DOP853 rejects on the recorded problem."""
    from scipy.integrate import DOP853

    solver = DOP853(call["fun"], 0.0, call["y0"], call["t_final"],
                    first_step=call["first_step"], rtol=call["rtol"],
                    atol=call["atol"])
    rejected = 0
    while solver.status == "running":
        before = solver.nfev
        solver.step()
        # Every trial step costs twelve right-hand-side evaluations.
        rejected += (solver.nfev - before) // 12 - 1
    return rejected


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
        kwargs = {"include_probe": False, "initial": "vacuum"}
    elif name == "ragged_end":
        return config, 30.37 * period, kwargs
    elif name == "rejections":
        # Mechanical amplitudes 100x off the fixed point ring down fast
        # enough that some trial steps fail the error test.
        steady = ol.solve_steady_state(config)
        kwargs["initial"] = (steady.alpha, 100.0 * np.asarray(steady.betas))
        return config, 10 * period, kwargs
    return config, 30 * period, kwargs


@pytest.mark.parametrize("name", ["n1", "n2", "n3", "pump_only",
                                  "ragged_end", "rejections"])
def test_dop853_matches_solve_ivp_bit_for_bit(name, monkeypatch):
    config, t_final, kwargs = _parity_case(name)
    ours = ol.integrate_mean_field(config, t_final, **kwargs)
    calls = []
    monkeypatch.setattr(oracle_mod, "dop853", _solve_ivp_recorder(calls))
    ref = ol.integrate_mean_field(config, t_final, **kwargs)
    for field in ("times", "cavity", "mechanics"):
        got, want = getattr(ours, field), getattr(ref, field)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(want).tobytes(), field
    if name == "ragged_end":
        assert ours.times[-1] < t_final
    if name == "rejections":
        assert _rejected_steps(calls[0]) > 0


def test_closure_at_window_detuning(split_config):
    w = 0.95 * split_config.omega_ref
    report = ol.sideband_closure(split_config, w, probe_ratio=0.01,
                                 periods=120)
    assert report.reliable
    assert report.rel_err_first < 2e-3
    assert report.rel_err_second < 2e-3
    assert report.n_cycles >= 100


def test_closure_beyond_two_modes():
    # The second order closes against the time domain for a three-mode
    # chain too, within the same bound as the two-mode window check.
    config = ol.standard_setup(3, eta_frac=0.05, theta=0.37 * math.pi)
    report = ol.sideband_closure(config, 0.97 * config.omega_ref,
                                 probe_ratio=0.01, periods=150)
    assert report.reliable
    assert report.rel_err_first < 2e-3
    assert report.rel_err_second < 2e-3


@pytest.mark.parametrize("bad, name", [
    ({"omega": 0.0}, "omega"), ({"omega": math.nan}, "omega"),
    ({"omega": math.inf}, "omega"),
    ({"periods": 0}, "periods"), ({"periods": -3}, "periods"),
    ({"periods": math.nan}, "periods"),
    ({"settle": -1e-6}, "settle"), ({"settle": -1e-3}, "settle"),
    ({"settle": math.nan}, "settle"), ({"settle": math.inf}, "settle"),
    ({"rtol": -1.0}, "rtol"), ({"rtol": 0.0}, "rtol"),
    ({"rtol": math.nan}, "rtol"),
])
def test_closure_rejects_bad_arguments_before_solving(split_config, bad,
                                                       name, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("argument check came after the solve")
    monkeypatch.setattr(oracle_mod, "solve_steady_state", must_not_run)
    monkeypatch.setattr(oracle_mod, "integrate_mean_field", must_not_run)
    kwargs = {"omega": 0.95 * split_config.omega_ref, **bad}
    with pytest.raises(ol.InvalidParameterError, match=name):
        ol.sideband_closure(split_config, **kwargs)


def test_truncation_residual_grows_with_probe(split_config):
    w = 0.95 * split_config.omega_ref
    residuals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ratios above 0.05 warn
        for ratio in (0.01, 0.05, 0.1):
            rep = ol.sideband_closure(split_config, w, probe_ratio=ratio,
                                      periods=100)
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
