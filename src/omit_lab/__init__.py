"""Tunable optomechanically induced transparency in multimode systems.

The package models a single optical cavity coupled to a chain of
mechanical modes with phase-controlled phonon hopping.  It provides

* steady-state and first/second-order sideband solutions of the
  linearised dynamics (:mod:`omit_lab.model`, :mod:`omit_lab.sidebands`),
* hybrid bright/dark mode analysis and adiabatic linewidth predictions
  (:mod:`omit_lab.darkmode`),
* normal-mode tools for uniform N-mode chains (:mod:`omit_lab.nmode`),
* an independent time-domain integrator used to cross-check the
  frequency-domain results (:mod:`omit_lab.oracle`),
* config-file I/O, parameter sweeps with deterministic CSV/JSON output,
  and presets reproducing the standard figures (:mod:`omit_lab.config_io`,
  :mod:`omit_lab.sweep`, :mod:`omit_lab.presets`),
* the ``omit-lab`` command-line interface (:mod:`omit_lab.cli`).
"""

from .config_io import load_config, loads_config, save_config, emit_config
from .darkmode import (
    AdiabaticParams,
    HybridModeReport,
    LinewidthFit,
    adiabatic_elimination,
    dark_mode_broken,
    fit_linewidth,
    hybridize_two_mode,
    linearized_couplings,
    optical_damping_rate,
    optical_spring_shift,
    predict_linewidth,
)
from .errors import (
    ConfigError,
    DegeneratePointError,
    InvalidParameterError,
    NonConvergentError,
    OmitLabError,
    RegimeViolationError,
    SingularSystemError,
    UnstableIntegrationError,
    UnsupportedTopologyError,
)
from .model import (
    CavityParams,
    DriveSpec,
    MechanicalMode,
    PhononCoupling,
    SteadyState,
    SystemConfig,
    derive_single_photon_coupling,
    drive_amplitude,
    effective_detuning,
    lock_effective_detuning,
    probe_amplitude,
    pump_amplitude,
    pump_frequency,
    solve_steady_state,
    stability_margin,
    steady_state_residual,
)
from .nmode import (
    NormalModeBasis,
    build_normal_modes,
    count_windows,
    even_mode_coupling,
    n_mode_spectrum,
    transmission_via_normal_modes,
)
from .oracle import (
    ClosureReport,
    DemodResult,
    TimeTrace,
    demodulate,
    integrate_mean_field,
    sideband_closure,
)
from .presets import (
    figure_presets,
    reference_cavity,
    reference_mode,
    run_figure_preset,
    standard_setup,
)
from .sidebands import (
    FirstOrderAmplitudes,
    GroupDelayEstimate,
    SecondOrderAmplitudes,
    Spectrum,
    TCoefficients,
    auxiliary_coefficients,
    chain_polynomials,
    compute_spectrum,
    first_order_closed_form,
    group_delay,
    second_order_closed_form,
    second_order_efficiency,
    solve_first_order,
    solve_second_order,
    transmission,
)
from .sweep import (
    CSV_COLUMNS,
    ResultBundle,
    SweepSpec,
    apply_parameter,
    run_sweep,
    spectrum_to_dict,
    write_bundle,
    write_spectrum_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "OmitLabError", "InvalidParameterError", "ConfigError",
    "NonConvergentError", "SingularSystemError", "UnstableIntegrationError",
    "UnsupportedTopologyError", "RegimeViolationError",
    "DegeneratePointError",
    # model
    "CavityParams", "MechanicalMode", "PhononCoupling", "DriveSpec",
    "SystemConfig", "SteadyState", "drive_amplitude",
    "derive_single_photon_coupling", "pump_frequency", "pump_amplitude",
    "probe_amplitude", "effective_detuning", "solve_steady_state",
    "stability_margin", "steady_state_residual", "lock_effective_detuning",
    # sidebands
    "TCoefficients", "FirstOrderAmplitudes", "SecondOrderAmplitudes",
    "GroupDelayEstimate",
    "Spectrum", "chain_polynomials", "solve_first_order",
    "solve_second_order", "first_order_closed_form",
    "second_order_closed_form", "auxiliary_coefficients", "transmission",
    "second_order_efficiency", "compute_spectrum", "group_delay",
    # darkmode
    "HybridModeReport", "AdiabaticParams", "LinewidthFit",
    "linearized_couplings", "hybridize_two_mode", "dark_mode_broken",
    "optical_damping_rate", "optical_spring_shift", "adiabatic_elimination",
    "predict_linewidth", "fit_linewidth",
    # nmode
    "NormalModeBasis", "build_normal_modes", "even_mode_coupling",
    "n_mode_spectrum", "count_windows", "transmission_via_normal_modes",
    # oracle
    "TimeTrace", "DemodResult", "ClosureReport", "integrate_mean_field",
    "demodulate", "sideband_closure",
    # config / sweep / presets
    "load_config", "loads_config", "save_config", "emit_config",
    "SweepSpec", "ResultBundle", "apply_parameter", "run_sweep",
    "write_spectrum_csv", "write_bundle", "spectrum_to_dict",
    "CSV_COLUMNS",
    "reference_cavity", "reference_mode", "standard_setup",
    "figure_presets", "run_figure_preset",
]
