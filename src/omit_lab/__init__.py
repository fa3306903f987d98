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

# Each public name is declared once, in its module's __all__; the package
# exports exactly those.
from .config_io import *
from .darkmode import *
from .errors import *
from .model import *
from .nmode import *
from .oracle import *
from .presets import *
from .sidebands import *
from .sweep import *

__version__ = "0.1.0"

__all__ = ["__version__", *config_io.__all__, *darkmode.__all__,
           *errors.__all__, *model.__all__, *nmode.__all__, *oracle.__all__,
           *presets.__all__, *sidebands.__all__, *sweep.__all__]
