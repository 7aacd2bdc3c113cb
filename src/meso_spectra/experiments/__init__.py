"""Experiment harness: configs, drivers, verifiers, and reports.

This package exports what the command line uses, plus the errors those
functions raise; the rest lives in the submodules ``checks``, ``config``,
``harness`` and ``reports``.
"""

from .checks import PreconditionError, random_stability_sweep, verify_sandwich_bounds
from .config import ConfigError, load_config, load_spectrum_values
from .harness import ExperimentError, run_experiment
from .reports import aggregate

__all__ = [
    "ConfigError",
    "ExperimentError",
    "PreconditionError",
    "aggregate",
    "load_config",
    "load_spectrum_values",
    "random_stability_sweep",
    "run_experiment",
    "verify_sandwich_bounds",
]
