"""Experiment harness: configs, drivers, verifiers, and reports."""

from .checks import (
    PreconditionError,
    SandwichResult,
    SandwichRow,
    random_stability_sweep,
    verify_sandwich_bounds,
)
from .concentration import deviation_norm
from .config import ConfigError, ExperimentConfig, load_config, load_spectrum_values
from .harness import (
    ExperimentError,
    run_concentration_from_config,
    run_eigenvector_experiment,
    run_experiment,
    run_location_experiment,
    run_pushforward_experiment,
)
from .reports import (
    CSV_COLUMNS,
    REPORT_SCHEMA,
    ExperimentReport,
    OutlierRecord,
    ReportIOError,
    TrialRecord,
    aggregate,
    coverage_at,
    read_report,
    reports_equal,
    wasserstein1,
    write_report,
)

__all__ = [
    "CSV_COLUMNS",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentReport",
    "OutlierRecord",
    "PreconditionError",
    "REPORT_SCHEMA",
    "ReportIOError",
    "SandwichResult",
    "SandwichRow",
    "TrialRecord",
    "aggregate",
    "coverage_at",
    "deviation_norm",
    "load_config",
    "load_spectrum_values",
    "random_stability_sweep",
    "read_report",
    "reports_equal",
    "run_concentration_from_config",
    "run_eigenvector_experiment",
    "run_experiment",
    "run_location_experiment",
    "run_pushforward_experiment",
    "verify_sandwich_bounds",
    "wasserstein1",
    "write_report",
]
