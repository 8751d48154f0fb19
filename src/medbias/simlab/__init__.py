"""Experiment orchestration: DGP registry, replication engine, reports, CLI."""

from .config import ConfigError, ExperimentConfig, validate_config
from .dgps import make_dgp, make_plm_dgp, sample_design
from .engine import CHUNK_SIZE, ExperimentResult, list_experiment_kinds, run_experiment
from .hulc import batch_count, hulc_interval
from .kinds import KINDS, estimate_location, rate_for, resolve_estimator, schedule_dimension
from .reports import CSV_COLUMNS, write_csv, write_json
from .seeds import derive_seed, replication_rng

__all__ = [
    "CHUNK_SIZE",
    "CSV_COLUMNS",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "KINDS",
    "batch_count",
    "derive_seed",
    "estimate_location",
    "hulc_interval",
    "list_experiment_kinds",
    "make_dgp",
    "make_plm_dgp",
    "rate_for",
    "replication_rng",
    "resolve_estimator",
    "run_experiment",
    "sample_design",
    "schedule_dimension",
    "validate_config",
    "write_csv",
    "write_json",
]
