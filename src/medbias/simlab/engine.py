"""Replication engine: fixed-size chunks over a worker pool.

Chunk boundaries are a fixed constant and every replication seeds its own
generator (``kinds._replications`` owns that contract), so results are
identical for any worker count; rerunning the same config and master seed
reproduces every row bit for bit.  Aggregation folds chunk outputs in
replication-index order, never completion order.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, validate_config
from .kinds import KINDS, grid_label

#: Replications per chunk.  Part of the execution contract: changing it
#: changes nothing (seeds are per replication), but it is fixed anyway.
CHUNK_SIZE = 512


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list = field(default_factory=list)
    profiles: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def _chunk_task(payload):
    config, prepared, point, start, stop = payload
    return KINDS[config.kind].run_chunk(config, prepared, point, start, stop)


def _merge(chunks):
    keys = list(chunks[0])
    return {key: np.concatenate([c[key] for c in chunks]) for key in keys}


def _fold(result, prepared, points, chunks, per_point):
    """Summarise each grid point from its ``per_point`` chunks, in grid order."""
    config = result.config
    impl = KINDS[config.kind]
    for point in points:
        arrays = _merge([next(chunks) for _ in range(per_point)])
        rows, profile = impl.summarize(config, prepared, point, arrays)
        result.rows.extend(rows)
        if profile:
            result.profiles[grid_label(config.kind, point)] = profile


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run every grid point of an experiment and fold the rows.

    The config is resolved once; every chunk of every grid point goes
    through one ordered map, in this process at ``workers=1`` and through
    one process pool otherwise.  ``workers`` only distributes fixed chunks
    of replications; it cannot change any reported value.
    """
    prepared, points = validate_config(config)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    spans = [(start, min(start + CHUNK_SIZE, config.reps))
             for start in range(0, config.reps, CHUNK_SIZE)]
    payloads = [(config, prepared, point, start, stop)
                for point in points for start, stop in spans]
    result = ExperimentResult(config=config)
    started = time.perf_counter()
    if workers == 1:
        _fold(result, prepared, points, map(_chunk_task, payloads), len(spans))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            _fold(result, prepared, points, pool.map(_chunk_task, payloads), len(spans))
    result.wall_time_s = time.perf_counter() - started
    return result


def list_experiment_kinds() -> list:
    """(name, description) pairs for every registered experiment kind."""
    return [(impl.name, impl.description) for impl in KINDS.values()]
