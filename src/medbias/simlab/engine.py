"""Replication engine: fixed-size chunks over a worker pool.

Chunk boundaries are a fixed constant and every replication seeds its own
generators (``kinds._replications`` owns that contract), so results are
identical for any worker count; rerunning the same config and master seed
reproduces every row bit for bit.  Aggregation folds chunk outputs in
replication-index order, never completion order.  Every chunk goes through
``run_chunk``, the one place a failing replication is named.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, validate_config
from .kinds import KINDS, _stream_label, grid_label
from .seeds import derive_seed

#: Replications per chunk.  Changing it changes no value and no error
#: message (seeds are per replication); tests/test_simlab.py's
#: ``test_chunk_size_changes_no_value_and_no_failure`` checks this for
#: every kind.
CHUNK_SIZE = 512


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list = field(default_factory=list)
    profiles: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def _finite_chunk(config, prepared, point, start, stop) -> dict:
    """The kind's ``run_chunk``, looked up at call time, with every array finite."""
    arrays = KINDS[config.kind].run_chunk(config, prepared, point, start, stop)
    for key, values in arrays.items():
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"{key} is not finite: {values[~finite][0]}")
    return arrays


def _replication_error(config, point, index: int, err: Exception) -> Exception:
    """``err``'s class and message, prefixed with the grid point (which names the
    kind), the replication ``index`` and each of the kind's streams with its
    derived seed, which ``replication_rng`` replays."""
    seeds = ", ".join(
        f"stream {stream!r} "
        f"(seed {derive_seed(config.master_seed, index, _stream_label(config, point, stream))})"
        for stream in KINDS[config.kind].streams)
    return type(err)(f"grid point {grid_label(config.kind, point)}, replication {index}: "
                     f"{seeds}: {err}")


def run_chunk(config, prepared, point, start: int, stop: int) -> dict:
    """Replications ``start..stop`` of a grid point: its kind's arrays, every one finite.

    When the chunk raises ValueError or RuntimeError (a non-finite array
    included), its replications run again one at a time, in order, and the
    first that fails alone raises its own error, naming the grid point, the
    replication and each stream's seed.  A replication's values depend only
    on its seeds, so the named one fails the same way at any chunk size.
    If none fails alone, the chunk's own error is raised.
    """
    try:
        return _finite_chunk(config, prepared, point, start, stop)
    except (ValueError, RuntimeError):
        for index in range(start, stop):
            try:
                _finite_chunk(config, prepared, point, index, index + 1)
            except (ValueError, RuntimeError) as err:
                raise _replication_error(config, point, index, err) from None
        raise


def _chunk_task(payload):
    return run_chunk(*payload)


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
