"""Experiment configuration: JSON-addressable, validated per experiment kind."""

import json
from dataclasses import dataclass, field, asdict

from .dgps import is_int
from .kinds import KINDS


class ConfigError(ValueError):
    """Configuration failed validation; the message lists the problems found."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a kind, a process, an estimator, grids, and a seed."""

    experiment: str
    kind: str
    dgp: dict = field(default_factory=dict)
    estimator: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    reps: int = 10_000
    master_seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        try:
            config = cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        validate_config(config)
        return config

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_dict(raw)


def validate_config(config: ExperimentConfig):
    """Raise ConfigError listing the violated constraints it finds.

    The kind's checks are its ``prepare`` and ``grid_points``, whose results
    ``(prepared, points)`` are returned for the run to reuse.
    """
    problems = []
    if not config.experiment:
        problems.append("experiment id must be non-empty")
    impl = KINDS.get(config.kind)
    if impl is None:
        problems.append(f"unknown kind {config.kind!r}; known: {sorted(KINDS)}")
    if not is_int(config.reps):
        problems.append(f"reps={config.reps!r} must be an integer")
    elif config.reps < 100:
        problems.append(f"reps={config.reps} below the minimum of 100")
    if not is_int(config.master_seed):
        problems.append("master_seed must be an integer")

    not_objects = [name for name in ("dgp", "estimator", "grids", "params")
                   if not isinstance(getattr(config, name), dict)]
    for name in not_objects:
        problems.append(f"{name} must be a JSON object, got {getattr(config, name)!r}")

    prepared = points = None
    if impl is not None and not not_objects:
        missing = [key for key in impl.grids if not config.grids.get(key)]
        for key in missing:
            problems.append(f"kind {config.kind!r} needs a non-empty grid {key!r}")
        if not missing:
            try:
                prepared = impl.prepare(config)
            except (ValueError, TypeError) as exc:
                problems.append(str(exc))
            try:
                points = impl.grid_points(config)
            except (ValueError, TypeError) as exc:
                problems.append(str(exc))

    if problems:
        raise ConfigError("; ".join(problems))
    return prepared, points
