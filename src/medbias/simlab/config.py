"""Experiment configuration: JSON-addressable, validated per experiment kind."""

import json
from dataclasses import dataclass, field, asdict

from .dgps import DESIGNS, PLM_DGPS, UNIVARIATE_DGPS
from .hulc import batch_count


class ConfigError(ValueError):
    """Configuration failed validation; the message lists every problem."""


#: Grid keys each kind requires (beyond a DGP, an estimator and reps).
KIND_REQUIREMENTS = {
    "convex_dominance": ("n",),
    "z_estimator_equality": ("n",),
    "nondiff_profile": ("n", "eps"),
    "mle_llr_consistency": ("n", "eps"),
    "nonconvex_dominance": ("n", "delta"),
    "partialled_dominance": ("n", "d"),
    "dimension_scaling": ("n", "d_schedules", "seed_labels"),
    "plm_rate_dichotomy": ("n", "rate_schedules"),
    "hulc_coverage": ("n",),
}

#: Named rules mapping a sample size to a covariate dimension.
D_SCHEDULES = ("quarter_pow", "half_sqrt")

#: Named rules mapping a sample size to the corrupted-nuisance rate target.
RATE_SCHEDULES = ("vanishing", "constant")

_UNIVARIATE_KINDS = ("convex_dominance", "z_estimator_equality", "nondiff_profile",
                     "nonconvex_dominance", "hulc_coverage")
_DESIGN_KINDS = ("partialled_dominance", "dimension_scaling")
_ESTIMATOR_KINDS = ("abs_dev", "quantile", "lp", "neg_loglik", "biweight")


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_config(config: ExperimentConfig):
    """Raise ConfigError listing every violated constraint."""
    problems = []
    if not config.experiment:
        problems.append("experiment id must be non-empty")
    if config.kind not in KIND_REQUIREMENTS:
        problems.append(
            f"unknown kind {config.kind!r}; known: {sorted(KIND_REQUIREMENTS)}"
        )
    if not _is_int(config.reps):
        problems.append(f"reps={config.reps!r} must be an integer")
    elif config.reps < 100:
        problems.append(f"reps={config.reps} below the minimum of 100")
    if not _is_int(config.master_seed):
        problems.append("master_seed must be an integer")

    if config.kind in KIND_REQUIREMENTS:
        for key in KIND_REQUIREMENTS[config.kind]:
            value = config.grids.get(key)
            if not value:
                problems.append(f"kind {config.kind!r} needs a non-empty grid {key!r}")
        dgp_name = config.dgp.get("name")
        if config.kind in _UNIVARIATE_KINDS and dgp_name not in UNIVARIATE_DGPS:
            problems.append(f"unknown scalar DGP {dgp_name!r}; known: {UNIVARIATE_DGPS}")
        if config.kind in _DESIGN_KINDS and dgp_name not in DESIGNS:
            problems.append(f"unknown design {dgp_name!r}; known: {tuple(DESIGNS)}")
        if config.kind == "plm_rate_dichotomy" and dgp_name not in PLM_DGPS:
            problems.append(f"unknown partial-linear process {dgp_name!r}; known: {PLM_DGPS}")
        est_kind = config.estimator.get("kind")
        if config.kind in _UNIVARIATE_KINDS and est_kind not in _ESTIMATOR_KINDS:
            problems.append(f"unknown estimator kind {est_kind!r}; known: {_ESTIMATOR_KINDS}")
        if config.kind == "nonconvex_dominance" and est_kind != "biweight":
            problems.append("nonconvex_dominance drives the biweight estimator only")
        if config.kind == "mle_llr_consistency" and est_kind != "neg_loglik":
            problems.append("mle_llr_consistency needs a neg_loglik estimator")
        est_params = config.estimator.get("params", {})
        tau = est_params.get("tau")
        if est_kind == "quantile" and not (_is_real(tau) and 0.0 < tau < 1.0):
            problems.append(f"quantile estimator needs params.tau in (0, 1), got {tau!r}")
        power = est_params.get("p")
        if est_kind == "lp" and not (_is_real(power) and power >= 1.0):
            problems.append(f"lp estimator needs params.p >= 1, got {power!r}")
        min_n = 2 if config.kind == "plm_rate_dichotomy" else 1
        if config.kind == "hulc_coverage":
            alpha = config.params.get("alpha", 0.05)
            if not 0.0 < alpha < 1.0:
                problems.append(f"alpha={alpha} outside (0, 1)")
            else:
                min_n = batch_count(alpha)
        small = [n for n in config.grids.get("n") or () if not _is_int(n) or n < min_n]
        if small:
            problems.append(f"grid 'n' needs integers >= {min_n}, got {small}")
        eps = config.grids.get("eps")
        if config.kind == "nondiff_profile" and eps:
            if len(eps) < 2:
                problems.append("epsilon grid needs at least 2 points")
            if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
                problems.append("epsilon grid must be positive and strictly decreasing")
        if config.kind == "mle_llr_consistency" and eps and 0 in eps:
            problems.append("log-likelihood-ratio shifts must be nonzero")
        if config.kind == "dimension_scaling":
            for label in config.grids.get("d_schedules", ()):
                if label not in D_SCHEDULES:
                    problems.append(f"unknown d schedule {label!r}; known: {D_SCHEDULES}")
        if config.kind == "plm_rate_dichotomy":
            for label in config.grids.get("rate_schedules", ()):
                if label not in RATE_SCHEDULES:
                    problems.append(f"unknown rate schedule {label!r}; known: {RATE_SCHEDULES}")

    if problems:
        raise ConfigError("; ".join(problems))
