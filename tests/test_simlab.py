"""Tests for the experiment lab: seeds, config, engine, reports, CLI, HulC."""

import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from medbias import (
    BiweightLocation,
    EstimatorDraws,
    NormalLocation,
    mc_med_bias,
    minimize_scan,
    mle_llr_frequencies,
    plm_split_fit,
    simulate_plm,
)
from medbias.simlab import (
    CHUNK_SIZE,
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    batch_count,
    derive_seed,
    estimate_location,
    hulc_interval,
    list_experiment_kinds,
    rate_for,
    replication_rng,
    run_experiment,
    schedule_dimension,
    write_csv,
    write_json,
)
from medbias.simlab.cli import main as cli_main
from medbias.simlab.dgps import sample_design
from medbias.simlab import engine, kinds, seeds
from medbias.simlab.seeds import chunk_generators
from medbias.simlab.kinds import KINDS, _check_loss_argmin, default_bracket, resolve_estimator
from medbias import Bracket, CheckLoss, minimize_convex


# ---------------------------------------------------------------------------
# Seed derivation.


def test_derive_seed_deterministic_and_pure():
    a = derive_seed(12345, 17, "dgp")
    b = derive_seed(12345, 17, "dgp")
    assert a == b
    assert 0 <= a < 2**64


def test_derive_seed_separates_streams():
    base = derive_seed(1, 0, "dgp")
    assert derive_seed(1, 1, "dgp") != base
    assert derive_seed(1, 0, "noise") != base
    assert derive_seed(2, 0, "dgp") != base


def test_derive_seed_collision_scan():
    seen = {derive_seed(99, i, "dgp") for i in range(1_000_000)}
    assert len(seen) == 1_000_000


def test_derive_seed_order_independent():
    forward = [derive_seed(5, i, "x") for i in range(100)]
    backward = [derive_seed(5, i, "x") for i in reversed(range(100))]
    assert forward == backward[::-1]


def test_derive_seed_type_errors():
    with pytest.raises(TypeError):
        derive_seed("5", 0, "x")
    with pytest.raises(TypeError):
        derive_seed(5, 0, 7)
    with pytest.raises(TypeError):
        derive_seed(True, 0, "x")
    with pytest.raises(TypeError):
        derive_seed(1, False, "x")
    assert derive_seed(1, 0, "x") == derive_seed(int("1"), 0, "x")


def test_replication_rng_reproduces():
    assert (replication_rng(3, 4, "a").standard_normal(5)
            == replication_rng(3, 4, "a").standard_normal(5)).all()


# Every draw method the lab's DGPs and fits use.
_DRAW_METHODS = [
    lambda rng: rng.standard_normal(7),
    lambda rng: rng.standard_normal((5, 3)),
    lambda rng: rng.uniform(-1.0, 2.0, size=4),
    lambda rng: rng.logistic(0.5, 2.0, size=6),
    lambda rng: rng.laplace(0.0, 1.5, size=5),
    lambda rng: rng.exponential(2.0, size=3),
    lambda rng: rng.permutation(11),
]


def test_chunk_generators_match_replication_rng():
    # the batched seeding gives default_rng(derive_seed(...))'s streams, draw for draw
    labels = ["g=1|data", "g=1|split"]
    chunks = [(0, 1100), (1100, 2000)]
    for start, stop in chunks:
        for i, rngs in zip(range(start, stop), chunk_generators(17, start, stop, labels)):
            assert len(rngs) == len(labels)
            k = i % len(_DRAW_METHODS)
            for label, rng in zip(labels, rngs):
                reference = replication_rng(17, i, label)
                for draw in _DRAW_METHODS[k:] + _DRAW_METHODS[:k]:
                    assert np.array_equal(draw(rng), draw(reference)), (i, label)


@pytest.mark.parametrize("master_seed, start, stop, labels", [
    (-7, 0, 40, ["g|data"]),  # a negative master seed hashes its sign
    (2**64 + 5, 3, 43, ["g|data"]),  # a master seed no 64-bit word holds
    (11, 2**32 - 20, 2**32 + 20, ["g|data"]),  # indices across 2**32
    (11, 0, 30, ["g=\u00e9|data", "\u00df|\u03bb"]),  # labels hashed as UTF-8
    (11, 9, 10, ["g|data"]),  # one replication
    (11, 100, 140, ["g|lhs", "g|rhs", "g|split"]),  # three streams
])
def test_chunk_generators_match_replication_rng_at_the_edges(master_seed, start, stop, labels):
    chunk = chunk_generators(master_seed, start, stop, labels)
    for i, rngs in zip(range(start, stop), chunk, strict=True):
        assert len(rngs) == len(labels)
        for label, rng in zip(labels, rngs):
            reference = replication_rng(master_seed, i, label)
            assert np.array_equal(rng.standard_normal(7), reference.standard_normal(7)), (i, label)


def test_chunk_generators_empty_chunk_and_type_errors():
    assert list(chunk_generators(11, 5, 5, ["g|data"])) == []
    for args, message in (
        ((True, 0, 1, ["x"]), "master_seed and replication_index must be integers"),
        ((1, 0.0, 1, ["x"]), "master_seed and replication_index must be integers"),
        ((1, 0, False, ["x"]), "master_seed and replication_index must be integers"),
        ((1, 0, 1, ["x", 7]), "stream_label must be a string"),
        ((1, 0, 0, [b"x"]), "stream_label must be a string"),  # even with nothing to yield
    ):
        with pytest.raises(TypeError, match=message) as raised:
            next(chunk_generators(*args))
        assert raised.traceback[-1].name == "chunk_generators"


def test_batched_seeding_matches_seed_sequence_on_raw_seeds():
    raw = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    for seed, state in zip(raw, seeds._pcg64_states(raw)):
        assert seeds._pcg64_state(*state) == np.random.default_rng(seed).bit_generator.state


def test_batched_seeding_limbs_match_seed_sequence_on_many_seeds():
    # one-word and two-word seeds, the edges between them, and random ones
    edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1]
    rng = np.random.default_rng(23)
    raw = edges + rng.integers(0, 2**32, 996, dtype=np.uint64).tolist() \
        + rng.integers(0, 2**64 - 1, 996, dtype=np.uint64, endpoint=True).tolist()
    state_hi, state_lo, inc_hi, inc_lo = (limb.tolist() for limb in seeds._pcg64_limbs(raw))
    for k, seed in enumerate(raw):
        state = np.random.default_rng(seed).bit_generator.state["state"]
        assert state == {"state": state_hi[k] << 64 | state_lo[k],
                         "inc": inc_hi[k] << 64 | inc_lo[k]}, seed


@pytest.mark.parametrize("label", ["g|data", "", "%", "%d", "%%", "a%%d%s|%b", "\u00e9|\u6f22%d",
                                   "%(x)s"])
def test_chunk_seeds_match_derive_seed_on_any_label(label):
    for master_seed, indices in ((0, range(0, 40)), (-3, range(2**32 - 5, 2**32 + 5)),
                                 (2**70 + 1, range(10**12, 10**12 + 3))):
        assert seeds._chunk_seeds(master_seed, indices, label).tolist() == [
            derive_seed(master_seed, i, label) for i in indices]


def test_seed_hashing_self_check_covers_a_percent_label(monkeypatch):
    # a template that escaped '%' twice would hash a '%' label wrongly and
    # every other label rightly; the self-check's label holds a '%'
    chunk_seeds = seeds._chunk_seeds
    monkeypatch.setattr(seeds, "_chunk_seeds",
                        lambda master_seed, indices, label:
                        chunk_seeds(master_seed, indices, label.replace("%", "%%")))
    assert seeds._chunk_seeds(1, range(3), "g|data").tolist() == chunk_seeds(
        1, range(3), "g|data").tolist()
    with pytest.raises(RuntimeError, match="chunk seed hashing differs from derive_seed"):
        seeds._check_against_reference.__wrapped__()


def test_chunk_generators_drop_a_buffered_half():
    # a body that leaves half of a 64-bit output buffered must not leak it
    # into the next replication's draws
    buffered = 0
    for i, (rng,) in enumerate(chunk_generators(5, 0, 40, ["g|data"])):
        reference = replication_rng(5, i, "g|data")
        if i % 2 == 0:
            assert np.array_equal(rng.integers(0, 10, size=3, dtype=np.uint32),
                                  reference.integers(0, 10, size=3, dtype=np.uint32))
            buffered += reference.bit_generator.state["has_uint32"]
        else:
            assert np.array_equal(rng.standard_normal(4), reference.standard_normal(4))
            assert np.array_equal(rng.integers(0, 10, size=2, dtype=np.uint32),
                                  reference.integers(0, 10, size=2, dtype=np.uint32))
    assert buffered > 0


def test_batched_seeding_self_check_raises_on_drift(monkeypatch):
    # the output hash's constants, as a multiplier one bit off gives them
    monkeypatch.setattr(seeds, "_OUT_CONSTS",
                        seeds._hash_consts(seeds._INIT_B, seeds._MULT_B ^ 1, 8))
    seeds._check_against_reference.cache_clear()
    with pytest.raises(RuntimeError, match=re.escape(np.__version__)):
        next(chunk_generators(0, 0, 1, ["x"]))
    monkeypatch.undo()
    seeds._check_against_reference.cache_clear()
    next(chunk_generators(0, 0, 1, ["x"]))


# ---------------------------------------------------------------------------
# HulC interval.


def test_batch_count_values():
    assert batch_count(0.05) == 6
    assert batch_count(0.25) == 3
    assert batch_count(0.5) == 2
    with pytest.raises(ValueError):
        batch_count(0.0)


def test_hulc_degenerate_estimator_always_covers():
    data = np.arange(60, dtype=float)
    lo, hi = hulc_interval(data, 0.05, lambda batches: np.full(len(batches), 1.7))
    assert lo == hi == 1.7


def test_hulc_interval_is_batch_range():
    data = np.arange(12, dtype=float)
    lo, hi = hulc_interval(data, 0.25, lambda b: b.mean(axis=1))
    assert lo == pytest.approx(1.5) and hi == pytest.approx(9.5)


def test_hulc_needs_enough_data():
    with pytest.raises(ValueError):
        hulc_interval(np.arange(4, dtype=float), 0.05, functools.partial(np.median, axis=1))


def test_hulc_coverage_small_run():
    rng = np.random.default_rng(70)
    hits = 0
    runs = 2000
    for _ in range(runs):
        lo, hi = hulc_interval(rng.standard_normal(60), 0.05, functools.partial(np.median, axis=1))
        hits += lo <= 0.0 <= hi
    coverage = hits / runs
    target = 1.0 - 2.0 ** -5
    assert coverage >= target - 3 * math.sqrt(target * (1 - target) / runs)


# ---------------------------------------------------------------------------
# Config validation.


def _minimal_config(**overrides):
    raw = {
        "experiment": "t",
        "kind": "convex_dominance",
        "dgp": {"name": "standard_normal"},
        "estimator": {"kind": "abs_dev"},
        "grids": {"n": [5]},
        "reps": 200,
        "master_seed": 1,
    }
    raw.update(overrides)
    return raw


def test_config_round_trip(tmp_path):
    raw = _minimal_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    config = ExperimentConfig.from_json(path)
    assert config.kind == "convex_dominance"
    assert config.to_dict()["grids"] == {"n": [5]}


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_config(kind="mystery"))
    # estimator parameters the estimator kind cannot run without
    for estimator in ({"kind": "quantile"},
                      {"kind": "quantile", "params": {"tau": 1.0}},
                      {"kind": "lp"},
                      {"kind": "lp", "params": {"p": 0.5}},
                      # the run would stop in its summary on non-finite scores
                      {"kind": "lp", "params": {"p": math.inf}},
                      {"kind": "lp", "params": {"p": math.nan}},
                      {"kind": "lp", "params": {"p": 1e308}}):
        with pytest.raises(ConfigError, match=r"params\.(tau|p)"):
            ExperimentConfig.from_dict(_minimal_config(estimator=estimator))
    # params the objective does not take or cannot be built from
    for raw, cause in (
        (_minimal_config(estimator={"kind": "abs_dev", "params": {"tau": 0.5}}),
         "estimator 'abs_dev' .*unexpected keyword argument 'tau'"),
        (_minimal_config(estimator={"kind": "lp", "params": {"p": 2.0, "q": 1.0}}),
         "estimator 'lp' .*unexpected keyword argument 'q'"),
        (_minimal_config(estimator={"kind": "neg_loglik",
                                    "params": {"family_name": "cauchy_location"}}),
         "estimator 'neg_loglik' .*unknown family 'cauchy_location'"),
        (_minimal_config(estimator={"kind": "neg_loglik",
                                    "params": {"family_name": "logistic_location",
                                               "family_params": {"sigma": 1}}}),
         "estimator 'neg_loglik' .*unexpected keyword argument 'sigma'"),
        (_minimal_config(kind="hulc_coverage", grids={"n": [12]},
                         estimator={"kind": "biweight", "params": {"c": -1}}),
         r"estimator 'biweight' .*params\.c > 0, got -1"),
        (_minimal_config(kind="nonconvex_dominance", grids={"n": [20], "delta": [0.5]},
                         estimator={"kind": "biweight", "params": {"c": 0}}),
         r"estimator 'biweight' .*params\.c > 0, got 0"),
    ):
        with pytest.raises(ConfigError, match=cause):
            ExperimentConfig.from_dict(raw)
    # names the kind's resolution cannot build, and targets with no closed form
    plm = {"kind": "plm_rate_dichotomy", "estimator": {},
           "grids": {"n": [50], "rate_schedules": ["constant"]}}
    biweight = {"kind": "biweight", "params": {"c": 2.0}}
    for raw, cause in (
        (_minimal_config(dgp={"name": "cauchy"}), "unknown scalar DGP 'cauchy'"),
        (_minimal_config(estimator={"kind": "huber"}), "unknown estimator kind 'huber'"),
        (_minimal_config(kind="partialled_dominance", dgp={"name": "wide"}, estimator={},
                         grids={"n": [50], "d": [2]}), "unknown design 'wide'"),
        (_minimal_config(kind="dimension_scaling", dgp={}, estimator={},
                         grids={"n": [100], "d_schedules": ["half_sqrt"], "seed_labels": [0]}),
         "unknown design None"),
        (_minimal_config(**plm, dgp={"name": "rough"}), "unknown partial-linear process 'rough'"),
        (_minimal_config(dgp={"name": "exp_centered"},
                         estimator={"kind": "lp", "params": {"p": 1.5}}),
         "no closed-form target for lp under asymmetric exp_centered"),
        (_minimal_config(kind="nonconvex_dominance", dgp={"name": "exp_centered"},
                         estimator=biweight, grids={"n": [20], "delta": [0.5]}),
         "no closed-form target for biweight under asymmetric exp_centered"),
        # the convex bound and the Z identity need a convex objective
        (_minimal_config(estimator=biweight), "convex_dominance needs a convex estimator"),
        (_minimal_config(kind="z_estimator_equality", estimator=biweight),
         "z_estimator_equality needs a convex estimator"),
        (_minimal_config(kind="nondiff_profile", estimator=biweight,
                         grids={"n": [5], "eps": [1.0, 0.5]}),
         "nondiff_profile needs a convex estimator"),
    ):
        with pytest.raises(ConfigError, match=cause):
            ExperimentConfig.from_dict(raw)
    ExperimentConfig.from_dict(_minimal_config(kind="hulc_coverage", estimator=biweight,
                                               grids={"n": [12]}))


def test_hulc_coverage_runs_biweight():
    # the biweight batch estimates come from the one scan; under a symmetric
    # law they are median unbiased, so coverage meets the batch-count target
    raw = _minimal_config(kind="hulc_coverage", estimator={"kind": "biweight"},
                          grids={"n": [60]})
    detail = run_experiment(ExperimentConfig.from_dict(raw)).rows[0]["detail"]
    target = 1.0 - detail["miss_target"]
    # alpha 0.05 needs 6 batches, which miss a median-unbiased target with
    # probability 2 * 2**-6
    assert detail["alpha"] == 0.05 and detail["batches"] == 6
    assert detail["miss_target"] == 0.03125
    assert detail["coverage"] >= target - 3 * math.sqrt(target * (1 - target) / raw["reps"])


def test_biweight_estimates_of_many_rows_are_each_row_alone():
    # 600 rows in one call, several of the scan's slabs of rows: each row's
    # estimate is the one its row alone gives
    data = np.random.default_rng(44).standard_t(3.0, size=(600, 12))
    estimator = resolve_estimator({"kind": "biweight", "params": {"c": 2.0}})
    batch = estimate_location(estimator, data)
    assert batch.shape == (600,)
    assert batch.tobytes() == np.concatenate([estimate_location(estimator, row)
                                              for row in data]).tobytes()


def test_biweight_hulc_chunk_scans_in_slabs_of_rows(tmp_path):
    # a 512-replication chunk at n = 60 scans 3,072 batch rows in one call;
    # their 2001-point grids are never built, so the scan's slabs of rows
    # peak at about 3 MiB, with the bytes recorded from the one-shot scan
    from medbias.simlab.config import validate_config

    config = ExperimentConfig.from_dict(_minimal_config(
        kind="hulc_coverage", estimator={"kind": "biweight", "params": {"c": 2.0}},
        grids={"n": [60]}, reps=512))
    prepared, (point,) = validate_config(config)
    tracemalloc.start()
    try:
        KINDS[config.kind].run_chunk(config, prepared, point, 0, config.reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, peak / 2**20
    path = tmp_path / "hulc.csv"
    write_csv(path, run_experiment(config).rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c473415f9f3caa57203db25be64f9aab3460e2791bfc777c8eb6b1e6d871aaa1")


def test_config_rejects_small_reps():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_config(reps=50))
    with pytest.raises(ConfigError, match="reps"):
        ExperimentConfig.from_dict(_minimal_config(reps=True))
    # every problem is listed in the one error
    with pytest.raises(ConfigError, match="reps=200.5 must be an integer.*master_seed"):
        ExperimentConfig.from_dict(_minimal_config(reps=200.5, master_seed=True))


def test_config_rejects_missing_grid():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_config(grids={}))
    # sample sizes the kind cannot run
    plm = {"kind": "plm_rate_dichotomy", "dgp": {"name": "smooth_default"}, "estimator": {}}
    for raw in (_minimal_config(grids={"n": [5, 0]}),
                _minimal_config(grids={"n": [-3]}),
                _minimal_config(grids={"n": [5.5]}),
                _minimal_config(**plm, grids={"n": [1], "rate_schedules": ["constant"]}),
                _minimal_config(kind="hulc_coverage", grids={"n": [5]})):
        with pytest.raises(ConfigError, match="grid 'n' needs integers"):
            ExperimentConfig.from_dict(raw)
    ExperimentConfig.from_dict(_minimal_config(kind="hulc_coverage", grids={"n": [6]}))
    # more covariates than observations: the stacked design is rank deficient
    wide = _minimal_config(kind="partialled_dominance", dgp={"name": "gaussian"}, estimator={},
                           grids={"n": [10], "d": [12]})
    with pytest.raises(ConfigError, match=r"\(n, d\) = \[\(10, 12\)\] have d \+ 1 > n"):
        ExperimentConfig.from_dict(wide)
    # covariate dimensions and seed labels are integer coordinates
    for grids, cause in (({"n": [50], "d": [-1]}, r"grid 'd' needs integers >= 0, got \[-1\]"),
                         ({"n": [50], "d": [2.5]}, r"grid 'd' needs integers >= 0, got \[2\.5\]")):
        with pytest.raises(ConfigError, match=cause):
            ExperimentConfig.from_dict({**wide, "grids": grids})
    scaling = _minimal_config(kind="dimension_scaling", dgp={"name": "leverage_mix"}, estimator={},
                              grids={"n": [100], "d_schedules": ["half_sqrt"],
                                     "seed_labels": [0, 0.5]})
    with pytest.raises(ConfigError, match=r"grid 'seed_labels' needs integers, got \[0\.5\]"):
        ExperimentConfig.from_dict(scaling)


def test_config_rejects_bad_eps_grid():
    # an epsilon grid needs two points and must decrease
    for eps, cause in (([0.25, 0.5], "epsilon grid must be strictly decreasing"),
                       ([0.5, 0.5], "epsilon grid must be strictly decreasing"),
                       ([0.5], "epsilon grid needs at least 2 points")):
        raw = _minimal_config(kind="nondiff_profile", grids={"n": [5], "eps": eps})
        with pytest.raises(ConfigError, match=cause):
            ExperimentConfig.from_dict(raw)
    raw = _minimal_config(
        kind="mle_llr_consistency",
        estimator={"kind": "neg_loglik", "params": {"family_name": "normal_location"}},
        grids={"n": [10], "eps": [0.5, 0.0]},
    )
    with pytest.raises(ConfigError, match="nonzero"):
        ExperimentConfig.from_dict(raw)
    # shifts and epsilons must be finite numbers, named by their grid
    for eps, cause in (([math.inf], r"\[inf\]"), ([math.nan], r"\[nan\]")):
        with pytest.raises(ConfigError,
                           match=f"grid 'eps' needs finite nonzero numbers, got {cause}"):
            ExperimentConfig.from_dict({**raw, "grids": {"n": [10], "eps": eps}})
    nondiff = _minimal_config(kind="nondiff_profile")
    for eps, cause in ((["a"], r"\['a'\]"), ([math.inf, 0.1], r"\[inf\]")):
        with pytest.raises(ConfigError, match=f"grid 'eps' needs finite numbers > 0, got {cause}"):
            ExperimentConfig.from_dict({**nondiff, "grids": {"n": [5], "eps": eps}})
    # window half-widths and thresholds must be finite and positive
    nonconvex = _minimal_config(kind="nonconvex_dominance", estimator={"kind": "biweight"})
    partialled = _minimal_config(kind="partialled_dominance", dgp={"name": "gaussian"},
                                 estimator={})
    for raw, cause in (
        ({**nonconvex, "grids": {"n": [10], "delta": [0.5, -1.0]}}, r"\[-1\.0\]"),
        ({**nonconvex, "grids": {"n": [10], "delta": [math.inf]}}, r"\[inf\]"),
        ({**nonconvex, "grids": {"n": [10], "delta": [0, "a"]}}, r"\[0, 'a'\]"),
        ({**partialled, "grids": {"n": [50], "d": [2], "eta": [-1.0]}}, r"\[-1\.0\]"),
        ({**partialled, "grids": {"n": [50], "d": [2], "eta": ["a"]}}, r"\['a'\]"),
    ):
        key = "delta" if "delta" in raw["grids"] else "eta"
        with pytest.raises(ConfigError, match=f"grid '{key}' needs finite numbers > 0, got {cause}"):
            ExperimentConfig.from_dict(raw)


def test_validate_lists_llr_shift_without_finite_expected_ratio(tmp_path, capsys):
    # a finite but huge shift overflows the normal family's expected
    # log-likelihood ratio; validation names the grid and the value next to
    # the config's other problems, instead of the run stopping mid-chunk
    from medbias.simlab.config import validate_config
    raw = _minimal_config(
        kind="mle_llr_consistency",
        estimator={"kind": "neg_loglik", "params": {"family_name": "normal_location"}},
        grids={"n": [5], "eps": [0.5, 1e200]},
        reps=50,
    )
    cause = r"grid 'eps' values \[1e\+200\] give no finite negative expected"
    with pytest.raises(ConfigError, match=f"reps=50 below the minimum.*{cause}"):
        validate_config(ExperimentConfig(**raw))
    path = tmp_path / "llr.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["validate", str(path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert re.search(cause, record["message"])
    # a logistic shift whose expected ratio (-9998) is finite and negative but
    # which the quadrature gets wrong is listed with the family's reason
    logistic = {**raw, "reps": 100,
                "estimator": {"kind": "neg_loglik",
                              "params": {"family_name": "logistic_location"}},
                "grids": {"n": [5], "eps": [0.2, 10000]}}
    with pytest.raises(ConfigError, match=r"^grid 'eps': quadrature of the logistic_location "
                                          r"expected log-likelihood ratio at shift 10000\.0 "
                                          r"gives .*, the closed form -9998\.0$"):
        validate_config(ExperimentConfig(**logistic))


def test_validate_stderr_is_one_record_when_quadrature_warns(tmp_path):
    # at a logistic shift of 1e200 QUADPACK reports a failure (ier=1) as well
    # as missing the closed form; run in a fresh interpreter, where warnings
    # reach stderr, the CLI still writes nothing there but its one JSON error
    # record
    raw = _minimal_config(
        kind="mle_llr_consistency", dgp={"name": "logistic_location"},
        estimator={"kind": "neg_loglik", "params": {"family_name": "logistic_location"}},
        grids={"n": [5], "eps": [1e200]}, reps=100,
    )
    path = tmp_path / "llr.json"
    path.write_text(json.dumps(raw))
    env = {**os.environ, "PYTHONPATH": str(Path(kinds.__file__).parents[2])}
    done = subprocess.run([sys.executable, "-m", "medbias.simlab.cli", "validate", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    record = json.loads(done.stderr)
    assert record["error"] == "ConfigError"
    assert re.search(r"at shift 1e\+200 gives nan, the closed form -1e\+200; "
                     r"QUADPACK ier=1$", record["message"])


def test_config_rejects_unknown_schedule():
    raw = _minimal_config(
        kind="dimension_scaling",
        grids={"n": [100], "d_schedules": ["mystery"], "seed_labels": [0]},
    )
    # every problem is listed: the scalar DGP is no design, and the schedule is unknown
    with pytest.raises(ConfigError, match="unknown design 'standard_normal'.*unknown d schedule"):
        ExperimentConfig.from_dict(raw)
    with pytest.raises(ConfigError, match="^unknown d schedule 'mystery'$"):
        ExperimentConfig.from_dict({**raw, "dgp": {"name": "leverage_mix"}, "estimator": {}})
    raw = _minimal_config(
        kind="plm_rate_dichotomy", dgp={"name": "smooth_default"}, estimator={},
        grids={"n": [100], "rate_schedules": ["mystery"]},
    )
    with pytest.raises(ConfigError, match="unknown rate schedule 'mystery'"):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_config(bogus=1))
    # fields that must be JSON objects, all listed before the kind resolves them
    for field, value in (("dgp", None), ("estimator", "abs_dev"), ("grids", "n"),
                         ("params", [1])):
        with pytest.raises(ConfigError, match=f"^{field} must be a JSON object, got"):
            ExperimentConfig.from_dict(_minimal_config(**{field: value}))
    with pytest.raises(ConfigError, match="estimator must be .*; params must be"):
        ExperimentConfig.from_dict(_minimal_config(estimator="abs_dev", params=[1]))
    # and so must the config itself
    for root in (5, None, "abc", [_minimal_config()]):
        with pytest.raises(ConfigError, match="^config must be a JSON object, got "):
            ExperimentConfig.from_dict(root)
    # params keys the kind does not read, and scalars it cannot run with
    nonconvex = _minimal_config(kind="nonconvex_dominance",
                                estimator={"kind": "biweight", "params": {"c": 2.0}},
                                grids={"n": [10], "delta": [1.0]})
    for params, cause in (
        ({"scan_point": 301}, r"params \['scan_point'\] are not read by kind"),
        ({"window_points": 0}, "params.window_points must be an integer >= 2, got 0"),
        ({"window_points": 2.5}, "params.window_points must be an integer, got 2.5"),
        ({"scan_points": 1}, "params.scan_points must be an integer >= 3, got 1"),
        ({"scan_lo": 1.0, "scan_hi": -1.0}, "params.scan_lo=1.0 must be below scan_hi=-1.0"),
        ({"scan_lo": "low"}, "params.scan_lo must be a number"),
        # a window whose width overflows, and one whose 1201 points round
        # together, are config errors, not failures at replication 0
        ({"scan_lo": -1e308, "scan_hi": 1e308},
         r"params\.scan_lo=-1e\+308 and params\.scan_hi=1e\+308 give no 1201-point scan grid"),
        ({"scan_lo": 1e16, "scan_hi": 1e16 + 64},
         r"params\.scan_lo=1e\+16 and params\.scan_hi=1\.0000000000000064e\+16 give no "
         r"1201-point scan grid: scan grid must be finite and strictly increasing along each row"),
    ):
        with pytest.raises(ConfigError, match=cause):
            ExperimentConfig.from_dict({**nonconvex, "params": params})
    # DGP params the process does not read, and values it cannot run with
    design = {"kind": "partialled_dominance", "estimator": {}, "grids": {"n": [50], "d": [2]}}
    for dgp, cause in (
        ({"name": "standard_normal", "params": {"sigma": 3.0}},
         r"params \['sigma'\] are not read by scalar DGP 'standard_normal'"),
        ({"name": "uniform", "params": {"lo": 1.0, "hi": -1.0}},
         r"scalar DGP 'uniform' needs params\.lo < params\.hi, got lo=1\.0, hi=-1\.0"),
        # numpy's uniform raises a bare OverflowError on such a range, mid-chunk
        ({"name": "uniform", "params": {"lo": -1e308, "hi": 1e308}},
         r"scalar DGP 'uniform' needs a finite params\.hi - params\.lo, got lo=-1e\+308, "
         r"hi=1e\+308"),
        ({"name": "laplace", "params": {"scale": -1}},
         r"scalar DGP 'laplace' needs params\.scale > 0, got -1\.0"),
        ({"name": "logistic", "params": {"scale": "wide"}},
         r"scalar DGP 'logistic': params\.scale must be a number"),
    ):
        with pytest.raises(ConfigError, match=cause):
            ExperimentConfig.from_dict(_minimal_config(dgp=dgp))
    for raw, cause in (
        (_minimal_config(**design, dgp={"name": "leverage_mix", "params": {"rho": 1.5}}),
         r"design 'leverage_mix' needs params\.rho in \[0, 1\), got 1\.5"),
        # a zero scale used to stop the first chunk as a rank-deficient block row
        (_minimal_config(**design, dgp={"name": "leverage_mix",
                                        "params": {"scale_hi": 0, "scale_lo": 0}}),
         r"design 'leverage_mix' needs params\.scale_hi > 0, got 0$"),
        (_minimal_config(kind="dimension_scaling", estimator={},
                         dgp={"name": "leverage_mix", "params": {"scale_lo": -0.5}},
                         grids={"n": [64], "d_schedules": ["quarter_pow"], "seed_labels": [0]}),
         r"design 'leverage_mix' needs params\.scale_lo > 0, got -0\.5$"),
        (_minimal_config(**design, dgp={"name": "gaussian", "params": {"foo": 1}}),
         r"params \['foo'\] are not read by design 'gaussian'"),
        (_minimal_config(kind="plm_rate_dichotomy", estimator={},
                         dgp={"name": "linear_1d", "params": {"d": 5}},
                         grids={"n": [60], "rate_schedules": ["constant"]}),
         r"params \['d'\] are not read by partial-linear process 'linear_1d'"),
        (_minimal_config(params={"alpha": 0.05}), r"params \['alpha'\] are not read"),
        (_minimal_config(kind="hulc_coverage", grids={"n": [60]}, params={"alpha": 1.5}),
         "params.alpha must be in"),
        (_minimal_config(kind="plm_rate_dichotomy", dgp={"name": "smooth_default"},
                         estimator={}, grids={"n": [60], "rate_schedules": ["constant"]},
                         params={"overlap": 2.0}), "params.overlap must be in"),
        (_minimal_config(kind="plm_rate_dichotomy", dgp={"name": "smooth_default"},
                         estimator={}, grids={"n": [60], "rate_schedules": ["constant"]},
                         params={"corrupt_seed": -1}),
         "params.corrupt_seed must be a non-negative integer, got -1"),
        (_minimal_config(kind="partialled_dominance", dgp={"name": "gaussian"}, estimator={},
                         grids={"n": [50], "d": [2]}, params={"theta0": None}),
         "params.theta0 must be a number"),
    ):
        with pytest.raises(ConfigError, match=cause):
            ExperimentConfig.from_dict(raw)


def test_validate_rejects_non_finite_params(tmp_path, capsys):
    # each of these used to validate and then stop mid-run with a bare "y
    # must be finite" or "x must be finite" (or report NaN rows for the
    # split fit); `medbias validate` names the owner and the key instead
    design = {"estimator": {}, "grids": {"n": [50], "d": [2]}}
    scaling = {"kind": "dimension_scaling", "estimator": {}, "dgp": {"name": "leverage_mix"},
               "grids": {"n": [64], "d_schedules": ["quarter_pow"], "seed_labels": [0]}}
    plm = {"kind": "plm_rate_dichotomy", "estimator": {},
           "grids": {"n": [60], "rate_schedules": ["constant"]}}
    cases = [
        ({**design, "kind": "partialled_dominance", "dgp": {"name": "gaussian"},
          "params": {"theta0": math.inf}}, "kind 'partialled_dominance'", "theta0", "inf"),
        ({**scaling, "params": {"theta0": math.nan}}, "kind 'dimension_scaling'", "theta0",
         "nan"),
        ({**design, "kind": "partialled_dominance",
          "dgp": {"name": "leverage_mix", "params": {"scale_hi": math.inf}}},
         "design 'leverage_mix'", "scale_hi", "inf"),
        ({**design, "kind": "partialled_dominance",
          "dgp": {"name": "leverage_mix", "params": {"scale_lo": math.nan}}},
         "design 'leverage_mix'", "scale_lo", "nan"),
        ({**plm, "dgp": {"name": "smooth_default", "params": {"sigma_u": math.inf}}},
         "partial-linear process 'smooth_default'", "sigma_u", "inf"),
        ({**plm, "dgp": {"name": "smooth_default", "params": {"theta0": math.nan}}},
         "partial-linear process 'smooth_default'", "theta0", "nan"),
        ({**plm, "dgp": {"name": "smooth_default", "params": {"sigma_v": -math.inf}}},
         "partial-linear process 'smooth_default'", "sigma_v", "-inf"),
        # an integer too large for a float used to escape as a bare OverflowError
        ({**design, "kind": "partialled_dominance", "dgp": {"name": "gaussian"},
          "params": {"theta0": 10**400}}, "kind 'partialled_dominance'", "theta0", "1000"),
    ]
    for k, (raw, owner, key, value) in enumerate(cases):
        path = tmp_path / f"bad-{k}.json"
        path.write_text(json.dumps(_minimal_config(**raw)))  # NaN and Infinity literals
        assert cli_main(["validate", str(path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert f"{owner}: params.{key} must be finite, got {value}" in record["message"]


_OVERFLOWING = {
    "plm_sigma_v": {"kind": "plm_rate_dichotomy", "estimator": {},
                    "dgp": {"name": "smooth_default", "params": {"sigma_v": 1e308}},
                    "grids": {"n": [60], "rate_schedules": ["vanishing"]}},
    "leverage_scale_hi": {"kind": "partialled_dominance", "estimator": {},
                          "dgp": {"name": "leverage_mix", "params": {"scale_hi": 1e308}},
                          "grids": {"n": [60], "d": [2]}},
    # finite draws whose column norm leaves the float range: unchecked, the
    # QR factor's SVD failed with a bare "SVD did not converge"
    "leverage_scale_hi_small_n": {"kind": "partialled_dominance", "estimator": {},
                                  "dgp": {"name": "leverage_mix",
                                          "params": {"scale_hi": 1e308}},
                                  "grids": {"n": [10], "d": [1]}},
    "scaling_theta0": {"kind": "dimension_scaling", "estimator": {},
                       "dgp": {"name": "leverage_mix"}, "params": {"theta0": 1e308},
                       "grids": {"n": [60], "d_schedules": ["half_sqrt"], "seed_labels": [0]}},
    # every replication fails: about one in ten on y's draws, the others on
    # their fit, whose inner products overflow into an infinite or NaN
    # slope, so one block holds both failures and names its first
    "scaling_theta0_some_rows": {
        "kind": "dimension_scaling", "estimator": {}, "dgp": {"name": "leverage_mix"},
        "params": {"theta0": 5.7e307},
        "grids": {"n": [60], "d_schedules": ["half_sqrt"], "seed_labels": [0]}},
    # scalar laws: unchecked, the estimate fails on a bare "data must be
    # finite" or "bracket endpoints must be finite"
    "laplace_scale": {"dgp": {"name": "laplace", "params": {"scale": 1e308}},
                      "estimator": {"kind": "lp", "params": {"p": 1.5}},
                      "grids": {"n": [20]}},
    # finite draws whose solver bracket (the range widened by the range plus
    # 1) overflows; unchecked, "bracket endpoints must be finite" named no
    # replication
    "laplace_scale_bracket": {"dgp": {"name": "laplace", "params": {"scale": 2e307}},
                              "estimator": {"kind": "lp", "params": {"p": 1.5}},
                              "grids": {"n": [20]}},
    # the same for a HulC batch's bracket, which can overflow where its
    # row's does not
    "hulc_laplace_scale_bracket": {"kind": "hulc_coverage",
                                   "dgp": {"name": "laplace", "params": {"scale": 2e307}},
                                   "estimator": {"kind": "lp", "params": {"p": 1.5}},
                                   "grids": {"n": [20]}},
    # one draw past 2**53, which its bracket's widening by 1 rounds back to:
    # unchecked, "need lo < hi" printed the chunk's brackets
    "uniform_n1_bracket": {"dgp": {"name": "uniform", "params": {"lo": 1e17, "hi": 2e17}},
                           "estimator": {"kind": "lp", "params": {"p": 1.5}},
                           "grids": {"n": [1]}},
    "exp_centered_scale": {"dgp": {"name": "exp_centered", "params": {"scale": 1e308}},
                           "grids": {"n": [20]}},
    # two streams, either of which may overflow first
    "logistic_scale_two_streams": {"kind": "z_estimator_equality",
                                   "dgp": {"name": "logistic", "params": {"scale": 1e308}}},
    # the LLR kind draws from its likelihood family; unchecked, its rows came
    # from NaN log-likelihood ratios
    "llr_normal_sigma": {"kind": "mle_llr_consistency",
                         "estimator": {"kind": "neg_loglik",
                                       "params": {"family_name": "normal_location",
                                                  "family_params": {"sigma": 1e308}}},
                         "grids": {"n": [50], "eps": [1e300]}},
    # about one replication in eight overflows: the seed a message names is
    # the failing replication's, not its chunk's first
    "llr_normal_sigma_some_rows": {
        "kind": "mle_llr_consistency",
        "estimator": {"kind": "neg_loglik",
                      "params": {"family_name": "normal_location",
                                 "family_params": {"sigma": 6e307}}},
        "grids": {"n": [50], "eps": [1e300]}},
    # finite draws whose lp(1e4) terms overflow to inf of both signs, so the
    # subgradient is NaN: unchecked, the solver bisected on it and stopped
    # in the summary, or reported numbers
    "lp_1e4_convex": {"estimator": {"kind": "lp", "params": {"p": 1e4}}, "grids": {"n": [20]}},
    "lp_1e4_z_equality": {"kind": "z_estimator_equality",
                          "estimator": {"kind": "lp", "params": {"p": 1e4}},
                          "grids": {"n": [20]}},
    "lp_1e4_nondiff": {"kind": "nondiff_profile", "estimator": {"kind": "lp", "params": {"p": 1e4}},
                       "grids": {"n": [20], "eps": [0.5, 0.1]}},
    "lp_1e4_hulc": {"kind": "hulc_coverage", "estimator": {"kind": "lp", "params": {"p": 1e4}},
                    "grids": {"n": [20]}},
}


_REGRESSION_KINDS = {"plm_rate_dichotomy", "partialled_dominance", "dimension_scaling"}

# a HulC failure names the batch of its replication that failed, after the
# streams and seeds: the solver's own message names no row of a 1-row matrix
_HULC_MESSAGES = {
    "hulc_laplace_scale_bracket": "batch 0: tol must be finite",
    "lp_1e4_hulc": "batch 0: subgradient is NaN at theta=-0.21196052382181474: "
                   "left=nan, right=nan",
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_OVERFLOWING))
def test_overflowing_draws_name_their_replication(case):
    # finite params whose draws or fits overflow pass validation; the
    # engine's chunk names the kind, the grid point, the replication and each
    # stream's seed, instead of a bare "values must be finite" from the
    # summary or the row of a fit block
    from medbias.simlab.config import validate_config
    from medbias.simlab.kinds import grid_label

    config = ExperimentConfig.from_dict(_minimal_config(**_OVERFLOWING[case], reps=600))
    prepared, (point,) = validate_config(config)
    label = grid_label(config.kind, point)
    assert label.startswith(f"{config.kind}|")
    prefix = f"grid point {label}, replication "

    def failure(start, stop):
        """The replication a chunk's error names, or None when the chunk runs."""
        try:
            engine.run_chunk(config, prepared, point, start, stop)
        except ValueError as err:
            assert str(err).startswith(prefix), str(err)
            return int(str(err)[len(prefix):].split(":")[0])
        return None

    # the first replication of the second chunk that fails when run alone
    failing = next(i for i in range(CHUNK_SIZE, config.reps) if failure(i, i + 1) == i)
    assert failure(CHUNK_SIZE, config.reps) == failing
    with pytest.raises(ValueError, match=re.escape(prefix)) as raised:
        run_experiment(config)
    # the error also names each stream and its seed, which reproduces the
    # failing replication on its own: run alone, it raises the same message
    index, named = re.search(r"replication (\d+): ((?:stream '\w+' \(seed \d+\)(?:, )?)+): ",
                             str(raised.value)).groups()
    index, seeds = int(index), dict(re.findall(r"stream '(\w+)' \(seed (\d+)\)", named))
    assert list(seeds) == list(KINDS[config.kind].streams), seeds
    if config.kind == "hulc_coverage":
        assert str(raised.value).endswith(f"{named}: {_HULC_MESSAGES[case]}")
    with pytest.raises(type(raised.value)) as alone:
        engine._finite_chunk(config, prepared, point, index, index + 1)
    assert str(raised.value) == f"{prefix}{index}: {named}: {alone.value}"
    rngs = {}
    for stream, seed in seeds.items():
        stream_label = f"{label}|{stream}"
        assert int(seed) == derive_seed(config.master_seed, index, stream_label)
        rngs[stream] = replication_rng(config.master_seed, index, stream_label)
    n = point["n"]
    if config.kind == "plm_rate_dichotomy":
        m_hat, g_hat = prepared.nuisances[point["schedule"], n]
        draws = simulate_plm(prepared.dgp, n, rngs["data"])
        draw = plm_split_fit(prepared.dgp, draws, m_hat, g_hat, rngs["split"])
    elif config.kind in _REGRESSION_KINDS:
        y, t, x = np.empty((1, n)), np.empty((1, n)), np.empty((1, n, point["d"]))
        sample_design(prepared.design, [rngs["data"]], y, t, x, prepared.theta0,
                      **prepared.design_params)
        draw = np.concatenate([y.ravel(), t.ravel(), x.ravel()])
        finite_fit = re.search("partialled slope is|QR factor overflows", str(raised.value))
        if finite_fit:
            # a fit that overflows on finite draws: the replayed draws are
            # finite, and their fit alone raises the message the run gave
            assert case == {"partialled slope is": "scaling_theta0_some_rows",
                            "QR factor overflows": "leverage_scale_hi_small_n"}[finite_fit[0]]
            assert np.isfinite(draw).all()
            with pytest.raises(ValueError) as alone:
                kinds.fwl_estimate(kinds.RegressionData(y=y[0], t=t[0], x=x[0]))
            assert str(raised.value).endswith(f": {alone.value}")
            return
    elif config.kind == "mle_llr_consistency":
        draw = prepared.family.sample(rngs["data"], prepared.theta0, n)
    else:
        draw = np.concatenate([prepared.dgp.sample(rng, n) for rng in rngs.values()])
        if np.isfinite(draw).all():
            # finite draws whose estimate fails: a solver bracket past the
            # float range or rounded flat, or lp(1e4)'s NaN subgradient.  The
            # first stream's replayed sample, estimated alone as the kind
            # estimates it, raises the message the run gave
            assert case in ("laplace_scale_bracket", "hulc_laplace_scale_bracket",
                            "uniform_n1_bracket") or case.startswith("lp_1e4_"), case
            estimate = functools.partial(estimate_location, prepared.estimator)
            with pytest.raises(ValueError) as alone:
                if config.kind == "hulc_coverage":
                    hulc_interval(draw[:n], prepared.alpha, estimate)
                else:
                    estimate(draw[:n])
            assert str(raised.value).endswith(f"{named}: {alone.value}")
            return
    assert not np.isfinite(draw).all()


def _only_error_record(raw, tmp_path, monkeypatch, capsys) -> str:
    """The message of ``medbias run`` on ``raw``, whose one output must be a ValueError record.

    Run under a filter that turns warnings into errors, so a numpy warning
    printed before the record fails the run.
    """
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_minimal_config(**raw, reps=600)))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    record = json.loads(err)
    assert record["error"] == "ValueError" and err.count("\n") == 1
    return record["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["lp_1e3_hulc"] + [f"lp_1e4_{kind}" for kind in
                                                    ("convex", "z_equality", "nondiff", "hulc")])
def test_overflowing_lp_terms_raise_only_the_named_error(case, tmp_path, monkeypatch, capsys):
    # lp terms past the float range overflow to +-inf and sum to NaN; the
    # run's one output is the named error, with no numpy warning before it
    raw = (dict(_OVERFLOWING["lp_1e4_hulc"], estimator={"kind": "lp", "params": {"p": 1e3}})
           if case == "lp_1e3_hulc" else _OVERFLOWING[case])
    message = _only_error_record(raw, tmp_path, monkeypatch, capsys)
    assert re.search(r"replication \d+: stream .*: (batch \d+: )?subgradient is NaN at theta=",
                     message)
    assert ("batch" in message) == case.endswith("_hulc")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["plm_sigma_v", "scaling_theta0", "scaling_theta0_some_rows",
                                  "leverage_scale_hi", "llr_normal_sigma",
                                  "llr_normal_sigma_some_rows"])
def test_overflowing_draws_raise_only_the_named_error(case, tmp_path, monkeypatch, capsys):
    # draws, or a fit on them, past the float range: the run's one output
    # is the error naming the replication, with no numpy warning before it
    message = _only_error_record(_OVERFLOWING[case], tmp_path, monkeypatch, capsys)
    assert re.match(r"grid point .*, replication \d+: stream ", message), message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, grids", [("hulc_coverage", {"n": [12]}),
                                         ("nonconvex_dominance", {"n": [12], "delta": [0.5]})])
def test_biweight_on_huge_draws_runs_with_a_clean_stderr(kind, grids, tmp_path, monkeypatch,
                                                         capsys):
    # draws past about 1e154 square past the float range in the biweight's
    # (u / c)**2, where the loss is flat and its derivatives 0: the run
    # succeeds and numpy has nothing to warn about
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_minimal_config(
        kind=kind, dgp={"name": "laplace", "params": {"scale": 1e200}},
        estimator={"kind": "biweight", "params": {"c": 2.0}}, grids=grids, reps=100)))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(path)]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Estimator plumbing: closed forms against the solver.


@pytest.mark.parametrize("seed", range(6))
def test_closed_forms_match_solver(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(int(rng.integers(4, 14)))
    cases = [
        {"kind": "abs_dev"},
        {"kind": "quantile", "params": {"tau": 0.25}},
        {"kind": "quantile", "params": {"tau": 0.5}},
        {"kind": "lp", "params": {"p": 2.0}},
        {"kind": "lp", "params": {"p": 1.0}},
        {"kind": "neg_loglik", "params": {"family_name": "normal_location",
                                          "family_params": {"sigma": 1.0}}},
        {"kind": "neg_loglik"},
    ]
    for raw in cases:
        est = resolve_estimator(raw)
        assert est.closed_form is not None, raw
        fast = estimate_location(est, data)
        oracle = minimize_convex(est.objective(data), default_bracket(data))
        assert fast == pytest.approx(oracle, abs=1e-6), raw
    # a neg_loglik without a family name is the normal-location MLE
    assert isinstance(resolve_estimator({"kind": "neg_loglik"}).probe.family, NormalLocation)


def test_check_loss_argmin_flat_segment_midpoint():
    data = np.array([0.0, 1.0, 2.0, 3.0])
    # n tau = 2 integer: the argmin is the whole segment [x_(2), x_(3)]
    assert _check_loss_argmin(data, 0.5) == 1.5
    theta = minimize_convex(CheckLoss(data, tau=0.5), Bracket(-5, 5))
    assert theta == pytest.approx(1.5, abs=1e-7)


def test_schedules():
    assert [schedule_dimension("quarter_pow", n) for n in (100, 400, 1600)] == [4, 5, 7]
    assert [schedule_dimension("half_sqrt", n) for n in (100, 400, 1600)] == [5, 10, 20]
    rate, target = rate_for("constant", 1000)
    assert target == 1.0
    assert math.sqrt(1000 // 2) * rate**2 == pytest.approx(1.0, rel=1e-12)
    rate, target = rate_for("vanishing", 1000)
    assert target == pytest.approx(1000 ** -0.25, rel=1e-12)
    assert math.sqrt(1000 // 2) * rate**2 == pytest.approx(target, rel=1e-12)


# ---------------------------------------------------------------------------
# Engine: reproducibility and row schema.


def test_run_experiment_reproducible_across_workers():
    config = ExperimentConfig.from_dict(_minimal_config(reps=3 * CHUNK_SIZE // 2))
    serial = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=4)
    assert serial.rows == parallel.rows
    again = run_experiment(config, workers=1)
    assert serial.rows == again.rows


#: One small config per kind, run by the chunk-size test: solver, closed-form,
#: scan and one-pass paths, a biweight HulC point, and a dimension_scaling
#: point with both certified and fallback fits (2 of 100 rows fall back).
_CHUNKING = {
    "convex_dominance": {"dgp": {"name": "laplace"},
                         "estimator": {"kind": "lp", "params": {"p": 1.5}}, "grids": {"n": [7]}},
    "z_estimator_equality": {"kind": "z_estimator_equality"},
    "nondiff_profile": {"kind": "nondiff_profile", "estimator": {"kind": "lp", "params": {"p": 3}},
                        "grids": {"n": [5], "eps": [1.0, 0.5]}},
    "mle_llr_consistency": {"kind": "mle_llr_consistency",
                            "estimator": {"kind": "neg_loglik",
                                          "params": {"family_name": "normal_location"}},
                            "grids": {"n": [10], "eps": [0.5]}},
    "nonconvex_dominance": {"kind": "nonconvex_dominance",
                            "estimator": {"kind": "biweight", "params": {"c": 2.0}},
                            "grids": {"n": [20], "delta": [0.5, 1.0]},
                            "params": {"scan_points": 301}},
    "partialled_dominance": {"kind": "partialled_dominance", "dgp": {"name": "gaussian"},
                             "estimator": {}, "grids": {"n": [50], "d": [2]}},
    "dimension_scaling": {"kind": "dimension_scaling", "estimator": {},
                          "dgp": {"name": "leverage_mix",
                                  "params": {"scale_hi": 3e3, "scale_lo": 1e-3}},
                          "grids": {"n": [100], "d_schedules": ["quarter_pow"],
                                    "seed_labels": [0]}},
    "plm_rate_dichotomy": {"kind": "plm_rate_dichotomy", "estimator": {},
                           "dgp": {"name": "smooth_default", "params": {"d": 3}},
                           "grids": {"n": [100], "rate_schedules": ["constant"]}},
    "hulc_coverage": {"kind": "hulc_coverage", "grids": {"n": [60]}},
    "hulc_coverage_biweight": {"kind": "hulc_coverage", "dgp": {"name": "logistic"},
                               "estimator": {"kind": "biweight", "params": {"c": 4.685}},
                               "grids": {"n": [30]}},
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_chunk_size_changes_no_value_and_no_failure(monkeypatch, tmp_path):
    # seeds are per replication, so the chunk size changes no CSV byte and
    # no JSON profile, and a failing replication is named the same way at
    # any chunk size and worker count (the engine replays a failing chunk
    # one replication at a time)
    assert {raw.get("kind", "convex_dominance") for raw in _CHUNKING.values()} == set(KINDS)
    profiles = {}
    for name, raw in _CHUNKING.items():
        config = ExperimentConfig.from_dict(_minimal_config(**raw, reps=100))
        outputs = []
        for size in (1, 37, 512, config.reps + 1):
            monkeypatch.setattr(engine, "CHUNK_SIZE", size)
            result = run_experiment(config)
            write_csv(tmp_path / "rows.csv", result.rows)
            outputs.append(((tmp_path / "rows.csv").read_bytes(), result.profiles))
        assert all(output == outputs[0] for output in outputs), name
        profiles[name] = outputs[0][1]
    fits, = (profile["fits"] for profile in profiles["dimension_scaling"].values())
    assert fits == {"certified": 98, "fallback": 2}

    # lp(700)'s terms overflow at replication 67 (inside the second chunk
    # of 37), whose score is then -inf; replications 0 to 66 run
    config = ExperimentConfig.from_dict(_minimal_config(
        estimator={"kind": "lp", "params": {"p": 700.0}}, reps=200, master_seed=3))
    seed = derive_seed(3, 67, "convex_dominance|n=5|data")
    expected = (f"grid point convex_dominance|n=5, replication 67: stream 'data' (seed {seed}): "
                "score is not finite: -inf")
    for size in (1, 37, 512, config.reps + 1):
        monkeypatch.setattr(engine, "CHUNK_SIZE", size)
        for workers in (1, 2):
            with pytest.raises(ValueError) as raised:
                run_experiment(config, workers=workers)
            assert str(raised.value) == expected, (size, workers)


def test_prepare_runs_once_per_run(monkeypatch):
    config = ExperimentConfig.from_dict(_minimal_config(reps=3 * CHUNK_SIZE // 2,
                                                        grids={"n": [5, 7]}))
    impl = KINDS[config.kind]
    prepared, seen = [], []

    def prepare(cfg):
        prepared.append(impl.prepare(cfg))
        return prepared[-1]

    def run_chunk(cfg, prep, point, start, stop):
        seen.append(prep)
        return impl.run_chunk(cfg, prep, point, start, stop)

    monkeypatch.setitem(KINDS, config.kind,
                        dataclasses.replace(impl, prepare=prepare, run_chunk=run_chunk))
    rows = run_experiment(config).rows
    # two grid points of two chunks each, all reading the one resolution
    assert len(prepared) == 1 and len(seen) == 4
    assert all(prep is prepared[0] for prep in seen)
    assert run_experiment(config, workers=2).rows == rows
    assert len(prepared) == 2


def test_run_experiment_minimal_reps():
    # the smallest legal configuration: one row per grid point, deterministic
    config = ExperimentConfig.from_dict(_minimal_config(reps=100, grids={"n": [5, 7]}))
    first = run_experiment(config)
    second = run_experiment(config)
    assert len(first.rows) == 2
    assert first.rows == second.rows


def test_run_experiment_row_schema():
    config = ExperimentConfig.from_dict(_minimal_config(grids={"n": [3, 5]}))
    result = run_experiment(config)
    assert len(result.rows) == 2
    for row in result.rows:
        assert set(CSV_COLUMNS) <= set(row)
        assert row["rhs_kind"] == "convex_thm1"
        assert 0.0 <= row["lhs_point"] <= 0.5
        assert 0.0 <= row["rhs"] <= 0.5


def test_every_kind_runs_and_reports(tmp_path):
    configs = {
        "convex_dominance": _minimal_config(),
        "z_estimator_equality": _minimal_config(kind="z_estimator_equality"),
        "nondiff_profile": _minimal_config(
            kind="nondiff_profile", grids={"n": [5], "eps": [1.0, 0.5]}
        ),
        "mle_llr_consistency": _minimal_config(
            kind="mle_llr_consistency",
            estimator={"kind": "neg_loglik",
                       "params": {"family_name": "normal_location"}},
            grids={"n": [10], "eps": [0.5]},
        ),
        "nonconvex_dominance": _minimal_config(
            kind="nonconvex_dominance",
            estimator={"kind": "biweight", "params": {"c": 2.0}},
            grids={"n": [20], "delta": [0.5, 1.0]},
            params={"scan_points": 301},
        ),
        "partialled_dominance": _minimal_config(
            kind="partialled_dominance",
            dgp={"name": "gaussian"},
            estimator={},
            grids={"n": [50], "d": [2]},
        ),
        "dimension_scaling": _minimal_config(
            kind="dimension_scaling",
            dgp={"name": "leverage_mix"},
            estimator={},
            grids={"n": [100], "d_schedules": ["quarter_pow"], "seed_labels": [0, 1]},
        ),
        "plm_rate_dichotomy": _minimal_config(
            kind="plm_rate_dichotomy",
            dgp={"name": "smooth_default", "params": {"d": 3}},
            estimator={},
            grids={"n": [100], "rate_schedules": ["constant"]},
        ),
        "hulc_coverage": _minimal_config(
            kind="hulc_coverage", grids={"n": [60]}, params={"alpha": 0.05}
        ),
    }
    assert set(configs) == set(KINDS)
    for kind, raw in configs.items():
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert result.rows, kind
        csv_path = tmp_path / f"{kind}.csv"
        json_path = tmp_path / f"{kind}.json"
        write_csv(csv_path, result.rows)
        write_json(json_path, result)
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        archived = json.loads(json_path.read_text())
        assert archived["config"]["kind"] == kind
        assert len(archived["rows"]) == len(result.rows)


def test_list_experiment_kinds_matches_registry():
    names = [name for name, _ in list_experiment_kinds()]
    assert names == list(KINDS)


def test_csv_bytes_stable(tmp_path):
    config = ExperimentConfig.from_dict(_minimal_config())
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(first, run_experiment(config, workers=1).rows)
    write_csv(second, run_experiment(config, workers=3).rows)
    assert first.read_bytes() == second.read_bytes()


def test_plm_csv_bytes_pinned(tmp_path):
    # a small split-fit run, and one at the lab's sizes; the first digest was
    # recorded when the nuisance pair was still built on every replication,
    # the second when every replication built and re-validated its own
    # dataset, fold-2 subset and fit record, so the lean body must give the
    # same bytes, at workers 1 and 2
    configs = [
        (_minimal_config(kind="plm_rate_dichotomy", dgp={"name": "smooth_default"},
                         estimator={},
                         grids={"n": [20, 60], "rate_schedules": ["vanishing", "constant"]},
                         params={"overlap": 0.3, "corrupt_seed": 5}),
         "e724337e6e3aa8bdd5933292ea33fa51f01e09b25536c66a7831b213112452b4"),
        (_minimal_config(kind="plm_rate_dichotomy",
                         dgp={"name": "smooth_default", "params": {"d": 3}}, estimator={},
                         grids={"n": [250, 4000], "rate_schedules": ["vanishing", "constant"]},
                         reps=600),
         "3d8892cd15d7780bb3b0705d238fbc2ac2901f9a9a3303bc2d998859b20765da"),
    ]
    for k, (raw, digest) in enumerate(configs):
        config = ExperimentConfig.from_dict(raw)
        for workers in (1, 2):
            path = tmp_path / f"plm-{k}-{workers}.csv"
            write_csv(path, run_experiment(config, workers=workers).rows)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_partialled_csv_bytes_pinned(tmp_path):
    # small partialled (both designs, d = 0 and d > 0) and dimension-scaling
    # runs; the digests were recorded when each fit ran an SVD rank check and
    # two lstsq residualisations, so the one-QR fit must give the same bytes,
    # at workers 1 and 2
    base = _minimal_config(estimator={}, params={"theta0": 0.5}, reps=600)
    configs = [
        ({**base, "kind": "partialled_dominance", "dgp": {"name": "gaussian"},
          "grids": {"n": [40, 120], "d": [0, 3]}},
         "580361591859c3898b9617b3d45d448d6852d3c64f960b96a0caf7e68dbf9005"),
        ({**base, "kind": "partialled_dominance", "dgp": {"name": "leverage_mix"},
          "grids": {"n": [40, 120], "d": [0, 3]}},
         "51e10dea8cb7d3cd8d23724f086d2b16a679e903b5289f6dbbb1a8c038f375df"),
        ({**base, "kind": "dimension_scaling", "dgp": {"name": "leverage_mix"},
          "grids": {"n": [64, 256], "d_schedules": ["quarter_pow", "half_sqrt"],
                    "seed_labels": [0, 1]}},
         "0fb81a787bbab1b79da8b677632fb3850dd1f28dd2b62d590320f4a0bdc50867"),
    ]
    for k, (raw, digest) in enumerate(configs):
        config = ExperimentConfig.from_dict(raw)
        for workers in (1, 2):
            path = tmp_path / f"partialled-{k}-{workers}.csv"
            write_csv(path, run_experiment(config, workers=workers).rows)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_dimension_scaling_d20_csv_bytes_pinned(tmp_path):
    # two leverage_mix points at n = 1600 (half_sqrt, so d = 20), past the
    # d <= 8 of the pins above; the digest was recorded when every
    # replication's side of theta0 came from the full QR fit, at workers 1 and 2
    config = ExperimentConfig.from_dict(_minimal_config(
        kind="dimension_scaling", dgp={"name": "leverage_mix"}, estimator={},
        grids={"n": [1600], "d_schedules": ["half_sqrt"], "seed_labels": [0, 1]},
        params={"theta0": 0.5}, reps=200))
    for workers in (1, 2):
        path = tmp_path / f"scaling-{workers}.csv"
        write_csv(path, run_experiment(config, workers=workers).rows)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "087c84e3ce8ff0183af70161724a350a7972490eef6732e1b0538e065a6d5cd7")


def test_dimension_scaling_reports_certified_and_fallback_fits(tmp_path):
    # each grid point's JSON profile counts the replications whose side of
    # theta0 was certified and those the full fit decided; the counts do not
    # depend on the worker count, stay out of the CSV, and on the lab's design
    # leave a negligible share to the fit
    config = ExperimentConfig.from_dict(_minimal_config(
        kind="dimension_scaling", dgp={"name": "leverage_mix"}, estimator={},
        grids={"n": [100, 400], "d_schedules": ["quarter_pow", "half_sqrt"],
               "seed_labels": [0]},
        params={"theta0": 0.5}, reps=1100))
    serial, parallel = (run_experiment(config, workers=w) for w in (1, 2))
    assert serial.profiles == parallel.profiles and len(serial.profiles) == 4
    for fits in (profile["fits"] for profile in serial.profiles.values()):
        assert fits["certified"] + fits["fallback"] == config.reps
        assert fits["fallback"] <= 0.001 * config.reps, fits
    write_csv(tmp_path / "scaling.csv", serial.rows)
    write_json(tmp_path / "scaling.json", serial)
    assert "certified" not in (tmp_path / "scaling.csv").read_text()
    archived = json.loads((tmp_path / "scaling.json").read_text())
    assert archived["profiles"] == serial.profiles


def test_dimension_scaling_sides_do_not_depend_on_the_block(monkeypatch):
    # 1-row blocks, the smallest blocks of the lab's rule and one block for
    # the whole chunk give each replication the side of theta0 the full fit
    # of the whole chunk gives it
    from medbias.simlab.config import validate_config

    config = ExperimentConfig.from_dict(_minimal_config(
        kind="dimension_scaling", dgp={"name": "leverage_mix"}, estimator={},
        grids={"n": [100], "d_schedules": ["half_sqrt"], "seed_labels": [3]},
        params={"theta0": 0.5}, reps=300))
    prepared, (point,) = validate_config(config)
    n, d = point["n"], point["d"]
    y, t, x = np.empty((300, n)), np.empty((300, n)), np.empty((300, n, d))
    label = f"{kinds.grid_label(config.kind, point)}|data"
    sample_design(prepared.design, (replication_rng(config.master_seed, i, label)
                                    for i in range(300)), y, t, x, 0.5)
    fit = kinds.fwl_estimate(kinds.RegressionData(y=y, t=t, x=x))
    expected = np.sign(fit.theta_hat - 0.5)
    assert 0 < np.count_nonzero(expected > 0) < 300
    for block_bytes, min_rows in ((1, 1), (1, kinds._FIT_BLOCK_MIN_ROWS),
                                  (kinds._FIT_BLOCK_BYTES, kinds._FIT_BLOCK_MIN_ROWS),
                                  (1 << 40, kinds._FIT_BLOCK_MIN_ROWS)):
        monkeypatch.setattr(kinds, "_FIT_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(kinds, "_FIT_BLOCK_MIN_ROWS", min_rows)
        arrays = KINDS[config.kind].run_chunk(config, prepared, point, 0, 300)
        assert np.array_equal(arrays["side"], expected) and arrays["certified"].all()


def _inject_design_faults(monkeypatch, config, faults) -> list:
    """Apply each ``fault(y, t, x, row)`` of ``faults``, a list of ``(fault, index)``,
    to the design of replication ``index`` wherever a chunk draws it.

    Faults are keyed by replication, not by block row, because the engine
    redraws a failing chunk's replications one at a time.  Returns the list
    of ``(first replication, rows)`` of every block drawn, in order.
    """
    impl, real, drawn, following = KINDS[config.kind], kinds.sample_design, [], [0]

    def run_chunk(cfg, prep, point, start, stop):
        following[0] = start
        return impl.run_chunk(cfg, prep, point, start, stop)

    def sample(name, rngs, y, t, x, theta0, **params):
        real(name, rngs, y, t, x, theta0, **params)
        first = following[0]
        following[0] += len(y)
        drawn.append((first, len(y)))
        for fault, index in faults:
            if first <= index < first + len(y):
                fault(y, t, x, index - first)

    monkeypatch.setitem(KINDS, config.kind, dataclasses.replace(impl, run_chunk=run_chunk))
    monkeypatch.setattr(kinds, "sample_design", sample)
    return drawn


def _design_alone(config, prepared, point, index, fault=None):
    """Replication ``index``'s design drawn alone, with ``fault`` applied, as one sample."""
    n, d = point["n"], point["d"]
    y, t, x = np.empty((1, n)), np.empty((1, n)), np.empty((1, n, d))
    label = f"{kinds.grid_label(config.kind, point)}|data"
    sample_design(prepared.design, [replication_rng(config.master_seed, index, label)], y, t, x,
                  prepared.theta0, **prepared.design_params)
    if fault is not None:
        fault(y, t, x, 0)
    return kinds.RegressionData(y=y[0], t=t[0], x=x[0])


def test_dimension_scaling_collinear_draw_names_its_replication(monkeypatch):
    # a rank-deficient design at replication 37 (row 37 of its 46-row block)
    # raises the full fit's CollinearityError, naming the replication and its
    # seed, with the message of that design fitted alone
    from medbias.partialling import CollinearityError
    from medbias.simlab.config import validate_config

    config = ExperimentConfig.from_dict(_minimal_config(
        kind="dimension_scaling", dgp={"name": "leverage_mix"}, estimator={},
        grids={"n": [100], "d_schedules": ["half_sqrt"], "seed_labels": [0]},
        params={"theta0": 0.5}, reps=200))
    prepared, (point,) = validate_config(config)
    drawn = _inject_design_faults(monkeypatch, config, [(_collinear, 37)])
    with pytest.raises(CollinearityError) as raised:
        engine.run_chunk(config, prepared, point, 0, 200)
    # the first block fails, and replications 0..37 are then drawn alone
    assert drawn == [(0, 46)] + [(i, 1) for i in range(38)]
    with pytest.raises(CollinearityError) as alone:
        kinds.fwl_estimate(_design_alone(config, prepared, point, 37, _collinear))
    label = kinds.grid_label(config.kind, point)
    seed = derive_seed(config.master_seed, 37, f"{label}|data")
    assert str(raised.value) == (f"grid point {label}, replication 37: stream 'data' "
                                 f"(seed {seed}): {alone.value}")


def _huge(y, t, x, row):
    # finite entries whose residual inner products overflow into a NaN slope
    for a in (y, t, x):
        a[row] *= 1e160


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_partialled_overflowing_fit_names_its_replication(monkeypatch):
    # a finite design at replication 12 (row 12 of its block) whose residual
    # inner products overflow into a NaN slope: the fit's error names the
    # replication and its seed
    from medbias.simlab.config import validate_config

    config = ExperimentConfig.from_dict(_minimal_config(
        kind="partialled_dominance", dgp={"name": "gaussian"}, estimator={},
        grids={"n": [40], "d": [3]}, reps=200))
    prepared, (point,) = validate_config(config)
    _inject_design_faults(monkeypatch, config, [(_huge, 12)])
    label = kinds.grid_label(config.kind, point)
    seed = derive_seed(config.master_seed, 12, f"{label}|data")
    with pytest.raises(ValueError, match=re.escape(
            f"grid point {label}, replication 12: stream 'data' (seed {seed}): the residuals' "
            "inner products overflow")):
        engine.run_chunk(config, prepared, point, 0, 200)


def _overflow_slope(y, t, x, row):
    # finite entries up to 1e308, whose inner product with t overflows
    y[row] = 1e308 / np.abs(t[row]).max() * t[row]


def _non_finite_y(y, t, x, row):
    y[row, 3] = np.inf


def _non_finite_x(y, t, x, row):
    x[row, 0, 0] = np.inf


def _collinear(y, t, x, row):
    x[row, :, 0] = t[row]


#: Each fault injected into a block, with the message of its design fitted alone.
_BLOCK_FAULTS = {
    _overflow_slope: r"the residuals' inner products overflow, so the partialled slope is .+",
    _non_finite_y: "y must be finite",
    _non_finite_x: "x must be finite",
    _collinear: r"stacked design \[t \| x\] is numerically rank deficient .+",
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", ["partialled_dominance", "dimension_scaling"])
def test_partialled_chunk_names_a_blocks_first_failure(monkeypatch, kind):
    # two failing replications in one block: a fit that overflows (an
    # infinite slope from finite draws), non-finite draws, or a rank-deficient
    # design.  Whichever comes first is named, with the message of its design
    # fitted alone, even where the block's own checks would reach the later
    # one first (non-finite y before non-finite x, rank before overflow)
    from medbias.simlab.config import validate_config

    raw = {"kind": kind, "dgp": {"name": "gaussian"}, "estimator": {}, "reps": 200,
           "grids": ({"n": [40], "d": [3]} if kind == "partialled_dominance" else
                     {"n": [40], "d_schedules": ["half_sqrt"], "seed_labels": [0]})}
    config = ExperimentConfig.from_dict(_minimal_config(**raw))
    prepared, (point,) = validate_config(config)
    label = kinds.grid_label(config.kind, point)
    cases = [((_overflow_slope, 12), (_non_finite_y, 30)),
             ((_overflow_slope, 30), (_non_finite_y, 12)),
             ((_overflow_slope, 0), (_non_finite_y, 1)),
             ((_overflow_slope, 1), (_non_finite_y, 0)),
             ((_non_finite_y, 30), (_non_finite_x, 12)),
             ((_collinear, 5), (_overflow_slope, 2))]
    for faults in cases:
        first_fault, first = min(faults, key=lambda fault: fault[1])
        with monkeypatch.context() as patch:
            _inject_design_faults(patch, config, list(faults))
            with pytest.raises(ValueError) as raised:
                engine.run_chunk(config, prepared, point, 0, 200)
        with pytest.raises(ValueError) as fit:
            kinds.fwl_estimate(_design_alone(config, prepared, point, first, first_fault))
        assert re.fullmatch(_BLOCK_FAULTS[first_fault], str(fit.value)), str(fit.value)
        seed = derive_seed(config.master_seed, first, f"{label}|data")
        assert str(raised.value) == (f"grid point {label}, replication {first}: stream 'data' "
                                     f"(seed {seed}): {fit.value}")


def test_partialled_chunk_peak_memory():
    # tracemalloc peak of one 512-replication dimension_scaling chunk (half_sqrt,
    # so d = 5, 10 and 20) at most 1 MiB above the peak of the per-replication
    # fits that block fits replaced: 0.19, 0.26 and 0.96 MiB at n = 100, 400
    # and 1600 (numpy 2.4.6).  A stack of the whole chunk would hold 131 MB
    # of x at n = 1600
    from medbias.simlab.config import validate_config

    for n, before_mib in ((100, 0.19), (400, 0.26), (1600, 0.96)):
        config = ExperimentConfig.from_dict(_minimal_config(
            kind="dimension_scaling", dgp={"name": "leverage_mix"}, estimator={},
            grids={"n": [n], "d_schedules": ["half_sqrt"], "seed_labels": [0]},
            params={"theta0": 0.5}, reps=512))
        prepared, (point,) = validate_config(config)
        run_chunk = KINDS[config.kind].run_chunk
        run_chunk(config, prepared, point, 0, 2)  # first use: seeding self-check
        tracemalloc.start()
        try:
            run_chunk(config, prepared, point, 0, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (before_mib + 1.0) * 2**20, (n, peak / 2**20)


def test_biweight_csv_bytes_pinned(tmp_path):
    # a small nonconvex run (one shared 1201-point grid) and a biweight HulC
    # run (per-row 2001-point grids); the digests were recorded when the scan
    # evaluated every grid point of every row, so a scan that skips blocks
    # must give the same bytes, at workers 1 and 2
    biweight = {"kind": "biweight", "params": {"c": 2.0}}
    configs = [
        (_minimal_config(kind="nonconvex_dominance", dgp={"name": "laplace"},
                         estimator=biweight, grids={"n": [10, 40], "delta": [0.25, 1.0]},
                         reps=600),
         "755d5862bafb5eed9ca0da8eafe722da82fbb039c2a4d6d32afff1fdd1045401"),
        (_minimal_config(kind="hulc_coverage", dgp={"name": "logistic"},
                         estimator=biweight, grids={"n": [24, 60]}, reps=520),
         "c216eab91a966e0c4b48cbeb2a3cdd5ee45d32ef00f5c75e14af7a1b761d673d"),
    ]
    for k, (raw, digest) in enumerate(configs):
        config = ExperimentConfig.from_dict(raw)
        for workers in (1, 2):
            path = tmp_path / f"biweight-{k}-{workers}.csv"
            write_csv(path, run_experiment(config, workers=workers).rows)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_median_config_csv_bytes_pinned(tmp_path):
    # the shipped median config, run as the CLI runs it, at workers 1 and 2
    path = Path(__file__).resolve().parents[1] / "configs" / "median_unbiasedness.json"
    config = ExperimentConfig.from_json(path)
    for workers in (1, 2):
        out = tmp_path / f"median-{workers}.csv"
        write_csv(out, run_experiment(config, workers=workers).rows)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "dd01c89f51b4c53555cfe8e1689990527c445c3732df343449c33038acd2d6c2")


def test_rate_dichotomy_config_csv_bytes_pinned(tmp_path):
    # the shipped rate-dichotomy config, run as the CLI runs it, at workers 2
    # only: it takes about 15 s at workers 1 on a 2-core host
    path = Path(__file__).resolve().parents[1] / "configs" / "rate_dichotomy.json"
    out = tmp_path / "rate-2.csv"
    write_csv(out, run_experiment(ExperimentConfig.from_json(path), workers=2).rows)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "69d96e2e57471aff6a4ea87fefaf01873597f649581b208b34d9bc5a5dd98178")


def test_llr_csv_bytes_pinned(tmp_path):
    # log-likelihood-ratio runs under both families (the normal one by the
    # neg_loglik default, over three chunks) and a quantile Z-estimator run;
    # the digests were recorded when every chunk recomputed the expected
    # ratio and the Z summary counted its own weak signs, at workers 1 and 2
    def llr(**overrides):  # the kind reads no DGP, and the CSV names none
        raw = _minimal_config(kind="mle_llr_consistency", **overrides)
        del raw["dgp"]
        return raw

    configs = [
        (llr(experiment="llr-normal", estimator={"kind": "neg_loglik"},
             grids={"n": [8, 30], "eps": [0.5, 0.1, -0.3]}, reps=1100, master_seed=3),
         "aea939473a244de8048564ad4145148fb69171d769067b444b825b1a4f41047b"),
        (llr(experiment="llr-logistic",
             estimator={"kind": "neg_loglik",
                        "params": {"family_name": "logistic_location",
                                   "family_params": {"scale": 2.0}}},
             grids={"n": [12], "eps": [0.7, 0.05]}, params={"theta0": 0.3}, reps=700,
             master_seed=5),
         "9abc74c13841823889c7aec124e7bcc357ad0d25591e53a8f0c444e634ccf626"),
        (_minimal_config(experiment="z-q", kind="z_estimator_equality",
                         dgp={"name": "uniform"},
                         estimator={"kind": "quantile", "params": {"tau": 0.3}},
                         grids={"n": [9]}, reps=900, master_seed=0),
         "a7a49ef622e4603ced59120b426635a2231cc907ec5f81fbe8e8b5879acf61a5"),
    ]
    for k, (raw, digest) in enumerate(configs):
        config = ExperimentConfig.from_dict(raw)
        for workers in (1, 2):
            path = tmp_path / f"llr-{k}-{workers}.csv"
            write_csv(path, run_experiment(config, workers=workers).rows)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_plm_moments_once_per_grid_point(monkeypatch):
    # the conditional bias and its bound depend only on the fold size and the
    # nuisance pair, so they are computed once per grid point, in the parent,
    # and never by a replication
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return conditional_bias(*args, **kwargs)

    conditional_bias = kinds.plm_conditional_bias
    monkeypatch.setattr(kinds, "plm_conditional_bias", counted)
    raw = _minimal_config(
        kind="plm_rate_dichotomy",
        dgp={"name": "smooth_default", "params": {"d": 3}},
        estimator={},
        grids={"n": [60], "rate_schedules": ["constant", "vanishing"]},
    )
    config = ExperimentConfig.from_dict(raw)  # validation resolves the config once too
    calls.clear()
    result = run_experiment(config)
    assert len(result.rows) == 2
    assert len(calls) == 2


def test_expected_llr_once_per_signed_shift(monkeypatch):
    # the expected log-likelihood ratio (a quadrature for the logistic
    # family) is computed once per signed shift when the run is prepared;
    # no chunk and no summary recomputes it
    from medbias import LogisticLocation

    calls = []

    def counted(self, theta0, shift):
        calls.append(shift)
        return expected(self, theta0, shift)

    expected = LogisticLocation.expected_log_likelihood_ratio
    monkeypatch.setattr(LogisticLocation, "expected_log_likelihood_ratio", counted)
    raw = _minimal_config(
        kind="mle_llr_consistency",
        estimator={"kind": "neg_loglik", "params": {"family_name": "logistic_location"}},
        grids={"n": [6, 9], "eps": [0.4, -0.1, 0.05]},
        reps=2 * CHUNK_SIZE + 1,
    )
    config = ExperimentConfig.from_dict(raw)  # validation resolves the config once too
    calls.clear()
    result = run_experiment(config, workers=1)
    assert len(result.rows) == 6
    assert sorted(calls) == sorted([0.4, -0.4, -0.1, 0.1, 0.05, -0.05])


def test_mle_llr_kind_matches_bounds_op():
    # the experiment's chunked frequencies equal the one-shot bound call
    raw = _minimal_config(
        kind="mle_llr_consistency",
        estimator={"kind": "neg_loglik", "params": {"family_name": "normal_location"}},
        grids={"n": [8], "eps": [0.5]},
        reps=600,
    )
    config = ExperimentConfig.from_dict(raw)
    result = run_experiment(config)
    row = result.rows[0]
    family = NormalLocation(1.0)
    from medbias.simlab.kinds import grid_label
    from medbias.simlab.seeds import replication_rng as rrng
    label = grid_label(config.kind, {"n": 8})
    draws = np.stack([
        family.sample(rrng(config.master_seed, i, label + "|data"), 0.0, 8)
        for i in range(config.reps)
    ])
    freqs = mle_llr_frequencies(family, draws, 0.0, 0.5)
    assert row["detail"]["lower_plus"] == freqs["lower_plus"]
    assert row["detail"]["lower_minus"] == freqs["lower_minus"]


def test_nonconvex_kind_matches_minimize_scan():
    # the kind's estimates are the one scan on the same derived draws
    raw = _minimal_config(
        kind="nonconvex_dominance",
        estimator={"kind": "biweight", "params": {"c": 2.0}},
        grids={"n": [20], "delta": [0.5]},
        params={"scan_points": 301},
    )
    config = ExperimentConfig.from_dict(raw)
    from medbias.simlab.config import validate_config
    from medbias.simlab.kinds import grid_label
    from medbias.simlab.seeds import replication_rng as rrng
    label = grid_label(config.kind, {"n": 20})
    draws = np.stack([rrng(config.master_seed, i, label + "|data").standard_normal(20)
                      for i in range(config.reps)])
    theta_hat = minimize_scan(BiweightLocation(draws, 2.0), Bracket(-3.0, 3.0), 301)
    prepared, points = validate_config(config)
    arrays = KINDS[config.kind].run_chunk(config, prepared, points[0], 0, config.reps)
    assert np.array_equal(arrays["theta_hat"], theta_hat)
    row = run_experiment(config).rows[0]
    assert row["lhs_point"] == mc_med_bias(EstimatorDraws(theta_hat, 0.0)).point
    assert row["detail"]["eta2"] == np.count_nonzero(np.abs(theta_hat) > 0.5) / config.reps


def test_nonconvex_window_check_in_slabs_matches_the_point_loop():
    # the windows' points are evaluated together, a slab of rows at a time;
    # each row's minimum curvature is the one a loop over the points finds
    from medbias.objectives import biweight_ddrho
    from medbias.simlab.config import validate_config
    from medbias.solver import slab_rows

    config = ExperimentConfig.from_dict(_minimal_config(
        kind="nonconvex_dominance", estimator={"kind": "biweight", "params": {"c": 2.0}},
        grids={"n": [50], "delta": [0.25, 0.5, 1.0, 2.0]}, reps=303))
    prepared, (point,) = validate_config(config)
    size = slab_rows(3 * prepared.windows.size, 50)  # the kind's three live arrays
    assert config.reps > size and config.reps % size  # several slabs, the last partial
    arrays = KINDS[config.kind].run_chunk(config, prepared, point, 0, config.reps)
    data, = kinds._sample(config, prepared, point, 0, config.reps)
    for k, window in enumerate(prepared.windows):
        curv_min = np.full(config.reps, np.inf)
        for w in window:
            curv_min = np.minimum(curv_min, biweight_ddrho(data - w, 2.0).sum(axis=1))
        assert np.array_equal(arrays[f"convex_{k}"], (curv_min >= 0.0).astype(float))
    # both outcomes occur, so the comparison has teeth
    assert 0.0 < arrays["convex_0"].mean() and arrays["convex_3"].mean() < 1.0


# ---------------------------------------------------------------------------
# CLI.


def test_cli_validates_shipped_configs(capsys):
    shipped = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert shipped
    for path in shipped:
        assert cli_main(["validate", str(path)]) == 0, path
        assert capsys.readouterr().out.startswith("ok: ")


def test_benchmark_workload_configs_validate(monkeypatch):
    # validation resolves every config without running a replication
    def no_replication(*args):
        raise AssertionError("validation drew a replication")

    monkeypatch.setattr(kinds, "chunk_generators", no_replication)
    monkeypatch.setattr(kinds, "draw_chunk", no_replication)
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "perfbench" / "workloads.json").read_text())
    entries = [entry for workload in spec["workloads"].values() for entry in workload["configs"]]
    assert entries
    for entry in entries:
        if "cli" in entry:
            ExperimentConfig.from_json(root / entry["cli"])
        else:
            ExperimentConfig.from_dict(entry["config"])


def test_cli_validate_and_run(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_minimal_config()))
    assert cli_main(["validate", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out

    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(cfg_path), "--output", "report", "--workers", "2"]) == 0
    assert (tmp_path / "report.csv").is_file()
    assert (tmp_path / "report.json").is_file()

    # defaults: the experiment id as the stem, both formats
    assert cli_main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "t.csv").is_file() and (tmp_path / "t.json").is_file()
    assert cli_main(["run", str(cfg_path), "-o", "only", "--format", "csv"]) == 0
    assert (tmp_path / "only.csv").is_file() and not (tmp_path / "only.json").exists()


def test_cli_master_seed_override_changes_rows(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_minimal_config()))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(cfg_path), "-o", "a", "--master-seed", "1"]) == 0
    assert cli_main(["run", str(cfg_path), "-o", "b", "--master-seed", "2"]) == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()
    assert cli_main(["run", str(cfg_path), "-o", "c", "--master-seed", "1"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def test_cli_list(capsys):
    assert cli_main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for kind in KINDS:
        assert kind in out


def test_cli_error_record_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "x", "kind": "nope"}))
    assert cli_main(["validate", str(bad)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert "nope" in record["message"]

    assert cli_main(["validate", str(tmp_path / "missing.json")]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "FileNotFoundError"


def test_cli_rejects_zero_workers(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_minimal_config()))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(cfg_path), "-o", "zero", "--workers", "0"]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "ConfigError", "message": "workers=0 must be >= 1"}
    assert not (tmp_path / "zero.csv").exists()
