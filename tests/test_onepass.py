"""One-pass chunk draws against ``replication_rng``, bit for bit, and the first-use check."""

import re

import numpy as np
import pytest

from medbias.simlab import (
    ExperimentConfig,
    kinds,
    make_dgp,
    onepass,
    replication_rng,
    validate_config,
)
from medbias.simlab.seeds import _chunk_seeds, _pcg64_limbs


def _reference(dgp, master_seed, start, stop, label, n):
    return np.array([dgp.sample(replication_rng(master_seed, i, label), n)
                     for i in range(start, stop)]).reshape(stop - start, n)


def _assert_same_bits(dgp, master_seed, start, stop, label, n):
    ours = onepass.draw_chunk(dgp, master_seed, start, stop, label, n)
    reference = _reference(dgp, master_seed, start, stop, label, n)
    assert ours.shape == reference.shape == (stop - start, n)
    assert np.array_equal(ours.view(np.uint64), reference.view(np.uint64)), (dgp, n, label)


def _first_slow_draws(master_seed, start, stop, label, n) -> list:
    """(layer, position) of each row's first draw off the ziggurat's fast path."""
    limbs = _pcg64_limbs(_chunk_seeds(master_seed, range(start, stop), label))
    words, _, _ = onepass._words(*limbs, n)
    _, k = onepass._tables()
    slow = ~(words >> 9 & onepass._MASK52 < np.take(k, words & 0x1FF))
    rows = np.flatnonzero(slow.any(axis=1))
    first = slow[rows].argmax(axis=1)
    return list(zip((words[rows, first] & 0xFF).tolist(), first.tolist()))


# master seeds negative and beyond 64 bits, indices across 2**32, two streams
_CHUNKS = [(-7, 0, 150, "g|data"), (2**64 + 5, 2**32 - 75, 2**32 + 75, "g|lhs"),
           (11, 300, 450, "g|rhs")]


# uniform ranges from subnormal to +-1e300 wide, one per n in turn
_RANGES = [(-1.0, 1.0), (0.0, 5e-324), (1.0, 1.0 + 2.0 ** -40), (-1e300, 1e300),
           (3.0, 1e300), (-2.5e-8, 7.0)]


@pytest.mark.parametrize("n", range(1, kinds._ONE_PASS_MAX_N + 3))
def test_chunks_match_replication_rng(n):
    lo, hi = _RANGES[n % len(_RANGES)]
    for dgp in (make_dgp("standard_normal"), make_dgp("uniform", lo=lo, hi=hi)):
        for chunk in _CHUNKS:
            _assert_same_bits(dgp, *chunk, n)


@pytest.mark.parametrize("chunk", [(3, 0, 1024, "g|data", 16), onepass._CHECKS[0][2:]],
                         ids=["chunk", "first-use-check"])
def test_slow_path_rows_occur_and_match(chunk):
    # rows leave the fast path from layer 0 (the tail) and from layer 1 (no
    # fast path), at their first draw and past it, and each continues in numpy
    # from its state; the first-use check's normal chunk holds all of these
    slow = _first_slow_draws(*chunk)
    assert {0, 1} <= {layer for layer, _ in slow}
    positions = [j for _, j in slow]
    assert min(positions) == 0 and max(positions) > 0
    _assert_same_bits(make_dgp("standard_normal"), *chunk)


@pytest.fixture
def fresh_tables():
    onepass._tables.cache_clear()
    onepass._jumps.cache_clear()
    yield
    onepass._tables.cache_clear()
    onepass._jumps.cache_clear()


def _perturbed_probe(monkeypatch, change):
    probe = onepass._probe_tables

    def perturbed():
        w, k = probe()
        change(w, k)
        return w, k

    monkeypatch.setattr(onepass, "_probe_tables", perturbed)


@pytest.mark.parametrize("change", [
    lambda w, k: w.__setitem__(5, np.nextafter(w[5], 1.0)),  # one ulp in one layer
    lambda w, k: k.__setitem__(0, 2**52),  # the tail's bound overstated
], ids=["w", "k"])
def test_first_use_check_raises_on_a_perturbed_table(monkeypatch, fresh_tables, change):
    _perturbed_probe(monkeypatch, change)
    with pytest.raises(RuntimeError, match=re.escape(np.__version__)):
        onepass.draw_chunk(make_dgp("standard_normal"), 0, 0, 4, "x", 3)
    monkeypatch.undo()
    onepass._tables.cache_clear()
    _assert_same_bits(make_dgp("standard_normal"), 0, 0, 4, "x", 3)


def test_first_use_check_raises_on_a_perturbed_multiplier(monkeypatch, fresh_tables):
    monkeypatch.setattr(onepass, "_PCG64_MULT", onepass._PCG64_MULT ^ 4)
    with pytest.raises(RuntimeError, match=re.escape(np.__version__)):
        onepass.draw_chunk(make_dgp("uniform"), 0, 0, 4, "x", 3)


def test_sample_routes_only_small_normal_and_uniform_chunks(monkeypatch):
    calls = []
    draw = kinds.draw_chunk
    monkeypatch.setattr(kinds, "draw_chunk", lambda *args: calls.append(args[-1]) or draw(*args))
    cutoff = kinds._ONE_PASS_MAX_N
    for law, n, one_pass in (("standard_normal", cutoff, True), ("uniform", 1, True),
                             ("standard_normal", cutoff + 1, False), ("logistic", 5, False)):
        config = ExperimentConfig.from_dict({
            "experiment": "route", "kind": "z_estimator_equality", "dgp": {"name": law},
            "estimator": {"kind": "abs_dev"}, "grids": {"n": [n]}, "reps": 100})
        prepared, (point,) = validate_config(config)
        calls.clear()
        lhs, rhs = kinds._sample(config, prepared, point, 0, 8, streams=("lhs", "rhs"))
        assert calls == ([n, n] if one_pass else [])
        for stream, matrix in (("lhs", lhs), ("rhs", rhs)):
            label = kinds._stream_label(config, point, stream)
            reference = _reference(prepared.dgp, config.master_seed, 0, 8, label, n)
            assert np.array_equal(matrix.view(np.uint64), reference.view(np.uint64))
