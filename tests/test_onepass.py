"""One-pass chunk draws against ``replication_rng``, bit for bit, and the first-use checks."""

import re
import warnings

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


def _first_slow_draws(law, master_seed, start, stop, label, n) -> list:
    """(layer, position) of each row's first draw off the law's ziggurat fast path."""
    limbs = _pcg64_limbs(_chunk_seeds(master_seed, range(start, stop), label))
    words, _, _ = onepass._words(*limbs, n)
    _, slow = onepass._fast_path(law, words, onepass._tables(law))
    rows = np.flatnonzero(slow.any(axis=1))
    first = slow[rows].argmax(axis=1)
    layers = words[rows, first] >> onepass._ZIGGURATS[law].layer_shift & 0xFF
    return list(zip(layers.tolist(), first.tolist()))


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


# scales from subnormal products to overflow: numpy's exponential(1e308)
# turns most draws into inf without a warning
_SCALES = (1.0, 3.5, 1e-300, 1e308)


@pytest.mark.parametrize("n", range(1, kinds._ONE_PASS_MAX_N + 3))
def test_exponential_chunks_match_replication_rng(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in _SCALES:
            for chunk in _CHUNKS:
                _assert_same_bits(make_dgp("exp_centered", scale=scale), *chunk, n)


@pytest.mark.parametrize("law, chunk", [
    ("standard_normal", (3, 0, 1024, "g|data", 16)),
    ("standard_normal", onepass._CHECKS["standard_normal"][1:]),
    ("exp_centered", (3, 0, 1024, "g|data", 16)),
    ("exp_centered", onepass._CHECKS["exp_centered"][1:]),
], ids=["chunk", "first-use-check", "exp-chunk", "exp-first-use-check"])
def test_slow_path_rows_occur_and_match(law, chunk):
    # rows leave the fast path from layer 0 (the tail) and from layer 1 (no
    # fast path: for the exponential, a wedge), at their first draw and past
    # it, and each continues in numpy from its state; the first-use checks
    # hold all of these
    slow = _first_slow_draws(law, *chunk)
    assert {0, 1} <= {layer for layer, _ in slow}
    positions = [j for _, j in slow]
    assert min(positions) == 0 and max(positions) > 0
    if law == "exp_centered" and chunk[0] == 3:
        # the exponential's tail, and a wedge past layer 1, each at the first
        # draw and later
        for layers in ({0}, set(range(2, 256))):
            at = {j for layer, j in slow if layer in layers}
            assert 0 in at and max(at) > 0, layers
    _assert_same_bits(make_dgp(law, **onepass._CHECKS[law][0]), *chunk)


@pytest.fixture
def fresh_tables():
    onepass._tables.cache_clear()
    onepass._jumps.cache_clear()
    yield
    onepass._tables.cache_clear()
    onepass._jumps.cache_clear()


def _perturbed_probe(monkeypatch, change):
    probe = onepass._probe_tables

    def perturbed(zig):
        w, k = probe(zig)
        change(w, k)
        return w, k

    monkeypatch.setattr(onepass, "_probe_tables", perturbed)


@pytest.mark.parametrize("law, change", [
    ("standard_normal", lambda w, k: w.__setitem__(5, np.nextafter(w[5], 1.0))),  # one ulp
    ("standard_normal", lambda w, k: k.__setitem__(0, 2**52)),  # the tail's bound overstated
    ("exp_centered", lambda w, k: w.__setitem__(5, np.nextafter(w[5], 1.0))),
    ("exp_centered", lambda w, k: k.__setitem__(0, 2**53)),
    ("exp_centered", lambda w, k: k.__setitem__(2, 2**53)),  # a wedge's bound
], ids=["w", "k", "exp-w", "exp-k-tail", "exp-k-wedge"])
def test_first_use_check_raises_on_a_perturbed_table(monkeypatch, fresh_tables, law, change):
    _perturbed_probe(monkeypatch, change)
    with pytest.raises(RuntimeError, match=re.escape(np.__version__)):
        onepass.draw_chunk(make_dgp(law), 0, 0, 4, "x", 3)
    monkeypatch.undo()
    onepass._tables.cache_clear()
    _assert_same_bits(make_dgp(law), 0, 0, 4, "x", 3)


def test_first_use_check_raises_on_a_perturbed_multiplier(monkeypatch, fresh_tables):
    monkeypatch.setattr(onepass, "_PCG64_MULT", onepass._PCG64_MULT ^ 4)
    with pytest.raises(RuntimeError, match=re.escape(np.__version__)):
        onepass.draw_chunk(make_dgp("uniform"), 0, 0, 4, "x", 3)


def test_sample_routes_only_small_one_pass_law_chunks(monkeypatch):
    calls = []
    draw = kinds.draw_chunk
    monkeypatch.setattr(kinds, "draw_chunk", lambda *args: calls.append(args[-1]) or draw(*args))
    cutoff = kinds._ONE_PASS_MAX_N
    for law, n, one_pass in (("standard_normal", cutoff, True), ("uniform", 1, True),
                             ("exp_centered", cutoff, True), ("exp_centered", 1, True),
                             ("standard_normal", cutoff + 1, False),
                             ("exp_centered", cutoff + 1, False), ("logistic", 5, False)):
        config = ExperimentConfig.from_dict({
            "experiment": "route", "kind": "z_estimator_equality", "dgp": {"name": law},
            "estimator": {"kind": "abs_dev"}, "grids": {"n": [n]}, "reps": 100})
        prepared, (point,) = validate_config(config)
        calls.clear()
        lhs, rhs = kinds._sample(config, prepared, point, 0, 8)
        assert calls == ([n, n] if one_pass else [])
        for stream, matrix in (("lhs", lhs), ("rhs", rhs)):
            label = kinds._stream_label(config, point, stream)
            reference = _reference(prepared.dgp, config.master_seed, 0, 8, label, n)
            assert np.array_equal(matrix.view(np.uint64), reference.view(np.uint64))
