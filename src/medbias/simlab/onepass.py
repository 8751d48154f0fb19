"""One-pass chunk draws: a stream's ``(count, n)`` matrix of a whole chunk at once.

``draw_chunk`` gives row ``i`` of the chunk the ``n`` draws of
``replication_rng(master_seed, start + i, label)`` under ``standard_normal``
or ``uniform`` (``LAWS``), bit for bit, without a ``Generator`` per
replication.  Each row is still seeded from ``derive_seed``: ``seeds``
computes the chunk's seeded PCG64 states as ``uint64`` limb arrays.

PCG64 (O'Neill 2014) is a 128-bit LCG, ``s -> mult * s + inc``, whose output
is the XSL-RR of the stepped state; numpy steps before each output.  Word
``j`` (from 1) of a row is therefore the output of ``A_j s + C_j inc`` with
``A_j = mult**j`` and ``C_j = mult**(j-1) + ... + 1``, which ``_words`` forms
for every row and position in one broadcast.  From word ``r``:

- ``uniform(lo, hi)`` is ``lo + (hi - lo) * ((r >> 11) * 2**-53)``, one word
  per draw, as numpy's ``random_uniform``;
- ``standard_normal`` is numpy's ziggurat (Marsaglia and Tsang 2000): layer
  ``r & 0xff``, sign bit 8 and ``rabs`` the bits 9 to 60 give
  ``x = +-rabs * w[layer]``, accepted at once when ``rabs < k[layer]``.  A
  row whose draw at position ``j`` is not accepted there continues from its
  exact state before word ``j`` in a reused ``Generator`` through
  ``standard_normal(out=row[j:])``, so the rare slow-path draws, and every
  one after them in the row, are numpy's own.

numpy does not export its ziggurat tables, so ``_tables`` reads them from
numpy itself on first use, never at import or validation: it sets a PCG64
state whose next output is a chosen word and checks whether one draw
consumed exactly one word.  ``w`` comes from ``rabs = 1``.  ``k`` need only
be a lower bound, since a draw at or above it takes the slow path, and each
bound is proved by one accepted probe just below it.  The first use then
compares fixed chunks, slow-path rows included, with ``replication_rng`` and
raises ``RuntimeError`` if any bit differs (a numpy release that changed
PCG64, the ziggurat or ``uniform``).
"""

import functools

import numpy as np

from .dgps import make_dgp
from .seeds import (
    _PCG64_MULT,
    _check_against_reference,
    _chunk_seeds,
    _pcg64_limbs,
    _pcg64_state,
    add128,
    mul128,
    replication_rng,
)

#: The scalar laws ``draw_chunk`` draws.
LAWS = ("standard_normal", "uniform")

_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_MASK52 = (1 << 52) - 1
_INC = 1  # the increment of every table probe: any odd value serves


def _limbs(values) -> tuple:
    """Python ints below 2**128 as ``uint64`` (high, low) limb arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


@functools.cache
def _jumps(n: int) -> tuple:
    """``(A_hi, A_lo, C_hi, C_lo)`` for positions 1..n: word j comes from A_j s + C_j inc."""
    a, c, a_all, c_all = 1, 0, [], []
    for _ in range(n):
        a, c = a * _PCG64_MULT & _MASK128, (c * _PCG64_MULT + 1) & _MASK128
        a_all.append(a)
        c_all.append(c)
    return (*_limbs(a_all), *_limbs(c_all))


def _words(state_hi, state_lo, inc_hi, inc_lo, n: int) -> tuple:
    """Each row's first n outputs and the states they come from, as ``(count, n)`` arrays."""
    a_hi, a_lo, c_hi, c_lo = _jumps(n)
    column = np.s_[:, None]
    hi, lo = add128(*mul128(state_hi[column], state_lo[column], a_hi, a_lo),
                    *mul128(inc_hi[column], inc_lo[column], c_hi, c_lo))
    mixed, rot = hi ^ lo, hi >> 58
    return mixed >> rot | mixed << (-rot & 63), hi, lo


def _xsl_rr(state: int) -> int:
    mixed, rot = (state >> 64 ^ state) & _MASK64, state >> 122
    return (mixed >> rot | mixed << (64 - rot)) & _MASK64


def _probe_tables():
    """numpy's ziggurat ``w`` and a lower bound on its ``k``, per layer, read by probing."""
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    state = _pcg64_state(0, _INC)
    inverse = pow(_PCG64_MULT, -1, 1 << 128)

    def draw(layer: int, rabs: int):
        """The draw from word ``rabs << 9 | layer``, and whether it used that word alone."""
        # the word's high half is 0, so its rotation is 0 and it is the stepped state
        word = rabs << 9 | layer
        state["state"]["state"] = (word - _INC) * inverse & _MASK128
        bit_generator.state = state
        x = generator.standard_normal()
        return x, int(bit_generator.random_raw()) == _xsl_rr(word * _PCG64_MULT + _INC & _MASK128)

    def accepted(layer: int, rabs: int) -> bool:
        return draw(layer, rabs)[1]

    def bisect(layer: int) -> int:
        # acceptance is rabs < k: keep lo accepted (or -1) and hi rejected
        lo, hi = -1, 1 << 52
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(layer, mid) else (lo, mid)
        return lo + 1

    w, k = [0.0] * 256, [0] * 256
    for layer in range(256):
        x, ok = draw(layer, 1)
        w[layer] = x if ok else 0.0  # a layer with k <= 1 always takes the slow path
    for layer in range(256):
        if not w[layer]:
            continue
        if layer and w[layer - 1]:
            # the ziggurat's k[i] is about 2**52 w[i-1] / w[i]: try its floor and one below
            (p, q), (r, s) = w[layer - 1].as_integer_ratio(), w[layer].as_integer_ratio()
            guess = (p * s << 52) // (q * r)
            if accepted(layer, guess):
                k[layer] = guess + 1
                continue
            if accepted(layer, guess - 1):
                k[layer] = guess
                continue
        k[layer] = bisect(layer)
    return np.array(w), np.array(k, dtype=np.uint64)


def _normal(words, state_hi, state_lo, inc_hi, inc_lo, hi, lo, tables) -> np.ndarray:
    """numpy's standard normals from ``_words``, with each row's slow path replayed by numpy."""
    signed_w, k = tables
    rabs = words >> 9 & _MASK52
    layer_sign = words & 0x1FF
    x = rabs.astype(float) * np.take(signed_w, layer_sign)
    slow = ~(rabs < np.take(k, layer_sign))
    rows = np.flatnonzero(slow.any(axis=1))
    if not rows.size:
        return x
    first = slow[rows].argmax(axis=1)
    # the state before word j: the seeded state at j = 0, else the one word j - 1 came from
    seeded, prior = first == 0, np.maximum(first - 1, 0)
    before_hi = np.where(seeded, state_hi[rows], hi[rows, prior]).tolist()
    before_lo = np.where(seeded, state_lo[rows], lo[rows, prior]).tolist()
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator, state = generator.bit_generator, _pcg64_state(0, 0)
    inner = state["state"]
    for row, j, b_hi, b_lo, i_hi, i_lo in zip(rows.tolist(), first.tolist(), before_hi, before_lo,
                                             inc_hi[rows].tolist(), inc_lo[rows].tolist()):
        inner["state"], inner["inc"] = b_hi << 64 | b_lo, i_hi << 64 | i_lo
        bit_generator.state = state
        generator.standard_normal(out=x[row, j:])
    return x


def _draw(dgp, limbs, n: int, tables) -> np.ndarray:
    words, hi, lo = _words(*limbs, n)
    if dgp.name == "uniform":
        low = dgp.params["lo"]
        return low + (dgp.params["hi"] - low) * ((words >> 11).astype(float) * 2.0 ** -53)
    return _normal(words, *limbs, hi, lo, tables)


def draw_chunk(dgp, master_seed: int, start: int, stop: int, label: str, n: int) -> np.ndarray:
    """Row ``i`` holds ``dgp.sample(replication_rng(master_seed, start + i, label), n)``.

    ``dgp`` draws one of ``LAWS``.  The seed, index range and label are those
    ``chunk_generators`` takes, but their types are the caller's to check.
    """
    _check_against_reference()
    limbs = _pcg64_limbs(_chunk_seeds(master_seed, range(start, stop), label))
    return _draw(dgp, limbs, n, _tables())


#: Fixed chunks of the first-use check: (law, params, master seed, start,
#: stop, label, n).  The normal one holds slow-path rows from layer 0, from
#: layer 1 and from positions past the first.
_CHECKS = (("standard_normal", {}, -5, 0, 300, "check|normal", 16),
           ("uniform", {"lo": -3.0, "hi": 1e300}, 2**64 + 3, 0, 64, "check|uniform", 9))


@functools.cache
def _tables():
    """``w`` and ``k`` indexed by a word's low 9 bits (layer, then sign), checked."""
    w, k = _probe_tables()
    # rabs * -w is -(rabs * w) exactly: rounding is symmetric in sign
    tables = np.concatenate([w, -w]), np.concatenate([k, k])
    for name, params, master_seed, start, stop, label, n in _CHECKS:
        dgp = make_dgp(name, **params)
        limbs = _pcg64_limbs(_chunk_seeds(master_seed, range(start, stop), label))
        ours = _draw(dgp, limbs, n, tables)
        reference = np.array([dgp.sample(replication_rng(master_seed, i, label), n)
                              for i in range(start, stop)])
        if not np.array_equal(ours.view(np.uint64), reference.view(np.uint64)):
            raise RuntimeError(
                f"one-pass {dgp.name} draws differ from replication_rng under numpy "
                f"{np.__version__}; numpy's PCG64, ziggurat or uniform has changed")
    return tables
