"""One-pass chunk draws: a stream's ``(count, n)`` matrix of a whole chunk at once.

``draw_chunk`` gives row ``i`` of the chunk the ``n`` draws of
``replication_rng(master_seed, start + i, label)`` under ``standard_normal``,
``uniform`` or ``exp_centered`` (``LAWS``), bit for bit, without a
``Generator`` per replication.  Each row is still seeded from
``derive_seed``: ``seeds`` computes the chunk's seeded PCG64 states as
``uint64`` limb arrays.

PCG64 (O'Neill 2014) is a 128-bit LCG, ``s -> mult * s + inc``, whose output
is the XSL-RR of the stepped state; numpy steps before each output.  Word
``j`` (from 1) of a row is therefore the output of ``A_j s + C_j inc`` with
``A_j = mult**j`` and ``C_j = mult**(j-1) + ... + 1``, which ``_words`` forms
for every row and position in one broadcast.  From word ``r``:

- ``uniform(lo, hi)`` is ``lo + (hi - lo) * ((r >> 11) * 2**-53)``, one word
  per draw, as numpy's ``random_uniform``;
- ``standard_normal`` and ``standard_exponential`` are numpy's ziggurats
  (Marsaglia and Tsang 2000), ``_ZIGGURATS``.  The normal's layer is
  ``r & 0xff``, its sign bit 8 and its magnitude the bits 9 to 60; the
  exponential's layer is bits 3 to 10 and its magnitude bits 11 to 63.  The
  draw is ``magnitude * w[layer]`` (signed for the normal), accepted at once
  when ``magnitude < k[layer]``.  A row whose draw at position ``j`` is not
  accepted there continues from its exact state before word ``j`` in a
  reused ``Generator`` through ``standard_normal(out=row[j:])`` or
  ``standard_exponential(out=row[j:])``, so the rare slow-path draws (the
  tail layer 0 and the wedges), and every one after them in the row, are
  numpy's own;
- ``exp_centered(scale)`` is then ``x * scale - scale`` on the standard
  exponentials: numpy's ``exponential(scale)`` is ``scale`` times its
  standard draw, and ``UnivariateDgp.sample`` subtracts ``scale``.

numpy does not export its ziggurat tables, so ``_tables`` reads a law's from
numpy itself on the law's first use, never at import or validation: it sets
a PCG64 state whose next output is a chosen word and checks whether one draw
consumed exactly one word.  ``w`` comes from magnitude 1.  ``k`` need only be
a lower bound, since a draw at or above it takes the slow path, and each
bound is proved by one accepted probe just below it.  That first use then
compares a fixed chunk of the law, slow-path rows included, with
``replication_rng`` and raises ``RuntimeError`` if any bit differs (a numpy
release that changed PCG64, a ziggurat, ``uniform`` or ``exponential``).
"""

import functools
from typing import NamedTuple

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
LAWS = ("standard_normal", "uniform", "exp_centered")


class _Ziggurat(NamedTuple):
    """Where numpy's ziggurat for a law reads a word's layer and magnitude."""

    method: str  # the ``Generator`` method that draws the standard variate
    layer_shift: int  # the lowest bit of the layer
    index_bits: int  # the bits from there that index the tables: layer, then sign
    shift: int  # the lowest bit of the magnitude
    bits: int  # the magnitude's width


_ZIGGURATS = {"standard_normal": _Ziggurat("standard_normal", 0, 9, 9, 52),
              "exp_centered": _Ziggurat("standard_exponential", 3, 8, 11, 53)}

_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
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


def _probe_tables(zig: _Ziggurat):
    """A ziggurat's ``w`` and a lower bound on its ``k``, per layer, read by probing."""
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator, standard = generator.bit_generator, getattr(generator, zig.method)
    state = _pcg64_state(0, _INC)
    inverse = pow(_PCG64_MULT, -1, 1 << 128)

    def draw(layer: int, magnitude: int):
        """The draw from the word of ``layer`` and ``magnitude``, and whether it used
        that word alone."""
        # the word's high half is 0, so its rotation is 0 and it is the stepped state
        word = magnitude << zig.shift | layer << zig.layer_shift
        state["state"]["state"] = (word - _INC) * inverse & _MASK128
        bit_generator.state = state
        x = standard()
        return x, int(bit_generator.random_raw()) == _xsl_rr(word * _PCG64_MULT + _INC & _MASK128)

    def accepted(layer: int, magnitude: int) -> bool:
        return draw(layer, magnitude)[1]

    def bisect(layer: int) -> int:
        # acceptance is magnitude < k: keep lo accepted (or -1) and hi rejected
        lo, hi = -1, 1 << zig.bits
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
            # k[i] is about 2**bits w[i-1] / w[i], rounded in floats: try its
            # floor and three below, the first one accepted proving the bound
            (p, q), (r, s) = w[layer - 1].as_integer_ratio(), w[layer].as_integer_ratio()
            guess = (p * s << zig.bits) // (q * r)
            k[layer] = next((c + 1 for c in range(guess, guess - 4, -1) if accepted(layer, c)),
                            None) or bisect(layer)
        else:
            k[layer] = bisect(layer)
    return np.array(w), np.array(k, dtype=np.uint64)


def _fast_path(law: str, words, tables) -> tuple:
    """The ziggurat draw each word gives on the fast path, and whether it leaves it."""
    zig, (w, k) = _ZIGGURATS[law], tables
    index = words >> zig.layer_shift & (1 << zig.index_bits) - 1
    magnitude = words >> zig.shift & (1 << zig.bits) - 1
    return magnitude.astype(float) * np.take(w, index), ~(magnitude < np.take(k, index))


def _ziggurat(law: str, words, state_hi, state_lo, inc_hi, inc_lo, hi, lo,
              tables) -> np.ndarray:
    """numpy's standard draws from ``_words``, with each row's slow path replayed by numpy."""
    x, slow = _fast_path(law, words, tables)
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
    standard, inner = getattr(generator, _ZIGGURATS[law].method), state["state"]
    for row, j, b_hi, b_lo, i_hi, i_lo in zip(rows.tolist(), first.tolist(), before_hi, before_lo,
                                             inc_hi[rows].tolist(), inc_lo[rows].tolist()):
        inner["state"], inner["inc"] = b_hi << 64 | b_lo, i_hi << 64 | i_lo
        bit_generator.state = state
        standard(out=x[row, j:])
    return x


def _draw(dgp, limbs, n: int, tables) -> np.ndarray:
    words, hi, lo = _words(*limbs, n)
    if dgp.name == "uniform":
        low = dgp.params["lo"]
        return low + (dgp.params["hi"] - low) * ((words >> 11).astype(float) * 2.0 ** -53)
    x = _ziggurat(dgp.name, words, *limbs, hi, lo, tables)
    if dgp.name == "exp_centered":
        scale = dgp.params["scale"]
        with np.errstate(over="ignore"):  # numpy's exponential overflows to inf silently
            x *= scale
        x -= scale
    return x


def draw_chunk(dgp, master_seed: int, start: int, stop: int, label: str, n: int) -> np.ndarray:
    """Row ``i`` holds ``dgp.sample(replication_rng(master_seed, start + i, label), n)``.

    ``dgp`` draws one of ``LAWS``.  The seed, index range and label are those
    ``chunk_generators`` takes, but their types are the caller's to check.
    """
    _check_against_reference()
    limbs = _pcg64_limbs(_chunk_seeds(master_seed, range(start, stop), label))
    return _draw(dgp, limbs, n, _tables(dgp.name))


#: The fixed chunk of each law's first-use check: (params, master seed, start,
#: stop, label, n).  The normal's holds slow-path rows from layer 0 (the
#: tail), from layer 1 (no fast path) and at positions past the first; the
#: exponential's holds the same, layer 1 and the other layers past their fast
#: path being its wedges.
_CHECKS = {"standard_normal": ({}, -5, 0, 300, "check|normal", 16),
           "uniform": ({"lo": -3.0, "hi": 1e300}, 2**64 + 3, 0, 64, "check|uniform", 9),
           "exp_centered": ({"scale": 3.5}, -5, 0, 300, "check|exp", 16)}


@functools.cache
def _tables(law: str):
    """The law's ziggurat ``w`` and ``k``, indexed as ``_fast_path`` reads them, or
    None for the uniform; checked against ``replication_rng`` first."""
    tables = _probe_tables(_ZIGGURATS[law]) if law in _ZIGGURATS else None
    if law == "standard_normal":
        # the sign bit follows the layer: rounding is symmetric in sign, so
        # magnitude * -w is -(magnitude * w) exactly
        w, k = tables
        tables = np.concatenate([w, -w]), np.concatenate([k, k])
    params, master_seed, start, stop, label, n = _CHECKS[law]
    dgp = make_dgp(law, **params)
    limbs = _pcg64_limbs(_chunk_seeds(master_seed, range(start, stop), label))
    ours = _draw(dgp, limbs, n, tables)
    reference = np.array([dgp.sample(replication_rng(master_seed, i, label), n)
                          for i in range(start, stop)])
    if not np.array_equal(ours.view(np.uint64), reference.view(np.uint64)):
        raise RuntimeError(
            f"one-pass {law} draws differ from replication_rng under numpy "
            f"{np.__version__}; numpy's PCG64 or its {law} sampler has changed")
    return tables
