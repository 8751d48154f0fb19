"""Counter-based seed derivation for reproducible parallel replication.

Every replication draws from its own generator, seeded by hashing the master
seed with the replication index and a stream label: stream ``label`` of
replication ``i`` is ``replication_rng(master_seed, i, label)``, that is
``np.random.default_rng(derive_seed(master_seed, i, label))``.  Values
therefore depend only on (master seed, index, label), never on chunking,
worker count, or execution order.  The experiment kinds draw every
replication through ``kinds._replications``, which fixes the label as
``<grid label>|<stream>``.

``_replications`` seeds a whole chunk in one pass with ``chunk_generators``.
It checks the master seed, the index range and each label's type once per
chunk, with ``derive_seed``'s ``TypeError`` messages.  Per index it hashes
one bytes message, the text ``derive_seed`` hashes with its two fixed ends
encoded once per chunk, and joins the digests' 8-byte heads into one
big-endian ``uint64`` array.  It hashes the chunk's ``SeedSequence`` states
together in numpy ``uint32`` arithmetic, runs PCG64's 128-bit seeding step on
Python ints, and resets one reused ``Generator`` per stream before each
replication, through one state dict per stream whose inner ``state`` and
``inc`` are the only values that change.  The streams are those of
``replication_rng``, the reference.  The first use in a process compares the
two on fixed seeds, and the chunk hashing with ``derive_seed`` on indices
around 2**32; it raises ``RuntimeError`` if either differs (a numpy release
that changed ``SeedSequence`` or PCG64).  The test suite compares the streams
for every draw method the lab uses.
"""

import functools
import hashlib

import numpy as np

from .dgps import is_int

# numpy's SeedSequence hash (pool of four uint32 words) and PCG64's multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def derive_seed(master_seed: int, replication_index: int, stream_label: str) -> int:
    """Mix (master seed, replication index, stream label) into a 64-bit seed.

    Pure and platform-independent; distinct (index, label) pairs collide only
    with negligible probability (first 8 bytes of a SHA-256 digest).
    """
    if not is_int(master_seed) or not is_int(replication_index):
        raise TypeError("master_seed and replication_index must be integers, not bools")
    if not isinstance(stream_label, str):
        raise TypeError("stream_label must be a string")
    digest = hashlib.sha256(
        f"{master_seed}|{replication_index}|{stream_label}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def replication_rng(master_seed: int, replication_index: int,
                    stream_label: str) -> np.random.Generator:
    """Generator for one replication of one stream."""
    return np.random.default_rng(derive_seed(master_seed, replication_index, stream_label))


def _hasher(init: int, mult: int):
    """numpy's ``SeedSequence`` word hash, whose multiplier advances at every call."""
    const = init

    def hash_word(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hash_word


def _pcg64_states(seeds) -> list:
    """``default_rng(s).bit_generator.state`` as ``(state, inc)`` for each seed below 2**64.

    ``SeedSequence(s)`` hashes the 32-bit words of ``s`` into a pool of four;
    a seed below 2**32 is one word, which hashes as its two-word form with a
    zero high word.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    words += [np.zeros_like(words[0])] * 2
    mix_hash = _hasher(_INIT_A, _MULT_A)
    pool = [mix_hash(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - mix_hash(pool[src]) * _MIX_MULT_R
                pool[dst] = mixed ^ (mixed >> 16)
    # generate_state(4, np.uint64): eight uint32 words cycled from the pool,
    # paired little-endian into (seed high, seed low, inc high, inc low).
    output_hash = _hasher(_INIT_B, _MULT_B)
    out = [output_hash(word).astype(np.uint64) for word in pool * 2]
    state_words = [(out[k] | out[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2)]
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*state_words):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        states.append(((((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _pcg64_state(state: int, inc: int) -> dict:
    """A freshly seeded PCG64 state: no buffered 32-bit half."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@functools.cache
def _check_against_reference() -> None:
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, derive_seed(0, 0, "check")]
    for seed, state in zip(seeds, _pcg64_states(seeds)):
        if np.random.default_rng(seed).bit_generator.state != _pcg64_state(*state):
            raise RuntimeError(
                f"batched seeding differs from np.random.default_rng({seed}) under numpy "
                f"{np.__version__}; it would change every random stream")
    indices = range(2**32 - 2, 2**32 + 2)
    if _chunk_seeds(-3, indices, "check|\u00e9").tolist() != [
            derive_seed(-3, i, "check|\u00e9") for i in indices]:
        raise RuntimeError("chunk seed hashing differs from derive_seed")


def _chunk_seeds(master_seed: int, indices, label: str) -> np.ndarray:
    """``derive_seed`` of each index, hashing the same message with its ends encoded once."""
    prefix, suffix = f"{master_seed}|".encode(), f"|{label}".encode("utf-8")
    sha256 = hashlib.sha256
    return np.frombuffer(b"".join([sha256(b"%b%d%b" % (prefix, i, suffix)).digest()[:8]
                                   for i in indices]), dtype=">u8")


def chunk_generators(master_seed: int, start: int, stop: int, labels):
    """Yield, for each replication ``start..stop``, one generator per stream label.

    The generators draw the streams of ``replication_rng(master_seed, i,
    label)``, but the chunk is seeded in one pass and each label's
    ``Generator`` is reused: its state is reset before every yield, so a
    generator must not be kept past the replication it was yielded for.
    Types are checked once, with ``derive_seed``'s errors.
    """
    if not is_int(master_seed) or not is_int(start) or not is_int(stop):
        raise TypeError("master_seed and replication_index must be integers, not bools")
    labels = list(labels)
    if not all(isinstance(label, str) for label in labels):
        raise TypeError("stream_label must be a string")
    _check_against_reference()
    states = [_pcg64_states(_chunk_seeds(master_seed, range(start, stop), label))
              for label in labels]
    generators = tuple(np.random.Generator(np.random.PCG64(0)) for _ in states)
    # numpy's setter copies the values out, so one state dict per stream serves
    # every reset: only its inner state and inc change
    resets = [(generator.bit_generator, _pcg64_state(0, 0)) for generator in generators]
    for replication in zip(*states):
        for (bit_generator, state), (seed_state, inc) in zip(resets, replication):
            inner = state["state"]
            inner["state"], inner["inc"] = seed_state, inc
            bit_generator.state = state
        yield generators
