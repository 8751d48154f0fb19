"""Counter-based seed derivation for reproducible parallel replication.

Every replication draws from its own generator, seeded by hashing the master
seed with the replication index and a stream label.  Values therefore depend
only on (master seed, index, label), never on chunking, worker count, or
execution order.  The experiment kinds draw every replication through
``kinds._replicate``, which fixes the label as ``<grid label>|<stream>``.
"""

import hashlib

import numpy as np


def derive_seed(master_seed: int, replication_index: int, stream_label: str) -> int:
    """Mix (master seed, replication index, stream label) into a 64-bit seed.

    Pure and platform-independent; distinct (index, label) pairs collide only
    with negligible probability (first 8 bytes of a SHA-256 digest).
    """
    if not isinstance(master_seed, int) or not isinstance(replication_index, int):
        raise TypeError("master_seed and replication_index must be integers")
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
