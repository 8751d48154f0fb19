"""Min-max batch confidence interval for (near) median-unbiased estimators.

The data are cut into B disjoint equal-size batches and the estimator
computed on each; the interval is the range of the batch estimates.  For an
exactly median-unbiased estimator the target escapes the range only when all
B batch estimates fall on the same side, so the miss probability is
2 * 2**(-B); B is the smallest batch count pushing that below alpha.
"""

import math

import numpy as np


def miss_bound(batches: int) -> float:
    """Miss probability 2 * 2**(-B) of B batches of an exactly median-unbiased estimator."""
    return 2.0 * 2.0 ** (-batches)


def batch_count(alpha: float) -> int:
    """Smallest B with ``miss_bound(B) <= alpha``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return math.ceil(math.log2(2.0 / alpha))


def hulc_batches(values, batches: int):
    """Each sample's ``batches`` consecutive equal-size runs, the trailing
    remainder dropped: a ``(..., batches, size)`` view of ``values``."""
    size = values.shape[-1] // batches
    return values[..., : size * batches].reshape(values.shape[:-1] + (batches, size))


def hulc_interval(values, alpha: float, estimator):
    """Interval [min, max] of the estimator over B disjoint equal-size batches.

    ``values`` is one sample, or a ``(rows, n)`` matrix holding one sample
    per row.  Batches are consecutive runs of each sample; with n not
    divisible by B the trailing remainder observations are dropped.
    ``estimator`` maps a matrix of batches, one per row, to one estimate per
    row, and is called once for all the batches.  Returns two floats for one
    sample and two per-row arrays for a matrix.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim not in (1, 2):
        raise ValueError("values must be one sample or a (rows, n) matrix of samples")
    b = batch_count(alpha)
    size = data.shape[-1] // b
    if size < 1:
        raise ValueError(f"need at least {b} observations for alpha={alpha}, got {data.shape[-1]}")
    batches = hulc_batches(data, b).reshape(-1, size)
    estimates = np.asarray(estimator(batches), dtype=float).reshape(data.shape[:-1] + (b,))
    lo, hi = estimates.min(axis=-1), estimates.max(axis=-1)
    return (float(lo), float(hi)) if data.ndim == 1 else (lo, hi)
