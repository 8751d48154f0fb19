"""Median-bias functional and its Monte-Carlo estimation from estimator draws.

An estimator is median unbiased for a target when it lands on each side of
the target with probability at least 1/2.  ``med_bias`` measures how far the
weaker side falls short of 1/2; everything else in the package either
estimates this quantity by Monte Carlo or bounds it from sign probabilities
of a score statistic.
"""

import math
from dataclasses import dataclass

import numpy as np

_PROB_TOL = 1e-12


def med_bias(p_le: float, p_ge: float) -> float:
    """Deviation of an estimator from median unbiasedness.

    ``p_le`` and ``p_ge`` are P(estimate <= target) and P(estimate >= target);
    both are weak inequalities, so the boundary event counts toward each.
    Returns ``max(0, 1/2 - min(p_le, p_ge))``: zero exactly when both sides
    carry at least probability 1/2.  Every bound applies this same functional
    to the pair of sign or comparison probabilities it controls.
    """
    for name, p in (("p_le", p_le), ("p_ge", p_ge)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p!r} is not a probability in [0, 1]")
    return max(0.0, 0.5 - min(p_le, p_ge))


def freq_std_err(p: float, reps: int) -> float:
    """Binomial standard error of an empirical frequency ``p`` over ``reps`` draws."""
    if reps <= 0:
        raise ValueError("reps must be positive")
    return math.sqrt(max(p * (1.0 - p), 0.0) / reps)


def med_bias_std_err(p_le: float, p_ge: float, reps: int) -> float:
    """Standard error of ``med_bias(p_le, p_ge)``: the binomial one of the
    smaller frequency, which sets the point."""
    return freq_std_err(min(p_le, p_ge), reps)


@dataclass(frozen=True)
class SignProbabilities:
    """The triple P(S < 0), P(S = 0), P(S > 0) for a real statistic S."""

    p_neg: float
    p_zero: float
    p_pos: float

    def __post_init__(self):
        for name, p in (("p_neg", self.p_neg), ("p_zero", self.p_zero), ("p_pos", self.p_pos)):
            if not -_PROB_TOL <= p <= 1.0 + _PROB_TOL:
                raise ValueError(f"{name}={p!r} is not a probability in [0, 1]")
        total = self.p_neg + self.p_zero + self.p_pos
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"sign probabilities sum to {total!r}, expected 1")


def sign_probabilities(statistic_draws, zero_tol: float = 0.0) -> SignProbabilities:
    """Empirical sign frequencies of a statistic, with a deadband for zero.

    Values strictly below ``-zero_tol`` count as negative, values within
    ``[-zero_tol, zero_tol]`` as zero, and the remainder as positive.  Use
    ``zero_tol=0`` for exact-arithmetic statistics (integer-valued scores)
    and a small multiple of the statistic's scale for float scores.
    """
    draws = np.asarray(statistic_draws, dtype=float)
    if draws.size == 0:
        raise ValueError("statistic_draws must be non-empty")
    if not np.all(np.isfinite(draws)):
        raise ValueError("statistic_draws must be finite")
    if zero_tol < 0.0:
        raise ValueError("zero_tol must be >= 0")
    n = draws.size
    n_neg = int(np.count_nonzero(draws < -zero_tol))
    n_zero = int(np.count_nonzero(np.abs(draws) <= zero_tol))
    n_pos = n - n_neg - n_zero
    return SignProbabilities(p_neg=n_neg / n, p_zero=n_zero / n, p_pos=n_pos / n)


@dataclass(frozen=True)
class MedBiasEstimate:
    """Monte-Carlo estimate of the median bias with a binomial error bar.

    ``point`` is ``med_bias(p_le, p_ge)`` for the empirical weak-inequality
    frequencies; ``std_err`` is the binomial standard error of the frequency
    on the branch that determines the point (the smaller of the two).
    """

    point: float
    std_err: float
    reps: int
    p_le: float
    p_ge: float

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be a positive integer")
        if self.std_err < 0.0:
            raise ValueError("std_err must be >= 0")
        if not 0.0 <= self.point <= 0.5:
            raise ValueError(f"point={self.point!r} outside [0, 1/2]")
        if self.point != med_bias(self.p_le, self.p_ge):
            raise ValueError("point does not equal med_bias(p_le, p_ge)")
        if self.p_le + self.p_ge < 1.0 - _PROB_TOL:
            raise ValueError("p_le + p_ge must be >= 1 (ties count on both sides)")


@dataclass(frozen=True)
class EstimatorDraws:
    """One estimator realization per Monte-Carlo replication, plus the target."""

    values: np.ndarray
    target: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.size == 0:
            raise ValueError("values must be non-empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not np.isfinite(self.target):
            raise ValueError("target must be finite")
        object.__setattr__(self, "values", values)

    @property
    def reps(self) -> int:
        return int(self.values.size)


def mc_med_bias(draws: EstimatorDraws) -> MedBiasEstimate:
    """Plug-in median-bias estimate from repeated estimator draws."""
    values = draws.values
    reps = draws.reps
    p_le = float(np.count_nonzero(values <= draws.target)) / reps
    p_ge = float(np.count_nonzero(values >= draws.target)) / reps
    return MedBiasEstimate(
        point=med_bias(p_le, p_ge),
        std_err=med_bias_std_err(p_le, p_ge, reps),
        reps=reps,
        p_le=p_le,
        p_ge=p_ge,
    )
