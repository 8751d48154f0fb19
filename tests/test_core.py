"""Tests for the median-bias functional and its Monte-Carlo estimator."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import binom

from medbias import (
    EstimatorDraws,
    MedBiasEstimate,
    SignProbabilities,
    mc_med_bias,
    med_bias,
    sign_probabilities,
)


def test_med_bias_unbiased_case():
    assert med_bias(0.5, 0.5) == 0.0


def test_med_bias_degenerate_estimator():
    # point mass at the target: both weak probabilities are 1
    assert med_bias(1.0, 1.0) == 0.0


def test_med_bias_one_sided():
    # estimator above the target 70% of the time: weaker side is 30% + ties
    assert med_bias(0.3, 0.7) == pytest.approx(0.2, abs=1e-15)


def test_med_bias_swap_invariance():
    for p_le, p_ge in [(0.5, 0.9), (0.62, 0.38), (1.0, 0.0), (0.77, 0.33)]:
        assert med_bias(p_le, p_ge) == med_bias(p_ge, p_le)


def test_med_bias_monotone_in_each_argument():
    grid = np.linspace(0.0, 1.0, 21)
    for other in (0.1, 0.5, 0.9):
        values = [med_bias(p, other) for p in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_med_bias_rejects_non_probabilities():
    with pytest.raises(ValueError):
        med_bias(-0.1, 0.5)
    with pytest.raises(ValueError):
        med_bias(0.5, 1.5)


def test_sign_probabilities_counting():
    sp = sign_probabilities([-1.0, -2.0, 3.0], zero_tol=0.0)
    assert sp.p_neg == pytest.approx(2 / 3, abs=1e-15)
    assert sp.p_zero == 0.0
    assert sp.p_pos == pytest.approx(1 / 3, abs=1e-15)
    assert sp.p_neg + sp.p_zero + sp.p_pos == pytest.approx(1.0, abs=1e-12)


def test_sign_probabilities_all_zero():
    sp = sign_probabilities([0.0, 0.0, 0.0], zero_tol=0.0)
    assert (sp.p_neg, sp.p_zero, sp.p_pos) == (0.0, 1.0, 0.0)


def test_sign_probabilities_deadband():
    sp = sign_probabilities([-1e-13, 1e-13, 2.0], zero_tol=1e-12)
    assert sp.p_zero == pytest.approx(2 / 3, abs=1e-15)


def test_sign_probabilities_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        sign_probabilities([])
    with pytest.raises(ValueError):
        sign_probabilities([math.nan])


def test_sign_probabilities_rejects_a_deadband_that_is_not_finite():
    # a NaN deadband fails both comparisons and used to count every draw as positive
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^zero_tol must be finite$"):
            sign_probabilities([-1.0, 0.0, 1.0], zero_tol=tol)
    for tol in (-1.0, -math.inf):
        with pytest.raises(ValueError, match="^zero_tol must be >= 0$"):
            sign_probabilities([-1.0, 0.0, 1.0], zero_tol=tol)


def test_sign_probabilities_median_score_matches_binomial():
    # score of the absolute-deviation objective at the population median,
    # n = 3 iid continuous: counts follow Binom(3, 1/2), so the probability
    # of a negative score is P(B <= 1) = 1/2 exactly
    rng = np.random.default_rng(101)
    reps, n = 200_000, 3
    draws = rng.standard_normal((reps, n))
    score = 2 * (draws <= 0.0).sum(axis=1) - n
    sp = sign_probabilities(score.astype(float), zero_tol=0.0)
    exact = binom.cdf(1, 3, 0.5)
    assert exact == pytest.approx(0.5, abs=1e-12)
    assert sp.p_neg == pytest.approx(exact, abs=3 * math.sqrt(0.25 / reps))


def test_sign_probabilities_invariant_fields():
    with pytest.raises(ValueError):
        SignProbabilities(p_neg=0.6, p_zero=0.0, p_pos=0.6)


def test_mc_med_bias_degenerate():
    draws = EstimatorDraws(values=np.full(100, 1.25), target=1.25)
    est = mc_med_bias(draws)
    assert est.point == 0.0
    assert est.p_le == 1.0 and est.p_ge == 1.0


def test_mc_med_bias_sample_median_n5():
    # odd-n sample median of a continuous symmetric law is exactly median
    # unbiased: P(median <= 0) = P(Binom(5, 1/2) >= 3) = 1/2
    rng = np.random.default_rng(7)
    reps = 100_000
    medians = np.median(rng.standard_normal((reps, 5)), axis=1)
    est = mc_med_bias(EstimatorDraws(values=medians, target=0.0))
    assert est.point <= 0.005


def _enumerate_mean_dgp():
    """Exhaustive oracle: X uniform on {-1, 0, 2}, n = 4, estimator = mean."""
    support = (-1.0, 0.0, 2.0)
    target = sum(support) / 3.0
    p_le = p_ge = 0.0
    outcomes = 0
    for combo in itertools.product(support, repeat=4):
        outcomes += 1
        mean = sum(combo) / 4.0
        if mean <= target:
            p_le += 1
        if mean >= target:
            p_ge += 1
    return target, p_le / outcomes, p_ge / outcomes


def test_mc_med_bias_matches_enumeration_oracle():
    target, p_le, p_ge = _enumerate_mean_dgp()
    exact = med_bias(p_le, p_ge)
    rng = np.random.default_rng(2024)
    reps = 100_000
    samples = rng.choice([-1.0, 0.0, 2.0], size=(reps, 4))
    means = samples.mean(axis=1)
    est = mc_med_bias(EstimatorDraws(values=means, target=target))
    assert abs(est.point - exact) <= 3 * max(est.std_err, 1e-4)
    assert abs(est.p_le - p_le) <= 3 * math.sqrt(p_le * (1 - p_le) / reps) + 1e-9
    assert abs(est.p_ge - p_ge) <= 3 * math.sqrt(p_ge * (1 - p_ge) / reps) + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_mc_med_bias_monotone_transform_invariance(seed):
    # only the order statistics relative to the target matter
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(500)
    target = float(rng.standard_normal())
    base = mc_med_bias(EstimatorDraws(values=values, target=target))

    def transform(z):
        return np.expm1(2.0 * z) + 0.3 * z  # strictly increasing

    moved = mc_med_bias(EstimatorDraws(
        values=transform(values), target=float(transform(np.array(target)))
    ))
    assert moved.point == base.point
    assert moved.p_le == base.p_le and moved.p_ge == base.p_ge


def test_mc_med_bias_enumeration_within_error_bars_across_seeds():
    # the exact value lands inside the 3-sigma band in nearly every seeded run
    target, p_le, p_ge = _enumerate_mean_dgp()
    exact = med_bias(p_le, p_ge)
    hits = 0
    runs = 100
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        means = rng.choice([-1.0, 0.0, 2.0], size=(4000, 4)).mean(axis=1)
        est = mc_med_bias(EstimatorDraws(values=means, target=target))
        if abs(est.point - exact) <= 3 * max(est.std_err, 1e-4):
            hits += 1
    assert hits >= 99


def test_med_bias_estimate_validation():
    with pytest.raises(ValueError):
        MedBiasEstimate(point=0.2, std_err=0.01, reps=100, p_le=0.4, p_ge=0.7)
    with pytest.raises(ValueError):
        MedBiasEstimate(point=0.0, std_err=0.01, reps=100, p_le=0.4, p_ge=0.5)


def test_estimator_draws_validation():
    with pytest.raises(ValueError):
        EstimatorDraws(values=np.array([]), target=0.0)
    with pytest.raises(ValueError):
        EstimatorDraws(values=np.array([1.0, math.inf]), target=0.0)
