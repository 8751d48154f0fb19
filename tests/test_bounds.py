"""Tests for the bound right-hand sides against exact small-instance oracles."""

import math

import numpy as np
import pytest
from scipy.stats import binom, norm

from medbias import (
    EstimatorDraws,
    IdentifiabilityError,
    LogisticLocation,
    NormalLocation,
    SignProbabilities,
    convex_bound,
    loglik_ratio_sum,
    mc_med_bias,
    mle_llr_lower_bounds,
    nondiff_profile,
    sign_probabilities,
    z_exact_medbias,
)
from medbias.bounds import direct_comparison_probabilities, llr_sign_indicators, nonconvex_profile
from medbias.core import freq_std_err


def test_convex_bound_symmetric_continuous_score():
    assert convex_bound(SignProbabilities(0.5, 0.0, 0.5)) == 0.0


def test_convex_bound_median_even_n_binomial_oracle():
    # absolute-deviation score at the median, n = 4 iid continuous:
    # score = 2 Binom(4, 1/2) - 4, so P(<0) = P(B <= 1) = 5/16 on each side
    # and the atom P(B = 2) = 6/16 is what loosens the bound to 3/16
    p_neg = float(binom.cdf(1, 4, 0.5))
    p_zero = float(binom.pmf(2, 4, 0.5))
    assert p_neg == pytest.approx(5 / 16, abs=1e-12)
    assert p_zero == pytest.approx(6 / 16, abs=1e-12)
    sp = SignProbabilities(p_neg, p_zero, p_neg)
    assert convex_bound(sp) == pytest.approx(3 / 16, abs=1e-12)


def test_convex_bound_weaker_side_controls():
    # the less likely strict sign is the binding one
    sp = SignProbabilities(0.2, 0.1, 0.7)
    assert convex_bound(sp) == pytest.approx(0.3, abs=1e-15)


def test_convex_bound_dominates_even_median_mc():
    rng = np.random.default_rng(55)
    reps, n = 40_000, 4
    draws = rng.standard_normal((reps, n))
    medians = np.median(draws, axis=1)
    score = (2 * (draws <= 0.0).sum(axis=1) - n).astype(float)
    lhs = mc_med_bias(EstimatorDraws(medians, 0.0))
    rhs = convex_bound(sign_probabilities(score, zero_tol=0.0))
    assert lhs.point <= rhs + 3 * lhs.std_err


def test_z_exact_trivial_and_symmetry():
    assert z_exact_medbias(0.5, 0.5) == 0.0
    assert z_exact_medbias(0.6, 0.7) == 0.0
    assert z_exact_medbias(0.3, 0.9) == pytest.approx(0.2, abs=1e-15)


def test_z_exact_symmetric_errors_near_zero():
    # normal-location MLE on symmetric data: both weak probabilities sit at
    # 1/2, so value and measured bias are both within noise of zero
    n, reps = 10, 30_000
    rng = np.random.default_rng(321)
    means = rng.standard_normal((reps, n)).mean(axis=1)
    lhs = mc_med_bias(EstimatorDraws(means, 0.0))
    score = -np.random.default_rng(654).standard_normal((reps, n)).sum(axis=1)
    p_le = float(np.count_nonzero(score <= 0.0)) / reps
    p_ge = float(np.count_nonzero(score >= 0.0)) / reps
    rhs = z_exact_medbias(p_le, p_ge)
    noise = 3 * freq_std_err(0.5, reps)
    assert lhs.point <= noise
    assert rhs <= noise
    assert abs(lhs.point - rhs) <= 3 * math.hypot(lhs.std_err, freq_std_err(min(p_le, p_ge), reps))


def test_z_exact_identity_skewed_errors():
    # normal-location MLE (the mean) with centered exponential errors, n = 10:
    # the estimator's side of the target is exactly the score's sign, so the
    # weak-sign value must match the Monte-Carlo median bias within noise;
    # independent streams keep the comparison honest
    n, reps = 10, 60_000
    rng_lhs = np.random.default_rng(1234)
    means = (rng_lhs.exponential(1.0, (reps, n)) - 1.0).mean(axis=1)
    lhs = mc_med_bias(EstimatorDraws(means, 0.0))
    rng_rhs = np.random.default_rng(5678)
    score = -(rng_rhs.exponential(1.0, (reps, n)) - 1.0).sum(axis=1)
    p_le = float(np.count_nonzero(score <= 0.0)) / reps
    p_ge = float(np.count_nonzero(score >= 0.0)) / reps
    rhs = z_exact_medbias(p_le, p_ge)
    joint = math.hypot(lhs.std_err, freq_std_err(min(p_le, p_ge), reps))
    assert abs(lhs.point - rhs) <= 3 * joint


def test_nondiff_one_point_geometry_oracle():
    # n = 1, absolute deviation, X standard normal about 0:
    # P(M(0) < M(eps)) = P(X < eps/2), so the per-epsilon frequency must match
    # the normal cdf and the finest-epsilon bound must be near zero
    rng = np.random.default_rng(77)
    reps = 60_000
    x = rng.standard_normal(reps)
    eps_grid = [1.0, 0.5, 0.25, 0.125]
    center = np.abs(x)
    plus = np.stack([np.abs(x - e) for e in eps_grid])
    minus = np.stack([np.abs(x + e) for e in eps_grid])
    profile = nondiff_profile(eps_grid, center, plus, minus)
    for entry in profile:
        exact = float(norm.cdf(entry["eps"] / 2))
        se = freq_std_err(exact, reps)
        assert entry["p_plus"] == pytest.approx(exact, abs=3 * se)
        assert entry["p_minus"] == pytest.approx(exact, abs=3 * se)
    finest = profile[-1]
    # both comparison probabilities sit at cdf(eps/2) >= 1/2, so the exact
    # bound clamps to zero; the empirical one can only exceed it by noise
    assert 0.5 - float(norm.cdf(0.125 / 2)) < 0.0
    assert finest["bound"] == pytest.approx(0.0, abs=3 * freq_std_err(0.5, reps))


def test_nondiff_degenerate_objective_is_vacuous():
    # objective constant in theta: comparisons never strict, bound 1/2
    reps = 100
    center = np.ones(reps)
    grid = [0.5, 0.25]
    flat = np.ones((2, reps))
    assert [entry["bound"] for entry in nondiff_profile(grid, center, flat, flat)] == [0.5, 0.5]


def test_nondiff_validation():
    center = np.zeros(10)
    values = np.zeros((1, 10))
    with pytest.raises(ValueError):
        nondiff_profile([0.5], center, values, values)
    with pytest.raises(ValueError):
        nondiff_profile([0.25, 0.5], center, np.zeros((2, 10)), np.zeros((2, 10)))
    with pytest.raises(ValueError):
        nondiff_profile([0.5, 0.25], center, np.zeros((2, 7)), np.zeros((2, 7)))


def test_llr_lower_bounds_gaussian_exactly_half_in_the_limit():
    # gaussian location: the centered log-likelihood-ratio sum is exactly a
    # centered gaussian, so both lower bounds sit at 1/2 for any shift
    fam = NormalLocation(1.0)
    rng = np.random.default_rng(8)
    draws = rng.standard_normal((40_000, 20))
    lb_plus, lb_minus = mle_llr_lower_bounds(fam, draws, 0.0, 0.4)
    se = freq_std_err(0.5, draws.shape[0])
    assert lb_plus == pytest.approx(0.5, abs=3 * se)
    assert lb_minus == pytest.approx(0.5, abs=3 * se)


def test_llr_lower_bounds_reject_zero_shift():
    fam = NormalLocation(1.0)
    with pytest.raises(IdentifiabilityError):
        mle_llr_lower_bounds(fam, np.zeros((10, 5)), 0.0, 0.0)
    with pytest.raises(IdentifiabilityError):
        llr_sign_indicators(fam, np.zeros((10, 5)), 0.0, 0.0)


def test_llr_lower_bounds_logistic_level():
    fam = LogisticLocation(1.0)
    rng = np.random.default_rng(13)
    draws = rng.logistic(0.0, 1.0, (100_000, 50))
    lb_plus, lb_minus = mle_llr_lower_bounds(fam, draws, 0.0, 0.2)
    assert lb_plus >= 0.45
    assert lb_minus >= 0.45


def test_llr_lower_bounds_consistent_with_direct_probabilities():
    fam = LogisticLocation(1.0)
    rng = np.random.default_rng(14)
    draws = rng.logistic(0.0, 1.0, (5_000, 25))
    reps = draws.shape[0]
    lb_plus, lb_minus = mle_llr_lower_bounds(fam, draws, 0.0, 0.3)
    direct_plus, direct_minus = direct_comparison_probabilities(fam, draws, 0.0, 0.3)
    slack = 3 * freq_std_err(0.5, reps)
    assert lb_plus <= direct_plus + slack
    assert lb_minus <= direct_minus + slack
    # the row-wise sums agree with the one-dataset objective drop
    for shift, direct in ((0.3, direct_plus), (-0.3, direct_minus)):
        sums = np.array([loglik_ratio_sum(fam, row, 0.0, shift) for row in draws])
        assert direct == float(np.count_nonzero(sums < 0.0)) / reps


def test_nonconvex_zero_profile_reduces_bit_for_bit():
    sp = SignProbabilities(0.41, 0.05, 0.54)
    profile = [(0.5, 0.0, 0.0), (1.0, 0.0, 0.0)]
    assert [e["clamped"] for e in nonconvex_profile(sp, profile)] == [convex_bound(sp)] * 2


def test_nonconvex_vacuous_profile():
    sp = SignProbabilities(0.5, 0.0, 0.5)
    assert nonconvex_profile(sp, [(0.5, 1.0, 1.0)])[0]["clamped"] == 0.5


def test_nonconvex_picks_best_delta_and_reports_raw():
    sp = SignProbabilities(0.45, 0.0, 0.55)
    profile = [(0.25, 0.30, 0.01), (0.5, 0.10, 0.05), (1.0, 0.02, 0.20)]
    entries = nonconvex_profile(sp, profile)
    assert [e["delta"] for e in entries] == [0.25, 0.5, 1.0]
    for entry, (_, eta1, eta2) in zip(entries, profile):
        assert entry["raw"] == convex_bound(sp) + eta1 + eta2
        assert entry["clamped"] == min(0.5, entry["raw"])
    best = min(entries, key=lambda e: e["raw"])
    assert best["delta"] == 0.5
    assert best["raw"] == pytest.approx(convex_bound(sp) + 0.15, abs=1e-15)


def test_nonconvex_rejects_bad_probabilities():
    sp = SignProbabilities(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        nonconvex_profile(sp, [(0.5, -0.1, 0.0)])
    with pytest.raises(ValueError):
        nonconvex_profile(sp, [])
