"""Exact finite-n values for the closed-form rows, with and without Monte Carlo.

Under a continuous law with F(theta0) = tau, the count #(x <= theta0) of a
sample of n is Bin(n, tau).  The check-loss score at theta0 is that count
minus n tau, so its sign probabilities are exact binomial sums, and a
single order statistic X_(k) has P(X_(k) <= theta0) = P(Bin(n, tau) >= k)
whatever the law.  The midpoint of two adjacent order statistics, which
the closed form takes when n tau is an integer, is one quadrature under
the uniform law.

The mean of n centered unit exponentials has n (theta_hat + 1) ~ Gamma(n),
so P(theta_hat <= 0) = Gamma(n).cdf(n), and HulC's B independent batch
means miss 0 exactly when all of them fall on one side of it.

Under the normal location family with known sigma, the log-likelihood-ratio
sum of n draws at shift e is exactly N(-n e^2 / 2 sigma^2, n e^2 / sigma^2):
centered by its mean it is at most 0 with probability 1/2, and it is
negative with probability Phi(sqrt(n) |e| / (2 sigma)).  The squared-error
objective's value comparisons at theta0 +- e reduce to the sample mean
against +- e / 2, so under the standard normal both have probability
Phi(sqrt(n) e / 2).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from medbias import SignProbabilities, convex_bound, med_bias
from medbias.objectives import check_loss_rank
from medbias.simlab import ExperimentConfig, run_experiment
from medbias.simlab.kinds import _check_loss_ranks

ROOT = Path(__file__).resolve().parent.parent


def _midpoint_p_le(n: int, m: int, t: float) -> float:
    """P((U_(m) + U_(m+1)) / 2 <= t) for n iid uniforms on (0, 1), m 1-based.

    The joint density of (U_(m), U_(m+1)) is c u^(m-1) (1 - v)^(n-m-1) on
    u < v; the integral over v is closed, the one over u a quadrature.
    """
    c = math.exp(math.lgamma(n + 1) - math.lgamma(m) - math.lgamma(n - m))
    r = n - m

    def over_v(u):
        v = min(2.0 * t - u, 1.0)
        return c * u ** (m - 1) * ((1.0 - u) ** r - (1.0 - v) ** r) / r

    value, _ = integrate.quad(over_v, 0.0, t, epsabs=1e-13, epsrel=1e-12)
    return value


def _exact_medbias(n: int, tau: float) -> float:
    """Median bias of the check-loss closed form at the tau-quantile of U(0, 1)."""
    lo, hi = _check_loss_ranks(n, tau)
    # X_(k) with k = lo + 1 is at most theta0 when the count is at least k
    p_le = stats.binom.sf(lo, n, tau) if lo == hi else _midpoint_p_le(n, hi, tau)
    return med_bias(p_le, 1.0 - p_le)


def _exact_signs(n: int, tau: float) -> SignProbabilities:
    """The score's sign probabilities, signed in the lab's own arithmetic."""
    counts = np.arange(n + 1)
    pmf = stats.binom.pmf(counts, n, tau)
    score = counts - check_loss_rank(n, tau)  # as CheckLoss.subgradient computes it
    return SignProbabilities(p_neg=float(pmf[score < 0].sum()),
                             p_zero=float(pmf[score == 0].sum()),
                             p_pos=float(pmf[score > 0].sum()))


def test_midpoint_quadrature_is_exact_where_symmetry_fixes_it():
    for n in (2, 4, 10, 40):
        assert _midpoint_p_le(n, n // 2, 0.5) == pytest.approx(0.5, abs=1e-10)


# k/20 for every n up to 40, and three (n, tau) whose float n tau misses the
# integer it stands for (25 * 0.28 = 7.000000000000001)
_GRID = [(n, k / 20) for n in range(1, 41) for k in range(1, 20)]
_GRID += [(25, 0.28), (50, 0.58), (90, 0.7)]


def test_convex_bound_dominates_exact_median_bias_of_check_loss():
    # Theorem 1 at exact probabilities: no sampling noise, so no slack
    tight = 0
    for n, tau in _GRID:
        exact = _exact_medbias(n, tau)
        bound = convex_bound(_exact_signs(n, tau))
        assert bound >= exact - 1e-12, (n, tau, bound, exact)
        tight += bound < exact + 1e-9
    assert tight > 0  # the bound is attained somewhere, so the check has teeth


# Each Monte-Carlo test fixed its limit, replication count and master seed
# before its first run: a family-wise two-sided level of 1e-3 per test,
# Bonferroni-split over its checks.
FAMILY_ALPHA = 1e-3


def _z_limit(checks: int) -> float:
    return stats.norm.isf(FAMILY_ALPHA / (2 * checks))


def _z(observed: float, exact: float, reps: int) -> float:
    return (observed - exact) / math.sqrt(exact * (1.0 - exact) / reps)


ROWS = 4
Z_LIMIT = _z_limit(ROWS)


def test_monte_carlo_p_le_matches_exact_values():
    quantile = ExperimentConfig.from_dict({
        "experiment": "exact-quantile-n15", "kind": "convex_dominance",
        "dgp": {"name": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
        "estimator": {"kind": "quantile", "params": {"tau": 0.25}},
        "grids": {"n": [15]}, "reps": 3000, "master_seed": 0,
    })
    median = ExperimentConfig.from_dict(
        json.loads((ROOT / "configs" / "median_unbiasedness.json").read_text()))
    (row,) = run_experiment(quantile).rows
    # 15 * 0.25 = 3.75, so the estimate is X_(4)
    cases = [(row, stats.binom.sf(3, 15, 0.25))]
    # odd n: the sample median of a symmetric law is exactly median unbiased
    cases += [(row, 0.5) for row in run_experiment(median).rows]
    assert len(cases) == ROWS and [row["n"] for row, _ in cases[1:]] == [5, 9, 15]
    for row, exact in cases:
        z = _z(row["p_le"], exact, row["reps"])
        assert abs(z) <= Z_LIMIT, (row["experiment"], row["n"], row["p_le"], exact, z)


def test_check_loss_signs_count_the_atom_where_n_tau_is_inexact():
    # 25 * 0.28 = 7.000000000000001, and the score counts against 7, so a
    # count of exactly 7 is a zero score: p_zero is the pmf at 7, not 0
    config = ExperimentConfig.from_dict({
        "experiment": "exact-quantile-tie", "kind": "convex_dominance",
        "dgp": {"name": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
        "estimator": {"kind": "quantile", "params": {"tau": 0.28}},
        "grids": {"n": [25]}, "reps": 3000, "master_seed": 0,
    })
    (row,) = run_experiment(config).rows
    exact = _exact_signs(25, 0.28)
    assert exact.p_zero == pytest.approx(stats.binom.pmf(7, 25, 0.28), rel=1e-12)
    limit = _z_limit(3)
    for name in ("p_neg", "p_zero", "p_pos"):
        z = _z(row["detail"][name], getattr(exact, name), row["reps"])
        assert abs(z) <= limit, (name, row["detail"][name], getattr(exact, name), z)


def _mean_config(kind: str, sizes) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "experiment": f"exact-mean-{kind}", "kind": kind,
        "dgp": {"name": "exp_centered"}, "estimator": {"kind": "lp", "params": {"p": 2.0}},
        "grids": {"n": list(sizes)}, "reps": 20000, "master_seed": 0,
    })


def _mean_p_le(n: int) -> float:
    """P(mean of n centered unit exponentials <= 0)."""
    return stats.gamma.cdf(n, n)


def test_monte_carlo_p_le_of_the_mean_under_exp_centered():
    rows = run_experiment(_mean_config("convex_dominance", (1, 5, 20))).rows
    assert [row["n"] for row in rows] == [1, 5, 20]
    # at n = 1 the mean's median bias is exactly 1/2 - 1/e
    assert _mean_p_le(1) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    limit = _z_limit(len(rows))
    for row in rows:
        exact = _mean_p_le(row["n"])
        z = _z(row["p_le"], exact, row["reps"])
        assert abs(z) <= limit, (row["n"], row["p_le"], exact, z)


def test_monte_carlo_hulc_coverage_of_the_mean_under_exp_centered():
    # alpha 0.05 gives B = 6 batches, so n = 6, 12, 60 are batch sizes 1, 2, 10
    rows = run_experiment(_mean_config("hulc_coverage", (6, 12, 60))).rows
    limit = _z_limit(len(rows))
    for row, size in zip(rows, (1, 2, 10), strict=True):
        detail = row["detail"]
        assert (detail["batches"], detail["batch_size"]) == (6, size)
        p = _mean_p_le(size)
        exact = 1.0 - p ** 6 - (1.0 - p) ** 6
        z = _z(detail["coverage"], exact, row["reps"])
        assert abs(z) <= limit, (size, detail["coverage"], exact, z)


def test_monte_carlo_llr_frequencies_under_normal_location():
    sigma, sizes, eps = 2.0, (5, 40), (0.25, 1.0)
    config = ExperimentConfig.from_dict({
        "experiment": "exact-llr-normal", "kind": "mle_llr_consistency",
        "estimator": {"kind": "neg_loglik", "params": {"family_name": "normal_location",
                                                       "family_params": {"sigma": sigma}}},
        "grids": {"n": list(sizes), "eps": list(eps)}, "params": {"theta0": 1.5},
        "reps": 4000, "master_seed": 0,
    })
    rows = run_experiment(config).rows
    assert [(row["n"], row["eps"]) for row in rows] == [(n, e) for n in sizes for e in eps]
    # the centered and the raw sign at +e and at -e, at each (n, e)
    limit = _z_limit(4 * len(rows))
    for row in rows:
        detail, n, e = row["detail"], row["n"], row["eps"]
        assert detail["expected_llr_per_obs"] == -0.5 * (e / sigma) ** 2
        direct = stats.norm.cdf(math.sqrt(n) * e / (2.0 * sigma))
        for side, exact in (("lower_plus", 0.5), ("lower_minus", 0.5),
                            ("direct_plus", direct), ("direct_minus", direct)):
            z = _z(detail[side], exact, row["reps"])
            assert abs(z) <= limit, (n, e, side, detail[side], exact, z)


def test_monte_carlo_nondiff_frequencies_of_the_mean_under_standard_normal():
    # M(theta) = sum (x - theta)^2, so M(0) < M(e) exactly when the mean is
    # below e / 2, and M(0) < M(-e) when it is above -e / 2: under the
    # standard normal both have probability Phi(sqrt(n) e / 2)
    sizes, eps = (4, 25), (1.0, 0.5, 0.25, 0.125)
    config = ExperimentConfig.from_dict({
        "experiment": "exact-nondiff-normal", "kind": "nondiff_profile",
        "dgp": {"name": "standard_normal"}, "estimator": {"kind": "lp", "params": {"p": 2.0}},
        "grids": {"n": list(sizes), "eps": list(eps)}, "reps": 4000, "master_seed": 0,
    })
    rows = run_experiment(config).rows
    assert [(row["n"], row["eps"]) for row in rows] == [(n, e) for n in sizes for e in eps]
    limit = _z_limit(2 * len(rows))
    for row in rows:
        n, e = row["n"], row["eps"]
        exact = stats.norm.cdf(math.sqrt(n) * e / 2.0)
        for side in ("p_plus", "p_minus"):
            z = _z(row["detail"][side], exact, row["reps"])
            assert abs(z) <= limit, (n, e, side, row["detail"][side], exact, z)


def _exp_midpoint_p_le(n: int, m: int, c: float) -> float:
    """P((Y_(m) + Y_(m+1)) / 2 <= c) for n iid unit exponentials, m 1-based.

    Given Y_(m) = u, the n - m values above u exceed it by iid unit
    exponentials, so Y_(m+1) - u is exponential with rate n - m: the
    integral over Y_(m+1) is closed, the one over Y_(m) a quadrature.
    """
    log_c = math.lgamma(n + 1) - math.lgamma(m) - math.lgamma(n - m + 1)
    r = n - m

    def over_u(u):
        density = math.exp(log_c - u * (r + 1)) * (-math.expm1(-u)) ** (m - 1)
        return density * -math.expm1(-2.0 * r * (c - u))

    value, _ = integrate.quad(over_u, 0.0, c, epsabs=1e-13, epsrel=1e-12)
    return value


def test_exp_midpoint_quadrature_is_the_gamma_law_at_n_2():
    # (Y_(1) + Y_(2)) / 2 is the mean of two unit exponentials: Gamma(2) / 2
    for c in (0.1, math.log(2.0), 1.0, 3.0):
        assert _exp_midpoint_p_le(2, 1, c) == pytest.approx(stats.gamma.cdf(2.0 * c, 2),
                                                            rel=1e-10)


def test_monte_carlo_p_le_of_even_n_medians():
    # the midpoint of the two middle order statistics: exactly median
    # unbiased under the standard normal by symmetry (these rows take the
    # one-pass draws), one quadrature under exp_centered
    sizes = (4, 10, 16)
    rows = []
    for law in ("standard_normal", "exp_centered"):
        rows += run_experiment(ExperimentConfig.from_dict({
            "experiment": f"exact-even-median-{law}", "kind": "convex_dominance",
            "dgp": {"name": law}, "estimator": {"kind": "abs_dev"},
            "grids": {"n": list(sizes)}, "reps": 20000, "master_seed": 0,
        })).rows
    assert [(row["dgp"], row["n"]) for row in rows] == [
        (law, n) for law in ("standard_normal", "exp_centered") for n in sizes]
    limit = _z_limit(len(rows))
    for row in rows:
        n, theta0 = row["n"], row["detail"]["theta0"]
        if row["dgp"] == "standard_normal":
            exact = 0.5
        else:
            assert theta0 == math.log(2.0) - 1.0  # the population median
            exact = _exp_midpoint_p_le(n, n // 2, theta0 + 1.0)
        z = _z(row["p_le"], exact, row["reps"])
        assert abs(z) <= limit, (row["dgp"], n, row["p_le"], exact, z)
