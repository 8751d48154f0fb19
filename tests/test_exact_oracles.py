"""Exact finite-n values for the closed-form rows, with and without Monte Carlo.

Under a continuous law with F(theta0) = tau, the count #(x <= theta0) of a
sample of n is Bin(n, tau).  The check-loss score at theta0 is that count
minus n tau, so its sign probabilities are exact binomial sums, and a
single order statistic X_(k) has P(X_(k) <= theta0) = P(Bin(n, tau) >= k)
whatever the law.  The midpoint of two adjacent order statistics, which
the closed form takes when n tau is an integer, is one quadrature under
the uniform law.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from medbias import SignProbabilities, convex_bound, med_bias
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
    score = counts - n * tau  # as CheckLoss.subgradient computes it
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


# Fixed before the first run: a family-wise two-sided level of 1e-3,
# Bonferroni-split over the four rows below.
FAMILY_ALPHA = 1e-3
ROWS = 4
Z_LIMIT = stats.norm.isf(FAMILY_ALPHA / (2 * ROWS))


def _z(row, exact: float) -> float:
    return (row["p_le"] - exact) / math.sqrt(exact * (1.0 - exact) / row["reps"])


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
        z = _z(row, exact)
        assert abs(z) <= Z_LIMIT, (row["experiment"], row["n"], row["p_le"], exact, z)
