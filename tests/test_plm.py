"""Tests for the sample-split partial-linear machinery."""

import math
from functools import partial

import numpy as np
import pytest

from medbias import (
    PlmDgp,
    RegressionData,
    corrupted_nuisances,
    fold2_rows,
    fwl_estimate,
    nuisance_error_moments,
    plm_conditional_bias,
    plm_medbias_profile,
    plm_split_fit,
    simulate_plm,
)
from medbias.plm import hermite_pair, linear, sine
from medbias.simlab import make_plm_dgp, rate_for


# The one-replication body as it was before fold 2 was formed alone: the
# dataset built and validated on all n rows, the folds sorted, fold 2 copied
# out as a validated subset, and the nuisances evaluated as truth plus
# perturbation; kept as the bit-for-bit reference of ``plm_split_fit``.

def _oracle_simulate(dgp: PlmDgp, n: int, rng) -> RegressionData:
    x = rng.standard_normal((n, dgp.dim))
    v = dgp.sigma_v * rng.standard_normal(n)
    u = dgp.sigma_u * rng.standard_normal(n)
    t = dgp.m0(x) + v
    y = dgp.theta0 * t + dgp.g0(x) + u
    return RegressionData(y=y, t=t, x=x)


def _oracle_split_indices(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    half = n // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


def _oracle_subset(data: RegressionData, idx) -> RegressionData:
    return RegressionData(y=data.y[..., idx], t=data.t[..., idx], x=data.x[..., idx, :])


def _oracle_fit(truth, fit, x):
    h1 = x[:, 0]
    h2 = (np.square(x[:, 0]) - 1.0) / math.sqrt(2.0)
    return truth(x) + fit.rate * (fit.coeff_1 * h1 + fit.coeff_2 * h2)


def _oracle_theta(dgp: PlmDgp, d2_data: RegressionData, m_hat, g_hat):
    rt = d2_data.t - np.asarray(_oracle_fit(dgp.m0, m_hat, d2_data.x), dtype=float)
    ry = d2_data.y - np.asarray(_oracle_fit(dgp.g0, g_hat, d2_data.x), dtype=float)
    slope = float(rt @ d2_data.t)
    if slope == 0.0:
        raise ValueError("degenerate design: residualized treatment is orthogonal to t")
    level = float(rt @ ry)

    def z_function(theta: float) -> float:
        return level - slope * theta

    return level / slope, z_function


def _oracle_split_fit(dgp: PlmDgp, n: int, data_seed, split_seed, m_hat, g_hat):
    data = _oracle_simulate(dgp, n, np.random.default_rng(data_seed))
    idx1, idx2 = _oracle_split_indices(n, np.random.default_rng(split_seed))
    both = np.concatenate((idx1, idx2))
    assert np.array_equal(np.sort(both), np.arange(n))  # the folds partition range(n)
    theta_hat, z_function = _oracle_theta(dgp, _oracle_subset(data, idx2), m_hat, g_hat)
    return theta_hat, z_function(dgp.theta0)


def _split_fit(dgp: PlmDgp, n: int, data_seed, split_seed, m_hat, g_hat):
    draws = simulate_plm(dgp, n, np.random.default_rng(data_seed))
    return plm_split_fit(dgp, draws, m_hat, g_hat, np.random.default_rng(split_seed))


def _dgp_1d(theta0=1.0, sigma_u=1.0, sigma_v=1.0):
    return PlmDgp(theta0, g0=partial(sine, amplitude=1.0, frequency=1.5),
                  m0=partial(sine, amplitude=0.8, frequency=0.7),
                  sigma_u=sigma_u, sigma_v=sigma_v)


def _normal_pdf(s):
    return math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)


def _dgp_3d(theta0=1.0, sigma_u=1.0, sigma_v=1.0):
    return PlmDgp(theta0, g0=partial(sine, amplitude=1.0, frequency=1.0),
                  m0=partial(linear, weights=np.array([0.5, 0.0, -0.25])),
                  sigma_u=sigma_u, sigma_v=sigma_v, dim=3)


def test_split_fit_matches_oracle_bit_for_bit():
    # the lab's body (draws of all n rows, fold 2 formed alone) gives the
    # bits of the validated full-dataset body, for every process, both rate
    # schedules and two overlaps, at the smallest sizes and the lab's
    processes = [make_plm_dgp("smooth_default"), make_plm_dgp("linear_1d"),
                 make_plm_dgp("smooth_1d", theta0=-0.5),
                 make_plm_dgp("smooth_default", d=5, theta0=2.0, sigma_u=0.5, sigma_v=2.0)]
    for n, seeds in ((2, 200), (3, 200), (250, 100), (4000, 25)):
        for k, dgp in enumerate(processes):
            for schedule, overlap in (("vanishing", 1.0), ("constant", -0.3)):
                m_hat, g_hat = corrupted_nuisances(rate_for(schedule, n)[0], overlap, seed=k)
                for s in range(seeds):
                    expected = _oracle_split_fit(dgp, n, s, 10_000 + s, m_hat, g_hat)
                    got = _split_fit(dgp, n, s, 10_000 + s, m_hat, g_hat)
                    assert got == expected, (n, k, schedule, s)
                    assert all(isinstance(value, float) for value in got)


def test_simulate_noise_free_model_holds_exactly():
    # without noise the treatment is m0(x) exactly, and so is the oracle
    # nuisance fit: the residualised treatment is zero and the fit says so
    silent = _dgp_3d(sigma_u=0.0, sigma_v=0.0)
    m_hat, g_hat = corrupted_nuisances(rate=0.0)
    draws = simulate_plm(silent, 50, np.random.default_rng(1))
    with pytest.raises(ValueError, match="degenerate design"):
        plm_split_fit(silent, draws, m_hat, g_hat, np.random.default_rng(2))
    data = _oracle_simulate(silent, 50, np.random.default_rng(1))
    residual = data.y - silent.theta0 * data.t - silent.g0(data.x)
    assert np.max(np.abs(residual)) <= 1e-14 * (1.0 + np.max(np.abs(data.y)))
    assert np.max(np.abs(data.t - silent.m0(data.x))) == 0.0


def test_simulate_noise_centering():
    x, v, u = simulate_plm(_dgp_3d(), 100_000, np.random.default_rng(2))
    assert x.shape == (100_000, 3) and v.shape == u.shape == (100_000,)
    for noise in (v, u):
        assert abs(noise.mean()) <= 3 * noise.std() / math.sqrt(noise.size)


def test_simulate_reproducible_from_seed():
    dgp = _dgp_3d()
    a = simulate_plm(dgp, 64, np.random.default_rng(123))
    b = simulate_plm(dgp, 64, np.random.default_rng(123))
    assert all(np.array_equal(p, q) for p, q in zip(a, b, strict=True))


def test_linear_plm_reduces_to_partialled_least_squares():
    # linear nuisances make the model a linear design; the pooled partialled
    # fit recovers the treatment coefficient up to sampling noise
    theta0 = 1.2
    dgp = PlmDgp(theta0, g0=partial(linear, weights=np.array([1.0, -0.5])),
                 m0=partial(linear, weights=np.array([0.5, 0.25])), dim=2)
    reps = 800
    estimates = np.empty(reps)
    for r in range(reps):
        data = _oracle_simulate(dgp, 200, np.random.default_rng(10_000 + r))
        estimates[r] = fwl_estimate(data).theta_hat
    se = estimates.std() / math.sqrt(reps)
    assert abs(estimates.mean() - theta0) <= 3 * se


def test_split_indices_partition_and_determinism():
    # fold 2 from the mask is the sorted fold 2 of the permutation, and with
    # the rest of the permutation (fold 1) it partitions range(n)
    for n in (2, 3, 100, 101, 4000):
        for seed in range(20):
            rows = fold2_rows(n, np.random.default_rng(seed))
            idx1, idx2 = _oracle_split_indices(n, np.random.default_rng(seed))
            assert np.array_equal(rows, idx2)
            assert np.array_equal(rows, fold2_rows(n, np.random.default_rng(seed)))
            assert rows.size == n - n // 2 and idx1.size == n // 2
            assert np.all(np.diff(rows) > 0)
            assert len(np.intersect1d(idx1, rows)) == 0
            assert np.array_equal(np.union1d(idx1, rows), np.arange(n))


def test_oracle_nuisances_have_zero_error():
    # rate 0 is exactly the truth
    x, _, _ = simulate_plm(_dgp_1d(), 100, np.random.default_rng(3))
    m_hat, g_hat = corrupted_nuisances(rate=0.0)
    assert not np.any(m_hat.perturbation(*hermite_pair(x)))
    assert not np.any(g_hat.perturbation(*hermite_pair(x)))
    mom = nuisance_error_moments(m_hat, g_hat)
    assert mom.norm_m == pytest.approx(0.0, abs=1e-9)
    assert mom.norm_g == pytest.approx(0.0, abs=1e-9)
    assert mom.inner == pytest.approx(0.0, abs=1e-9)


def test_corrupted_nuisances_have_exact_norms():
    m_hat, g_hat = corrupted_nuisances(rate=0.1, overlap=1.0, seed=9)
    mom = nuisance_error_moments(m_hat, g_hat)
    assert mom.norm_m == 0.1 and mom.norm_g == 0.1
    assert mom.inner == pytest.approx(0.01, abs=1e-15)


def test_corrupted_norms_match_quadrature():
    # the closed-form rate must agree with integrating the realized
    # perturbation against the covariate density
    m_hat, g_hat = corrupted_nuisances(rate=0.3, overlap=0.25, seed=2)
    from scipy import integrate

    def at(fit, s):
        return float(fit.perturbation(*hermite_pair(np.array([[s]])))[0])

    def norm_sq(fit):
        value, _ = integrate.quad(lambda s: at(fit, s) ** 2 * _normal_pdf(s), -12, 12,
                                  limit=200)
        return value

    assert math.sqrt(norm_sq(m_hat)) == pytest.approx(0.3, abs=1e-6)
    assert math.sqrt(norm_sq(g_hat)) == pytest.approx(0.3, abs=1e-6)


def test_conditional_bias_oracle_and_aligned_and_orthogonal():
    d2 = 200

    bias, bound = plm_conditional_bias(*corrupted_nuisances(rate=0.0), d2)
    assert bias == pytest.approx(0.0, abs=1e-9) and bound == pytest.approx(0.0, abs=1e-9)

    bias, bound = plm_conditional_bias(*corrupted_nuisances(rate=0.2, overlap=1.0), d2)
    assert bias == bound  # Cauchy-Schwarz equality for identical directions
    assert bias == pytest.approx(d2 * 0.04, abs=1e-12)

    bias, bound = plm_conditional_bias(*corrupted_nuisances(rate=0.2, overlap=0.0), d2)
    assert bias == 0.0
    assert bound == pytest.approx(d2 * 0.04, abs=1e-12)


def test_orthogonal_corruption_integrates_to_zero():
    # quadrature confirms the stored zero inner product
    m_hat, g_hat = corrupted_nuisances(rate=0.2, overlap=0.0, seed=4)
    from scipy import integrate

    def product(s):
        h1, h2 = hermite_pair(np.array([[s]]))
        return float(m_hat.perturbation(h1, h2)[0] * g_hat.perturbation(h1, h2)[0])

    value, _ = integrate.quad(lambda s: product(s) * _normal_pdf(s), -12, 12, limit=200)
    assert value == pytest.approx(0.0, abs=1e-8)


def test_plm_theta_exact_with_oracle_and_no_response_noise():
    silent = _dgp_3d(sigma_u=0.0)
    m_hat, g_hat = corrupted_nuisances(rate=0.0)
    theta_hat, z_at_theta0 = _split_fit(silent, 160, 12, 13, m_hat, g_hat)
    assert theta_hat == pytest.approx(silent.theta0, abs=1e-12)
    assert abs(z_at_theta0) <= 1e-10


def test_plm_theta_root_matches_grid_search():
    # the estimate is the root of the fold-2 score, found again on a fine grid
    dgp = _dgp_3d()
    m_hat, g_hat = corrupted_nuisances(rate=0.15)
    theta_hat, z_at_theta0 = _split_fit(dgp, 240, 13, 14, m_hat, g_hat)
    data = _oracle_simulate(dgp, 240, np.random.default_rng(13))
    _, idx2 = _oracle_split_indices(240, np.random.default_rng(14))
    _, z = _oracle_theta(dgp, _oracle_subset(data, idx2), m_hat, g_hat)
    assert z(dgp.theta0) == z_at_theta0
    fine = np.linspace(theta_hat - 0.01, theta_hat + 0.01, 20_001)
    fine_vals = np.abs([z(float(g)) for g in fine])
    root = float(fine[np.argmin(fine_vals)])
    assert root == pytest.approx(theta_hat, abs=1e-8)


def test_plm_score_decomposition_four_terms():
    # the split score at the target equals its four-term expansion over the
    # fold-2 rows exactly
    dgp = _dgp_3d()
    m_hat, g_hat = corrupted_nuisances(rate=0.2, overlap=0.3, seed=1)
    _, z_at_theta0 = _split_fit(dgp, 200, 14, 15, m_hat, g_hat)
    data = _oracle_subset(_oracle_simulate(dgp, 200, np.random.default_rng(14)),
                          fold2_rows(200, np.random.default_rng(15)))
    theta0 = dgp.theta0
    r_t_pop = data.t - dgp.m0(data.x)
    r_y_pop = data.y - dgp.g0(data.x)
    dm = m_hat.perturbation(*hermite_pair(data.x))
    dg = g_hat.perturbation(*hermite_pair(data.x))
    expansion = (
        float(r_t_pop @ (r_y_pop - theta0 * data.t))
        - float(r_t_pop @ dg)
        - float(dm @ (r_y_pop - theta0 * data.t))
        + float(dm @ dg)
    )
    assert abs(z_at_theta0 - expansion) <= 1e-10 * (1.0 + abs(z_at_theta0))


def test_plm_conditional_centering_of_mean_zero_terms():
    # conditional on the nuisances, the three noise-bearing expansion terms
    # average to zero over fresh second-fold draws
    dgp = _dgp_3d()
    m_hat, g_hat = corrupted_nuisances(rate=0.2, overlap=1.0, seed=3)
    reps, n2 = 4000, 100
    terms = np.empty((reps, 3))
    for r in range(reps):
        data = _oracle_simulate(dgp, n2, np.random.default_rng(20_000 + r))
        r_t_pop = data.t - dgp.m0(data.x)
        resid0 = (data.y - dgp.g0(data.x)) - dgp.theta0 * data.t
        dm = m_hat.perturbation(*hermite_pair(data.x))
        dg = g_hat.perturbation(*hermite_pair(data.x))
        terms[r] = (float(r_t_pop @ resid0), -float(r_t_pop @ dg), -float(dm @ resid0))
    for j in range(3):
        se = terms[:, j].std() / math.sqrt(reps)
        assert abs(terms[:, j].mean()) <= 3 * se


def test_plm_medbias_bound_cases():
    rng = np.random.default_rng(16)
    z = rng.standard_normal(50_000)
    zero_bias = np.zeros_like(z)
    profile = plm_medbias_profile(z, zero_bias)
    assert profile["bound"] <= 3 * math.sqrt(0.25 / z.size)
    assert profile["p_low"] == float(np.count_nonzero(z <= 0.0)) / z.size
    assert profile["p_high"] == float(np.count_nonzero(z >= 0.0)) / z.size
    huge = np.full_like(z, 1e9)
    assert plm_medbias_profile(z, huge)["bound"] == 0.5
    with pytest.raises(ValueError):
        plm_medbias_profile(z, huge[:-1])


def test_plm_split_fit_end_to_end():
    dgp = _dgp_3d()
    m_hat, g_hat = corrupted_nuisances(rate=0.1, overlap=1.0)
    theta_hat, z_at_theta0 = _split_fit(dgp, 200, 17, 17, m_hat, g_hat)
    assert (theta_hat, z_at_theta0) == _oracle_split_fit(dgp, 200, 17, 17, m_hat, g_hat)
    assert abs(theta_hat - dgp.theta0) < 0.5
    bias, product = plm_conditional_bias(m_hat, g_hat, 100)
    assert bias == pytest.approx(100 * 0.01, abs=1e-12)
    assert product == 100 * (0.1 * 0.1)
    mom = nuisance_error_moments(m_hat, g_hat)
    assert (bias, product) == (100 * mom.inner, 100 * (mom.norm_g * mom.norm_m))
    assert abs(bias) <= product


def test_plm_split_fit_validation():
    # a negative error norm or an overlap outside [-1, 1] is rejected where
    # the nuisance pair is built
    with pytest.raises(ValueError, match="rate must be >= 0"):
        corrupted_nuisances(rate=-0.1)
    with pytest.raises(ValueError, match=r"overlap must be in \[-1, 1\]"):
        corrupted_nuisances(rate=0.1, overlap=1.5)
    # a fold 2 whose residualised treatment vanishes has no root
    dgp = _dgp_1d(sigma_v=0.0)
    m_hat, g_hat = corrupted_nuisances(rate=0.0)
    with pytest.raises(ValueError, match="degenerate design"):
        _split_fit(dgp, 20, 1, 2, m_hat, g_hat)
