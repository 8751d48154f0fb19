"""Tests for the sample-split partial-linear machinery."""

import math

import numpy as np
import pytest

from medbias import (
    CovariateSpec,
    FunctionSpec,
    NoiseSpec,
    PlmDgp,
    PlmSplitFit,
    corrupted_nuisances,
    fwl_estimate,
    nuisance_error_moments,
    plm_medbias_profile,
    plm_split_fit,
    plm_theta,
    simulate_plm,
    split_indices,
)
from medbias.plm import _bias_and_product


def _dgp_1d(theta0=1.0, sigma_u=1.0, sigma_v=1.0):
    return PlmDgp(
        theta0=theta0,
        g0=FunctionSpec("sine", {"amplitude": 1.0, "frequency": 1.5}),
        m0=FunctionSpec("sine", {"amplitude": 0.8, "frequency": 0.7}),
        noise_u=NoiseSpec("normal", {"sigma": sigma_u}),
        noise_v=NoiseSpec("normal", {"sigma": sigma_v}),
        x_law=CovariateSpec(dim=1),
    )


def _normal_pdf(s):
    return math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)


def _dgp_3d(theta0=1.0):
    return PlmDgp(
        theta0=theta0,
        g0=FunctionSpec("sine", {"amplitude": 1.0, "frequency": 1.0}),
        m0=FunctionSpec("linear", {"weights": [0.5, 0.0, -0.25]}),
        noise_u=NoiseSpec("normal", {"sigma": 1.0}),
        noise_v=NoiseSpec("normal", {"sigma": 1.0}),
        x_law=CovariateSpec(dim=3),
    )


def test_simulate_noise_free_model_holds_exactly():
    dgp = _dgp_3d()
    silent = PlmDgp(
        theta0=dgp.theta0, g0=dgp.g0, m0=dgp.m0,
        noise_u=NoiseSpec("normal", {"sigma": 0.0}),
        noise_v=NoiseSpec("normal", {"sigma": 0.0}),
        x_law=dgp.x_law,
    )
    data = simulate_plm(silent, 50, seed=1)
    residual = data.y - dgp.theta0 * data.t - dgp.g0(data.x)
    # zero up to reconstruction roundoff: y is assembled from the same pieces
    assert np.max(np.abs(residual)) <= 1e-14 * (1.0 + np.max(np.abs(data.y)))
    assert np.max(np.abs(data.t - dgp.m0(data.x))) == 0.0


def test_simulate_noise_centering():
    dgp = _dgp_3d()
    rng = np.random.default_rng(2)
    v = dgp.noise_v.sample(rng, 100_000)
    assert abs(v.mean()) <= 3 * v.std() / math.sqrt(v.size)


def test_simulate_reproducible_from_seed():
    dgp = _dgp_3d()
    a = simulate_plm(dgp, 64, seed=123)
    b = simulate_plm(dgp, 64, seed=123)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)


def test_linear_plm_reduces_to_partialled_least_squares():
    # linear nuisances make the model a linear design; the pooled partialled
    # fit recovers the treatment coefficient up to sampling noise
    theta0 = 1.2
    dgp = PlmDgp(
        theta0=theta0,
        g0=FunctionSpec("linear", {"weights": [1.0, -0.5]}),
        m0=FunctionSpec("linear", {"weights": [0.5, 0.25]}),
        noise_u=NoiseSpec("normal", {"sigma": 1.0}),
        noise_v=NoiseSpec("normal", {"sigma": 1.0}),
        x_law=CovariateSpec(dim=2),
    )
    reps = 800
    estimates = np.empty(reps)
    for r in range(reps):
        data = simulate_plm(dgp, 200, seed=10_000 + r)
        estimates[r] = fwl_estimate(data).theta_hat
    se = estimates.std() / math.sqrt(reps)
    assert abs(estimates.mean() - theta0) <= 3 * se


def test_split_indices_partition_and_determinism():
    idx1, idx2 = split_indices(101, seed=5)
    again1, again2 = split_indices(101, seed=5)
    assert np.array_equal(idx1, again1) and np.array_equal(idx2, again2)
    assert len(np.intersect1d(idx1, idx2)) == 0
    assert np.array_equal(np.union1d(idx1, idx2), np.arange(101))
    assert idx1.size == 50 and idx2.size == 51


def test_oracle_nuisances_have_zero_error():
    # rate 0 is exactly the truth
    dgp = _dgp_1d()
    data = simulate_plm(dgp, 100, seed=3)
    m_hat, g_hat = corrupted_nuisances(dgp, rate=0.0)
    assert np.array_equal(m_hat(data.x), dgp.m0(data.x))
    assert np.array_equal(g_hat(data.x), dgp.g0(data.x))
    mom = nuisance_error_moments(m_hat, g_hat)
    assert mom.norm_m == pytest.approx(0.0, abs=1e-9)
    assert mom.norm_g == pytest.approx(0.0, abs=1e-9)
    assert mom.inner == pytest.approx(0.0, abs=1e-9)


def test_corrupted_nuisances_have_exact_norms():
    dgp = _dgp_3d()
    m_hat, g_hat = corrupted_nuisances(dgp, rate=0.1, overlap=1.0, seed=9)
    mom = nuisance_error_moments(m_hat, g_hat)
    assert mom.norm_m == 0.1 and mom.norm_g == 0.1
    assert mom.inner == pytest.approx(0.01, abs=1e-15)


def test_corrupted_norms_match_quadrature():
    # the closed-form rate must agree with integrating the realized
    # perturbation against the covariate density
    dgp = _dgp_1d()
    m_hat, g_hat = corrupted_nuisances(dgp, rate=0.3, overlap=0.25, seed=2)
    from scipy import integrate

    def norm_sq(fit):
        value, _ = integrate.quad(
            lambda s: float(fit.perturbation(np.array([[s]]))[0] ** 2 * _normal_pdf(s)),
            -12, 12, limit=200,
        )
        return value

    assert math.sqrt(norm_sq(m_hat)) == pytest.approx(0.3, abs=1e-6)
    assert math.sqrt(norm_sq(g_hat)) == pytest.approx(0.3, abs=1e-6)


def test_conditional_bias_oracle_and_aligned_and_orthogonal():
    dgp = _dgp_3d()
    d2 = 200

    def conditional_bias(m_hat, g_hat):
        return _bias_and_product(nuisance_error_moments(m_hat, g_hat), d2)

    bias, bound = conditional_bias(*corrupted_nuisances(dgp, rate=0.0))
    assert bias == pytest.approx(0.0, abs=1e-9) and bound == pytest.approx(0.0, abs=1e-9)

    bias, bound = conditional_bias(*corrupted_nuisances(dgp, rate=0.2, overlap=1.0))
    assert bias == bound  # Cauchy-Schwarz equality for identical directions
    assert bias == pytest.approx(d2 * 0.04, abs=1e-12)

    bias, bound = conditional_bias(*corrupted_nuisances(dgp, rate=0.2, overlap=0.0))
    assert bias == 0.0
    assert bound == pytest.approx(d2 * 0.04, abs=1e-12)


def test_orthogonal_corruption_integrates_to_zero():
    # quadrature confirms the stored zero inner product
    dgp = _dgp_1d()
    m_hat, g_hat = corrupted_nuisances(dgp, rate=0.2, overlap=0.0, seed=4)
    from scipy import integrate
    value, _ = integrate.quad(
        lambda s: float(m_hat.perturbation(np.array([[s]]))[0]
                        * g_hat.perturbation(np.array([[s]]))[0]
                        * _normal_pdf(s)),
        -12, 12, limit=200,
    )
    assert value == pytest.approx(0.0, abs=1e-8)


def test_plm_theta_exact_with_oracle_and_no_response_noise():
    dgp = _dgp_3d()
    silent = PlmDgp(
        theta0=dgp.theta0, g0=dgp.g0, m0=dgp.m0,
        noise_u=NoiseSpec("normal", {"sigma": 0.0}),
        noise_v=dgp.noise_v,
        x_law=dgp.x_law,
    )
    data = simulate_plm(silent, 80, seed=12)
    m_hat, g_hat = corrupted_nuisances(silent, rate=0.0)
    theta_hat, z = plm_theta(data, m_hat, g_hat)
    assert theta_hat == pytest.approx(dgp.theta0, abs=1e-12)
    assert abs(z(theta_hat)) <= 1e-10 * (1.0 + abs(z(0.0)))


def test_plm_theta_root_matches_grid_search():
    dgp = _dgp_3d()
    data = simulate_plm(dgp, 120, seed=13)
    m_hat, g_hat = corrupted_nuisances(dgp, rate=0.15)
    theta_hat, z = plm_theta(data, m_hat, g_hat)
    fine = np.linspace(theta_hat - 0.01, theta_hat + 0.01, 20_001)
    fine_vals = np.abs([z(float(g)) for g in fine])
    root = float(fine[np.argmin(fine_vals)])
    assert root == pytest.approx(theta_hat, abs=1e-8)


def test_plm_score_decomposition_four_terms():
    # the split score at the target equals its four-term expansion exactly
    dgp = _dgp_3d()
    data = simulate_plm(dgp, 100, seed=14)
    m_hat, g_hat = corrupted_nuisances(dgp, rate=0.2, overlap=0.3, seed=1)
    theta0 = dgp.theta0
    r_t_pop = data.t - dgp.m0(data.x)
    r_y_pop = data.y - dgp.g0(data.x)
    dm = np.asarray(m_hat(data.x)) - dgp.m0(data.x)
    dg = np.asarray(g_hat(data.x)) - dgp.g0(data.x)
    _, z = plm_theta(data, m_hat, g_hat)
    expansion = (
        float(r_t_pop @ (r_y_pop - theta0 * data.t))
        - float(r_t_pop @ dg)
        - float(dm @ (r_y_pop - theta0 * data.t))
        + float(dm @ dg)
    )
    scale = 1.0 + abs(z(theta0))
    assert abs(z(theta0) - expansion) <= 1e-10 * scale


def test_plm_conditional_centering_of_mean_zero_terms():
    # conditional on the nuisances, the three noise-bearing expansion terms
    # average to zero over fresh second-fold draws
    dgp = _dgp_3d()
    m_hat, g_hat = corrupted_nuisances(dgp, rate=0.2, overlap=1.0, seed=3)
    reps, n2 = 4000, 100
    terms = np.empty((reps, 3))
    for r in range(reps):
        data = simulate_plm(dgp, n2, seed=20_000 + r)
        r_t_pop = data.t - dgp.m0(data.x)
        resid0 = (data.y - dgp.g0(data.x)) - dgp.theta0 * data.t
        dm = np.asarray(m_hat(data.x)) - dgp.m0(data.x)
        dg = np.asarray(g_hat(data.x)) - dgp.g0(data.x)
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
    data = simulate_plm(dgp, 200, seed=17)
    m_hat, g_hat = corrupted_nuisances(dgp, rate=0.1, overlap=1.0)
    fit = plm_split_fit(dgp, data, m_hat, g_hat, split_seed=17)
    assert fit.d1_indices.size == 100 and fit.d2_indices.size == 100
    assert fit.cond_bias == pytest.approx(100 * 0.01, abs=1e-12)
    assert fit.product_bound == 100 * (0.1 * 0.1)
    mom = nuisance_error_moments(m_hat, g_hat)
    bias, product = _bias_and_product(mom, fit.d2_indices.size)
    assert (fit.cond_bias, fit.product_bound) == (bias, product)
    assert abs(fit.cond_bias) <= product


def test_plm_split_fit_validation():
    with pytest.raises(ValueError):
        PlmSplitFit(
            d1_indices=np.array([0, 1]), d2_indices=np.array([1, 2]),
            theta_hat=0.0, z_at_theta0=0.0, cond_bias=0.0, product_bound=0.0,
        )
    # a negative error norm is rejected where the nuisance pair is built
    with pytest.raises(ValueError, match="rate must be >= 0"):
        corrupted_nuisances(_dgp_1d(), rate=-0.1)
