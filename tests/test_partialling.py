"""Tests for the partialled least-squares reduction and its score pieces."""

import ast
import math
import re

import numpy as np
import pytest
from scipy.stats import norm

from medbias import (
    CollinearityError,
    RegressionData,
    default_eta_grid,
    fwl_estimate,
    joint_theta,
    score_decompose,
)
from medbias.partialling import proposition_profile


def _random_instance(rng, n, d, theta0=0.7):
    x = rng.standard_normal((n, d))
    beta_t = rng.standard_normal(d)
    beta_extra = rng.standard_normal(d)
    v = rng.standard_normal(n)
    u = rng.standard_normal(n)
    t = x @ beta_t + v
    y = theta0 * t + x @ beta_extra + u
    beta_y = theta0 * beta_t + beta_extra
    return RegressionData(y=y, t=t, x=x), beta_t, beta_y


def test_regression_data_validation():
    with pytest.raises(ValueError):
        RegressionData(y=np.ones(3), t=np.ones(2), x=np.ones((3, 1)))
    with pytest.raises(ValueError):
        RegressionData(y=np.ones(3), t=np.ones(3), x=np.ones((3,)))
    with pytest.raises(ValueError):
        RegressionData(y=np.array([1.0, np.nan]), t=np.ones(2), x=np.ones((2, 0)))


def test_fwl_no_covariates_is_regression_through_origin():
    t = np.array([1.0, 2.0, -1.0])
    y = np.array([2.0, 3.5, -2.5])
    data = RegressionData(y=y, t=t, x=np.zeros((3, 0)))
    fit = fwl_estimate(data)
    assert fit.theta_hat == pytest.approx(float(t @ y / (t @ t)), abs=1e-14)
    assert np.array_equal(fit.r_t_hat, t) and np.array_equal(fit.r_y_hat, y)


def test_fwl_constant_column_noise_free():
    rng = np.random.default_rng(0)
    t = rng.standard_normal(40)
    t -= t.mean()
    x = np.ones((40, 1))
    y = 2.0 * t + 5.0  # intercept absorbed by the constant column
    fit = fwl_estimate(RegressionData(y=y, t=t, x=x))
    assert fit.theta_hat == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(25))
def test_fwl_matches_joint_solve(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    d = int(rng.integers(0, min(20, n // 3) + 1))
    data, _, _ = _random_instance(rng, n, d)
    fit = fwl_estimate(data)
    joint = joint_theta(data)
    assert abs(fit.theta_hat - joint) <= 1e-8 * max(1.0, abs(joint))


def test_fwl_factorises_once(monkeypatch):
    # one QR of [x | t | y] per fit; the only SVD is of R's (d+1)-square block,
    # values only, and no least-squares solve runs
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a), kwargs))
            return real(a, *args, **kwargs)
        return wrapper

    for name in ("qr", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    data, _, _ = _random_instance(np.random.default_rng(8), 80, 6)
    fwl_estimate(data)
    assert calls == [("qr", (80, 8), {"mode": "r"}), ("svd", (7, 7), {"compute_uv": False})]


def test_fwl_residuals_orthogonal_to_covariates():
    rng = np.random.default_rng(42)
    data, _, _ = _random_instance(rng, 120, 8)
    fit = fwl_estimate(data)
    gram = data.x.T @ fit.r_t_hat
    scale = 1.0 + np.linalg.norm(data.x, axis=0) * np.linalg.norm(fit.r_t_hat)
    assert float(np.max(np.abs(gram) / scale)) <= 1e-8


def test_fwl_collinearity_error_names_direction():
    rng = np.random.default_rng(3)
    t = rng.standard_normal(30)
    x = np.column_stack([t, rng.standard_normal(30)])  # first column duplicates t
    with pytest.raises(CollinearityError) as err:
        fwl_estimate(RegressionData(y=rng.standard_normal(30), t=t, x=x))
    found = re.search(r"null direction over \(t, x1\.\.xd\): (\[.*\])", str(err.value))
    direction = np.array(ast.literal_eval(found.group(1)))
    expected = np.array([0.707107, -0.707107, 0.0])
    assert min(np.max(np.abs(direction - expected)), np.max(np.abs(direction + expected))) <= 1e-6


def test_fwl_rank_threshold():
    # a covariate 1e-13 away from t is below the singular-value ratio 1e-10;
    # one 1e-6 away is ill-conditioned but full rank, and both routes agree
    rng = np.random.default_rng(6)
    n = 50
    t = rng.standard_normal(n)
    z = rng.standard_normal(n)
    w = rng.standard_normal(n)
    y = 0.7 * t + 0.3 * w + rng.standard_normal(n)
    with pytest.raises(CollinearityError, match="null direction"):
        fwl_estimate(RegressionData(y=y, t=t, x=np.column_stack([t + 1e-13 * z, w])))
    data = RegressionData(y=y, t=t, x=np.column_stack([t + 1e-6 * z, w]))
    fit = fwl_estimate(data)
    joint = joint_theta(data)
    assert abs(fit.theta_hat - joint) <= 1e-8 * max(1.0, abs(joint))


def test_wide_design_is_rank_deficient():
    # more columns than rows: the SVD returns only n singular values, all of
    # them nonzero, yet the design has d + 1 - n null directions
    rng = np.random.default_rng(4)
    data = RegressionData(y=rng.standard_normal(10), t=rng.standard_normal(10),
                          x=rng.standard_normal((10, 12)))
    for route in (fwl_estimate, joint_theta):
        with pytest.raises(CollinearityError, match="10 x 13"):
            route(data)
    # n == d + 1 is still full rank and fits
    square = RegressionData(y=data.y, t=data.t, x=data.x[:, :9])
    assert fwl_estimate(square).theta_hat == pytest.approx(joint_theta(square), rel=1e-8)


def test_decompose_exact_identity_random_instances():
    rng = np.random.default_rng(11)
    theta0 = 0.7
    for _ in range(30):
        n = int(rng.integers(30, 100))
        d = int(rng.integers(1, 11))
        data, beta_t, beta_y = _random_instance(rng, n, d, theta0)
        fit = fwl_estimate(data)
        dec = score_decompose(data, fit, theta0, beta_t, beta_y)
        total = float(fit.r_t_hat @ (fit.r_y_hat - theta0 * fit.r_t_hat))
        scale = 1.0 + float(np.sum(np.abs(fit.r_t_hat * (fit.r_y_hat - theta0 * fit.r_t_hat))))
        assert abs(total - (dec.s_n + dec.correction + dec.remainder)) <= 1e-10 * scale
        assert abs(dec.remainder) <= 1e-8 * scale


def test_decompose_noise_orthogonal_to_design_gives_zero_correction():
    # noises projected off the covariates make the fitted coefficients exact,
    # so the treatment residuals are the treatment noise
    rng = np.random.default_rng(5)
    n, d, theta0 = 60, 4, 1.3
    x = rng.standard_normal((n, d))
    proj = x @ np.linalg.solve(x.T @ x, x.T)
    v = rng.standard_normal(n)
    v -= proj @ v
    u = rng.standard_normal(n)
    u -= proj @ u
    beta_t = rng.standard_normal(d)
    beta_extra = rng.standard_normal(d)
    t = x @ beta_t + v
    y = theta0 * t + x @ beta_extra + u
    beta_y = theta0 * beta_t + beta_extra
    data = RegressionData(y=y, t=t, x=x)
    fit = fwl_estimate(data)
    assert np.allclose(fit.r_t_hat, v, atol=1e-10)
    dec = score_decompose(data, fit, theta0, beta_t, beta_y)
    assert dec.correction == pytest.approx(0.0, abs=1e-8)


def test_decompose_without_covariates_has_no_correction():
    rng = np.random.default_rng(9)
    t = rng.standard_normal(50)
    y = 0.7 * t + rng.standard_normal(50)
    data = RegressionData(y=y, t=t, x=np.zeros((50, 0)))
    fit = fwl_estimate(data)
    dec = score_decompose(data, fit, 0.7, np.zeros(0), np.zeros(0))
    assert dec.correction == 0.0
    assert dec.remainder == pytest.approx(0.0, abs=1e-10)


def test_decompose_centering():
    # with the true targets both the score sum and the covariate moment are
    # centered; check the Monte-Carlo means against their standard errors
    rng = np.random.default_rng(77)
    theta0, n, d, reps = 0.7, 100, 5, 2000
    s_vals = np.empty(reps)
    moment = np.empty((reps, d))
    for r in range(reps):
        data, beta_t, beta_y = _random_instance(rng, n, d, theta0)
        fit = fwl_estimate(data)
        dec = score_decompose(data, fit, theta0, beta_t, beta_y)
        s_vals[r] = dec.s_n
        r_t = data.t - data.x @ beta_t
        r_y = data.y - data.x @ beta_y
        moment[r] = data.x.T @ (r_y - theta0 * r_t)
    assert abs(s_vals.mean()) <= 3 * s_vals.std() / math.sqrt(reps)
    for j in range(d):
        assert abs(moment[:, j].mean()) <= 3 * moment[:, j].std() / math.sqrt(reps)


def test_proposition_zero_correction_reduces_to_sign_bound():
    rng = np.random.default_rng(15)
    s = rng.standard_normal(50_000)
    corr = np.zeros_like(s)
    eta = np.array([1e-9])
    value = proposition_profile(s, corr, eta)[0]["value"]
    p_low = float(np.mean(s <= -1e-9))
    p_high = float(np.mean(s >= 1e-9))
    assert value == pytest.approx(max(0.0, 0.5 - min(p_low, p_high)), abs=1e-15)
    assert value <= 3 * math.sqrt(0.25 / s.size)


def test_proposition_gaussian_plug_in_oracle():
    # exact standard normal score, corrections bounded by 0.5: at eta = 0.6
    # the escape term vanishes and the bound is 1/2 - P(S <= -0.6) exactly
    rng = np.random.default_rng(16)
    reps = 200_000
    s = rng.standard_normal(reps)
    corr = rng.uniform(-0.5, 0.5, reps)
    rows = proposition_profile(s, corr, [0.6])
    assert rows[0]["escape"] == 0.0
    exact = 0.5 - float(norm.cdf(-0.6))
    se = math.sqrt(0.25 / reps)
    assert rows[0]["value"] == pytest.approx(exact, abs=3 * se)


def test_proposition_vacuous_when_corrections_huge():
    rng = np.random.default_rng(17)
    s = rng.standard_normal(5000)
    corr = np.full(5000, 1e6)
    grid = default_eta_grid(s)
    assert min(row["value"] for row in proposition_profile(s, corr, grid)) >= 0.5


def test_proposition_validation():
    with pytest.raises(ValueError):
        proposition_profile([], [], [1.0])
    with pytest.raises(ValueError):
        proposition_profile([1.0], [1.0], [])
    with pytest.raises(ValueError):
        proposition_profile([1.0], [1.0], [-0.5])


def test_default_eta_grid_shape():
    rng = np.random.default_rng(18)
    s = 2.5 * rng.standard_normal(1000)
    grid = default_eta_grid(s)
    assert grid.size == 16
    spread = float(np.std(s))
    assert grid[0] == pytest.approx(1e-3 * spread, rel=1e-12)
    assert grid[-1] == pytest.approx(1e3 * spread, rel=1e-12)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])
