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
from medbias.partialling import (
    _IDENTITY_RTOL,
    _RANK_RTOL,
    DecompositionError,
    PartialledFit,
    ScoreDecomposition,
    proposition_profile,
)
from medbias.simlab import kinds, replication_rng, sample_design
from medbias.simlab.dgps import design_params
from medbias.simlab.config import ExperimentConfig, validate_config


# The one-sample fit and decomposition as they were before fits were stacked,
# kept verbatim as the bit-for-bit reference of every row of a stacked fit.

def _oracle_check_rank(data: RegressionData) -> np.ndarray:
    if data.d + 1 > data.n:
        raise CollinearityError(
            f"stacked design [t | x] is {data.n} x {data.d + 1}: more columns than "
            "rows, so it is rank deficient"
        )
    r = np.linalg.qr(np.column_stack([data.x, data.t, data.y]), mode="r")
    block = r[:data.d + 1, :data.d + 1]
    singular = np.linalg.svd(block, compute_uv=False)
    if singular[-1] <= _RANK_RTOL * singular[0]:
        _, _, vt = np.linalg.svd(block)
        direction = np.roll(vt[-1], 1)
        raise CollinearityError(
            "stacked design [t | x] is numerically rank deficient "
            f"(smallest/largest singular value = {singular[-1] / singular[0]:.3e}); "
            f"null direction over (t, x1..xd): {np.round(direction, 6).tolist()}"
        )
    return r


def _oracle_fwl(data: RegressionData) -> PartialledFit:
    r = _oracle_check_rank(data)
    d = data.d
    if d:
        coef = np.linalg.solve(r[:d, :d], r[:d, d:])
        r_t = data.t - data.x @ coef[:, 0]
        r_y = data.y - data.x @ coef[:, 1]
    else:
        r_t, r_y = data.t.copy(), data.y.copy()
    denom = float(r_t @ r_t)
    if denom <= 0.0:
        raise CollinearityError("treatment residuals are identically zero")
    theta_hat = float(r_t @ r_y) / denom

    if d > 0:
        gram = np.abs(data.x.T @ r_t)
        scale = 1.0 + np.linalg.norm(data.x, axis=0) * np.linalg.norm(r_t)
        worst = float(np.max(gram / scale))
        if worst > _IDENTITY_RTOL:
            raise CollinearityError(
                f"treatment residuals not orthogonal to covariates (max {worst:.3e}); "
                "design too ill-conditioned for the partialled solve"
            )
    return PartialledFit(theta_hat=theta_hat, r_t_hat=r_t, r_y_hat=r_y)


def _oracle_decompose(data: RegressionData, fit: PartialledFit, theta0: float,
                      beta_t, beta_y) -> ScoreDecomposition:
    beta_t = np.asarray(beta_t, dtype=float).reshape(data.d)
    beta_y = np.asarray(beta_y, dtype=float).reshape(data.d)
    r_t = data.t - data.x @ beta_t if data.d else data.t.copy()
    r_y = data.y - data.x @ beta_y if data.d else data.y.copy()
    resid0 = r_y - theta0 * r_t

    s_n = float(r_t @ resid0)
    correction = float((fit.r_t_hat - r_t) @ resid0)
    remainder = float(fit.r_t_hat @ ((fit.r_y_hat - r_y) - theta0 * (fit.r_t_hat - r_t)))

    total = float(fit.r_t_hat @ (fit.r_y_hat - theta0 * fit.r_t_hat))
    scale = 1.0 + float(np.sum(np.abs(fit.r_t_hat * (fit.r_y_hat - theta0 * fit.r_t_hat))))
    gap = abs(total - (s_n + correction + remainder))
    if gap > _IDENTITY_RTOL * scale:
        raise DecompositionError(
            f"decomposition identity off by {gap:.3e} (scale {scale:.3e}); "
            "check the numerical rank of the design"
        )
    return ScoreDecomposition(s_n=s_n, correction=correction, remainder=remainder)


# The two design samplers as they were before they drew into block rows, kept
# as the bit-for-bit reference of the filled rows and of the lab's fits.

def _oracle_gaussian_design(rng, n: int, d: int, theta0: float):
    x = rng.standard_normal((n, d))
    v = rng.standard_normal(n)
    u = rng.standard_normal(n)
    t = v
    y = theta0 * t + u
    beta = np.zeros(d)
    return RegressionData(y=y, t=t, x=x), beta, beta


def _oracle_leverage_mix_design(rng, n: int, d: int, theta0: float,
                                rho: float = 0.8, scale_hi: float = 2.0,
                                scale_lo: float = 0.5):
    half = n // 2
    x = rng.standard_normal((n, d))
    x[:half] *= scale_hi
    x[half:] *= scale_lo
    v = rng.standard_normal(n)
    w = rng.standard_normal(n)
    sign = np.ones(n)
    sign[half:] = -1.0
    u = sign * rho * v + math.sqrt(1.0 - rho * rho) * w
    t = v
    y = theta0 * t + u
    beta = np.zeros(d)
    return RegressionData(y=y, t=t, x=x), beta, beta


_ORACLE_DESIGNS = {"gaussian": _oracle_gaussian_design,
                   "leverage_mix": _oracle_leverage_mix_design}


def test_design_rows_match_oracle_bit_for_bit():
    # a block of designs drawn into the rows of preallocated arrays equals,
    # row by row, the draw the sampler used to return from the row's own
    # generator; so does a block of one row
    for design, params in (("gaussian", {}), ("leverage_mix", {}),
                           ("leverage_mix", {"rho": 0.3, "scale_hi": 3.0, "scale_lo": 0.25}),
                           ("leverage_mix", {"rho": 0.0})):
        params = design_params(design, params)
        for n, d, rows in ((1, 0, 3), (7, 0, 4), (31, 3, 5), (100, 5, 6), (1600, 20, 2)):
            for theta0 in (0.5, -1.25):
                y, t, x = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n, d))
                sample_design(design, (np.random.default_rng([n, d, k]) for k in range(rows)),
                              y, t, x, theta0, **params)
                for k in range(rows):
                    data, beta_t, beta_y = _ORACLE_DESIGNS[design](
                        np.random.default_rng([n, d, k]), n, d, theta0, **params)
                    assert np.array_equal(y[k], data.y) and np.array_equal(t[k], data.t)
                    assert np.array_equal(x[k], data.x)
                    assert not np.any(beta_t) and not np.any(beta_y) and beta_t.shape == (d,)
                    one = np.empty((1, n)), np.empty((1, n)), np.empty((1, n, d))
                    sample_design(design, [np.random.default_rng([n, d, k])], *one, theta0,
                                  **params)
                    assert all(np.array_equal(a[0], b)
                               for a, b in zip(one, (data.y, data.t, data.x), strict=True))


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


def _stack(instances):
    """One stacked ``RegressionData`` and its ``(rows, d)`` coefficients from one-sample draws."""
    datas, beta_t, beta_y = zip(*instances)
    stack = RegressionData(y=np.stack([data.y for data in datas]),
                           t=np.stack([data.t for data in datas]),
                           x=np.stack([data.x for data in datas]))
    return stack, np.stack(beta_t), np.stack(beta_y)


def test_regression_data_validation():
    with pytest.raises(ValueError):
        RegressionData(y=np.ones(3), t=np.ones(2), x=np.ones((3, 1)))
    with pytest.raises(ValueError):
        RegressionData(y=np.ones(3), t=np.ones(3), x=np.ones((3,)))
    with pytest.raises(ValueError):
        RegressionData(y=np.array([1.0, np.nan]), t=np.ones(2), x=np.ones((2, 0)))


def test_stacked_regression_data_rejects_non_finite_entries_by_name():
    y, t, x = np.ones((4, 6)), np.ones((4, 6)), np.ones((4, 6, 2))
    x[2, 5, 1] = np.inf
    with pytest.raises(ValueError, match=r"^row 2: x must be finite$"):
        RegressionData(y=y, t=t, x=x)
    t[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"^row 1: t must be finite$"):
        RegressionData(y=y, t=t, x=x)


def test_stacked_regression_data_rejects_mismatched_shapes():
    y, t, x = np.ones((4, 6)), np.ones((4, 6)), np.ones((4, 6, 2))
    for bad in ({"t": np.ones((3, 6))}, {"t": np.ones(6)}, {"x": np.ones((4, 5, 2))},
                {"x": np.ones((4, 6))}, {"x": np.ones((6, 2))},
                {"y": np.ones((0, 6)), "t": np.ones((0, 6)), "x": np.ones((0, 6, 2))}):
        arrays = {"y": y, "t": t, "x": x, **bad}
        with pytest.raises(ValueError, match="shape|1-d|2-d"):
            RegressionData(**arrays)


def _values(fit, dec, row=None):
    """A fit's slope and residuals and its decomposition, of one row of a stack or of one sample."""
    values = [fit.theta_hat, fit.r_t_hat, fit.r_y_hat, *dec]
    return values if row is None else [value[row] for value in values]


def _assert_rows_match_oracle(stack, beta_t, beta_y, theta0):
    fit = fwl_estimate(stack)
    dec = score_decompose(stack, fit, theta0, beta_t, beta_y)
    assert fit.theta_hat.shape == (stack.y.shape[0],) and fit.r_t_hat.shape == stack.t.shape
    for i in range(stack.y.shape[0]):
        sample = RegressionData(y=stack.y[i], t=stack.t[i], x=stack.x[i])
        expected = _oracle_fwl(sample)
        expected = _values(expected, _oracle_decompose(sample, expected, theta0,
                                                       beta_t[i], beta_y[i]))
        one_row = RegressionData(y=stack.y[i:i + 1], t=stack.t[i:i + 1], x=stack.x[i:i + 1])
        single = fwl_estimate(one_row)
        single = _values(single, score_decompose(one_row, single, theta0,
                                                 beta_t[i:i + 1], beta_y[i:i + 1]), 0)
        alone = fwl_estimate(sample)
        alone = _values(alone, score_decompose(sample, alone, theta0, beta_t[i], beta_y[i]))
        assert all(isinstance(value, float) for value in alone[:1] + alone[3:])
        for got in (_values(fit, dec, i), single, alone):
            assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))


def test_stacked_fit_matches_oracle_bit_for_bit():
    # every row of a stacked fit and decomposition has the bits of the
    # one-sample fit on that row, and of a 1-row stack of it
    rng = np.random.default_rng(2024)
    theta0 = 0.7
    for n, d, rows in ((30, 0, 5), (12, 11, 6), (40, 3, 9), (100, 5, 46), (200, 20, 7),
                       (257, 8, 3), (1600, 20, 2)):
        # nonzero coefficients, and both lab designs (zero coefficients)
        _assert_rows_match_oracle(*_stack([_random_instance(rng, n, d, theta0)
                                           for _ in range(rows)]), theta0)
        for design in ("gaussian", "leverage_mix"):
            _assert_rows_match_oracle(*_stack([_ORACLE_DESIGNS[design](rng, n, d, theta0)
                                               for _ in range(rows)]), theta0)

    # a chunk whose replication count is not a multiple of its block rows:
    # the last, short block has the bits of each replication fitted alone
    theta0 = 0.5
    for design in ("gaussian", "leverage_mix"):
        config = ExperimentConfig.from_dict({
            "experiment": "oracle", "kind": "partialled_dominance", "dgp": {"name": design},
            "estimator": {}, "grids": {"n": [60], "d": [4]}, "params": {"theta0": theta0},
            "reps": 200, "master_seed": 3})
        prepared, (point,) = validate_config(config)
        block = kinds._FIT_BLOCK_BYTES // (8 * 60 * 6)
        assert 1 < block < 200 and 200 % block
        arrays = kinds.KINDS[config.kind].run_chunk(config, prepared, point, 0, 200)
        label = f"{kinds.grid_label(config.kind, point)}|data"
        for i in range(200):
            data, beta_t, beta_y = _ORACLE_DESIGNS[design](
                replication_rng(config.master_seed, i, label), 60, 4, theta0)
            fit = _oracle_fwl(data)
            dec = _oracle_decompose(data, fit, theta0, beta_t, beta_y)
            assert np.array_equal(arrays["theta_hat"][i], fit.theta_hat)
            assert np.array_equal(arrays["s_n"][i], dec.s_n)
            assert np.array_equal(arrays["correction"][i], dec.correction)


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
    rng = np.random.default_rng(8)
    data, _, _ = _random_instance(rng, 80, 6)
    fwl_estimate(data)
    assert calls == [("qr", (1, 80, 8), {"mode": "r"}), ("svd", (1, 7, 7), {"compute_uv": False})]
    # a stack is one QR and one SVD for all of its rows
    calls.clear()
    stack, _, _ = _stack([_random_instance(rng, 80, 6) for _ in range(5)])
    fwl_estimate(stack)
    assert calls == [("qr", (5, 80, 8), {"mode": "r"}), ("svd", (5, 7, 7), {"compute_uv": False})]


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


def test_stacked_collinearity_error_names_row_and_direction():
    rng = np.random.default_rng(3)
    stack, _, _ = _stack([_random_instance(rng, 30, 2) for _ in range(4)])
    x = stack.x.copy()
    x[2, :, 0] = stack.t[2]  # row 2's first covariate duplicates its treatment
    with pytest.raises(CollinearityError, match=r"^row 2: stacked design") as err:
        fwl_estimate(RegressionData(y=stack.y, t=stack.t, x=x))
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
