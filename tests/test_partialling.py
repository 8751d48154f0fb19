"""Tests for the partialled least-squares reduction and its score pieces."""

import ast
import math
import re
import warnings

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
    slope_sides,
)
from medbias.partialling import (
    _IDENTITY_RTOL,
    _RANK_RTOL,
    DecompositionError,
    PartialledFit,
    ScoreDecomposition,
    _normal_equation_slopes,
    proposition_profile,
)
from medbias import partialling
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
        block = kinds.fit_block_rows(prepared.fit, 60, 4)
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
    # one QR of [x | t | y] per fit, and one inverse of R's (d+1)-square
    # block, whose kappa certifies full rank; no least-squares solve runs,
    # and the values-only SVD of the block runs only when kappa does not
    # certify it
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a), kwargs))
            return real(a, *args, **kwargs)
        return wrapper

    for name in ("qr", "inv", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    rng = np.random.default_rng(8)
    data, _, _ = _random_instance(rng, 80, 6)
    fwl_estimate(data)
    assert calls == [("qr", (1, 80, 8), {"mode": "r"}), ("inv", (1, 7, 7), {})]
    # a stack is one QR and one inverse for all of its rows
    calls.clear()
    stack, _, _ = _stack([_random_instance(rng, 80, 6) for _ in range(5)])
    fwl_estimate(stack)
    assert calls == [("qr", (5, 80, 8), {"mode": "r"}), ("inv", (5, 7, 7), {})]
    # a row 1e-6 from rank deficiency is full rank, but kappa cannot show it:
    # the whole stack runs the SVD
    calls.clear()
    x = stack.x.copy()
    x[3, :, 0] = stack.t[3] + 1e-6 * rng.standard_normal(80)
    fwl_estimate(RegressionData(y=stack.y, t=stack.t, x=x))
    assert calls == [("qr", (5, 80, 8), {"mode": "r"}), ("inv", (5, 7, 7), {}),
                     ("svd", (5, 7, 7), {"compute_uv": False})]


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


def _rank_outcomes(monkeypatch, data: RegressionData):
    """``_check_rank`` of ``data`` and whether it ran the SVD, and the SVD path's
    outcome (kappa never certifies): each an R factor or the error raised."""
    real, svds = np.linalg.svd, []

    def svd(a, *args, **kwargs):
        svds.append(np.shape(a))
        return real(a, *args, **kwargs)

    def outcome():
        try:
            return partialling._check_rank(*partialling._as_stack(data)[:3])
        except CollinearityError as err:
            return err

    monkeypatch.setattr(np.linalg, "svd", svd)
    got = outcome()
    ran_svd = bool(svds)
    with monkeypatch.context() as patched:
        patched.setattr(partialling, "_CERTIFY_RTOL", np.inf)
        return got, ran_svd, outcome()


def _assert_same_rank_outcome(got, reference):
    if isinstance(reference, Exception):
        assert type(got) is type(reference) and str(got) == str(reference)
    else:
        assert np.array_equal(got, reference)


def _conditioned_design(rng, n: int, d: int, ratio: float) -> RegressionData:
    """A sample whose design [x | t] has singular values from 1 down to ``ratio``."""
    u = np.linalg.qr(rng.standard_normal((n, d + 1)))[0]
    v = np.linalg.qr(rng.standard_normal((d + 1, d + 1)))[0]
    design = (u * np.geomspace(1.0, ratio, d + 1)) @ v.T
    return RegressionData(y=rng.standard_normal(n), t=design[:, d], x=design[:, :d])


def test_rank_certificate_decides_as_the_svd(monkeypatch):
    # kappa = ||R11||_F ||R11^-1||_F < 1e4 proves a singular-value ratio far
    # above 1e-10, so a certified stack skips the SVD; every other stack runs
    # it, and gives the SVD path's R, or its error and message
    rng = np.random.default_rng(27)
    for _ in range(40):  # random designs: all certified
        n = int(rng.integers(3, 120))
        d = int(rng.integers(0, min(12, n - 1) + 1))
        rows = int(rng.integers(1, 6))
        data, _, _ = _stack([_random_instance(rng, n, d) for _ in range(rows)])
        got, ran_svd, reference = _rank_outcomes(monkeypatch, data)
        assert not ran_svd
        _assert_same_rank_outcome(got, reference)

    # singular-value ratios across the certificate's 1e-4 and the rank test's
    # 1e-10 lines: below 1e-4 kappa cannot certify, at 1e-11 and below the
    # design is rank deficient
    for ratio in 10.0 ** -np.arange(3.0, 12.5, 0.5):
        for d in (1, 4, 9):
            data = _conditioned_design(rng, 50, d, ratio)
            got, ran_svd, reference = _rank_outcomes(monkeypatch, data)
            _assert_same_rank_outcome(got, reference)
            assert ran_svd or ratio > 1e-4
            assert isinstance(got, CollinearityError) == (ratio < 1e-10) or ratio == 1e-10
            if ratio < 1e-10:
                with pytest.raises(CollinearityError) as oracle:
                    _oracle_check_rank(data)
                assert str(got) == str(oracle.value)

    # an exact zero column (the batched inverse raises), d = 0 with t zero,
    # and a stack with one row kappa does not certify, full rank or not
    base, _, _ = _stack([_random_instance(rng, 30, 3) for _ in range(5)])
    zero_column = base.x.copy()
    zero_column[2, :, 1] = 0.0
    ill, deficient = base.x.copy(), base.x.copy()
    ill[3, :, 0] = base.t[3] + 1e-6 * rng.standard_normal(30)
    deficient[1, :, 2] = base.t[1] + 1e-13 * rng.standard_normal(30)
    zero_t = base.t.copy()
    zero_t[4] = 0.0
    cases = [
        (RegressionData(y=base.y, t=base.t, x=zero_column), r"^row 2: stacked design"),
        (RegressionData(y=base.y[0], t=np.zeros(30), x=np.empty((30, 0))),
         r"^stacked design .* \(every singular value is zero\)"),
        (RegressionData(y=base.y, t=zero_t, x=base.x[..., :0]),
         r"^row 4: stacked design .* \(every singular value is zero\)"),
        (RegressionData(y=base.y, t=base.t, x=base.x[..., :0]), None),
        (RegressionData(y=base.y, t=base.t, x=ill), None),
        (RegressionData(y=base.y, t=base.t, x=deficient), r"^row 1: stacked design"),
    ]
    for data, message in cases:
        got, ran_svd, reference = _rank_outcomes(monkeypatch, data)
        _assert_same_rank_outcome(got, reference)
        if message is None:
            assert not isinstance(got, Exception)
        else:
            assert isinstance(got, CollinearityError) and re.search(message, str(got))
        assert ran_svd == (message is not None or data.x is ill)


def _fit_outcome(data: RegressionData, theta0: float):
    """``sign(theta_hat - theta0)`` of ``fwl_estimate``, or the error it raises."""
    try:
        return np.atleast_1d(np.sign(fwl_estimate(data).theta_hat - theta0))
    except ValueError as err:
        return err


def _assert_sides_are_the_fits(data: RegressionData, theta0: float):
    """``slope_sides`` gives the fit's sides, or raises its error: same class,
    message and row.  Returns the sides, or None when the fit raises."""
    expected = _fit_outcome(data, theta0)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            slope_sides(data, theta0)
        assert str(raised.value) == str(expected)
        assert getattr(raised.value, "row", None) == getattr(expected, "row", None)
        return None
    sides = slope_sides(data, theta0)
    assert np.array_equal(sides.side, expected, equal_nan=True)
    return sides


def test_slope_sides_exact_ties_fall_back_and_count_as_the_fit():
    # y = theta0 t plus a residual orthogonal to [x | t]: the slope is theta0
    # up to rounding, inside every band, so no row is certified and each
    # side is the fit's, zeros included
    rng = np.random.default_rng(21)
    theta0 = 0.5
    for n, d in ((50, 0), (50, 3), (200, 8)):
        x = rng.standard_normal((64, n, d))
        t = rng.standard_normal((64, n))
        design = np.concatenate([x, t[..., None]], axis=-1)
        resid = rng.standard_normal((64, n))
        for k in range(64):
            resid[k] -= design[k] @ np.linalg.lstsq(design[k], resid[k], rcond=None)[0]
        sides = _assert_sides_are_the_fits(RegressionData(y=theta0 * t + resid, t=t, x=x), theta0)
        assert not sides.certified.any()
    # d = 0 with the residual off t's support: the fit's slope is theta0 exactly
    t = np.zeros((8, 30))
    t[:, 0] = 2.0
    y = theta0 * t
    y[:, 1:] = rng.standard_normal((8, 29))
    sides = _assert_sides_are_the_fits(RegressionData(y=y, t=t, x=np.zeros((8, 30, 0))), theta0)
    assert not sides.certified.any() and not sides.side.any()
    # a row with no residual at all, y = theta0 t + x b, falls back alone: the
    # other rows of its block stay certified
    stack, _, _ = _stack([_random_instance(rng, 40, 3, theta0) for _ in range(6)])
    y = stack.y.copy()
    y[3] = theta0 * stack.t[3] + stack.x[3] @ rng.standard_normal(3)
    sides = _assert_sides_are_the_fits(RegressionData(y=y, t=stack.t, x=stack.x), theta0)
    assert sides.certified.tolist() == [k != 3 for k in range(6)]


def test_each_condition_of_the_certificate_binds():
    # three designs the fit handles, each failing one condition of the
    # certificate that the band alone would not catch; the undamaged
    # designs are certified
    rng = np.random.default_rng(24)
    theta0 = 0.5
    rows, n = 6, 400
    x = rng.standard_normal((rows, n, 3))
    t = rng.standard_normal((rows, n))
    y = 10.0 * t + rng.standard_normal((rows, n))  # slopes near 10, far from theta0
    plain = RegressionData(y=y, t=t, x=x)
    assert np.all(np.isfinite(_normal_equation_slopes(y, t, x, theta0)[1]))
    assert _assert_sides_are_the_fits(plain, theta0).certified.all()
    # a condition number above 1e4: one covariate scaled by 1e5
    scaled = x.copy()
    scaled[..., 0] *= 1e5
    # a treatment 10**-2.5 from the first covariate: the orthogonality bound
    near = t.copy()
    near[:] = x[..., 0] + 10.0 ** -2.5 * t
    # squared column norms below 2**-900 that lose no bits yet
    cases = (RegressionData(y=y, t=t, x=scaled), RegressionData(y=10.0 * near + y - 10.0 * t,
                                                               t=near, x=x),
             RegressionData(y=y * 1e-152, t=t * 1e-152, x=x * 1e-152))
    for data in cases:
        assert np.all(np.isinf(_normal_equation_slopes(data.y, data.t, data.x, theta0)[1]))
        assert not _assert_sides_are_the_fits(data, theta0).certified.any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the fit's own overflows
def test_slope_sides_fall_back_on_overflowing_and_underflowing_grams():
    rng = np.random.default_rng(22)
    theta0 = 0.5
    stack, _, _ = _stack([_random_instance(rng, 40, 3, theta0) for _ in range(8)])
    # y near 1e160: y'y overflows, the fit does not
    y = stack.y.copy()
    y[5] *= 1e160
    sides = _assert_sides_are_the_fits(RegressionData(y=y, t=stack.t, x=stack.x), theta0)
    assert sides.certified.tolist() == [k != 5 for k in range(8)]
    # a whole design near 1e160: x'x overflows, and so does the fit's t't,
    # so the fit raises on row 2 and the sides raise its error
    y, t, x = stack.y.copy(), stack.t.copy(), stack.x.copy()
    for a in (y, t, x):
        a[2] *= 1e160
    huge = RegressionData(y=y, t=t, x=x)
    assert re.match(r"^row 2: the residuals' inner products overflow",
                    str(_fit_outcome(huge, theta0)))
    assert _assert_sides_are_the_fits(huge, theta0) is None
    # every column near 1e-160: the Gram's entries lose their bits to underflow
    tiny = RegressionData(y=stack.y * 1e-160, t=stack.t * 1e-160, x=stack.x * 1e-160)
    assert np.all(np.isinf(_normal_equation_slopes(tiny.y, tiny.t, tiny.x, theta0)[1]))
    assert not _assert_sides_are_the_fits(tiny, theta0).certified.any()


def test_slope_sides_raise_the_fits_errors():
    rng = np.random.default_rng(23)
    theta0 = 0.5
    stack, _, _ = _stack([_random_instance(rng, 30, 2, theta0) for _ in range(6)])
    x = stack.x.copy()
    x[4, :, 0] = stack.t[4]  # row 4 is rank deficient
    deficient = RegressionData(y=stack.y, t=stack.t, x=x)
    assert re.match(r"^row 4: stacked design", str(_fit_outcome(deficient, theta0)))
    assert _assert_sides_are_the_fits(deficient, theta0) is None
    # the orthogonality check: two covariates 10**-9.5 apart pass the rank test
    t = rng.standard_normal((3, 60))
    x = rng.standard_normal((3, 60, 2))
    x[1, :, 1] = x[1, :, 0] + 10.0 ** -9.5 * rng.standard_normal(60)
    ill = RegressionData(y=0.3 * t + rng.standard_normal((3, 60)), t=t, x=x)
    assert re.match(r"^row 1: treatment residuals not orthogonal", str(_fit_outcome(ill, theta0)))
    assert _assert_sides_are_the_fits(ill, theta0) is None
    # one sample: a wide design and a zero treatment
    wide = RegressionData(y=rng.standard_normal(10), t=rng.standard_normal(10),
                          x=rng.standard_normal((10, 12)))
    zero = RegressionData(y=rng.standard_normal(10), t=np.zeros(10), x=np.zeros((10, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rank test divides by no zero singular value
        for data, message in ((wide, "10 x 13"),
                              (zero, r"rank deficient \(every singular value is zero\)")):
            assert re.search(message, str(_fit_outcome(data, theta0)))
            assert _assert_sides_are_the_fits(data, theta0) is None


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_fit_raises_on_overflowing_residual_products():
    # every entry is finite but the residuals' inner products overflow into
    # a NaN or an infinite slope: a stack names its row, one sample names no row
    rng = np.random.default_rng(24)
    stack, _, _ = _stack([_random_instance(rng, 40, 3, 0.5) for _ in range(5)])
    y, t, x = stack.y.copy(), stack.t.copy(), stack.x.copy()
    for a in (y, t, x):
        a[3] *= 1e160
    with pytest.raises(ValueError, match=r"^row 3: the residuals' inner products "
                                         r"overflow, so the partialled slope is NaN") as raised:
        fwl_estimate(RegressionData(y=y, t=t, x=x))
    with pytest.raises(ValueError, match=r"^the residuals' inner products overflow"):
        fwl_estimate(RegressionData(y=y[3], t=t[3], x=x[3]))
    # y = 5.7e307 t: t't is finite, t'y overflows, and the slope is +inf
    # although the true one is finite
    t = rng.standard_normal((2, 60))
    x = rng.standard_normal((2, 60, 2))
    y = 0.5 * t
    y[1] = 5.7e307 * t[1]
    with pytest.raises(ValueError, match=r"^row 1: the residuals' inner products "
                                         r"overflow, so the partialled slope is \+inf$"):
        fwl_estimate(RegressionData(y=y, t=t, x=x))


def test_fit_names_an_overflowing_qr_factor():
    # a finite covariate of +-1e308 whose column norm leaves the float range:
    # the rank test names the row before its SVD sees the non-finite factor,
    # alone and as row 1 of a stack, through the fit and through the sides;
    # a 1-row stack of it names no row, as it alone does
    y, t = np.linspace(-1.0, 1.0, 10), np.cos(np.arange(10))
    x = (1e308 * (-1.0) ** np.arange(10))[:, None]
    message = ("a column of the design [t | x] has a norm past the float range, "
               "so its QR factor overflows")
    alone = RegressionData(y=y, t=t, x=x)
    stack = RegressionData(y=np.stack([t, y]), t=np.stack([y, t]), x=np.stack([t[:, None], x]))
    one_row = RegressionData(y=stack.y[1:], t=stack.t[1:], x=stack.x[1:])
    for data, expected in ((alone, message), (stack, f"row 1: {message}"), (one_row, message)):
        for fit in (fwl_estimate, lambda data: slope_sides(data, 0.5)):
            with pytest.raises(ValueError) as raised:
                fit(data)
            assert type(raised.value) is ValueError and str(raised.value) == expected


def _certificate_block(rng, family: str, rows: int, n: int, d: int, theta0: float,
                       span=(1.0, 5.0)):
    """A stack of designs of one ``family``, some of them ill-conditioned."""
    x = rng.standard_normal((rows, n, d))
    t = 0.5 * (x @ rng.standard_normal((rows, d, 1)))[..., 0] + rng.standard_normal((rows, n))
    noise = rng.standard_normal((rows, n))
    if family == "near_tie":
        # theta_hat - theta0 of order 10**-k, k up to 15
        noise *= 10.0 ** -rng.integers(0, 16, (rows, 1))
    y = theta0 * t + (x @ rng.standard_normal((rows, d, 1)))[..., 0] + noise
    if family == "column_scaled":
        # the slope does not change; the design's condition number does,
        # through covariate scales 10**-s to 10**s, s a third of ``span``'s
        # upper end
        x *= 10.0 ** rng.uniform(-span[1] / 3.0, span[1] / 3.0, (rows, 1, d))
        # and a whole design scaled by up to 10**+-100 keeps both
        scale = 10.0 ** rng.uniform(-100.0, 100.0, (rows, 1))
        x, t, y = x * scale[..., None], t * scale, y * scale
    elif family == "collinear" and d:
        # the last covariate is the first plus noise of 10**-e, e in ``span``
        x[..., -1] = x[..., 0] + 10.0 ** -rng.uniform(*span, (rows, 1)) * noise
    elif family == "treatment_near_span" and d:
        t = x[..., 0] + 10.0 ** -rng.uniform(*span, (rows, 1)) * rng.standard_normal((rows, n))
        y = theta0 * t + noise
    return y, t, x


def _fit_rows(data: RegressionData) -> np.ndarray:
    """Each row's fitted slope, NaN on the rows the fit raises on alone."""
    try:
        return fwl_estimate(data).theta_hat
    except CollinearityError:
        if len(data.y) == 1:
            return np.full(1, np.nan)
        half = len(data.y) // 2
        return np.concatenate([_fit_rows(RegressionData(y=data.y[rows], t=data.t[rows],
                                                        x=data.x[rows]))
                               for rows in (slice(None, half), slice(half, None))])


def test_certificate_band_covers_both_slopes_over_many_designs():
    # over 1e5 rows, well and ill conditioned, column-scaled, near ties and
    # near-collinear designs: wherever the certificate's other conditions
    # hold, the normal-equations slope is within a tenth of its band of the
    # fitted one; no row the fit raises on is certified; certified rows have
    # the fit's side; and each stack gives the fit's sides or its error
    rng = np.random.default_rng(2021)
    theta0 = 0.5
    families = ("plain", "near_tie", "column_scaled", "collinear", "treatment_near_span")
    seen = dict.fromkeys(("rows", "certified", "in_band", "raised", "scaled_certified"), 0)
    for block in range(330):
        family = families[block % 5]
        span = ((1.0, 5.0), (5.0, 9.0), (9.0, 17.0))[(block // 5) % 3]
        n, d = (12, 40, 100)[block % 3], (0, 1, 3, 6, 10)[(block // 3) % 5]
        # the designs the fit raises on are fitted one by one: fewer of them
        rows = 20 if span[0] == 9.0 and family not in ("plain", "near_tie") else 400
        data = RegressionData(*_certificate_block(rng, family, rows, n, d, theta0, span))
        theta, band = _normal_equation_slopes(data.y, data.t, data.x, theta0)
        certified = np.abs(theta - theta0) > band
        theta_hat = _fit_rows(data)
        raised = np.isnan(theta_hat)
        assert not np.any(certified & raised)
        sound = np.isfinite(band) & ~raised
        assert np.all(np.abs(theta - theta_hat)[sound] <= 0.1 * band[sound])
        error = _fit_outcome(data, theta0)
        if raised.any():
            with pytest.raises(CollinearityError) as again:
                slope_sides(data, theta0)
            assert str(again.value) == str(error)
        else:
            sides = slope_sides(data, theta0)
            assert np.array_equal(sides.side, error)  # the fit's sides
            assert np.array_equal(sides.certified, certified)
        seen["rows"] += rows
        seen["certified"] += int(certified.sum())
        seen["in_band"] += int(np.sum(np.isfinite(band) & ~certified))
        seen["raised"] += int(raised.sum())
        seen["scaled_certified"] += int(certified.sum()) if family == "column_scaled" else 0
    assert seen["rows"] >= 100_000
    # every outcome occurs, so each assertion has teeth
    assert all(seen.values()), seen


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


def test_proposition_rejects_a_threshold_that_is_not_finite():
    # NaN or inf used to give a row of value 0.5 and no error
    for eta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^eta grid must be finite$"):
            proposition_profile([1.0, -1.0], [0.0, 0.0], [0.5, eta])
    with pytest.raises(ValueError, match="^eta grid must be positive$"):
        proposition_profile([1.0, -1.0], [0.0, 0.0], [math.nan, -math.inf])


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
