"""Least-squares partialling of covariates out of a treatment coefficient.

The joint least-squares problem in (treatment coefficient, covariate
coefficients) reduces to a univariate convex problem by regressing the
covariates out of both the response and the treatment; the score of that
reduced problem at the target decomposes into a centered sum plus a
nuisance-estimation cross term, which is what the corresponding median-bias
bound controls through a threshold on the cross term.

A partialled fit factorises ``[x | t | y]`` once, by QR.  The leading
(d+1)-square block of the R factor has the singular values of ``[x | t]``,
so the rank test runs on that block; the covariate coefficients of t and y
solve one system in ``R[:d, :d]``, and the residuals are t and y minus x
times them.  ``joint_theta``, the companion solve on ``[t | x]`` kept as a
reference, shares only the rank test.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import med_bias

_RANK_RTOL = 1e-10
_IDENTITY_RTOL = 1e-8


class CollinearityError(ValueError):
    """The stacked design [t | x] is numerically rank deficient."""


class DecompositionError(RuntimeError):
    """The score decomposition identity failed beyond numerical tolerance."""


@dataclass(frozen=True)
class RegressionData:
    """Response, treatment, and an n-by-d covariate matrix (d may be zero)."""

    y: np.ndarray
    t: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 1 or t.ndim != 1:
            raise ValueError("y and t must be 1-d")
        if x.ndim != 2:
            raise ValueError("x must be 2-d (n rows, d columns; d may be 0)")
        n = y.size
        if t.size != n or x.shape[0] != n or n == 0:
            raise ValueError("y, t, x must share a positive number of rows")
        for name, a in (("y", y), ("t", t), ("x", x)):
            if a.size and not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, indices) -> "RegressionData":
        idx = np.asarray(indices)
        return RegressionData(y=self.y[idx], t=self.t[idx], x=self.x[idx])


@dataclass(frozen=True)
class PartialledFit:
    """Partialled least-squares fit: slope and both residual vectors."""

    theta_hat: float
    r_t_hat: np.ndarray
    r_y_hat: np.ndarray


class ScoreDecomposition(NamedTuple):
    s_n: float
    correction: float
    remainder: float


def _check_rank(data: RegressionData) -> np.ndarray:
    """R factor of ``[x | t | y]``, once the design ``[t | x]`` has full column rank.

    The leading (d+1)-square block of R has the singular values of ``[x | t]``,
    so the ratio test runs on that small block instead of the n-row design.
    """
    if data.d + 1 > data.n:
        # R of a wide matrix has only n rows, so the ratio test below
        # cannot see the d + 1 - n null directions
        raise CollinearityError(
            f"stacked design [t | x] is {data.n} x {data.d + 1}: more columns than "
            "rows, so it is rank deficient"
        )
    r = np.linalg.qr(np.column_stack([data.x, data.t, data.y]), mode="r")
    block = r[:data.d + 1, :data.d + 1]
    singular = np.linalg.svd(block, compute_uv=False)
    if singular[-1] <= _RANK_RTOL * singular[0]:
        _, _, vt = np.linalg.svd(block)
        # the block's columns are (x1..xd, t); move t to the front
        direction = np.roll(vt[-1], 1)
        raise CollinearityError(
            "stacked design [t | x] is numerically rank deficient "
            f"(smallest/largest singular value = {singular[-1] / singular[0]:.3e}); "
            f"null direction over (t, x1..xd): {np.round(direction, 6).tolist()}"
        )
    return r


def fwl_estimate(data: RegressionData) -> PartialledFit:
    """Partialled least-squares estimate of the treatment coefficient.

    Regresses the covariates out of both the treatment and the response and
    fits the residual-on-residual slope.  One QR factorisation of
    ``[x | t | y]`` serves the whole fit: the rank test runs on the leading
    (d+1)-square block of R, one solve with ``R[:d, :d]`` gives the covariate
    coefficients of t and y together, and the residuals are t and y minus x
    times those coefficients.  Identical to the treatment coordinate of the
    joint least-squares solve whenever the stacked design has full column
    rank; rank deficiency raises ``CollinearityError`` naming the offending
    direction.
    """
    r = _check_rank(data)
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
        # normal equations: residuals orthogonal to every covariate column
        gram = np.abs(data.x.T @ r_t)
        scale = 1.0 + np.linalg.norm(data.x, axis=0) * np.linalg.norm(r_t)
        worst = float(np.max(gram / scale))
        if worst > _IDENTITY_RTOL:
            raise CollinearityError(
                f"treatment residuals not orthogonal to covariates (max {worst:.3e}); "
                "design too ill-conditioned for the partialled solve"
            )
    return PartialledFit(theta_hat=theta_hat, r_t_hat=r_t, r_y_hat=r_y)


def joint_theta(data: RegressionData) -> float:
    """Treatment coordinate of the joint least-squares solve on [t | x].

    The companion route to ``fwl_estimate``; the two must agree on every
    full-rank design.
    """
    _check_rank(data)
    stacked = np.column_stack([data.t, data.x])
    coef, *_ = np.linalg.lstsq(stacked, data.y, rcond=None)
    return float(coef[0])


def score_decompose(data: RegressionData, fit: PartialledFit, theta0: float,
                    beta_t, beta_y) -> ScoreDecomposition:
    """Split the partialled score at the target into its three pieces.

    With population residuals R_t = t - x beta_t and R_y = y - x beta_y:

    * ``s_n``         -- sum of R_t (R_y - theta0 R_t), centered under the targets;
    * ``correction``  -- the nuisance-estimation cross term
                         sum of (r_t_hat - R_t)(R_y - theta0 R_t);
    * ``remainder``   -- the residual-vs-fitted cross sum, identically zero by
                         the normal equations.

    The identity  score_at_target = s_n + correction + remainder  holds
    exactly; a violation beyond tolerance raises ``DecompositionError``.
    """
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


def default_eta_grid(s_n_draws, num: int = 16) -> np.ndarray:
    """Geometric threshold grid spanning [1e-3, 1e3] times the score spread."""
    s = np.asarray(s_n_draws, dtype=float)
    spread = float(np.std(s))
    if spread <= 0.0:
        spread = 1.0
    return spread * np.geomspace(1e-3, 1e3, num)


def proposition_profile(s_n_draws, correction_draws, eta_grid):
    """Per-threshold values of the partialled median-bias bound.

    For each eta: the sign-probability cap from {S_n <= -eta} / {S_n >= eta}
    plus the probability the cross term escapes the threshold.
    """
    s = np.asarray(s_n_draws, dtype=float)
    c = np.asarray(correction_draws, dtype=float)
    if s.size == 0 or s.shape != c.shape:
        raise ValueError("need equal-length non-empty draw sequences")
    etas = np.asarray(eta_grid, dtype=float)
    if etas.size == 0:
        raise ValueError("eta grid must be non-empty")
    if np.any(etas <= 0.0):
        raise ValueError("eta grid must be positive")
    reps = s.size
    rows = []
    for eta in etas:
        p_low = float(np.count_nonzero(s <= -eta)) / reps
        p_high = float(np.count_nonzero(s >= eta)) / reps
        escape = float(np.count_nonzero(np.abs(c) > eta)) / reps
        rows.append({
            "eta": float(eta),
            "p_low": p_low,
            "p_high": p_high,
            "escape": escape,
            "value": med_bias(p_low, p_high) + escape,
        })
    return rows
