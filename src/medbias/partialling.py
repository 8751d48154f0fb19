"""Least-squares partialling of covariates out of a treatment coefficient.

The joint least-squares problem in (treatment coefficient, covariate
coefficients) reduces to a univariate convex problem by regressing the
covariates out of both the response and the treatment; the score of that
reduced problem at the target decomposes into a centered sum plus a
nuisance-estimation cross term, which is what the corresponding median-bias
bound controls through a threshold on the cross term.

There is one fit, over a stack of samples; one sample is a 1-row stack.
A stack of ``rows`` samples holds ``y`` and ``t`` as ``(rows, n)`` and ``x``
as ``(rows, n, d)``.  The fit factorises each row's ``[x | t | y]`` by one
stacked QR.  The leading (d+1)-square block of each R factor has the
singular values of ``[x | t]``, so the rank test is one values-only SVD of
those blocks; the covariate coefficients of t and y come from one batched
solve in ``R[:d, :d]``, and the residuals are t and y minus x times them.
Each row gives the bits its sample alone gives: the stacked QR, SVD and
solve and ``np.vecdot`` equal their 2-d and 1-d calls, and so do fitted
values taken as one ``(rows, n, d) @ (rows, d, 1)`` matmul per coefficient
column (one ``(rows, n, d) @ (rows, d, 2)`` matmul for both columns does
not).  The experiment lab fits a chunk of replications in blocks of at most
256 KiB of stack, which keeps a block in cache; a design too large for one
row in that budget runs 1-row blocks.  An error on a stack names its row.
``joint_theta``, the companion solve on ``[t | x]`` kept as a reference,
shares only the rank test.
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
    """Response, treatment and covariates of one sample, or of a stack of samples.

    One sample: ``y`` and ``t`` of shape ``(n,)``, ``x`` of shape ``(n, d)``
    (d may be zero).  A stack of samples adds a leading row axis: ``y`` and
    ``t`` of shape ``(rows, n)``, ``x`` of shape ``(rows, n, d)``.
    """

    y: np.ndarray
    t: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        stacked = y.ndim == 2
        if not stacked:
            if y.ndim != 1 or t.ndim != 1:
                raise ValueError("y and t must be 1-d")
            if x.ndim != 2:
                raise ValueError("x must be 2-d (n rows, d columns; d may be 0)")
            if t.size != y.size or x.shape[0] != y.size or y.size == 0:
                raise ValueError("y, t, x must share a positive number of rows")
        elif t.shape != y.shape or x.shape[:-1] != y.shape or x.ndim != 3 or y.size == 0:
            raise ValueError(
                "a stack needs y and t of one shape (rows, n) and x of shape (rows, n, d), "
                f"with rows and n positive; got {y.shape}, {t.shape} and {x.shape}")
        for name, a in (("y", y), ("t", t), ("x", x)):
            if a.size and not np.all(np.isfinite(a)):
                if not stacked:
                    raise ValueError(f"{name} must be finite")
                row = np.flatnonzero(~np.isfinite(a).reshape(a.shape[0], -1).all(axis=1))[0]
                raise ValueError(f"row {row}: {name} must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def d(self) -> int:
        return self.x.shape[-1]


@dataclass(frozen=True)
class PartialledFit:
    """Partialled least-squares fit: slope and both residual vectors.

    A float slope and 1-d residuals for one sample; a ``(rows,)`` slope and
    ``(rows, n)`` residuals for a stack.
    """

    theta_hat: float | np.ndarray
    r_t_hat: np.ndarray
    r_y_hat: np.ndarray


class ScoreDecomposition(NamedTuple):
    s_n: float | np.ndarray
    correction: float | np.ndarray
    remainder: float | np.ndarray


def _as_stack(data: RegressionData):
    """``(y, t, x)`` with a leading row axis, and whether ``data`` was a stack."""
    if data.y.ndim == 2:
        return data.y, data.t, data.x, True
    return data.y[np.newaxis], data.t[np.newaxis], data.x[np.newaxis], False


def _first_bad(cls, failed, stacked: bool, message):
    """``cls`` for the first row flagged in ``failed``, its message from ``message(row)``.

    A stack's message names the row; one sample's does not.
    """
    row = int(np.flatnonzero(failed)[0])
    return cls(f"row {row}: {message(row)}" if stacked else message(row))


def _check_rank(y, t, x, stacked: bool) -> np.ndarray:
    """R factors of each row's ``[x | t | y]``, once every design ``[t | x]`` has full column rank.

    The leading (d+1)-square block of R has the singular values of ``[x | t]``,
    so the ratio test runs on that small block instead of the n-row design.
    """
    _, n, d = x.shape
    if d + 1 > n:
        # R of a wide matrix has only n rows, so the ratio test below
        # cannot see the d + 1 - n null directions
        raise CollinearityError(
            f"stacked design [t | x] is {n} x {d + 1}: more columns than "
            "rows, so it is rank deficient"
        )
    r = np.linalg.qr(np.concatenate([x, t[..., None], y[..., None]], axis=-1), mode="r")
    block = r[:, :d + 1, :d + 1]
    singular = np.linalg.svd(block, compute_uv=False)
    deficient = singular[:, -1] <= _RANK_RTOL * singular[:, 0]
    if deficient.any():
        def message(row):
            _, _, vt = np.linalg.svd(block[row])
            # the block's columns are (x1..xd, t); move t to the front
            direction = np.roll(vt[-1], 1)
            ratio = singular[row, -1] / singular[row, 0]
            return ("stacked design [t | x] is numerically rank deficient "
                    f"(smallest/largest singular value = {ratio:.3e}); "
                    f"null direction over (t, x1..xd): {np.round(direction, 6).tolist()}")
        raise _first_bad(CollinearityError, deficient, stacked, message)
    return r


def fwl_estimate(data: RegressionData) -> PartialledFit:
    """Partialled least-squares estimate of the treatment coefficient, row by row.

    Regresses the covariates out of both the treatment and the response and
    fits the residual-on-residual slope.  One stacked QR factorisation of
    each row's ``[x | t | y]`` serves the whole fit: the rank test runs on
    the leading (d+1)-square blocks of R, one batched solve with
    ``R[:d, :d]`` gives the covariate coefficients of t and y together, and
    the residuals are t and y minus x times those coefficients, one
    ``(rows, n, d) @ (rows, d, 1)`` matmul per coefficient column.  One
    sample is a 1-row stack and gives a float slope with 1-d residuals; a
    stack gives each row the bits that row alone gives.  Identical to the
    treatment coordinate of the joint least-squares solve whenever the
    stacked design has full column rank; rank deficiency raises
    ``CollinearityError`` naming the offending direction, and its row on a
    stack.
    """
    y, t, x, stacked = _as_stack(data)
    r = _check_rank(y, t, x, stacked)
    d = data.d
    if d:
        coef = np.linalg.solve(r[:, :d, :d], r[:, :d, d:])
        r_t = t - (x @ coef[:, :, :1])[..., 0]
        r_y = y - (x @ coef[:, :, 1:])[..., 0]
    else:
        r_t, r_y = t.copy(), y.copy()
    denom = np.vecdot(r_t, r_t)
    if np.any(denom <= 0.0):
        raise _first_bad(CollinearityError, denom <= 0.0, stacked,
                         lambda row: "treatment residuals are identically zero")
    theta_hat = np.vecdot(r_t, r_y) / denom

    if d > 0:
        # normal equations: residuals orthogonal to every covariate column,
        # whose norms are those of R's columns, ||x_j|| = ||R[:j+1, j]||
        gram = np.abs(r_t[:, None, :] @ x)[:, 0]
        scale = 1.0 + np.linalg.norm(r[:, :d, :d], axis=1) * np.sqrt(denom)[:, None]
        worst = np.max(gram / scale, axis=1)
        if np.any(worst > _IDENTITY_RTOL):
            raise _first_bad(
                CollinearityError, worst > _IDENTITY_RTOL, stacked,
                lambda row: f"treatment residuals not orthogonal to covariates "
                            f"(max {worst[row]:.3e}); design too ill-conditioned for the "
                            "partialled solve")
    if stacked:
        return PartialledFit(theta_hat=theta_hat, r_t_hat=r_t, r_y_hat=r_y)
    return PartialledFit(theta_hat=float(theta_hat[0]), r_t_hat=r_t[0], r_y_hat=r_y[0])


def joint_theta(data: RegressionData) -> float:
    """Treatment coordinate of the joint least-squares solve on [t | x], for one sample.

    The companion route to ``fwl_estimate``; the two must agree on every
    full-rank design.
    """
    if data.y.ndim != 1:
        raise ValueError("joint_theta fits one sample, not a stack")
    _check_rank(*_as_stack(data))
    design = np.column_stack([data.t, data.x])
    coef, *_ = np.linalg.lstsq(design, data.y, rcond=None)
    return float(coef[0])


def score_decompose(data: RegressionData, fit: PartialledFit, theta0: float,
                    beta_t, beta_y) -> ScoreDecomposition:
    """Split the partialled score at the target into its three pieces, row by row.

    With population residuals R_t = t - x beta_t and R_y = y - x beta_y:

    * ``s_n``         -- sum of R_t (R_y - theta0 R_t), centered under the targets;
    * ``correction``  -- the nuisance-estimation cross term
                         sum of (r_t_hat - R_t)(R_y - theta0 R_t);
    * ``remainder``   -- the residual-vs-fitted cross sum, identically zero by
                         the normal equations.

    The identity  score_at_target = s_n + correction + remainder  holds
    exactly; a violation beyond tolerance raises ``DecompositionError``,
    naming the row on a stack.  One sample takes coefficients of shape
    ``(d,)`` and gives floats; a stack takes ``(rows, d)`` coefficients and
    ``fwl_estimate``'s fit of the same stack, and gives ``(rows,)`` arrays
    with each row's own bits: x times a coefficient is one
    ``(rows, n, d) @ (rows, d, 1)`` matmul.
    """
    y, t, x, stacked = _as_stack(data)
    rows, _, d = x.shape
    beta_t = np.asarray(beta_t, dtype=float).reshape(rows, d, 1)
    beta_y = np.asarray(beta_y, dtype=float).reshape(rows, d, 1)
    r_t = t - (x @ beta_t)[..., 0] if d else t
    r_y = y - (x @ beta_y)[..., 0] if d else y
    r_t_hat = np.reshape(fit.r_t_hat, t.shape)
    r_y_hat = np.reshape(fit.r_y_hat, y.shape)
    resid0 = r_y - theta0 * r_t

    s_n = np.vecdot(r_t, resid0)
    correction = np.vecdot(r_t_hat - r_t, resid0)
    remainder = np.vecdot(r_t_hat, (r_y_hat - r_y) - theta0 * (r_t_hat - r_t))

    total = np.vecdot(r_t_hat, r_y_hat - theta0 * r_t_hat)
    scale = 1.0 + np.sum(np.abs(r_t_hat * (r_y_hat - theta0 * r_t_hat)), axis=-1)
    gap = np.abs(total - (s_n + correction + remainder))
    if np.any(gap > _IDENTITY_RTOL * scale):
        raise _first_bad(
            DecompositionError, gap > _IDENTITY_RTOL * scale, stacked,
            lambda row: f"decomposition identity off by {gap[row]:.3e} "
                        f"(scale {scale[row]:.3e}); check the numerical rank of the design")
    if stacked:
        return ScoreDecomposition(s_n=s_n, correction=correction, remainder=remainder)
    return ScoreDecomposition(s_n=float(s_n[0]), correction=float(correction[0]),
                              remainder=float(remainder[0]))


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
