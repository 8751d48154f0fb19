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
stacked QR.  The leading (d+1)-square block B of each R factor has the
singular values of ``[x | t]``, and the rank test asks whether
sigma_min / sigma_max of B is above 1e-10.  A stack whose rows all have
kappa = ``||B||_F ||B^-1||_F`` below 1e4 (one batched inverse) is full rank
by construction: there sigma_min / sigma_max >= 1 / kappa > 1e-4, the
computed inverse's relative error is about kappa u <= 1e-12, and a values-only
SVD of B, exact to O(u sigma_max), could not reach 1e-10 (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., ch. 10 and 20).  Any other
stack runs that SVD, which decides and words the error.  The covariate
coefficients of t and y come from one batched solve in ``R[:d, :d]``, and
the residuals are t and y minus x times them.  Each row gives the bits its
sample alone gives: the stacked QR, inverse, SVD and solve and
``np.vecdot`` equal their 2-d and 1-d calls, and so do fitted values taken
as one ``(rows, n, d) @ (rows, d, 1)`` matmul per coefficient column (one
``(rows, n, d) @ (rows, d, 2)`` matmul for both columns does not).  The
experiment lab fits a chunk of replications in blocks of at most 256 KiB of
stack, which keeps a block in cache, and at least 2 rows, which shares a
block's fixed numpy cost when a design is too large for 2 rows in that
budget (n = 1600, d = 20).  An error on a stack of more than
one row names its row; one sample, or a 1-row stack, fails with the same
message and no row, which is how the lab's engine names a failing
replication when it runs that replication alone.  ``joint_theta``, the
companion solve on ``[t | x]`` kept as a reference, shares only the rank
test.

A caller that reads only each row's side of theta0, sign(theta_hat -
theta0), can take it from ``slope_sides``, which certifies most rows from
the normal equations and sends the rest of the stack through
``fwl_estimate``.  Its sides and errors are those of ``sign(fwl_estimate(
data).theta_hat - theta0)``.  Per row it forms the Gram matrix of
``[x | t | y]`` with three batched matmuls and takes its Cholesky factor L,
so that ``L[:d+2, :d+2]`` plays the role of R; the slope is
``L[d+1, d] / L[d, d]``.  With A = ``[x | t]``, p = d + 1, u the unit
roundoff, kappa = ``||A||_F ||L11^-1||_F`` for the leading p-square block
L11 (``||A||_F = ||L11||_F``; kappa is a guaranteed upper bound on A's
condition number, up to a relative eps kappa**2) and
eps = u (n (p + 2) + 2 p), a row is certified when all of these hold:

* the slope, kappa and the band below are finite (a NaN or an infinity,
  from an overflowing Gram, fails every comparison), and every column of
  ``[x | t | y]`` has a squared norm of at least 2**-900, so no Gram entry
  lost bits to underflow;
* 1 / kappa > 1e-4, far above the rank test's 1e-10.  fwl's R then has a
  singular-value ratio near 1 / kappa, so its rank test cannot fire, and
  the treatment residual is non-zero;
* 100 eps (1 + 2 M) <= 1e-8, where M = (||t|| + sum_k ||x_k|| |c_k|) /
  ||r_t|| for the coefficients c of t on x, read from the last row of
  ``L11^-1`` times A's column norms.  (eps_QR + 2 gamma_p)(1 + 2 M) +
  gamma_n is a first-order bound on fwl's residual-orthogonality check
  (Householder QR is columnwise backward stable, Higham, *Accuracy and
  Stability of Numerical Algorithms*, thm. 19.4, and the residuals are
  formed as t minus x times the coefficients), so that check cannot fire;
* |theta~ - theta0| > 1e3 (4 eps (1 + kappa)**2 ||y|| ||L11^-1||_F +
  4 u (|theta~| + |theta0|)).  The first term is four times the sum of two
  bounds on the error of each slope: the normal equations' eps kappa
  (1 + kappa) ||y|| / sigma_min(A) (the Gram and Cholesky backward errors,
  Higham thm. 10.3 and section 20.4, through the perturbation of the
  solve), and the partialled fit's (eps (1 + kappa)**2 + 2 gamma_n) ||y||
  / sigma_min(A) (rounding in the residuals and the two dot products; the
  QR's backward error enters that slope only at second order, because the
  exact residuals are orthogonal to x).  ``1 / sigma_min(A) <=
  ||L11^-1||_F``.  The second term covers the subtraction.

A stack with a row that is not certified, or whose batched Cholesky or
inverse raises, goes through ``fwl_estimate`` whole.  The fit then decides
the rows left and raises any error the stack has, naming the row it named
before.  Rows with exact ties (theta_hat == theta0) are never certified,
and neither are rows whose Gram overflows.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import med_bias

_RANK_RTOL = 1e-10
_IDENTITY_RTOL = 1e-8
# ``slope_sides``'s certificate; the module docstring derives each one.
# ``_check_rank`` certifies full rank with the same 1 / kappa > _CERTIFY_RTOL
_UNIT_ROUNDOFF = 2.0 ** -53
_GRAM_FLOOR = 2.0 ** -900
_CERTIFY_RTOL = 1e-4
_ORTHOGONALITY_SAFETY = 1e2
_BAND_SAFETY = 1e3


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
                bad = ~np.isfinite(a).reshape(y.shape[0] if stacked else 1, -1).all(axis=1)
                raise _first_bad(ValueError, bad, lambda row: f"{name} must be finite")
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


class SlopeSides(NamedTuple):
    """Each row's sign(theta_hat - theta0) (-1.0, 0.0 or 1.0), and whether the
    certificate decided it (``False`` where ``fwl_estimate`` did)."""

    side: np.ndarray
    certified: np.ndarray


class ScoreDecomposition(NamedTuple):
    s_n: float | np.ndarray
    correction: float | np.ndarray
    remainder: float | np.ndarray


def _as_stack(data: RegressionData):
    """``(y, t, x)`` with a leading row axis, and whether ``data`` was a stack."""
    if data.y.ndim == 2:
        return data.y, data.t, data.x, True
    return data.y[np.newaxis], data.t[np.newaxis], data.x[np.newaxis], False


def _first_bad(cls, failed, message):
    """``cls`` for the first row flagged in ``failed``, its message from ``message(row)``,
    which names the row when there is more than one."""
    row = int(np.flatnonzero(failed)[0])
    return cls(f"row {row}: {message(row)}" if failed.size > 1 else message(row))


def _kappa(block, norm):
    """kappa = ``norm * ||block^-1||_F`` of each triangular block, with the
    inverse and its Frobenius norm; ``norm`` is the block's ``||block||_F``.

    kappa bounds the block's condition number sigma_max / sigma_min from
    above (the 2-norm is at most the Frobenius norm), up to the inverse's
    relative error of about kappa u.  The batched ``inv`` raises
    ``LinAlgError`` when a block is exactly singular.
    """
    inv = np.linalg.inv(block)
    inv_norm = np.linalg.norm(inv, axis=(1, 2))
    return norm * inv_norm, inv, inv_norm


def _check_rank(y, t, x) -> np.ndarray:
    """R factors of each row's ``[x | t | y]``, once every design ``[t | x]`` has full column rank.

    The leading (d+1)-square block of R has the singular values of ``[x | t]``,
    so the ratio test runs on that small block instead of the n-row design.
    A stack whose blocks all have ``_CERTIFY_RTOL * kappa < 1`` is full rank
    by construction (module docstring) and runs no SVD; any other stack,
    one whose batched inverse raises included, runs the values-only SVD of
    its blocks, which decides the rank and words the error.
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
    overflowing = ~np.isfinite(block).all(axis=(1, 2))  # the SVD would fail unnamed
    if overflowing.any():
        raise _first_bad(ValueError, overflowing, lambda row: "a column of the design "
                         "[t | x] has a norm past the float range, so its QR factor overflows")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            kappa = _kappa(block, np.linalg.norm(block, axis=(1, 2)))[0]
        except np.linalg.LinAlgError:  # an exactly singular block
            kappa = np.full(block.shape[0], np.inf)
    if np.all(_CERTIFY_RTOL * kappa < 1.0):
        return r
    singular = np.linalg.svd(block, compute_uv=False)
    deficient = singular[:, -1] <= _RANK_RTOL * singular[:, 0]
    if deficient.any():
        def message(row):
            _, _, vt = np.linalg.svd(block[row])
            # the block's columns are (x1..xd, t); move t to the front
            direction = np.roll(vt[-1], 1)
            low, high = singular[row, -1], singular[row, 0]
            spread = (f"smallest/largest singular value = {low / high:.3e}" if high > 0.0
                      else "every singular value is zero")
            return (f"stacked design [t | x] is numerically rank deficient ({spread}); "
                    f"null direction over (t, x1..xd): {np.round(direction, 6).tolist()}")
        raise _first_bad(CollinearityError, deficient, message)
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
    stack of more than one row; a column of ``[x | t]`` whose norm
    overflows, and residuals whose inner products overflow into a NaN or
    infinite slope, raise ``ValueError`` the same way.  Each check runs over
    the whole stack in turn, so a stack raises the first failing row of the
    first check that fails, which may come after a row that fails a later
    check.
    """
    y, t, x, stacked = _as_stack(data)
    r = _check_rank(y, t, x)
    d = data.d
    # with d = 0 the solve and the matmuls are empty, and t - 0.0 keeps every bit
    coef = np.linalg.solve(r[:, :d, :d], r[:, :d, d:])
    r_t = t - (x @ coef[:, :, :1])[..., 0]
    r_y = y - (x @ coef[:, :, 1:])[..., 0]
    denom = np.vecdot(r_t, r_t)
    if np.any(denom <= 0.0):
        raise _first_bad(CollinearityError, denom <= 0.0,
                         lambda row: "treatment residuals are identically zero")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        theta_hat = np.vecdot(r_t, r_y) / denom
    if not np.isfinite(theta_hat).all():
        def overflow(row):
            slope = "NaN" if np.isnan(theta_hat[row]) else f"{theta_hat[row]:+}"
            return f"the residuals' inner products overflow, so the partialled slope is {slope}"

        raise _first_bad(ValueError, ~np.isfinite(theta_hat), overflow)

    if d > 0:
        # normal equations: residuals orthogonal to every covariate column,
        # whose norms are those of R's columns, ||x_j|| = ||R[:j+1, j]||
        gram = np.abs(r_t[:, None, :] @ x)[:, 0]
        scale = 1.0 + np.linalg.norm(r[:, :d, :d], axis=1) * np.sqrt(denom)[:, None]
        worst = np.max(gram / scale, axis=1)
        if np.any(worst > _IDENTITY_RTOL):
            raise _first_bad(
                CollinearityError, worst > _IDENTITY_RTOL,
                lambda row: f"treatment residuals not orthogonal to covariates "
                            f"(max {worst[row]:.3e}); design too ill-conditioned for the "
                            "partialled solve")
    if stacked:
        return PartialledFit(theta_hat=theta_hat, r_t_hat=r_t, r_y_hat=r_y)
    return PartialledFit(theta_hat=float(theta_hat[0]), r_t_hat=r_t[0], r_y_hat=r_y[0])


def _normal_equation_slopes(y, t, x, theta0: float):
    """Each row's normal-equations slope and its band (module docstring).

    The band is +inf on a row where another condition of the certificate
    fails; the rows with ``|theta - theta0| > band`` are certified.
    """
    rows, n, d = x.shape
    p = d + 1
    ty = np.stack([t, y], axis=1)
    gram = np.empty((rows, p + 1, p + 1))  # cholesky reads the lower triangle only
    with np.errstate(all="ignore"):
        gram[:, :d, :d] = x.mT @ x
        gram[:, d:, :d] = ty @ x
        gram[:, d:, d:] = ty @ ty.mT
        squares = np.diagonal(gram, axis1=1, axis2=2).copy()
        # y'y reaches only the last pivot, which the slope does not read;
        # doubled, it stays positive when y is (nearly) in the span of [x | t]
        gram[:, p, p] *= 2.0
        try:
            chol = np.linalg.cholesky(gram)
            kappa, inv, inv_norm = _kappa(chol[:, :p, :p], np.sqrt(np.sum(squares[:, :p], axis=1)))
        except np.linalg.LinAlgError:
            return np.full(rows, np.nan), np.full(rows, np.inf)
        theta = chol[:, p, d] / chol[:, d, d]
        m = np.sum(np.abs(inv[:, d]) * np.sqrt(squares[:, :p]), axis=1)  # the docstring's M
        eps = _UNIT_ROUNDOFF * (n * (p + 2) + 2 * p)
        band = _BAND_SAFETY * (4.0 * eps * (1.0 + kappa) ** 2 * np.sqrt(squares[:, p]) * inv_norm
                               + 4.0 * _UNIT_ROUNDOFF * (np.abs(theta) + abs(theta0)))
        sound = ((squares.min(axis=1) >= _GRAM_FLOOR) & (_CERTIFY_RTOL * kappa < 1.0)
                 & (_ORTHOGONALITY_SAFETY * eps * (1.0 + 2.0 * m) <= _IDENTITY_RTOL))
    return theta, np.where(sound, band, np.inf)


def slope_sides(data: RegressionData, theta0: float) -> SlopeSides:
    """Each row's side of ``theta0``: ``sign(fwl_estimate(data).theta_hat - theta0)``.

    Rows the normal equations certify (module docstring) take their side
    from the normal-equations slope; if any row is left, the whole stack
    goes through ``fwl_estimate``, which raises any error the stack has and
    gives the sides of the rows left.  One sample gives 1-row arrays.
    """
    y, t, x, _ = _as_stack(data)
    theta, band = _normal_equation_slopes(y, t, x, theta0)
    certified = np.abs(theta - theta0) > band
    if not certified.all():
        theta = np.where(certified, theta, fwl_estimate(data).theta_hat)
    return SlopeSides(side=np.sign(theta - theta0), certified=certified)


def joint_theta(data: RegressionData) -> float:
    """Treatment coordinate of the joint least-squares solve on [t | x], for one sample.

    The companion route to ``fwl_estimate``; the two must agree on every
    full-rank design.
    """
    if data.y.ndim != 1:
        raise ValueError("joint_theta fits one sample, not a stack")
    _check_rank(*_as_stack(data)[:3])
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
    naming the row on a stack of more than one row.  One sample takes
    coefficients of shape ``(d,)`` and gives floats; a stack takes ``(rows,
    d)`` coefficients and ``fwl_estimate``'s fit of the same stack, and gives
    ``(rows,)`` arrays with each row's own bits: x times a coefficient is one
    ``(rows, n, d) @ (rows, d, 1)`` matmul.
    """
    y, t, x, stacked = _as_stack(data)
    rows, _, d = x.shape
    beta_t = np.asarray(beta_t, dtype=float).reshape(rows, d, 1)
    beta_y = np.asarray(beta_y, dtype=float).reshape(rows, d, 1)
    r_t = t - (x @ beta_t)[..., 0]
    r_y = y - (x @ beta_y)[..., 0]
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
            DecompositionError, gap > _IDENTITY_RTOL * scale,
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
    if not np.all((etas > 0.0) & (etas < np.inf)):  # NaN or inf would give a row of 0.5
        raise ValueError(f"eta grid must be {'positive' if np.any(etas <= 0.0) else 'finite'}")
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
