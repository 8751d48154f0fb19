"""Univariate minimization: bisection on the subgradient sign, and a biweight scan.

Bisection on the sign (rather than golden section on values) is deliberate:
it certifies by construction the implications that drive the sign-probability
bound -- a negative right subgradient at a probe point forces the minimizer
to its right, and symmetrically.  When the minimizer is an interval (sample
median with even n, for example) the midpoint of the interval is returned,
so tie-breaking is fixed and reproducible.

There is one bisection, over the rows of a ``(rows, n)`` data matrix; one
sample is a 1-row matrix.  All rows still searching share one objective call
per probe, and a row's result depends only on its own data and bracket.
Each row is bisected once: away from a zero subgradient the bisection for
the upper end of the minimizer set would walk the lower end's path, so it
runs only for the rows whose lower bisection met a zero.  Every probe is
checked for convexity and for a NaN subgradient, so a failure names its
probe points, and also its row when the matrix has more than one row: one
row fails with the message its sample alone gives.

The redescending biweight objective is minimized by a grid scan that skips
blocks of the grid whose lower bound shows they cannot hold the minimum.
"""

from dataclasses import dataclass

import numpy as np

from .objectives import LocationObjective, biweight_drho, biweight_rho

_MAX_ITER = 200
_SCAN_BLOCK = 64  # grid points per block of the biweight scan
#: Bytes of a ``(rows, points, n)`` loss array per slab of rows: small enough
#: to stay in cache, large enough that the Python work per slab stays small.
_SLAB_BYTES = 1 << 20


class NonConvexityError(RuntimeError):
    """Subgradient monotonicity violated at named probe points."""


class ConvergenceError(RuntimeError):
    """Bisection failed to reach tolerance within the iteration cap."""


@dataclass(frozen=True)
class Bracket:
    """Search interval with an absolute tolerance on the returned point.

    The fields may be per-row arrays, for an objective over a matrix.
    """

    lo: float
    hi: float
    tol: float | None = None

    def __post_init__(self):
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("bracket endpoints must be finite")
        if not np.all(self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.tol is None:
            object.__setattr__(self, "tol", 1e-10 * (1.0 + abs(self.lo) + abs(self.hi)))
        if not np.all(np.isfinite(self.tol)):
            raise ValueError("tol must be finite")
        if np.any(self.tol <= 0.0):
            raise ValueError("tol must be positive")


class _RowProber:
    """Subgradients of chosen rows, with each row's probes recorded and checked for convexity."""

    def __init__(self, obj: LocationObjective, lo, hi):
        self.obj = obj
        self.slack = 1e-9 * np.maximum(obj.scale_at(lo), obj.scale_at(hi))
        self.probes = []  # (rows, theta, g_left, g_right) arrays, in evaluation order

    def error(self, row, message, cls=NonConvexityError):
        """``cls`` with ``message``, naming ``row`` when the matrix has more than one row."""
        return cls(f"row {row}: {message}" if self.slack.size > 1 else message)

    def __call__(self, rows, theta):
        # rows are increasing, so as many rows as the matrix has are all of them
        obj = self.obj if rows.size == self.obj.data.shape[0] else self.obj.take(rows)
        left, right = obj.subgradient(theta)
        # a NaN fails the comparison too; a signed infinity keeps its order
        bad = np.flatnonzero(~(left <= right + self.slack[rows]))
        if bad.size:
            i = bad[0]
            if np.isnan(left[i]) or np.isnan(right[i]):
                raise self.error(rows[i], f"subgradient is NaN at theta={theta[i]}: "
                                          f"left={left[i]}, right={right[i]}", ValueError)
            raise self.error(rows[i], f"subgradient interval reversed at theta={theta[i]}: "
                                      f"left={left[i]} > right={right[i]}")
        self.probes.append((rows, theta, left, right))
        return left, right

    def check_monotone(self):
        """Consume the probes, checking each row's subgradients are monotone across its probes.

        Each row's probes fill one row of a ``(rows, probes)`` array in
        evaluation order, padded with theta = left = right = +inf, which a
        stable sort by theta then orders as a sort of all probes by (row,
        theta) would.
        """
        counts = np.zeros(self.slack.size, dtype=np.intp)
        for rows, *_ in self.probes:
            counts[rows] += 1
        laid = [np.full((counts.size, counts.max()), np.inf) for _ in range(3)]
        counts[:] = 0
        for rows, *values in self.probes:
            at = counts[rows]
            for array, value in zip(laid, values):
                array[rows, at] = value
            counts[rows] += 1
        self.probes = []
        order = np.argsort(laid[0], axis=1, kind="stable")
        # one sorted copy at a time
        for k in range(3):
            laid[k] = np.take_along_axis(laid[k], order, axis=1)
        theta, left, right = laid
        bad = np.flatnonzero((theta[:, 1:] > theta[:, :-1])
                             & (right[:, :-1] > left[:, 1:] + self.slack[:, np.newaxis]))
        if bad.size:
            row, i = divmod(bad[0], theta.shape[1] - 1)
            raise self.error(row, f"subgradient sign not monotone: g_right({theta[row, i]})="
                             f"{right[row, i]} > g_left({theta[row, i + 1]})={left[row, i + 1]}")


def _bisect_rows(predicate, rows, lo, hi, tol):
    """Shrink the [lo, hi] of each of ``rows`` to width <= tol, keeping predicate
    False at lo, True at hi, and return the ends of ``rows``.

    ``lo``, ``hi`` and ``tol`` hold every row of the solve.  A row also stops
    when its midpoint is not strictly inside (the bracket is below float
    resolution).  All open rows share one predicate call a step.  The open
    rows' brackets are updated in place, and gathered only when a row stops.
    """
    count = lo.size
    ends_lo, ends_hi = lo[rows], hi[rows]
    at = np.arange(rows.size)  # each open row's place in ends_lo and ends_hi
    lo, hi, tol = ends_lo.copy(), ends_hi.copy(), tol[rows]
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        go = (hi - lo > tol) & (mid > lo) & (mid < hi)
        if not go.all():
            ends_lo[at], ends_hi[at] = lo, hi
            at, rows, lo, hi, tol, mid = (a[go] for a in (at, rows, lo, hi, tol, mid))
        if not rows.size:
            return ends_lo, ends_hi
        up = predicate(rows, mid)
        np.copyto(hi, mid, where=up)
        np.copyto(lo, mid, where=~up)
    where = f" in row {rows[0]}" if count > 1 else ""
    raise ConvergenceError(
        f"bisection did not converge within {_MAX_ITER} iterations{where} "
        f"on [{lo[0]}, {hi[0]}]"
    )


def _argmin_rows(obj: LocationObjective, bracket: Bracket) -> np.ndarray:
    """Midpoint of the set where each row's subgradient straddles zero.

    That set runs from the leftmost point where the right subgradient is
    >= 0 to the rightmost point where the left subgradient is <= 0.  A row
    whose right subgradient is negative at hi returns hi; else one whose
    left subgradient is positive at lo returns lo.  The seven interior
    probes cost a few evaluations and let the monotonicity check see sign
    reversals that bisection alone would skip (redescending objectives are
    flat at distant endpoints).  The lower end is bisected first.  The upper
    end's bisection starts from the same bracket, so a row whose two
    predicates agree at each of its lower probes would walk the same path
    to the same last bracket: that bracket's lo is its upper end.  Only the
    rows whose lower bisection met a zero (or a reversal within the slack),
    or did not run, are bisected again.  Their probes before the paths part
    give the same values again, and ``check_monotone`` never compares equal
    thetas, so errors arise as if each probe were evaluated once.
    """
    count = obj.data.shape[0]
    lo, hi, tol = (np.broadcast_to(np.asarray(f, dtype=float), count)
                   for f in (bracket.lo, bracket.hi, bracket.tol))
    probe = _RowProber(obj, lo, hi)
    every = np.arange(count)

    left_lo, right_lo = probe(every, lo)
    left_hi, right_hi = probe(every, hi)
    for t in np.linspace(lo, hi, 9)[1:-1]:
        probe(every, t)

    at_hi = right_hi < 0.0
    at_lo = ~at_hi & (left_lo > 0.0)
    inside = ~(at_hi | at_lo)
    again = inside & (left_hi > 0.0)  # the rows whose upper end is bisected
    split = np.zeros(count, dtype=bool)  # rows where the two predicates part

    def right_nonneg(rows, theta):
        left, right = probe(rows, theta)
        up = right >= 0.0
        parted = up != (left > 0.0)
        if parted.any():
            split[rows[parted]] = True
        return up

    lower, upper = lo.copy(), hi.copy()
    rows = np.flatnonzero(inside & (right_lo < 0.0))
    ends, lower[rows] = _bisect_rows(right_nonneg, rows, lo, hi, tol)
    shared = again[rows] & ~split[rows]
    upper[rows[shared]] = ends[shared]
    again[rows[shared]] = False
    rows = np.flatnonzero(again)
    upper[rows] = _bisect_rows(lambda r, t: probe(r, t)[0] > 0.0, rows, lo, hi, tol)[0]

    probe.check_monotone()
    bad = np.flatnonzero(inside & (lower > upper + 2.0 * tol))
    if bad.size:
        i = bad[0]
        raise probe.error(i, f"inconsistent minimizer interval [{lower[i]}, {upper[i]}]")
    return np.where(at_hi, hi, np.where(at_lo, lo, 0.5 * (lower + upper)))


def minimize_convex(obj: LocationObjective, bracket: Bracket):
    """Minimize a convex objective over the bracket.

    Returns a point where zero lies in the subgradient interval (up to the
    bracket tolerance), or a bracket endpoint when the minimum sits there.
    Non-convexity observed along the way raises ``NonConvexityError`` naming
    the offending probe points, and a NaN subgradient raises ``ValueError``.
    One sample gives a Python float.  An objective over a ``(rows, n)``
    matrix, with a scalar or per-row bracket, gives an array with each row's
    minimizer, the float its row alone would give; an error on more than one
    row also names the row, and a 1-row matrix fails as its sample alone.
    The solve runs under the objective's ``errstate``.
    """
    with np.errstate(**obj.errstate):
        if obj.data.ndim == 2:
            return _argmin_rows(obj, bracket)
        return float(_argmin_rows(obj.take(np.newaxis), bracket)[0])


def slab_rows(points: int, n: int) -> int:
    """Rows per slab of a float ``(rows, points, n)`` array: about ``_SLAB_BYTES``, at least 1."""
    return max(1, _SLAB_BYTES // (8 * points * n))


def scan_grid(bracket: Bracket, points: int, rows: int = 1):
    """Each row's ``np.linspace(bracket.lo, bracket.hi, points)`` as ``at(cols,
    part)``, columns ``cols`` of rows ``part``, bit for bit: column k is
    ``k * step + lo`` and the last ``hi``.  Fewer than 2 points, or a row where
    rounding puts two points together, raise ``ValueError``; that needs a step
    within a few float spacings of the bracket's magnitude, so only such rows
    are built to be checked.
    """
    if not points >= 2:
        raise ValueError(f"scan grid needs at least 2 points, got {points}")
    lo, hi = (np.broadcast_to(np.asarray(f, dtype=float), rows)[:, np.newaxis]
              for f in (bracket.lo, bracket.hi))

    def at(cols, part=slice(None)):
        return np.where(cols == points - 1, hi[part], cols * step[part] + lo[part])

    with np.errstate(over="ignore", invalid="ignore"):
        step = (hi - lo) / (points - 1)
        close = ~(step > 8.0 * np.spacing(np.maximum(abs(lo), abs(hi)))) | (step == np.inf)
        grid = at(np.arange(points), np.flatnonzero(close))
        if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid, axis=-1) > 0.0)):
            raise ValueError("scan grid must be finite and strictly increasing along each row")
    return at


def _block_bounds(data, c: float, at, points: int) -> np.ndarray:
    """A lower bound on the summed biweight loss over each ``_SCAN_BLOCK`` of
    each row's grid (``at``, from ``scan_grid``).

    The loss is non-decreasing in |u|, so over a block [a, b] of grid points
    no value is below the sum over the data of rho(max(a - x, x - b, 0)):
    one loss per observation, however many points the block holds.  The
    ``(rows, n)`` distances are formed one block at a time.
    """
    starts = np.arange(0, points, _SCAN_BLOCK)
    lo, hi = at(starts), at(np.minimum(starts + _SCAN_BLOCK, points) - 1)
    bounds = np.empty((data.shape[0], starts.size))
    for k in range(starts.size):
        u = np.maximum(np.maximum(lo[:, k, None] - data, data - hi[:, k, None]), 0.0)
        bounds[:, k] = biweight_rho(u, c).sum(axis=1)
    return bounds


def minimize_scan(data, c: float, bracket: Bracket, points: int) -> np.ndarray:
    """Global minimizer of the biweight objective, row by row, by scan and polish.

    ``data`` is a finite ``(rows, n)`` matrix (a 1-d array is one row), ``c``
    finite and > 0, and each row's grid ``np.linspace(bracket.lo, bracket.hi,
    points)`` for a shared or per-row bracket, of which ``scan_grid`` works
    out only the points visited.  The grid is cut into blocks of
    ``_SCAN_BLOCK`` points, whose summed loss ``_block_bounds`` bounds below.
    Each row visits its blocks in increasing order of their bound and
    evaluates every point of a visited block; it skips the rest once a
    block's bound, less a rounding slack of ``1e-9 * n * c**2 / 6``, exceeds
    the row's best value so far.  A value replaces the best when it is
    smaller, or equal at a smaller theta, so values and minimizer are those
    of evaluating every point, where the first minimum along the grid wins.
    When the slope goes from negative at best - step to positive at best +
    step (a grid endpoint included), 50 halvings of that cell polish the
    point, which is kept only if its value is no larger.  Blocks are
    evaluated in slabs of ``slab_rows`` rows through one reused difference
    buffer; each loss is elementwise and each sum one reduction over a row's
    n values at one point, so the bits are those of one array per block.
    Subgradient bisection does not apply to this redescending objective; the
    scan is its one estimation path.
    """
    if not 0.0 < c < np.inf:
        raise ValueError(f"biweight needs a finite params.c > 0, got {c!r}")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    rows, n = data.shape
    at = scan_grid(bracket, points, rows)
    if not np.all(np.isfinite(data)):
        raise ValueError("scan data must be finite")

    bounds = _block_bounds(data, c, at, points)
    order = np.argsort(bounds, axis=1, kind="stable")
    bounds = np.take_along_axis(bounds, order, axis=1) - 1e-9 * n * c * c / 6.0
    best_val = np.full(rows, np.inf)
    best_theta = at(0)[:, 0]
    offsets = np.arange(_SCAN_BLOCK)
    size = slab_rows(_SCAN_BLOCK, n)
    diff = np.empty((min(rows, size), _SCAN_BLOCK, n))
    live = np.arange(rows)
    for k in range(order.shape[1]):
        # bounds rise along k and best values only fall, so a row once
        # skipped stays skipped
        live = live[bounds[live, k] <= best_val[live]]
        if not live.size:
            break
        for first in range(0, live.size, size):
            part = live[first:first + size]
            cols = order[part, k, None] * _SCAN_BLOCK + offsets
            thetas = at(np.minimum(cols, points - 1), part)
            u = np.subtract(data[part, None, :], thetas[:, :, None], out=diff[:part.size])
            vals = biweight_rho(u, c).sum(axis=2)
            vals[cols >= points] = np.inf
            idx = np.argmin(vals, axis=1)[:, None]
            cand, cand_theta = (np.take_along_axis(a, idx, 1)[:, 0] for a in (vals, thetas))
            better = (cand < best_val[part]) | ((cand == best_val[part])
                                                & (cand_theta < best_theta[part]))
            best_val[part[better]] = cand[better]
            best_theta[part[better]] = cand_theta[better]

    def slope(theta):
        return -biweight_drho(data - theta[:, None], c).sum(axis=1)

    step = at(1)[:, 0] - at(0)[:, 0]
    lo, hi = best_theta - step, best_theta + step
    active = (slope(lo) < 0.0) & (slope(hi) > 0.0)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        up = slope(mid) >= 0.0
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)
    polished = 0.5 * (lo + hi)
    keep = active & (biweight_rho(data - polished[:, None], c).sum(axis=1) <= best_val)
    return np.where(keep, polished, best_theta)
