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
Each (row, point) is evaluated once: the bisection for the upper end of the
minimizer set takes the lower end's values where it probes the same point,
which away from a zero subgradient is everywhere.  Every probe is checked
for convexity, so a failure names its probe points, and also its row when
the caller passed a matrix.

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

    def __init__(self, obj: LocationObjective, lo, hi, name_rows: bool):
        self.obj = obj
        self.slack = 1e-9 * np.maximum(obj.scale_at(lo), obj.scale_at(hi))
        self.name_rows = name_rows
        self.probes = []  # (rows, theta, g_left, g_right) arrays, in evaluation order

    def error(self, row, message) -> NonConvexityError:
        return NonConvexityError(f"row {row}: {message}" if self.name_rows else message)

    def __call__(self, rows, theta):
        # rows are increasing, so as many rows as the matrix has are all of them
        obj = self.obj if rows.size == self.obj.data.shape[0] else self.obj.take(rows)
        left, right = obj.subgradient(theta)
        flipped = np.flatnonzero(left > right + self.slack[rows])
        if flipped.size:
            i = flipped[0]
            raise self.error(rows[i], f"subgradient interval reversed at theta={theta[i]}: "
                                      f"left={left[i]} > right={right[i]}")
        self.probes.append((rows, theta, left, right))
        return left, right

    def left_reusing(self, steps):
        """Left subgradients at each step of a bisection, looked up in ``steps`` first.

        ``steps`` are this prober's records of an earlier bisection, one per
        step; the k-th call looks its rows up in the k-th record.  A row probed
        there at the same theta, bit for bit, keeps its recorded left
        subgradient and is not recorded again: the same probe gives the same
        values, and ``check_monotone`` never compares equal thetas.  The other
        rows are evaluated, recorded and checked as usual, in one call or none.
        """
        steps = iter(steps)

        def left(rows, theta):
            step = next(steps, None)
            if step is None:
                return self(rows, theta)[0]
            done_rows, done_theta, done_left, _ = step
            at = np.minimum(np.searchsorted(done_rows, rows), done_rows.size - 1)
            # thetas compared as bits, where -0.0 == 0.0 would not tell them apart
            todo = ((done_rows[at] != rows)
                    | (done_theta[at].view(np.int64) != theta.view(np.int64)))
            values = done_left[at]
            if todo.any():
                values[todo] = self(rows[todo], theta[todo])[0]
            return values

        return left

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


def _bisect_rows(predicate, rows, lo, hi, tol, name_rows: bool):
    """Shrink each row's [lo, hi] to width <= tol, keeping predicate False at lo, True at hi.

    A row also stops when its midpoint is not strictly inside (the bracket is
    below float resolution).  All open rows share one predicate call a step.
    """
    lo, hi = lo.copy(), hi.copy()
    live = np.arange(rows.size)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo[live] + hi[live])
        go = (hi[live] - lo[live] > tol[live]) & (mid > lo[live]) & (mid < hi[live])
        live, mid = live[go], mid[go]
        if not live.size:
            return lo, hi
        up = predicate(rows[live], mid)
        hi[live[up]] = mid[up]
        lo[live[~up]] = mid[~up]
    i = live[0]
    where = f" in row {rows[i]}" if name_rows else ""
    raise ConvergenceError(
        f"bisection did not converge within {_MAX_ITER} iterations{where} "
        f"on [{lo[i]}, {hi[i]}]"
    )


def _argmin_rows(obj: LocationObjective, bracket: Bracket, name_rows: bool) -> np.ndarray:
    """Midpoint of the set where each row's subgradient straddles zero.

    That set runs from the leftmost point where the right subgradient is
    >= 0 to the rightmost point where the left subgradient is <= 0.  A row
    whose right subgradient is negative at hi returns hi; else one whose
    left subgradient is positive at lo returns lo.  The seven interior
    probes cost a few evaluations and let the monotonicity check see sign
    reversals that bisection alone would skip (redescending objectives are
    flat at distant endpoints).  The two ends are bisected one after the
    other, the upper end reusing the lower end's probes
    (``_RowProber.left_reusing``), so errors arise in the order they would
    if every probe were evaluated.
    """
    count = obj.data.shape[0]
    lo, hi, tol = (np.broadcast_to(np.asarray(f, dtype=float), count)
                   for f in (bracket.lo, bracket.hi, bracket.tol))
    probe = _RowProber(obj, lo, hi, name_rows)
    every = np.arange(count)

    left_lo, right_lo = probe(every, lo)
    left_hi, right_hi = probe(every, hi)
    for t in np.linspace(lo, hi, 9)[1:-1]:
        probe(every, t)

    at_hi = right_hi < 0.0
    at_lo = ~at_hi & (left_lo > 0.0)
    inside = ~(at_hi | at_lo)

    lower = lo.copy()
    rows = np.flatnonzero(inside & (right_lo < 0.0))
    first = len(probe.probes)
    lower[rows] = _bisect_rows(lambda r, t: probe(r, t)[1] >= 0.0,
                               rows, lo[rows], hi[rows], tol[rows], name_rows)[1]
    # the same brackets and tolerances, and predicates that agree wherever the
    # subgradient is not 0: the upper bisection mostly repeats the lower's probes
    left = probe.left_reusing(probe.probes[first:])
    upper = hi.copy()
    rows = np.flatnonzero(inside & (left_hi > 0.0))
    upper[rows] = _bisect_rows(lambda r, t: left(r, t) > 0.0,
                               rows, lo[rows], hi[rows], tol[rows], name_rows)[0]

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
    the offending probe points.  One sample gives a Python float.  An
    objective over a ``(rows, n)`` matrix, with a scalar or per-row bracket,
    gives an array with each row's minimizer, the float its row alone would
    give; an error also names the row.
    """
    if obj.data.ndim == 2:
        return _argmin_rows(obj, bracket, name_rows=True)
    # one sample is a 1-row matrix, with no row to name
    return float(_argmin_rows(obj.take(np.newaxis), bracket, name_rows=False)[0])


def slab_rows(points: int, n: int) -> int:
    """Rows per slab of a float ``(rows, points, n)`` array: about ``_SLAB_BYTES``, at least 1."""
    return max(1, _SLAB_BYTES // (8 * points * n))


def _block_bounds(data, c: float, grid) -> np.ndarray:
    """A lower bound on the summed biweight loss over each ``_SCAN_BLOCK`` of each row's grid.

    The loss is non-decreasing in |u|, so over a block [a, b] of grid points
    no value is below the sum over the data of rho(max(a - x, x - b, 0)):
    one loss per observation, however many points the block holds.  The
    ``(rows, blocks, n)`` distances are formed in slabs of ``slab_rows``
    rows, through one reused buffer.
    """
    rows, n = data.shape
    points = grid.shape[1]
    starts = np.arange(0, points, _SCAN_BLOCK)
    lo = grid[:, starts, None]
    hi = grid[:, np.minimum(starts + _SCAN_BLOCK, points) - 1, None]
    x = data[:, None, :]
    size = slab_rows(starts.size, n)
    dist = np.empty((min(rows, size), starts.size, n))
    bounds = np.empty((rows, starts.size))
    for first in range(0, rows, size):
        part = slice(first, first + size)
        u = np.subtract(lo[part], x[part], out=dist[:min(size, rows - first)])
        np.maximum(u, x[part] - hi[part], out=u)
        np.maximum(u, 0.0, out=u)
        bounds[part] = biweight_rho(u, c).sum(axis=2)
    return bounds


def minimize_scan(data, c: float, grid) -> np.ndarray:
    """Global minimizer of the biweight objective, row by row, by scan and polish.

    ``data`` is a finite ``(rows, n)`` matrix (a 1-d array is one row) and
    ``grid`` an equally spaced, strictly increasing grid, shared by every row
    (1-d) or one per row (``(rows, points)``); anything else raises
    ``ValueError``.  The grid is cut into blocks of ``_SCAN_BLOCK`` points,
    and each block's summed loss is bounded below by ``_block_bounds``.  Each
    row visits its blocks in increasing order of their bound and evaluates
    every point of a visited block; it skips the rest once a block's bound,
    less a rounding slack of ``1e-9 * n * c**2 / 6``, exceeds the row's best
    value so far, since no point there can reach it.  A value replaces the
    best when it is smaller, or equal at a smaller theta, so the first
    minimum along the grid wins, and values and minimizer are those of
    evaluating every point.  When the slope goes from negative at
    best - step to positive at best + step (a grid endpoint included), 50
    halvings of that cell polish the point, which is kept only if its value
    is no larger.  The blocks are evaluated in slabs of ``slab_rows`` rows
    (about ``_SLAB_BYTES``) through one reused difference buffer; each loss
    is elementwise and each sum one reduction over a row's n values at one
    point, so the bits are those of one array per block, at a few MiB of
    memory.  Subgradient bisection does not apply to this redescending
    objective; the scan is its one estimation path.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    rows, n = data.shape
    grid = np.asarray(grid, dtype=float)
    points = grid.shape[-1]
    if points < 2:
        raise ValueError(f"scan grid needs at least 2 points, got {points}")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid, axis=-1) > 0.0)):
        raise ValueError("scan grid must be finite and strictly increasing along each row")
    if not np.all(np.isfinite(data)):
        raise ValueError("scan data must be finite")
    grid = np.broadcast_to(grid, (rows, points))

    bounds = _block_bounds(data, c, grid)
    order = np.argsort(bounds, axis=1, kind="stable")
    bounds = np.take_along_axis(bounds, order, axis=1) - 1e-9 * n * c * c / 6.0
    best_val = np.full(rows, np.inf)
    best_theta = grid[:, 0].copy()
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
            thetas = grid[part[:, None], np.minimum(cols, points - 1)]
            u = np.subtract(data[part, None, :], thetas[:, :, None], out=diff[:part.size])
            vals = biweight_rho(u, c).sum(axis=2)
            vals[cols >= points] = np.inf
            idx = np.argmin(vals, axis=1)
            at = np.arange(part.size)
            cand, cand_theta = vals[at, idx], thetas[at, idx]
            better = (cand < best_val[part]) | ((cand == best_val[part])
                                                & (cand_theta < best_theta[part]))
            best_val[part[better]] = cand[better]
            best_theta[part[better]] = cand_theta[better]

    def slope(at):
        return -biweight_drho(data - at[:, None], c).sum(axis=1)

    step = grid[:, 1] - grid[:, 0]
    lo = best_theta - step
    hi = best_theta + step
    active = (slope(lo) < 0.0) & (slope(hi) > 0.0)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        up = slope(mid) >= 0.0
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)
    polished = 0.5 * (lo + hi)
    keep = active & (biweight_rho(data - polished[:, None], c).sum(axis=1) <= best_val)
    return np.where(keep, polished, best_theta)
