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
runs only for the rows whose lower bisection met a zero.  Each probe is
checked as it lands, for a NaN subgradient and against its nearest earlier
probes for convexity, so a failure names its probe points, and also its row
when the matrix has more than one row, with the message its sample alone gives.

The redescending biweight objective goes to a grid scan, which takes it as the
bisection takes its own and skips blocks whose lower bound rules out the minimum.
"""

from dataclasses import dataclass

import numpy as np

from .objectives import BiweightLocation, LocationObjective, biweight_rho

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
            with np.errstate(over="ignore"):
                object.__setattr__(self, "tol", 1e-10 * (1.0 + abs(self.lo) + abs(self.hi)))
        if not np.all(np.isfinite(self.tol)):
            raise ValueError("tol must be finite")
        if np.any(self.tol <= 0.0):
            raise ValueError("tol must be positive")
        # the midpoints and the probes' tolerance anchor add |lo| and |hi|
        if not np.all(np.abs(self.lo) <= np.finfo(float).max - np.abs(self.hi)):
            raise ValueError(f"bracket |lo| + |hi| must be finite, got [{self.lo}, {self.hi}]")


class _RowProber:
    """Subgradients of chosen rows, each checked for a NaN and a reversed interval."""

    def __init__(self, obj: LocationObjective, lo, hi):
        self.obj = obj
        self.slack = 1e-9 * np.maximum(obj.scale_at(lo), obj.scale_at(hi))

    def error(self, row, message, cls=NonConvexityError):
        """``cls`` with ``message``, naming ``row`` when the matrix has more than one row."""
        return cls(f"row {row}: {message}" if self.slack.size > 1 else message)

    def not_monotone(self, row, theta, later, right, left):
        """The error for g_right(theta) > g_left(later), where theta < later."""
        return self.error(row, f"subgradient sign not monotone: g_right({theta})={right} "
                               f"> g_left({later})={left}")

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
        return left, right


def _bisect_rows(predicate, rows, lo, hi, tol, probe, tree):
    """Shrink the [lo, hi] of each of ``rows`` to width <= tol, keeping
    ``predicate(rows, left, right)`` of the subgradients False at lo, True at
    hi, and return the ends of ``rows``.

    ``lo``, ``hi`` and ``tol`` hold every row of the solve, and ``tree`` the
    subgradients of the nine fixed probes, from which the first three steps
    read theirs.  A later midpoint lies strictly inside its bracket, whose
    ends are its nearest earlier probes: it goes through ``probe`` and is
    checked against the right subgradient at lo and the left one at hi,
    carried alongside.  A row also stops when its midpoint is not strictly
    inside (the bracket is below float resolution).  All open rows share one
    objective call a later step, and a row's bracket is gathered when it stops.
    """
    count = lo.size
    ends_lo, ends_hi = lo[rows], hi[rows]
    at = np.arange(rows.size)  # each open row's place in ends_lo and ends_hi
    lo, hi, tol, slack = ends_lo, ends_hi, tol[rows], probe.slack[rows]
    g_lo, g_hi = tree[1, 0, rows], tree[0, 8, rows]
    node, half = np.full(rows.size, 4), 4  # each midpoint's place among the nine probes
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        go = (hi - lo > tol) & (mid > lo) & (mid < hi)
        if not go.all():
            ends_lo[at], ends_hi[at] = lo, hi
            at, rows, lo, hi, tol, slack, g_lo, g_hi, node, mid = (
                a[go] for a in (at, rows, lo, hi, tol, slack, g_lo, g_hi, node, mid))
        if not rows.size:
            return ends_lo, ends_hi
        if half:
            left, right = tree[:, node, rows]
        else:
            left, right = probe(rows, mid)
            low, high = g_lo > left + slack, right > g_hi + slack
            if (low | high).any():
                i = (low | high).argmax()
                raise probe.not_monotone(rows[i], *((lo[i], mid[i], g_lo[i], left[i]) if low[i]
                                                    else (mid[i], hi[i], right[i], g_hi[i])))
        up = predicate(rows, left, right)
        lo, g_lo = np.where(up, lo, mid), np.where(up, g_lo, right)
        hi, g_hi = np.where(up, mid, hi), np.where(up, left, g_hi)
        if half:
            half //= 2
            node += np.where(up, -half, half)
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
    probes, evaluated after the ends, are the first three levels of each
    row's bisection tree, which the bisection reads back; the adjacent pairs
    of the nine are checked once.  They let the check see sign reversals
    that bisection alone would skip (redescending objectives are flat at
    distant endpoints).  The lower end is bisected first.  The upper end's
    bisection starts from the same bracket, so a row whose two predicates
    agree at each of its lower probes would walk the same path to the same
    last bracket: that bracket's lo is its upper end.  Only the rows whose
    lower bisection met a zero (or a reversal within the slack), or did not
    run, are bisected again; their probes before the paths part give the
    same values and pass the same checks again.
    """
    count = obj.data.shape[0]
    lo, hi, tol = (np.broadcast_to(np.asarray(f, dtype=float), count)
                   for f in (bracket.lo, bracket.hi, bracket.tol))
    probe = _RowProber(obj, lo, hi)

    theta = np.empty((9, count))
    theta[0], theta[8] = lo, hi
    for half in (4, 2, 1):  # the midpoints _bisect_rows takes, bit for bit
        theta[half::2 * half] = 0.5 * (theta[:-half:2 * half] + theta[2 * half::2 * half])
    tree = np.empty((2, 9, count))
    for k in (0, 8, 1, 2, 3, 4, 5, 6, 7):
        tree[:, k] = probe(np.arange(count), theta[k])
    left, right = tree
    bad = (theta[1:] > theta[:-1]) & (right[:-1] > left[1:] + probe.slack)
    if bad.any():
        row, k = divmod(bad.T.argmax(), 8)  # the first by (row, theta)
        raise probe.not_monotone(row, *theta[k:k + 2, row], right[k, row], left[k + 1, row])

    at_hi = right[8] < 0.0
    at_lo = ~at_hi & (left[0] > 0.0)
    inside = ~(at_hi | at_lo)
    again = inside & (left[8] > 0.0)  # the rows whose upper end is bisected
    split = np.zeros(count, dtype=bool)  # rows where the two predicates part

    def right_nonneg(rows, left, right):
        up = right >= 0.0
        parted = up != (left > 0.0)
        if parted.any():
            split[rows[parted]] = True
        return up

    lower, upper = lo.copy(), hi.copy()
    rows = np.flatnonzero(inside & (right[0] < 0.0))
    ends, lower[rows] = _bisect_rows(right_nonneg, rows, lo, hi, tol, probe, tree)
    shared = again[rows] & ~split[rows]
    upper[rows[shared]] = ends[shared]
    again[rows[shared]] = False
    rows = np.flatnonzero(again)
    upper[rows] = _bisect_rows(lambda r, left, _: left > 0.0, rows, lo, hi, tol, probe, tree)[0]

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
        close = ~(step > 8.0 * np.spacing(np.maximum(abs(lo), abs(hi))))
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


def minimize_scan(obj: BiweightLocation, bracket: Bracket, points: int):
    """Global minimizer of the biweight objective ``obj``, by scan and polish.

    Shaped as ``minimize_convex``: one sample gives a Python float, a
    ``(rows, n)`` objective each row's minimizer on a shared or per-row
    bracket, and the scan runs under the objective's ``errstate``.  Each
    row's grid is ``np.linspace(bracket.lo, bracket.hi, points)``, in blocks
    of ``_SCAN_BLOCK`` points, of which ``scan_grid`` works out only those
    visited.  A row visits its blocks in increasing order of their
    ``_block_bounds`` lower bound and evaluates each visited block whole,
    until a bound less a rounding slack of ``1e-9 * n * c**2 / 6`` exceeds
    its best value; a value replaces the best when it is smaller, or equal
    at a smaller theta, so the first minimum along the grid wins, as when
    every point is evaluated.  When the objective's slope goes from negative
    at best - step to positive at best + step (a grid endpoint included), 50
    halvings of that cell polish the point, kept only if its value is no
    larger.  Blocks are evaluated in slabs of ``slab_rows`` rows through one
    reused buffer, one sum over n values per row and point, so the bits are
    those of one array per block.  The block bound holds for the biweight
    loss alone: another objective raises ``TypeError``.
    """
    if not isinstance(obj, BiweightLocation):
        raise TypeError(f"minimize_scan minimizes a biweight objective, got {obj.kind!r}")
    if obj.data.ndim == 1:
        return float(minimize_scan(obj.take(np.newaxis), bracket, points)[0])
    with np.errstate(**obj.errstate):
        data, c = obj.data, obj.c
        rows, n = data.shape
        at = scan_grid(bracket, points, rows)

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

        step = at(1)[:, 0] - at(0)[:, 0]
        lo, hi = best_theta - step, best_theta + step
        active = (obj.subgradient(lo).left < 0.0) & (obj.subgradient(hi).left > 0.0)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            up = obj.subgradient(mid).left >= 0.0
            hi = np.where(active & up, mid, hi)
            lo = np.where(active & ~up, mid, lo)
        polished = 0.5 * (lo + hi)
        keep = active & (obj.value(polished) <= best_val)
        return np.where(keep, polished, best_theta)
