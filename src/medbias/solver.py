"""Univariate minimization: bisection on the subgradient sign, and a biweight scan.

Bisection on the sign (rather than golden section on values) is deliberate:
it certifies by construction the implications that drive the sign-probability
bound -- a negative right subgradient at a probe point forces the minimizer
to its right, and symmetrically.  When the minimizer is an interval (sample
median with even n, for example) the midpoint of the interval is returned,
so tie-breaking is fixed and reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .objectives import LocationObjective, biweight_drho, biweight_rho

_MAX_ITER = 200
_SCAN_BLOCK = 64  # grid points per vectorised block of the biweight scan


class NonConvexityError(RuntimeError):
    """Subgradient monotonicity violated at named probe points."""


class BracketingError(ValueError):
    """The requested root is not bracketed by the interval endpoints."""


class ConvergenceError(RuntimeError):
    """Bisection failed to reach tolerance within the iteration cap."""


@dataclass(frozen=True)
class Bracket:
    """Search interval with an absolute tolerance on the returned point."""

    lo: float
    hi: float
    tol: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.tol is None:
            object.__setattr__(self, "tol", 1e-10 * (1.0 + abs(self.lo) + abs(self.hi)))
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


class _Prober:
    """Evaluates subgradients, recording probes and checking convexity."""

    def __init__(self, obj: LocationObjective, bracket: Bracket, negate: bool):
        self.obj = obj
        self.negate = negate
        self.slack = 1e-9 * max(obj.scale_at(bracket.lo), obj.scale_at(bracket.hi))
        self.probes = []  # (theta, g_left, g_right), in evaluation order

    def __call__(self, theta: float):
        left, right = self.obj.subgradient(theta)
        if self.negate:
            left, right = -right, -left
        if left > right + self.slack:
            raise NonConvexityError(
                f"subgradient interval reversed at theta={theta!r}: "
                f"left={left!r} > right={right!r}"
            )
        self.probes.append((theta, left, right))
        return left, right

    def check_monotone(self):
        """Subgradients along a convex function are monotone across probes."""
        ordered = sorted(self.probes)
        for (t1, _, r1), (t2, l2, _) in zip(ordered, ordered[1:]):
            if t2 > t1 and r1 > l2 + self.slack:
                raise NonConvexityError(
                    "subgradient sign not monotone: "
                    f"g_right({t1!r})={r1!r} > g_left({t2!r})={l2!r}"
                )


def _bisect(predicate, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Shrink [lo, hi] to width <= tol keeping predicate False at lo, True at hi."""
    for _ in range(_MAX_ITER):
        if hi - lo <= tol:
            return lo, hi
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket below float resolution
            return lo, hi
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    raise ConvergenceError(
        f"bisection did not converge within {_MAX_ITER} iterations on [{lo}, {hi}]"
    )


def _argmin_interval(obj: LocationObjective, bracket: Bracket, negate: bool) -> float:
    """Midpoint of the set where the (possibly negated) subgradient straddles zero."""
    probe = _Prober(obj, bracket, negate)
    lo, hi, tol = bracket.lo, bracket.hi, bracket.tol

    _, right_lo = probe(lo)
    left_hi, _ = probe(hi)
    left_lo = probe.probes[0][1]
    right_hi = probe.probes[1][2]

    # Coarse interior scan: costs a few evaluations and lets the final
    # monotonicity check see sign reversals that bisection alone would skip
    # (redescending objectives are flat at distant endpoints).
    for t in np.linspace(lo, hi, 9)[1:-1]:
        probe(float(t))

    if right_hi < 0.0:  # decreasing throughout: minimizer at the upper endpoint
        probe.check_monotone()
        return hi
    if left_lo > 0.0:  # increasing throughout: minimizer at the lower endpoint
        probe.check_monotone()
        return lo

    # Leftmost point where the right subgradient turns >= 0.
    if right_lo >= 0.0:
        lower = lo
    else:
        _, lower = _bisect(lambda t: probe(t)[1] >= 0.0, lo, hi, tol)

    # Rightmost point where the left subgradient is still <= 0.
    if left_hi <= 0.0:
        upper = hi
    else:
        upper, _ = _bisect(lambda t: probe(t)[0] > 0.0, lo, hi, tol)

    probe.check_monotone()
    if lower > upper + 2.0 * tol:
        raise NonConvexityError(
            f"inconsistent minimizer interval [{lower!r}, {upper!r}] "
            f"from probes {probe.probes[:4]}..."
        )
    return 0.5 * (lower + upper)


def minimize_convex(obj: LocationObjective, bracket: Bracket) -> float:
    """Minimize a convex objective over the bracket.

    Returns a point where zero lies in the subgradient interval (up to the
    bracket tolerance), or a bracket endpoint when the minimum sits there.
    Non-convexity observed along the way raises ``NonConvexityError`` naming
    the offending probe points.
    """
    return _argmin_interval(obj, bracket, negate=False)


def solve_z(obj: LocationObjective, bracket: Bracket) -> float:
    """Root of the subgradient (a Z-estimator), by monotone bisection.

    Requires the root to be bracketed: the subgradient must change sign
    between the endpoints (either orientation).  Agrees with
    ``minimize_convex`` on every convex objective.
    """
    g_lo = obj.subgradient(bracket.lo)
    g_hi = obj.subgradient(bracket.hi)
    if g_lo.right <= 0.0 <= g_hi.left:
        return _argmin_interval(obj, bracket, negate=False)
    if g_lo.left >= 0.0 >= g_hi.right:
        return _argmin_interval(obj, bracket, negate=True)
    raise BracketingError(
        "no bracketed root: subgradient is "
        f"{tuple(g_lo)} at lo={bracket.lo} and {tuple(g_hi)} at hi={bracket.hi}"
    )


def minimize_scan(data, c: float, grid) -> np.ndarray:
    """Global minimizer of the biweight objective, row by row, by scan and polish.

    ``data`` is a ``(rows, n)`` matrix (a 1-d array is one row) and ``grid``
    an equally spaced increasing grid.  The summed loss is scanned over the
    grid in blocks, and the first minimum wins.  When the slope goes from
    negative at best - step to positive at best + step (a grid endpoint
    included), 50 halvings of that cell polish the point, which is kept only
    if its value is no larger.  Subgradient bisection does not apply to this
    redescending objective; the scan is its one estimation path.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError(f"scan grid needs at least 2 points, got {grid.size}")
    rows = data.shape[0]
    best_val = np.full(rows, np.inf)
    best_theta = np.full(rows, grid[0])
    for b in range(0, grid.size, _SCAN_BLOCK):
        thetas = grid[b:b + _SCAN_BLOCK]
        vals = biweight_rho(data[:, None, :] - thetas[None, :, None], c).sum(axis=2)
        idx = np.argmin(vals, axis=1)
        cand = vals[np.arange(rows), idx]
        better = cand < best_val
        best_val = np.where(better, cand, best_val)
        best_theta = np.where(better, thetas[idx], best_theta)

    def slope(at):
        return -biweight_drho(data - at[:, None], c).sum(axis=1)

    step = grid[1] - grid[0]
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
