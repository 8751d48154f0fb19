"""Tests for the subgradient-bisection solver and the biweight scan."""

import tracemalloc

import numpy as np
import pytest

from medbias import (
    AbsoluteDeviation,
    BiweightLocation,
    Bracket,
    CheckLoss,
    ConvergenceError,
    LogisticLocation,
    NegativeLogLikelihood,
    NonConvexityError,
    NormalLocation,
    PowerLoss,
    minimize_convex,
    minimize_scan,
)
from medbias import solver
from medbias.objectives import LocationObjective, biweight_ddrho, biweight_drho, biweight_rho
from medbias.solver import _MAX_ITER, _SCAN_BLOCK, _block_bounds


def grid_argmin(obj, lo, hi, step=1e-6):
    """Dense-grid oracle, independent of the bisection path.

    Coarse scan over the window, then a fine scan at the requested step
    around the coarse winner.
    """
    coarse_step = max((hi - lo) / 20_000, step)
    coarse = np.arange(lo, hi, coarse_step)
    values = np.array([obj.value(float(t)) for t in coarse])
    center = float(coarse[np.argmin(values)])
    fine = np.arange(center - 2 * coarse_step, center + 2 * coarse_step, step)
    fine_values = np.array([obj.value(float(t)) for t in fine])
    return float(fine[np.argmin(fine_values)])


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(1.0, 1.0)
    with pytest.raises(ValueError):
        Bracket(0.0, 1.0, tol=0.0)
    # a NaN or infinite tol would stop the bisection before its first step,
    # so the solve would return the bracket's midpoint
    for tol in (np.nan, np.inf, -np.inf, np.array([1e-10, np.nan])):
        with pytest.raises(ValueError, match="tol must be finite"):
            Bracket(np.zeros(2), np.ones(2), tol=tol)
    with pytest.raises(ValueError, match="tol must be finite"):
        minimize_convex(PowerLoss([0.3, 0.5, 2.0], p=1.5), Bracket(-1.0, 1.0, tol=np.nan))
    # ends whose magnitudes sum past the float range: the default tol
    # overflows, and with an explicit tol the midpoints and the probes'
    # tolerance anchor would, so convex data gave a reversed minimizer interval
    for lo, hi in ((1e308, 1.7e308), (np.array([0.0, 1e308]), np.array([1.0, 1.7e308]))):
        with pytest.raises(ValueError, match="^tol must be finite$"):
            Bracket(lo, hi)
    for lo, hi in ((1e308, 1.7e308), (-1e308, 1e308),
                   (np.array([0.0, 1e308]), np.array([1.0, 1.7e308]))):
        with pytest.raises(ValueError, match=r"^bracket \|lo\| \+ \|hi\| must be finite, got "):
            Bracket(lo, hi, tol=1e290)
    b = Bracket(-2.0, 3.0)
    assert b.tol == pytest.approx(1e-10 * 6.0)


def test_minimize_odd_median():
    theta = minimize_convex(AbsoluteDeviation([1, 2, 3]), Bracket(0, 10))
    assert theta == pytest.approx(2.0, abs=1e-8)


def test_minimize_even_median_midpoint_tiebreak():
    theta = minimize_convex(AbsoluteDeviation([1, 3]), Bracket(0, 10))
    assert theta == pytest.approx(2.0, abs=1e-8)
    theta = minimize_convex(AbsoluteDeviation([0, 1, 5, 9]), Bracket(-20, 20))
    assert theta == pytest.approx(3.0, abs=1e-7)


def test_minimize_mean_case():
    theta = minimize_convex(PowerLoss([0, 1, 5], p=2), Bracket(-10, 10))
    assert theta == pytest.approx(2.0, abs=1e-8)


def test_minimize_lp4_matches_grid_oracle():
    obj = PowerLoss([0, 1, 5], p=4)
    theta = minimize_convex(obj, Bracket(-10, 10))
    oracle = grid_argmin(obj, 2.0, 3.0, step=1e-6)
    assert theta == pytest.approx(oracle, abs=2e-6)


def test_minimize_at_bracket_endpoint():
    # minimizer outside the bracket: clamp to the near endpoint
    obj = PowerLoss([5.0, 6.0], p=2)
    assert minimize_convex(obj, Bracket(-1.0, 1.0)) == 1.0
    assert minimize_convex(obj, Bracket(9.0, 12.0)) == 9.0


def assert_score_root(obj, theta, tol):
    """The score (subgradient) changes sign across theta: a Z-estimate."""
    assert obj.subgradient(theta - tol).right <= 0.0
    assert obj.subgradient(theta + tol).left >= 0.0


def test_solve_z_examples():
    # the convex solver's answer is the root of the estimating equation
    obj = AbsoluteDeviation([1, 2, 3])
    theta = minimize_convex(obj, Bracket(0, 10))
    assert theta == pytest.approx(2.0, abs=1e-8)
    assert_score_root(obj, theta, 1e-8)
    obj = NegativeLogLikelihood([-1, 0, 4], NormalLocation(1.0))
    theta = minimize_convex(obj, Bracket(-10, 10))
    assert theta == pytest.approx(1.0, abs=1e-8)
    assert_score_root(obj, theta, 1e-8)


def test_solve_z_logistic_matches_grid_oracle():
    obj = NegativeLogLikelihood([-2, 0, 1], LogisticLocation(1.0))
    theta = minimize_convex(obj, Bracket(-10, 10))
    oracle = grid_argmin(obj, -1.0, 0.5, step=1e-6)
    assert theta == pytest.approx(oracle, abs=2e-6)
    assert_score_root(obj, theta, 1e-6)


@pytest.mark.parametrize("seed", range(10))
def test_sign_implications(seed):
    # negative right subgradient at a probe forces the minimizer to its
    # right, and symmetrically: 1e3 random datasets across the ten seeds
    rng = np.random.default_rng(seed)
    factories = [
        lambda d: AbsoluteDeviation(d),
        lambda d: CheckLoss(d, tau=0.35),
        lambda d: PowerLoss(d, p=1.5),
        lambda d: PowerLoss(d, p=3.0),
        lambda d: NegativeLogLikelihood(d, LogisticLocation(1.0)),
    ]
    bracket = Bracket(-8.0, 8.0)
    for _ in range(100):
        data = rng.standard_normal(rng.integers(3, 15))
        obj = factories[rng.integers(len(factories))](data)
        theta_hat = minimize_convex(obj, bracket)
        for _ in range(3):
            probe = float(rng.uniform(-7.5, 7.5))
            left, right = obj.subgradient(probe)
            if right < 0:
                assert theta_hat >= probe - bracket.tol
            if left > 0:
                assert theta_hat <= probe + bracket.tol


@pytest.mark.parametrize("seed", range(5))
def test_translation_equivariance(seed):
    rng = np.random.default_rng(100 + seed)
    data = rng.standard_normal(9)
    shift = float(rng.uniform(-5, 5))
    factories = [
        lambda d: AbsoluteDeviation(d),
        lambda d: CheckLoss(d, tau=0.7),
        lambda d: PowerLoss(d, p=2.5),
        lambda d: NegativeLogLikelihood(d, NormalLocation(0.9)),
        lambda d: NegativeLogLikelihood(d, LogisticLocation(1.2)),
    ]
    for factory in factories:
        base = minimize_convex(factory(data), Bracket(-12, 12))
        moved = minimize_convex(factory(data + shift), Bracket(-12 + shift, 12 + shift))
        assert moved == pytest.approx(base + shift, abs=1e-6)


def test_iteration_cap_raises(monkeypatch):
    import medbias.solver as solver_module
    monkeypatch.setattr(solver_module, "_MAX_ITER", 3)
    # one sample: the message names the last bracket, and no row
    with pytest.raises(ConvergenceError, match=r"^bisection did not converge .* on \[") as err:
        minimize_convex(PowerLoss([0.0, 1.0, 5.0], p=2), Bracket(-1e6, 1e6, tol=1e-12))
    assert "row" not in str(err.value)
    rows = np.array([[0.0, 1.0, 5.0], [2.0, 2.5, 3.0]])
    with pytest.raises(ConvergenceError, match="in row 0 "):
        minimize_convex(PowerLoss(rows, p=2), Bracket(-1e6, 1e6, tol=1e-12))


def test_nonconvex_detection_names_probes():
    obj = BiweightLocation([-5.0, -4.5, 4.0, 5.0, 0.1], c=2.0)
    with pytest.raises(NonConvexityError) as err:
        minimize_convex(obj, Bracket(-8, 8))
    assert "g_right(" in str(err.value) and "g_left(" in str(err.value)
    # one sample has no row to name
    assert str(err.value).startswith("subgradient sign not monotone")
    assert "row" not in str(err.value)


def test_batched_solver_names_the_nonconvex_row():
    # row 0 is clustered, so convex on the bracket; row 1 puts four points
    # where the biweight loss is concave, and a one-sample solve rejects it
    # without naming a row
    rng = np.random.default_rng(17)
    rows = np.stack([0.3 * rng.standard_normal(5), [-3.0, 3.0, -3.2, 3.2, 0.0]])
    bracket = Bracket(-1.0, 1.0)
    minimize_convex(BiweightLocation(rows[0], c=4.0), bracket)
    with pytest.raises(NonConvexityError,
                       match=r"^subgradient sign not monotone: g_right\(.*g_left\(") as err:
        minimize_convex(BiweightLocation(rows[1], c=4.0), bracket)
    assert "row" not in str(err.value)
    with pytest.raises(NonConvexityError, match=r"^row 1: .*g_right\(.*g_left\("):
        minimize_convex(BiweightLocation(rows, c=4.0), bracket)


# A one-sample sign bisection written with Python floats, probe by probe:
# the reference that every row of the batched solver must reproduce.


class _Prober:
    """Evaluates subgradients, recording probes and checking convexity."""

    def __init__(self, obj: LocationObjective, bracket: Bracket):
        self.obj = obj
        self.slack = 1e-9 * max(obj.scale_at(bracket.lo), obj.scale_at(bracket.hi))
        self.probes = []  # (theta, g_left, g_right), in evaluation order

    def __call__(self, theta: float):
        left, right = self.obj.subgradient(theta)
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


def _argmin_interval(obj: LocationObjective, bracket: Bracket) -> float:
    """Midpoint of the set where the subgradient straddles zero."""
    probe = _Prober(obj, bracket)
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


CONVEX_KINDS = {
    "abs_dev": AbsoluteDeviation,
    "quantile(0.25)": lambda d: CheckLoss(d, tau=0.25),
    "lp(1)": lambda d: PowerLoss(d, p=1.0),
    "lp(1.5)": lambda d: PowerLoss(d, p=1.5),
    "lp(2)": lambda d: PowerLoss(d, p=2.0),
    "lp(4)": lambda d: PowerLoss(d, p=4.0),
    "neg_loglik(normal)": lambda d: NegativeLogLikelihood(d, NormalLocation(1.0)),
    "neg_loglik(logistic)": lambda d: NegativeLogLikelihood(d, LogisticLocation(1.0)),
}


@pytest.mark.parametrize("kind", CONVEX_KINDS)
def test_batched_solver_matches_scalar_bit_for_bit(kind):
    # the one-sample reference above is the oracle for every row of a
    # batched solve and for the same row solved alone, on the inputs where
    # float summation order could differ: integer-valued rows put probes
    # exactly on data points, doubled values at even n give flat segments,
    # and n = 1, 2 and 3 with an all-tied row are the smallest samples; the
    # shifted brackets hold no minimizer, so alternate rows return their
    # lower or upper endpoint
    factory = CONVEX_KINDS[kind]
    rng = np.random.default_rng(29)
    base = rng.integers(-3, 4, size=(30, 12)).astype(float)
    matrices = [
        rng.integers(-3, 4, size=(30, 9)).astype(float),
        np.repeat(rng.integers(-4, 5, size=(30, 4)), 2, axis=1).astype(float),
        base + rng.standard_normal(base.shape) * (rng.random(base.shape) < 0.5),
        rng.standard_normal((30, 16)),
    ]
    for n in (1, 2, 3):
        small = rng.integers(-3, 4, size=(30, n)).astype(float)
        small[0] = 2.0  # all tied
        matrices.append(small)
    for data in matrices:
        lo, hi = data.min(axis=1) - 2.0, data.max(axis=1) + 2.0
        shift = (hi - lo) * np.resize([1.0, -1.0], len(data))
        batched = factory(data)
        probes = np.round(data[:, 0]) + 0.5 * rng.integers(-1, 2, len(data))
        left, right = batched.subgradient(probes)
        for a, b in ((lo, hi), (lo + shift, hi + shift)):
            theta = minimize_convex(batched, Bracket(a, b))
            for i, row in enumerate(data):
                bracket = Bracket(a[i], b[i])
                alone = minimize_convex(factory(row), bracket)
                assert type(alone) is float, (kind, i)
                assert theta[i] == alone == _argmin_interval(factory(row), bracket), (kind, i)
        for i, row in enumerate(data):
            assert (left[i], right[i]) == factory(row).subgradient(float(probes[i])), (kind, i)


def _count_bisections(obj, monkeypatch):
    """Count ``obj``'s subgradient calls and each ``_bisect_rows`` call's rows, steps and calls.

    Returns the list of call sizes and the list of (rows, steps, calls), one
    per bisection, both filled as the solve runs.
    """
    calls, phases = [], []
    subgradient = type(obj).subgradient

    def counted_subgradient(self, theta):
        calls.append(np.size(theta))
        return subgradient(self, theta)

    bisect = solver._bisect_rows

    def counted_bisect(predicate, rows, *args):
        steps, before = [], len(calls)

        def step(r, *subgradients):
            steps.append(r.size)
            return predicate(r, *subgradients)

        ends = bisect(step, rows, *args)
        phases.append((rows, len(steps), len(calls) - before))
        return ends

    monkeypatch.setattr(type(obj), "subgradient", counted_subgradient)
    monkeypatch.setattr(solver, "_bisect_rows", counted_bisect)
    return calls, phases


@pytest.mark.parametrize("kind", ["lp(1.5)", "neg_loglik(logistic)"])
def test_rows_without_a_zero_subgradient_are_bisected_once(kind, monkeypatch):
    # away from a zero subgradient the upper bisection would walk the lower
    # one's path to the same last bracket, so every row takes its upper end
    # from there and the upper bisection gets no row: a solve costs the nine
    # fixed probes plus one call per lower step after the first three, which
    # read the fixed probes back
    factory = CONVEX_KINDS[kind]
    data = np.random.default_rng(41).standard_normal((40, 15))
    obj = factory(data)
    calls, phases = _count_bisections(obj, monkeypatch)
    lo, hi = data.min(axis=1) - 1.0, data.max(axis=1) + 1.0
    theta = minimize_convex(obj, Bracket(lo, hi))
    (_, lower_steps, lower_calls), (upper_rows, upper_steps, upper_calls) = phases
    assert lower_calls == lower_steps - 3 and lower_steps > 30
    assert upper_rows.size == upper_steps == upper_calls == 0
    assert len(calls) == 9 + lower_steps - 3
    monkeypatch.undo()
    for i, row in enumerate(data):
        assert theta[i] == _argmin_interval(factory(row), Bracket(lo[i], hi[i])), i


def test_only_a_row_whose_lower_bisection_meets_a_zero_is_bisected_again(monkeypatch):
    # row 2 = (-1, 1) has lp(1.5) subgradient exactly 0 at the shared first
    # midpoint 0 of [-3, 3], where the lower bisection steps down and the
    # upper one would step up; the generic rows never meet a zero, and
    # neither bisection calls the objective in its first three steps
    factory = CONVEX_KINDS["lp(1.5)"]
    data = 0.5 * np.random.default_rng(43).standard_normal((6, 2))
    data[2] = [-1.0, 1.0]
    bracket = Bracket(-3.0, 3.0)
    assert factory(data[2]).subgradient(0.0) == (0.0, 0.0)
    obj = factory(data)
    calls, phases = _count_bisections(obj, monkeypatch)
    theta = minimize_convex(obj, bracket)
    (lower_rows, lower_steps, lower_calls), (upper_rows, upper_steps, upper_calls) = phases
    assert lower_rows.tolist() == list(range(6)) and lower_steps > 30
    assert upper_rows.tolist() == [2] and upper_steps > 30
    assert (lower_calls, upper_calls) == (lower_steps - 3, upper_steps - 3)
    assert len(calls) == 9 + lower_steps + upper_steps - 6
    monkeypatch.undo()
    assert theta[2] == 0.0
    for i, row in enumerate(data):
        assert theta[i] == _argmin_interval(factory(row), bracket), i


@pytest.mark.parametrize("kind", ["lp(1.5)", "abs_dev"])
def test_rows_at_a_bracket_end_run_no_bisection_step(kind, monkeypatch):
    # each bracket lies wholly above or below its row's data, so every row
    # returns an end from the nine fixed probes
    factory = CONVEX_KINDS[kind]
    data = np.random.default_rng(47).standard_normal((8, 5))
    above = np.resize([True, False], len(data))
    lo = np.where(above, data.max(axis=1) + 1.0, data.min(axis=1) - 4.0)
    hi = lo + 3.0
    obj = factory(data)
    calls, phases = _count_bisections(obj, monkeypatch)
    theta = minimize_convex(obj, Bracket(lo, hi))
    assert [(rows.size, steps, count) for rows, steps, count in phases] == [(0, 0, 0)] * 2
    assert len(calls) == 9
    monkeypatch.undo()
    assert (theta == np.where(above, lo, hi)).all()
    for i, row in enumerate(data):
        assert theta[i] == _argmin_interval(factory(row), Bracket(lo[i], hi[i])), i


class _ReversedOnAWindow(AbsoluteDeviation):
    """The absolute deviation with its subgradient interval reversed on (0.6, 0.9)."""

    def subgradient(self, theta):
        left, right = super().subgradient(theta)
        inside = (0.6 < np.asarray(theta)) & (np.asarray(theta) < 0.9)
        return self._interval(np.where(inside, right + 0.5, left),
                              np.where(inside, left - 0.5, right))


def test_a_reversal_only_the_upper_bisection_probes_names_its_probe():
    # on [-2, 3] row 1 = (0, 1) has zero subgradients on (0, 1): from the
    # shared first midpoint 0.5 the lower bisection walks down to 0 and the
    # upper one up to 1, whose fourth probe, 0.8125, is the only one in the
    # reversed window; rows 0 and 2 never reach it
    rows = np.array([[-1.5, -1.0], [0.0, 1.0], [2.0, 2.5]])
    message = "subgradient interval reversed at theta=0.8125: left=0.5 > right=-0.5"
    bracket = Bracket(-2.0, 3.0)
    with pytest.raises(NonConvexityError) as alone:
        _argmin_interval(_ReversedOnAWindow(rows[1]), bracket)
    assert str(alone.value) == message
    with pytest.raises(NonConvexityError) as err:
        minimize_convex(_ReversedOnAWindow(rows[1]), bracket)
    assert str(err.value) == message
    with pytest.raises(NonConvexityError) as err:
        minimize_convex(_ReversedOnAWindow(rows), bracket)
    assert str(err.value) == f"row 1: {message}"
    # a 1-row matrix fails as its sample alone, naming no row
    with pytest.raises(NonConvexityError) as err:
        minimize_convex(_ReversedOnAWindow(rows[1:2]), bracket)
    assert str(err.value) == message
    for i in (0, 2):
        assert (minimize_convex(_ReversedOnAWindow(rows[i]), bracket)
                == minimize_convex(AbsoluteDeviation(rows[i]), bracket))


class _NaNOnAWindow(AbsoluteDeviation):
    """The absolute deviation with a NaN left subgradient on (0.6, 0.9)."""

    def subgradient(self, theta):
        left, right = super().subgradient(theta)
        inside = (0.6 < np.asarray(theta)) & (np.asarray(theta) < 0.9)
        return self._interval(np.where(inside, np.nan, left), right)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_nan_subgradient_names_its_probe():
    # the probes of the reversal test above: only row 1's upper bisection
    # reaches the window, at 0.8125, where a NaN left subgradient used to
    # read as "not > 0" and the solve went on
    rows = np.array([[-1.5, -1.0], [0.0, 1.0], [2.0, 2.5]])
    message = "subgradient is NaN at theta=0.8125: left=nan, right=0.0"
    bracket = Bracket(-2.0, 3.0)
    for data, expected in ((rows[1], message), (rows[1:2], message),
                           (rows, f"row 1: {message}")):
        with pytest.raises(ValueError) as err:
            minimize_convex(_NaNOnAWindow(data), bracket)
        assert type(err.value) is ValueError and str(err.value) == expected
    for i in (0, 2):
        assert (minimize_convex(_NaNOnAWindow(rows[i]), bracket)
                == minimize_convex(AbsoluteDeviation(rows[i]), bracket))
    # an infinite subgradient keeps its sign: lp(1e4) overflows to -inf
    # and +inf away from the data, and still solves
    data = np.array([[1.5, 1.6, 1.7], [-0.2, 0.0, 0.3]])
    assert np.isinf(PowerLoss(data, p=1e4).subgradient(-3.0)).all()
    theta = minimize_convex(PowerLoss(data, p=1e4), Bracket(-3.0, 3.0))
    assert theta == pytest.approx([1.6, 0.05], abs=1e-6)


def _first_violation_by_lexsort(probes, slack):
    """The monotonicity check over one sort of every probe by (row, theta)."""
    rows, theta, left, right = (np.concatenate(col) for col in zip(*probes))
    order = np.lexsort((theta, rows))
    rows, theta, left, right = rows[order], theta[order], left[order], right[order]
    bad = np.flatnonzero((rows[1:] == rows[:-1]) & (theta[1:] > theta[:-1])
                         & (right[:-1] > left[1:] + slack[rows[1:]]))
    if bad.size:
        i = bad[0]
        # a matrix of one row names no row
        row = f"row {rows[i]}: " if slack.size > 1 else ""
        return (f"{row}subgradient sign not monotone: g_right({theta[i]})="
                f"{right[i]} > g_left({theta[i + 1]})={left[i + 1]}")
    return None


def _solve_error(obj, bracket):
    """The message of the error that ``minimize_convex`` raises, or None."""
    try:
        minimize_convex(obj, bracket)
    except (NonConvexityError, ValueError) as err:
        return str(err)
    return None


@pytest.mark.parametrize("seed", range(40))
def test_a_solve_raises_the_lexsort_violation_among_its_probes(seed, monkeypatch):
    # biweight rows spread far past c are not convex on their data range,
    # and some break monotonicity only between later bisection probes, on
    # either side of a probe once the bracket reaches past c beyond the
    # data; the clustered rows are convex there, and every fourth seed takes
    # a convex objective instead.  A row solved alone raises a monotonicity
    # error exactly when one sort of the probes it evaluated finds a
    # violation, and a batched solve names a row whose solve alone raises the
    # same message, also once the rows it named are dropped
    rng = np.random.default_rng(seed)
    count, n = int(rng.integers(2, 10)), int(rng.integers(2, 8))
    spread = np.where(rng.random(count) < 0.5, 10.0, 0.1)
    data = spread[:, np.newaxis] * rng.standard_normal((count, n))
    lo = data.min(axis=1) - rng.uniform(0.0, 2.0, count)
    hi = data.max(axis=1) + rng.uniform(0.0, 2.0, count)
    factory = (list(CONVEX_KINDS.values())[seed // 4 % len(CONVEX_KINDS)] if seed % 4 == 0
               else lambda d: BiweightLocation(d, c=1.0))
    kind = type(factory(data[0]))
    subgradient = kind.subgradient
    probes = []

    def recorded(self, theta):
        left, right = subgradient(self, theta)
        probes.append((np.zeros(np.size(theta), dtype=np.intp), np.atleast_1d(theta),
                       np.atleast_1d(left), np.atleast_1d(right)))
        return left, right

    monkeypatch.setattr(kind, "subgradient", recorded)
    alone = []
    for i, row in enumerate(data):
        obj = factory(row)
        probes.clear()
        alone.append(_solve_error(obj, Bracket(lo[i], hi[i])))
        slack = np.atleast_1d(1e-9 * max(obj.scale_at(lo[i]), obj.scale_at(hi[i])))
        expected = _first_violation_by_lexsort(probes, slack)
        monotone = alone[i] is not None and "subgradient sign not monotone" in alone[i]
        assert monotone == (expected is not None), (i, alone[i], expected)
    rows = list(range(count))
    while rows and (batched := _solve_error(factory(data[rows]),
                                            Bracket(lo[rows], hi[rows]))) is not None:
        # a 1-row matrix names no row
        named, message = batched.split(": ", 1) if len(rows) > 1 else ("row 0", batched)
        assert alone[rows.pop(int(named.removeprefix("row ")))] == message, rows
    assert all(alone[i] is None for i in rows)


def test_power_loss_sums_only_nonzero_terms_at_a_tie():
    # dropping the exact-zero terms changes the pairwise-summation blocks;
    # both the 1-d and the row-wise subgradient sum the nonzero terms only
    rng = np.random.default_rng(3)
    data = rng.integers(-3, 4, size=(200, 17)).astype(float)
    data += rng.standard_normal(data.shape) * (rng.random(data.shape) < 0.5)
    for p in (1.5, 4.0):
        terms = np.abs(data) ** (p - 1.0) * np.sign(-data)
        masked = np.array([p * row[row != 0.0].sum() for row in terms])
        assert np.any(masked != p * terms.sum(axis=1))
        left, right = PowerLoss(data, p=p).subgradient(0.0)
        assert np.array_equal(left, masked) and np.array_equal(right, masked)
        assert [PowerLoss(row, p=p).subgradient(0.0).left for row in data] == list(masked)


def test_minimize_scan_finds_global_minimum():
    data = np.array([-5.0, -4.9, -5.1, 4.0, 5.0])
    window = Bracket(-8.0, 8.0)
    theta = minimize_scan(BiweightLocation(data, c=2.0), window, 4001)
    oracle = grid_argmin(BiweightLocation(data, c=2.0), -6.0, -4.0, step=1e-5)
    # one sample gives a Python float, the float of its 1-row matrix
    assert type(theta) is float
    assert theta == pytest.approx(oracle, abs=1e-4)
    one_row = minimize_scan(BiweightLocation(data[np.newaxis], c=2.0), window, 4001)
    assert one_row.shape == (1,) and one_row[0] == theta
    # rows are independent: a batch returns each row's own minimizer
    batch = minimize_scan(BiweightLocation(np.stack([data, -data]), c=2.0), window, 4001)
    assert batch[0] == theta
    assert batch[1] == minimize_scan(BiweightLocation(-data, c=2.0), window, 4001)
    # on a flat stretch the first minimum wins: data farther than c from
    # every grid point leave the objective constant, and no polish applies
    assert minimize_scan(BiweightLocation(data + 100.0, c=2.0), window, 4001) == -8.0


def test_minimize_scan_agrees_with_bisection_on_convex():
    # tightly clustered data keep every biweight row convex on the bracket,
    # where sign bisection is the oracle
    rng = np.random.default_rng(17)
    data = 0.3 * rng.standard_normal((8, 10))
    bracket = Bracket(-1.0, 1.0)
    scan = minimize_scan(BiweightLocation(data, c=4.0), bracket, 2001)
    for row, theta in zip(data, scan):
        exact = minimize_convex(BiweightLocation(row, c=4.0), bracket)
        assert theta == pytest.approx(exact, abs=1e-9)


def test_minimize_scan_per_row_grid_matches_row_scans():
    # a per-row bracket scans each row over its own grid, bit for bit
    rng = np.random.default_rng(41)
    data = rng.standard_normal((6, 10))
    lo, hi = data.min(axis=1) - 1.0, data.max(axis=1) + 1.0
    batch = minimize_scan(BiweightLocation(data, c=2.0), Bracket(lo, hi), 301)
    assert [float(t) for t in batch] == [minimize_scan(BiweightLocation(row, c=2.0),
                                                       Bracket(a, b), 301)
                                         for row, a, b in zip(data, lo, hi)]


# The scan that evaluates every grid point of every row, block by block from
# the left: the reference that the branch-and-bound scan must reproduce.


def _linspace(bracket, points):
    """Each row's grid, materialised: the grid ``minimize_scan`` must scan."""
    return np.linspace(bracket.lo, bracket.hi, points, axis=-1)


def _scan(data, c: float, bracket, points) -> np.ndarray:
    """``minimize_scan`` of the biweight objective on the rows of ``data`` (1-d is one row)."""
    return minimize_scan(BiweightLocation(np.atleast_2d(data), c), bracket, points)


def _exhaustive_scan(data, c: float, grid) -> np.ndarray:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    rows = data.shape[0]
    grid = np.asarray(grid, dtype=float)
    if grid.shape[-1] < 2:
        raise ValueError(f"scan grid needs at least 2 points, got {grid.shape[-1]}")
    grid = np.broadcast_to(grid, (rows, grid.shape[-1]))
    every = np.arange(rows)
    best_val = np.full(rows, np.inf)
    best_theta = grid[:, 0].copy()
    for b in range(0, grid.shape[1], _SCAN_BLOCK):
        thetas = grid[:, b:b + _SCAN_BLOCK]
        vals = biweight_rho(data[:, None, :] - thetas[:, :, None], c).sum(axis=2)
        idx = np.argmin(vals, axis=1)
        cand = vals[every, idx]
        better = cand < best_val
        best_val = np.where(better, cand, best_val)
        best_theta = np.where(better, thetas[every, idx], best_theta)

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


_SLABBED_ROWS, _SLABBED_POINTS = (300, 700), 601


def _scan_cases():
    """(data, c, bracket, points): tied, skewed, heavy-tailed, per-row-bracket and
    many-row inputs."""
    rng = np.random.default_rng(12)
    for case in range(120):
        n = int(rng.integers(3, 81))
        c = (0.5, 1.0, 2.0, 4.685)[case % 4]
        law = case // 4 % 5
        shape = (int(rng.integers(1, 40)), n)
        if law == 0:
            data = 0.5 * rng.integers(-6, 7, size=shape)  # half-integer ties
        elif law == 1:
            data = rng.exponential(1.0, size=shape) - 1.0
        elif law == 2:
            data = rng.standard_cauchy(shape)
        elif law == 3:
            data = rng.standard_t(2.0, size=shape)
        else:
            data = rng.standard_normal(shape)
        # a length that is a multiple of the block, and two that are not
        points = (2 * _SCAN_BLOCK, 301, 1201)[case % 3]
        if case % 2:
            bracket = Bracket(data.min(axis=1) - 1.0, data.max(axis=1) + 1.0)
        elif law == 0:
            bracket, points = Bracket(-4.0, 4.0), 321  # holds every half-integer
        else:
            bracket = Bracket(-3.0, 3.0)
        yield data, c, bracket, points
    # several slabs of rows, the last one partial, on a shared and a per-row bracket
    for rows in _SLABBED_ROWS:
        data = rng.standard_normal((rows, 50))
        yield data, 2.0, Bracket(-3.0, 3.0), _SLABBED_POINTS
        yield data, 2.0, Bracket(data.min(axis=1) - 1.0, data.max(axis=1) + 1.0), _SLABBED_POINTS


def _tied_blocks():
    """Data [-3, 3], c = 2, on a symmetric grid whose value is c^2/6 at -3 and 3 alone.

    The block holding 3 reaches to -2, within c of -3, so its bound is the
    lower one and it is visited first; the block holding -3 ties it later.
    """
    return np.array([-3.0, 3.0]), 2.0, Bracket(-10.0, 10.0), 20 * _SCAN_BLOCK // 8 + 1


def _bounds_and_grid(data, c, bracket, points):
    """``_block_bounds`` of each row, and each row's materialised grid."""
    data = np.atleast_2d(data)
    at = solver.scan_grid(bracket, points, data.shape[0])
    grid = np.broadcast_to(_linspace(bracket, points), (data.shape[0], points))
    return data, _block_bounds(data, c, at, points), grid


def test_minimize_scan_matches_exhaustive_bit_for_bit():
    for data, c, bracket, points in [*_scan_cases(), _tied_blocks()]:
        assert np.array_equal(_scan(data, c, bracket, points),
                              _exhaustive_scan(data, c, _linspace(bracket, points)))
    # of the two tied blocks, the first minimum along the grid wins
    data, c, bracket, points = _tied_blocks()
    _, bounds, grid = _bounds_and_grid(data, c, bracket, points)
    grid, bounds = grid[0], bounds[0]
    assert grid.size % _SCAN_BLOCK and np.array_equal(grid, -grid[::-1])
    assert np.array_equal(grid, np.arange(grid.size) * (8.0 / _SCAN_BLOCK) - 10.0)
    assert bounds[np.searchsorted(grid, 3.0) // _SCAN_BLOCK] < bounds[0]
    theta = minimize_scan(BiweightLocation(data, c), bracket, points)
    assert theta == pytest.approx(-3.0, abs=1e-12)


_POINT_COUNTS = (2, 3, 5, 63, 64, 65, 66, 129, 257, 1201, 2001, 2049)


def test_minimize_scan_matches_exhaustive_at_every_point_count():
    # grids of one point, one block, a block and a point, and many blocks,
    # on shared and per-row brackets, some of them reaching -0.0
    rng = np.random.default_rng(29)
    for k, points in enumerate(_POINT_COUNTS * 3):
        data = rng.standard_t(3.0, size=(int(rng.integers(1, 12)), int(rng.integers(1, 30))))
        c = (0.5, 2.0, 4.685)[k % 3]
        for bracket in (Bracket(-float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))),
                        Bracket(-0.0, 2.5),
                        Bracket(data.min(axis=1) - rng.uniform(0.0, 2.0),
                                data.max(axis=1) + rng.uniform(0.0, 2.0))):
            assert np.array_equal(_scan(data, c, bracket, points),
                                  _exhaustive_scan(data, c, _linspace(bracket, points)))


def test_scan_grid_is_linspace_bit_for_bit():
    # every column of every row, and the signs of its zeros
    rng = np.random.default_rng(30)
    for points in _POINT_COUNTS:
        lo = -(10.0 ** rng.uniform(-6.0, 6.0, 7))
        hi = lo + 10.0 ** rng.uniform(-3.0, 8.0, 7)
        for bracket, rows in ((Bracket(lo, hi), 7), (Bracket(float(lo[0]), float(hi[0])), 1),
                              (Bracket(-0.0, 1.0), 3)):
            grid = solver.scan_grid(bracket, points, rows)(np.arange(points))
            want = np.broadcast_to(_linspace(bracket, points), (rows, points))
            assert grid.tobytes() == np.ascontiguousarray(want).tobytes()


def test_scan_block_bounds_are_below_each_block():
    # with no rounding slack, no block's bound exceeds its smallest value
    for case in [*_scan_cases(), _tied_blocks()]:
        data, bounds, grid = _bounds_and_grid(*case)
        c = case[1]
        for k in range(bounds.shape[1]):
            block = grid[:, k * _SCAN_BLOCK:(k + 1) * _SCAN_BLOCK]
            values = biweight_rho(data[:, None, :] - block[:, :, None], c).sum(axis=2)
            assert np.all(bounds[:, k] <= values.min(axis=1))


def _one_shot_block_bounds(data, c: float, grid) -> np.ndarray:
    """``_block_bounds`` as one ``(rows, blocks, n)`` array: the reference for its blocks."""
    points = grid.shape[1]
    starts = np.arange(0, points, _SCAN_BLOCK)
    lo = grid[:, starts, None]
    hi = grid[:, np.minimum(starts + _SCAN_BLOCK, points) - 1, None]
    x = data[:, None, :]
    return biweight_rho(np.maximum(np.maximum(lo - x, x - hi), 0.0), c).sum(axis=2)


def test_scan_slabs_keep_the_bits():
    # the many-row cases span several slabs of the scan's blocks and end in
    # a partial one; the bounds, formed one block at a time over every row,
    # are those of one (rows, blocks, n) array
    for rows in _SLABBED_ROWS:
        size = solver.slab_rows(_SCAN_BLOCK, 50)
        assert rows > size and rows % size
    for case in [*_scan_cases(), _tied_blocks()]:
        data, bounds, grid = _bounds_and_grid(*case)
        assert np.array_equal(bounds, _one_shot_block_bounds(data, case[1], grid))


def _old_biweight_rho(u, c: float):
    """The loss as one expression, with a temporary per step: ``biweight_rho``'s reference."""
    u = np.asarray(u, dtype=float)
    t = np.clip(1.0 - (u / c) ** 2, 0.0, None)
    return (c * c / 6.0) * (1.0 - t**3)


def _old_biweight_ddrho(u, c: float):
    """The second derivative as one expression: ``biweight_ddrho``'s reference."""
    u = np.asarray(u, dtype=float)
    s = (u / c) ** 2
    return np.where(s <= 1.0, (1.0 - s) * (1.0 - 5.0 * s), 0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("fn, old", [(biweight_rho, _old_biweight_rho),
                                     (biweight_ddrho, _old_biweight_ddrho)])
def test_biweight_in_place_keeps_the_bits(fn, old):
    rng = np.random.default_rng(8)
    for c in (0.5, 1.0, 2.0, 4.685, 1e-3, 1e3):
        edges = [0.0, -0.0, c, -c, np.nextafter(c, 0.0), np.nextafter(c, np.inf),
                 np.nextafter(-c, -np.inf), 1e308, -1e308, 5e-324, np.inf, np.nan]
        # below, at and above c, as a vector and as a (rows, points, n) block
        for u in (np.array(edges), c * rng.uniform(-2.0, 2.0, (7, 64, 50))):
            before = u.copy()
            got, want = fn(u, c), old(u, c)
            assert np.array_equal(u, before, equal_nan=True)  # the input is not written to
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        # a scalar or 0-d input gives the old type and bits (for the loss,
        # numpy's scalar arithmetic, whose cube rounds unlike the array loop)
        for value in [*edges, *(c * rng.uniform(-2.0, 2.0, 200))]:
            for u in (float(value), np.float64(value), np.array(value)):
                got, want = fn(u, c), old(u, c)
                assert type(got) is type(want), (u, c, type(got), type(want))
                assert np.array_equal(got, want, equal_nan=True), (u, c, got, want)
    assert fn([1, 2], 2.0).tolist() == old([1, 2], 2.0).tolist()


def test_minimize_scan_absorbs_a_bound_overstated_by_rounding(monkeypatch):
    # the computed bound rounds like the values and is summed in their
    # order, so it never exceeds them; one summed in another order, or with a
    # pow that is not monotone, may exceed them by rounding, and the slack
    # keeps such a block visited (here the left one of the tied blocks)
    exact = solver._block_bounds
    monkeypatch.setattr(solver, "_block_bounds", lambda data, c, at, points: (
        exact(data, c, at, points) * (1.0 + data.shape[1] * 2.0**-52)))
    for data, c, bracket, points in [*_scan_cases(), _tied_blocks()]:
        assert np.array_equal(_scan(data, c, bracket, points),
                              _exhaustive_scan(data, c, _linspace(bracket, points)))


def test_minimize_scan_rejects_what_the_bound_cannot_handle():
    data = np.array([0.0, 1.0, 2.5])
    window = Bracket(-3.0, 3.0)
    # too few points, and grids where rounding puts two points together:
    # near 1e16 the float spacing is 2, so 2001 points over 64 cannot all
    # differ; one row of a per-row bracket is enough
    for bracket, points, cause in (
        (window, 1, "scan grid needs at least 2 points, got 1"),
        (window, 0, "scan grid needs at least 2 points, got 0"),
        (Bracket(1e16, 1e16 + 64.0), 2001,
         "scan grid must be finite and strictly increasing along each row"),
        (Bracket(np.array([-3.0, 1e16]), np.array([3.0, 1e16 + 64.0])), 2001,
         "scan grid must be finite and strictly increasing along each row"),
        (Bracket(0.0, 5e-324), 3,
         "scan grid must be finite and strictly increasing along each row"),
    ):
        with pytest.raises(ValueError, match=f"^{cause}$"):
            minimize_scan(BiweightLocation(np.stack([data, data]), 2.0), bracket, points)
    # the same spacing, with points far enough apart, scans
    assert minimize_scan(BiweightLocation(data + 1e16, 2.0),
                         Bracket(1e16 - 4096.0, 1e16 + 4096.0), 2001) > 0.0
    # the objective checks its tuning constant and its data
    for c in (0.0, -2.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^biweight needs a finite params\.c > 0, got "):
            BiweightLocation(data, c=c)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^data must be finite$"):
            BiweightLocation(np.array([[0.0, 1.0], [bad, 2.0]]), 2.0)
    # the scan's block bound holds for the biweight loss alone
    for obj in (PowerLoss(data, p=1.5), AbsoluteDeviation(np.stack([data, data]))):
        with pytest.raises(TypeError, match=f"^minimize_scan minimizes a biweight objective, "
                                            f"got {obj.kind!r}$"):
            minimize_scan(obj, window, 101)


def test_minimize_scan_peak_memory_matches_the_exhaustive_scan():
    # the bounds and the visiting order add well under 1 MiB to the block
    # evaluation both scans share; a buffer kept through the loop shows here
    data = np.random.default_rng(5).standard_normal((512, 50))
    window = Bracket(-3.0, 3.0)
    peaks = []
    for scan in (lambda: _exhaustive_scan(data, 2.0, _linspace(window, 1201)),
                 lambda: _scan(data, 2.0, window, 1201)):
        tracemalloc.start()
        scan()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


def test_minimize_scan_peak_memory_is_a_few_slabs():
    # a slab of rows at a time: the block values, their distances and the
    # bounds stay a few MiB, where one array per block took 51 MiB at 512 rows
    data = np.random.default_rng(5).standard_normal((512, 50))
    tracemalloc.start()
    _scan(data, 2.0, Bracket(-3.0, 3.0), 1201)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * 2**20
