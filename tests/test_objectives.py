"""Tests for the location objectives: values, subgradients, likelihood pieces."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from medbias import (
    AbsoluteDeviation,
    BiweightLocation,
    Bracket,
    CheckLoss,
    LogisticLocation,
    NegativeLogLikelihood,
    NormalLocation,
    PowerLoss,
    make_family,
    make_objective,
    minimize_convex,
)


def loglik_ratio_sum(family, data, theta0: float, eps: float) -> float:
    """Oracle: sum over the data of log p_{theta0+eps}(x) - log p_{theta0}(x).

    Equals the drop in the negative log-likelihood objective when moving from
    ``theta0`` to ``theta0 + eps``; the lab counts its signs batched through
    ``llr_sign_indicators``.
    """
    x = np.asarray(data, dtype=float)
    return float(np.sum(family.log_density(x, theta0 + eps) - family.log_density(x, theta0)))


def is_convex_on(obj, lo: float, hi: float, num: int = 65) -> bool:
    """Oracle: subgradient-monotonicity test for convexity on [lo, hi].

    Checks g_left <= g_right at each grid point and g_right(t_k) <=
    g_left(t_{k+1}) across consecutive points, within a scale-relative slack.
    A pass certifies convexity only up to the grid resolution.
    """
    grid = np.linspace(lo, hi, num)
    slack = 1e-9 * max(obj.scale_at(lo), obj.scale_at(hi))
    prev_right = -math.inf
    for theta in grid:
        left, right = obj.subgradient(float(theta))
        if left > right + slack or prev_right > left + slack:
            return False
        prev_right = right
    return True


FAMILY_CASES = [
    lambda data: AbsoluteDeviation(data),
    lambda data: CheckLoss(data, tau=0.3),
    lambda data: CheckLoss(data, tau=0.5),
    lambda data: PowerLoss(data, p=1.0),
    lambda data: PowerLoss(data, p=1.5),
    lambda data: PowerLoss(data, p=2.0),
    lambda data: PowerLoss(data, p=4.0),
    lambda data: NegativeLogLikelihood(data, NormalLocation(1.3)),
    lambda data: NegativeLogLikelihood(data, LogisticLocation(0.8)),
]


def test_eval_examples():
    assert AbsoluteDeviation([1, 3]).value(2.0) == pytest.approx(2.0, abs=1e-12)
    assert PowerLoss([0, 2], p=2).value(1.0) == pytest.approx(2.0, abs=1e-12)
    nll = NegativeLogLikelihood([0.0], NormalLocation(1.0))
    assert nll.value(0.0) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)


def test_check_loss_terms_nonnegative():
    rng = np.random.default_rng(0)
    data = rng.standard_normal(20)
    obj = CheckLoss(data, tau=0.25)
    for theta in np.linspace(-3, 3, 17):
        assert obj.value(float(theta)) >= 0.0


def test_subgradient_examples():
    left, right = AbsoluteDeviation([-1, 2, 3]).subgradient(0.0)
    assert left == right == -1.0
    left, right = PowerLoss([0, 2], p=2).subgradient(0.0)
    assert left == right == pytest.approx(-4.0, abs=1e-12)


def test_subgradient_interval_at_tie():
    # two data points equal to theta: right slope counts them <=, left excludes
    left, right = AbsoluteDeviation([1, 1, 5]).subgradient(1.0)
    assert (left, right) == (-3.0, 1.0)
    # one-sided difference quotients confirm the interval endpoints
    obj = AbsoluteDeviation([1, 1, 5])
    h = 1e-7
    forward = (obj.value(1.0 + h) - obj.value(1.0)) / h
    backward = (obj.value(1.0) - obj.value(1.0 - h)) / h
    assert forward == pytest.approx(right, abs=1e-6)
    assert backward == pytest.approx(left, abs=1e-6)


@pytest.mark.parametrize("factory", FAMILY_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_central_difference_brackets_subgradient(factory, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(15) * 2.0
    obj = factory(data)
    for theta in np.linspace(-2.5, 2.5, 11):
        theta = float(theta)
        scale = obj.scale_at(theta)
        h = 1e-5 * scale
        slope = (obj.value(theta + h) - obj.value(theta - h)) / (2 * h)
        left, right = obj.subgradient(theta)
        delta = 1e-4 * scale
        assert left - delta <= slope <= right + delta


@pytest.mark.parametrize("factory", FAMILY_CASES)
def test_subgradient_monotone(factory):
    rng = np.random.default_rng(5)
    data = rng.standard_normal(12)
    obj = factory(data)
    grid = np.linspace(-3, 3, 41)
    slack = 1e-12 * obj.scale_at(3.0)
    prev_right = -math.inf
    for theta in grid:
        left, right = obj.subgradient(float(theta))
        assert left <= right + slack
        assert prev_right <= left + slack
        prev_right = right


@pytest.mark.parametrize("factory", FAMILY_CASES)
def test_convexity_on_101_point_grid(factory):
    # midpoint value below the chord at every interior point of a 101-point grid
    rng = np.random.default_rng(9)
    data = rng.standard_normal(10)
    obj = factory(data)
    grid = np.linspace(-2.5, 2.5, 101)
    h = float(grid[1] - grid[0])
    for theta in grid[1:-1]:
        theta = float(theta)
        mid = obj.value(theta)
        chord = 0.5 * (obj.value(theta - h) + obj.value(theta + h))
        assert mid <= chord + 1e-9 * obj.scale_at(theta)


def test_abs_dev_score_integer_with_matching_parity():
    rng = np.random.default_rng(11)
    for n in (3, 4, 7, 10):
        data = rng.standard_normal(n)
        _, right = AbsoluteDeviation(data).subgradient(0.33)
        assert right == int(right)
        assert int(right) % 2 == n % 2


@pytest.mark.parametrize("seed", range(8))
def test_check_loss_half_matches_abs_dev(seed):
    # tau = 1/2 check loss has half the subgradient and the same minimizers
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(rng.integers(4, 12))
    half = CheckLoss(data, tau=0.5)
    absd = AbsoluteDeviation(data)
    for theta in np.linspace(-2, 2, 9):
        cl, cr = half.subgradient(float(theta))
        al, ar = absd.subgradient(float(theta))
        assert 2 * cl == pytest.approx(al, abs=1e-12)
        assert 2 * cr == pytest.approx(ar, abs=1e-12)
    bracket = Bracket(-10, 10)
    assert minimize_convex(half, bracket) == pytest.approx(
        minimize_convex(absd, bracket), abs=2 * bracket.tol
    )


def test_power_loss_rejects_nonconvex_exponent():
    with pytest.raises(ValueError):
        PowerLoss([1.0, 2.0], p=0.5)


def test_check_loss_rejects_bad_tau():
    with pytest.raises(ValueError):
        CheckLoss([1.0], tau=0.0)
    with pytest.raises(ValueError):
        CheckLoss([1.0], tau=1.0)


def test_loglik_ratio_examples():
    fam = NormalLocation(1.0)
    assert loglik_ratio_sum(fam, [0.0], 0.0, 1.0) == pytest.approx(-0.5, abs=1e-12)
    assert loglik_ratio_sum(fam, [3.0, -1.0], 0.2, 0.0) == 0.0


@pytest.mark.parametrize("family", [NormalLocation(1.0), LogisticLocation(0.7)])
def test_loglik_ratio_matches_objective_drop(family):
    rng = np.random.default_rng(21)
    data = rng.standard_normal(30)
    obj = NegativeLogLikelihood(data, family)
    for eps in (-0.8, -0.2, 0.3, 1.1):
        expected = obj.value(0.1) - obj.value(0.1 + eps)
        assert loglik_ratio_sum(family, data, 0.1, eps) == pytest.approx(expected, abs=1e-9)


def test_gaussian_expected_llr_closed_form():
    # per-observation expectation is -eps^2 / (2 sigma^2); Monte-Carlo check
    fam = NormalLocation(1.0)
    n, eps = 100, 0.1
    assert fam.expected_log_likelihood_ratio(0.0, eps) == pytest.approx(-eps**2 / 2, abs=1e-15)
    rng = np.random.default_rng(33)
    reps = 10_000
    sums = np.array([
        loglik_ratio_sum(fam, rng.standard_normal(n), 0.0, eps) for r in range(reps)
    ])
    exact = -n * eps**2 / 2
    se = sums.std() / math.sqrt(reps)
    assert abs(sums.mean() - exact) <= 3 * se


def test_logistic_expected_llr_negative_and_symmetricish():
    fam = LogisticLocation(1.0)
    for eps in (0.1, 0.5, 2.0):
        value = fam.expected_log_likelihood_ratio(0.0, eps)
        assert value < 0.0
        # location symmetry: KL to +eps equals KL to -eps
        assert value == pytest.approx(fam.expected_log_likelihood_ratio(0.0, -eps), rel=1e-8)


def test_logistic_expected_llr_rejects_failed_quadrature():
    # the quadrature value is returned unchanged where it agrees with the
    # closed form 2 - u / tanh(u / 2); where it misses the mass, it raises
    fam = LogisticLocation(1.0)
    for shift, value in ((0.2, -0.006662226450797908), (1.0, -0.16395341373865288),
                         (10.0, -8.000908039820194), (100.0, -98.0),
                         (1e3, -998.0000000000002)):
        assert fam.expected_log_likelihood_ratio(0.0, shift) == value
    with pytest.raises(ValueError, match=r"at shift 10000\.0 gives .*closed form -9998\.0"):
        fam.expected_log_likelihood_ratio(0.0, 1e4)


def test_logistic_expected_llr_is_quad_bit_for_bit(monkeypatch):
    # the method calls QUADPACK's qagse from scipy's compiled extension with
    # quad's arguments: the value bits and whether QUADPACK reports success
    # (ier == 0; quad warns otherwise) match scipy.integrate.quad on every shift
    from scipy import integrate
    from medbias import objectives

    quadpack = objectives._quadpack()
    calls = []

    class Recorder:
        @staticmethod
        def _qagse(integrand, a, b, *args):
            # each value the integrand gives, so that quad on the same points
            # reads them back instead of evaluating them again
            values = {}

            def memo(x):
                if x not in values:
                    values[x] = integrand(x)
                return values[x]

            out = quadpack._qagse(memo, a, b, *args)
            calls.append((memo, a, b, out))
            return out

    monkeypatch.setattr(objectives, "_quadpack", lambda: Recorder)
    magnitudes = [float(m) for m in np.logspace(-7.0, 5.0, 500)] + [1e4, 1e200]
    shifts = magnitudes + [-m for m in magnitudes]
    for scale in (0.3, 1.0, 2.0, 7.5):
        family = LogisticLocation(scale)
        for shift in shifts:
            del calls[:]
            try:
                value = family.expected_log_likelihood_ratio(0.0, shift)
            except ValueError:
                value = None
            (integrand, a, b, (ours, _, ier)), = calls
            span = 40.0 * scale + 4.0 * abs(shift)
            assert (a, b) == (-span, span)
            assert value is None or value == ours
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reference, _ = integrate.quad(integrand, -span, span, limit=200)
            assert np.float64(ours).view(np.uint64) == np.float64(reference).view(np.uint64)
            assert (ier == 0) == (not caught), (scale, shift, ier, caught)


def test_quad_runs_after_the_extension_is_bound():
    # in a fresh interpreter: the method loads the extension without
    # scipy.integrate, and a later import of scipy.integrate reuses it
    child = """
import json, math, sys
from medbias.objectives import LogisticLocation
family = LogisticLocation(2.0)
value = family.expected_log_likelihood_ratio(0.0, 0.7)
bound = sys.modules["scipy.integrate._quadpack"]
before = "scipy.integrate" in sys.modules
from scipy import integrate
def integrand(x):
    delta = family.log_density(x, 0.7) - family.log_density(x, 0.0)
    return float(delta * math.exp(family.log_density(x, 0.0)))
span = 40.0 * 2.0 + 4.0 * 0.7
reference, _ = integrate.quad(integrand, -span, span, limit=200)
print(json.dumps([before, sys.modules["scipy.integrate._quadpack"] is bound,
                  value.hex(), reference.hex()]))
"""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert done.returncode == 0, done.stderr
    before, same_module, value, reference = json.loads(done.stdout)
    assert not before and same_module
    assert value == reference


def test_missing_quadpack_routine_names_the_scipy_version(monkeypatch):
    import types
    from scipy import __version__
    from medbias import objectives

    monkeypatch.setitem(sys.modules, "scipy.integrate._quadpack", types.ModuleType("stub"))
    objectives._quadpack.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=rf"^scipy {__version__} has no compiled QUADPACK"):
            LogisticLocation(1.0).expected_log_likelihood_ratio(0.0, 0.5)
    finally:
        objectives._quadpack.cache_clear()


def test_logistic_density_integrates_to_one():
    from scipy import integrate
    fam = LogisticLocation(0.8)
    total, _ = integrate.quad(lambda x: math.exp(float(fam.log_density(x, 0.3))), -60, 60)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_make_objective_factory():
    data = [1.0, 2.0]
    assert isinstance(make_objective("abs_dev", data), AbsoluteDeviation)
    assert isinstance(make_objective("quantile", data, tau=0.3), CheckLoss)
    assert isinstance(make_objective("lp", data, p=3.0), PowerLoss)
    nll = make_objective("neg_loglik", data, family_name="logistic_location",
                         family_params={"scale": 2.0})
    assert isinstance(nll, NegativeLogLikelihood)
    assert nll.family.scale == 2.0
    # without a family name, the normal-location family, as the lab defaults
    default = make_objective("neg_loglik", data)
    assert isinstance(default.family, NormalLocation) and default.family.sigma == 1.0
    with pytest.raises(ValueError):
        make_objective("nope", data)
    with pytest.raises(ValueError):
        make_family("nope")


def test_biweight_shape_and_convexity_probe():
    data = np.array([-5.0, -4.5, 4.0, 5.0, 0.1])
    obj = BiweightLocation(data, c=2.0)
    assert not obj.is_convex
    assert not is_convex_on(obj, -6.0, 6.0)
    # tight window around a cluster is convex
    tight = BiweightLocation(np.array([-0.2, 0.1, 0.3]), c=2.0)
    assert is_convex_on(tight, -0.5, 0.5)


def test_biweight_curvature_agrees_with_monotonicity_probe():
    # the vectorized window check used by the experiments (minimum summed
    # curvature over a grid) must agree with the subgradient-monotonicity
    # probe on clear-cut windows
    from medbias.objectives import biweight_ddrho

    def curvature_convex(data, lo, hi, c=2.0, num=65):
        grid = np.linspace(lo, hi, num)
        curv = np.array([biweight_ddrho(data - t, c).sum() for t in grid])
        return bool(curv.min() >= 0.0)

    clustered = np.array([-0.2, 0.1, 0.3, -0.4])
    spread = np.array([-5.0, -4.5, 4.0, 5.0, 0.1])
    for data, lo, hi in [(clustered, -0.5, 0.5), (spread, -6.0, 6.0),
                         (spread, -0.2, 0.2), (clustered, -3.0, 3.0)]:
        obj = BiweightLocation(data, c=2.0)
        assert curvature_convex(data, lo, hi) == is_convex_on(obj, lo, hi)


def test_biweight_second_derivative_matches_difference_quotient():
    # the row-wise summed curvature the window-convexity check computes
    from medbias.objectives import biweight_ddrho

    rng = np.random.default_rng(3)
    data = rng.standard_normal((4, 20))
    h = 1e-5
    for theta in (-0.7, 0.0, 0.4):
        curv = biweight_ddrho(data - theta, 2.0).sum(axis=1)
        for row, expected in zip(data, curv):
            obj = BiweightLocation(row, c=2.0)
            numeric = (obj.subgradient(theta + h).left - obj.subgradient(theta - h).left) / (2 * h)
            assert numeric == pytest.approx(expected, abs=1e-3)


def test_lp_open_question_tie_interval_at_p1():
    # p = 1 at a data point returns the full subgradient interval
    left, right = PowerLoss([1.0, 4.0], p=1.0).subgradient(1.0)
    assert left == -2.0 and right == 0.0
    # p > 1 is differentiable there
    left, right = PowerLoss([1.0, 4.0], p=1.5).subgradient(1.0)
    assert left == right
