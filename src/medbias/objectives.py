"""Location objectives with exact subgradients.

Each objective is a sum over the data of a per-observation loss in a scalar
location parameter.  The convex families (absolute deviation, check loss,
power loss with exponent >= 1, negative log-likelihood of a log-concave
location family) expose the left/right subgradient at every point, which is
what the sign-probability bounds consume.  A redescending bounded-influence
objective is included as the non-convex test case; it is smooth, so its
subgradient interval collapses to the derivative.

An objective holds one sample (1-d data, evaluated at a scalar theta to
Python floats) or a ``(rows, n)`` matrix of samples, evaluated row by row at
a scalar or per-row theta to per-row arrays.  Both shapes run the same code,
and each row's value equals, bit for bit, the 1-d objective on that row.
"""

import copy
import functools
import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import NamedTuple

import numpy as np


class SubgradientInterval(NamedTuple):
    left: float
    right: float


# ---------------------------------------------------------------------------
# Parametric location families (used by the likelihood objective and by the
# log-likelihood-ratio machinery).


class NormalLocation:
    """Normal location family with known standard deviation."""

    name = "normal_location"

    def __init__(self, sigma: float = 1.0):
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)

    def log_density(self, x, theta):
        z = (np.asarray(x, dtype=float) - theta) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - 0.5 * math.log(2.0 * math.pi)

    def score(self, x, theta):
        """d/dtheta log density."""
        return (np.asarray(x, dtype=float) - theta) / self.sigma**2

    def sample(self, rng, theta, size):
        return theta + self.sigma * rng.standard_normal(size)

    def expected_log_likelihood_ratio(self, theta0: float, shift: float) -> float:
        """Per-observation E[log p_{theta0+shift}(X) - log p_{theta0}(X)] under theta0."""
        return -0.5 * (shift / self.sigma) ** 2


class LogisticLocation:
    """Logistic location family with known scale."""

    name = "logistic_location"

    def __init__(self, scale: float = 1.0):
        if scale <= 0.0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def log_density(self, x, theta):
        z = (np.asarray(x, dtype=float) - theta) / self.scale
        # -z - 2*log(1 + exp(-z)) - log(scale), written overflow-safe
        return -np.abs(z) - 2.0 * np.log1p(np.exp(-np.abs(z))) - math.log(self.scale)

    def score(self, x, theta):
        z = (np.asarray(x, dtype=float) - theta) / self.scale
        return np.tanh(z / 2.0) / self.scale

    def sample(self, rng, theta, size):
        return rng.logistic(loc=theta, scale=self.scale, size=size)

    def expected_log_likelihood_ratio(self, theta0: float, shift: float) -> float:
        """Per-observation expected log-likelihood ratio, by quadrature.

        Location invariance makes the value independent of ``theta0``; it is
        minus the KL divergence from the centered density to its shift.  The
        integral is QUADPACK's ``qagse`` (``qagie`` on an infinite span) from
        scipy's compiled ``scipy.integrate._quadpack``, called with the
        arguments ``scipy.integrate.quad(integrand, -span, span, limit=200)``
        passes it, so it returns ``quad``'s value bit for bit.  The quadrature
        is checked against the closed form ``2 - u / tanh(u / 2)`` with
        ``u = |shift| / scale``, and a shift where the two disagree raises
        ``ValueError``: from a few thousand scales up the integrator misses
        the mass near the shift and returns about 0, and near 1e-5 scales it
        is off by more than the value itself.  A nonzero QUADPACK ``ier`` code
        is added to that error's message.
        """
        if shift == 0.0:
            return 0.0

        def integrand(x):
            base = self.log_density(x, 0.0)
            return float((self.log_density(x, shift) - base) * math.exp(base))

        quadpack = _quadpack()
        span = 40.0 * self.scale + 4.0 * abs(shift)
        # near the largest floats the integrand's arithmetic overflows; the
        # closed-form check below rejects what it returns, so numpy's
        # warnings would only reach stderr
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isinf(span):  # quad integrates (-inf, inf) by qagie
                value, _, ier = quadpack._qagie(integrand, 0, 2, (), 0, 1.49e-8, 1.49e-8, 200)
            else:
                value, _, ier = quadpack._qagse(integrand, -span, span, (), 0,
                                                1.49e-8, 1.49e-8, 200)
        u = abs(shift) / self.scale
        closed = 2.0 - u / math.tanh(u / 2.0)
        # the 1e-14 absolute term: at |shift| <= 1e-3 scales either value may be
        # about 2e-15 from the truth (the closed form cancels against 2), which
        # the relative term alone would reject
        if not abs(value - closed) <= 1e-9 * abs(closed) + 1e-14:
            failed = f"; QUADPACK ier={ier}" if ier else ""
            raise ValueError(
                f"quadrature of the {self.name} expected log-likelihood ratio at shift "
                f"{shift!r} gives {value!r}, the closed form {closed!r}{failed}"
            )
        # the quadrature value is returned, not the closed form: the two differ
        # in the last digits, and the lab's log-likelihood-ratio CSVs are
        # centered by the quadrature value
        return value


@functools.cache
def _quadpack():
    """scipy's compiled QUADPACK wrapper, without importing ``scipy.integrate``.

    ``scipy.integrate`` loads ``scipy.special``, ``optimize``, ``sparse`` and
    ``linalg``, about 0.6 s, for a routine that needs none of them.  The
    extension is loaded from scipy's ``integrate`` directory and registered
    under its own name, where a later ``import scipy.integrate`` finds it.
    """
    name = "scipy.integrate._quadpack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # imports no scipy module
        directory = os.path.join(scipy.submodule_search_locations[0], "integrate")
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
    if not hasattr(module, "_qagse"):
        from importlib.metadata import version
        raise RuntimeError(f"scipy {version('scipy')} has no compiled QUADPACK routine "
                           f"{name}._qagse")
    return module


_FAMILIES = {
    NormalLocation.name: NormalLocation,
    LogisticLocation.name: LogisticLocation,
}


def make_family(name: str, **params):
    """Build a likelihood family from its registry name and parameter map."""
    try:
        cls = _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; known: {sorted(_FAMILIES)}") from None
    return cls(**params)


# ---------------------------------------------------------------------------
# Objectives.


class LocationObjective:
    """Base class: holds the data and the tolerance anchor."""

    is_convex = True

    def __init__(self, data):
        x = np.asarray(data, dtype=float)
        if x.ndim not in (1, 2) or x.size == 0:
            raise ValueError("data must be a non-empty 1-d sequence or (rows, n) matrix")
        if not np.all(np.isfinite(x)):
            raise ValueError("data must be finite")
        # row sums in C order, as on the contiguous copies ``take`` makes
        self.data = np.ascontiguousarray(x)

    def take(self, rows) -> "LocationObjective":
        """The same objective on the given rows of its ``(rows, n)`` matrix."""
        sub = copy.copy(self)
        sub.data = self.data[rows]
        return sub

    def _per_row(self, theta):
        """The data as ``(rows, n)``, and theta as a column: one value per row, or one for all."""
        return (self.data.reshape(-1, self.data.shape[-1]),
                np.asarray(theta, dtype=float).reshape(-1, 1))

    def _result(self, per_row):
        """Per-row values, or a Python float for a 1-d objective."""
        return per_row.item() if self.data.ndim == 1 else per_row

    def _interval(self, left, right) -> SubgradientInterval:
        return SubgradientInterval(self._result(left), self._result(right))

    def scale_at(self, theta):
        """Affine-invariant tolerance anchor: 1 + max|x| + |theta|."""
        x, t = self._per_row(theta)
        return self._result(1.0 + np.abs(x).max(axis=1) + np.abs(t[:, 0]))

    def value(self, theta):
        raise NotImplementedError

    def subgradient(self, theta) -> SubgradientInterval:
        raise NotImplementedError


class AbsoluteDeviation(LocationObjective):
    """Sum of absolute deviations; minimized by the sample median."""

    kind = "abs_dev"

    def value(self, theta):
        x, t = self._per_row(theta)
        return self._result(np.abs(x - t).sum(axis=1))

    def subgradient(self, theta):
        x, t = self._per_row(theta)
        n_le = np.count_nonzero(x <= t, axis=1)
        n_eq = np.count_nonzero(x == t, axis=1)
        right = (2 * n_le - x.shape[1]).astype(float)
        return self._interval(right - 2.0 * n_eq, right)


def check_loss_rank(n: int, tau: float) -> float:
    """n * tau, or the integer it stands for when the float product is within
    1e-9 * n of one (25 * 0.28 is 7.000000000000001).

    The one rounding rule for the check loss at ``tau`` on ``n`` points: its
    subgradient counts against this value, and its closed-form argmin is a
    midpoint of two order statistics exactly when this value is an integer.
    """
    k = n * tau
    k_round = round(k)
    return float(k_round) if abs(k - k_round) < 1e-9 * n else k


class CheckLoss(LocationObjective):
    """Quantile check loss (tau - 1{x <= theta})(x - theta); each term >= 0."""

    kind = "quantile"

    def __init__(self, data, tau: float | None = None):
        super().__init__(data)
        if tau is None or not 0.0 < tau < 1.0:
            raise ValueError(f"quantile needs params.tau in (0, 1), got {tau!r}")
        self.tau = float(tau)

    def value(self, theta):
        x, t = self._per_row(theta)
        weight = np.where(x <= t, self.tau - 1.0, self.tau)
        return self._result((weight * (x - t)).sum(axis=1))

    def subgradient(self, theta):
        x, t = self._per_row(theta)
        n_le = np.count_nonzero(x <= t, axis=1)
        n_eq = np.count_nonzero(x == t, axis=1)
        right = n_le - check_loss_rank(x.shape[1], self.tau)
        return self._interval(right - n_eq, right)


class PowerLoss(LocationObjective):
    """Sum of |x - theta|**p for 1 <= p <= 2**53; p < 1 is non-convex and rejected."""

    kind = "lp"

    def __init__(self, data, p: float | None = None):
        super().__init__(data)
        # 2**53 is where floats stop holding every integer: past it p - 1, the
        # subgradient's exponent, rounds
        if p is None or not 1.0 <= p <= 2.0**53:
            raise ValueError(f"lp needs params.p in [1, 2**53] (p < 1 is non-convex, and past "
                             f"2**53 p - 1 is not exact), got {p!r}")
        self.p = float(p)

    def value(self, theta):
        x, t = self._per_row(theta)
        return self._result((np.abs(x - t) ** self.p).sum(axis=1))

    def subgradient(self, theta):
        x, t = self._per_row(theta)
        diff = t - x
        terms = np.abs(diff) ** (self.p - 1.0) * np.sign(diff)
        g = terms.sum(axis=1)
        away = diff != 0.0
        n_eq = x.shape[1] - np.count_nonzero(away, axis=1)
        for i in np.flatnonzero(n_eq):
            # a row with ties sums its nonzero terms only: the zero terms
            # would shift the pairwise-summation blocks, and so the rounding
            g[i] = terms[i][away[i]].sum()
        g = self.p * g
        if self.p > 1.0:  # the per-term derivative at a data point is 0
            return self._interval(g, g)
        # p == 1: each tied point contributes the full slope interval [-1, 1]
        return self._interval(g - n_eq, g + n_eq)


class NegativeLogLikelihood(LocationObjective):
    """Negative log-likelihood of a log-concave location family."""

    kind = "neg_loglik"

    def __init__(self, data, family):
        super().__init__(data)
        if not isinstance(family, tuple(_FAMILIES.values())):
            raise ValueError(
                "family must be one of the built-in log-concave location families"
            )
        self.family = family

    def value(self, theta):
        x, t = self._per_row(theta)
        return self._result(-self.family.log_density(x, t).sum(axis=1))

    def subgradient(self, theta):
        x, t = self._per_row(theta)
        g = -self.family.score(x, t).sum(axis=1)
        return self._interval(g, g)


# ---------------------------------------------------------------------------
# Bounded-influence (biweight) location objective: the non-convex test case.
# The per-observation loss is smooth, convex near zero and flat in the tails,
# so the full objective is convex on a window around the target only with
# some probability -- exactly the regime the non-convex bound addresses.


def biweight_rho(u, c: float):
    """Biweight loss: (c^2/6) * (1 - (1 - (u/c)^2)^3) inside |u| <= c, constant outside.

    Each step runs in place on the one result array, so a ``(rows, points,
    n)`` input costs one array of its size; ``u`` is not written to.  A
    scalar takes numpy's scalar arithmetic, whose cube rounds unlike the
    array loop's in about one value in twenty.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        t = np.clip(1.0 - (u / c) ** 2, 0.0, None)
        return (c * c / 6.0) * (1.0 - t**3)
    t = np.divide(u, c, out=np.empty(u.shape))
    np.square(t, out=t)
    np.subtract(1.0, t, out=t)
    np.maximum(t, 0.0, out=t)
    np.power(t, 3, out=t)
    np.subtract(1.0, t, out=t)
    np.multiply(t, c * c / 6.0, out=t)
    return t


def biweight_drho(u, c: float):
    """Derivative of the biweight loss: u * (1 - (u/c)^2)^2 inside, 0 outside."""
    u = np.asarray(u, dtype=float)
    t = np.clip(1.0 - (u / c) ** 2, 0.0, None)
    return u * t * t


def biweight_ddrho(u, c: float):
    """Second derivative: (1 - (u/c)^2)(1 - 5(u/c)^2) inside, 0 outside.

    In place on two arrays of the input's size, as ``biweight_rho``; a
    scalar gives a 0-d array.
    """
    u = np.asarray(u, dtype=float)
    s = np.divide(u, c, out=np.empty(u.shape))
    np.square(s, out=s)
    outside = ~(s <= 1.0)
    t = np.subtract(1.0, s, out=np.empty(u.shape))
    np.multiply(s, 5.0, out=s)
    np.subtract(1.0, s, out=s)
    np.multiply(t, s, out=t)
    np.copyto(t, 0.0, where=outside)
    return t


class BiweightLocation(LocationObjective):
    """Redescending location objective built from the biweight loss."""

    kind = "biweight"
    is_convex = False

    def __init__(self, data, c: float = 2.0):
        super().__init__(data)
        if not 0.0 < c < math.inf:
            raise ValueError(f"biweight needs a finite params.c > 0, got {c!r}")
        self.c = float(c)

    def value(self, theta):
        x, t = self._per_row(theta)
        return self._result(biweight_rho(x - t, self.c).sum(axis=1))

    def subgradient(self, theta):
        x, t = self._per_row(theta)
        g = -biweight_drho(x - t, self.c).sum(axis=1)
        return self._interval(g, g)


# ---------------------------------------------------------------------------
# Factory and convexity probe.


_OBJECTIVES = {
    cls.kind: cls
    for cls in (AbsoluteDeviation, CheckLoss, PowerLoss, NegativeLogLikelihood, BiweightLocation)
}


def make_objective(kind: str, data, **params) -> LocationObjective:
    """Build an objective from its kind name and parameter map.

    ``neg_loglik`` takes either a prebuilt ``family`` or ``family_name``
    (default ``normal_location``) plus ``family_params``.
    """
    if kind not in _OBJECTIVES:
        raise ValueError(f"unknown estimator kind {kind!r}; known: {sorted(_OBJECTIVES)}")
    if kind == NegativeLogLikelihood.kind and "family" not in params:
        params["family"] = make_family(params.pop("family_name", "normal_location"),
                                       **params.pop("family_params", {}))
    return _OBJECTIVES[kind](data, **params)

