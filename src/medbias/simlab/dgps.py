"""Data-generating processes for the experiment suite.

Univariate laws carry the exact quantities the estimator targets need (point
of symmetry, mean, quantile function), so experiments never estimate their
own target.  The regression designs below them generate the partialled and
partial-linear experiments; the ``leverage_mix`` design couples observation
scale to the sign of the noise covariance, which gives the nuisance cross
term a conditional mean that grows with the covariate dimension -- the
regime where dimension scaling becomes visible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..partialling import RegressionData
from ..plm import CovariateSpec, FunctionSpec, NoiseSpec, PlmDgp


UNIVARIATE_DGPS = ("standard_normal", "uniform", "logistic", "laplace", "exp_centered")
PLM_DGPS = ("smooth_default", "linear_1d", "smooth_1d")


@dataclass(frozen=True)
class UnivariateDgp:
    """Scalar iid law with exact target functionals."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in UNIVARIATE_DGPS:
            raise ValueError(f"unknown scalar DGP {self.name!r}; known: {UNIVARIATE_DGPS}")

    def sample(self, rng, n: int) -> np.ndarray:
        p = self.params
        if self.name == "standard_normal":
            return rng.standard_normal(n)
        if self.name == "uniform":
            return rng.uniform(float(p.get("lo", -1.0)), float(p.get("hi", 1.0)), n)
        if self.name == "logistic":
            return rng.logistic(0.0, float(p.get("scale", 1.0)), n)
        if self.name == "laplace":
            return rng.laplace(0.0, float(p.get("scale", 1.0)), n)
        scale = float(p.get("scale", 1.0))
        return rng.exponential(scale, n) - scale

    @property
    def center(self) -> float | None:
        """Point of symmetry, when the law has one."""
        if self.name == "uniform":
            return 0.5 * (float(self.params.get("lo", -1.0)) + float(self.params.get("hi", 1.0)))
        if self.name in ("standard_normal", "logistic", "laplace"):
            return 0.0
        return None

    @property
    def mean(self) -> float:
        if self.name == "exp_centered":
            return 0.0
        center = self.center
        assert center is not None
        return center

    def quantile(self, q: float) -> float:
        """Exact quantile function."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        p = self.params
        if q == 0.5 and self.center is not None:
            return self.center
        if self.name == "standard_normal":
            from scipy.stats import norm
            return float(norm.ppf(q))
        if self.name == "uniform":
            lo, hi = float(p.get("lo", -1.0)), float(p.get("hi", 1.0))
            return lo + q * (hi - lo)
        if self.name == "logistic":
            return float(p.get("scale", 1.0)) * math.log(q / (1.0 - q))
        if self.name == "laplace":
            scale = float(p.get("scale", 1.0))
            if q < 0.5:
                return scale * math.log(2.0 * q)
            return -scale * math.log(2.0 * (1.0 - q))
        scale = float(p.get("scale", 1.0))
        return -scale * math.log(1.0 - q) - scale


def make_dgp(name: str, **params) -> UnivariateDgp:
    return UnivariateDgp(name=name, params=params)


def target_for(dgp: UnivariateDgp, estimator_kind: str, estimator_params: dict) -> float:
    """Population target of an estimator under a DGP, in closed form."""
    if estimator_kind == "abs_dev":
        return dgp.quantile(0.5)
    if estimator_kind == "quantile":
        return dgp.quantile(float(estimator_params["tau"]))
    if estimator_kind in ("lp", "biweight"):
        center = dgp.center
        if estimator_kind == "lp" and float(estimator_params["p"]) == 2.0:
            return dgp.mean
        if center is None:
            raise ValueError(
                f"no closed-form target for {estimator_kind} under asymmetric {dgp.name}"
            )
        return center
    if estimator_kind == "neg_loglik":
        family = estimator_params.get("family_name", "normal_location")
        if family == "normal_location":
            return dgp.mean
        center = dgp.center
        if center is None:
            raise ValueError(f"no closed-form target for logistic MLE under {dgp.name}")
        return center
    raise ValueError(f"unknown estimator kind {estimator_kind!r}")


# ---------------------------------------------------------------------------
# Regression designs for the partialled experiments.


def sample_gaussian_design(rng, n: int, d: int, theta0: float):
    """Plain exogenous Gaussian design with independent unit noises.

    Returns the dataset plus the population coefficient targets; with zero
    covariate coefficients the population residuals are the raw noises.
    """
    x = rng.standard_normal((n, d))
    v = rng.standard_normal(n)
    u = rng.standard_normal(n)
    t = v
    y = theta0 * t + u
    beta = np.zeros(d)
    return RegressionData(y=y, t=t, x=x), beta, beta


def sample_leverage_mix_design(rng, n: int, d: int, theta0: float,
                               rho: float = 0.8, scale_hi: float = 2.0,
                               scale_lo: float = 0.5):
    """Two-group Gaussian design whose cross term has a dimension-sized mean.

    Half of the observations carry covariates of scale ``scale_hi`` and noise
    pair correlation ``+rho``; the other half scale ``scale_lo`` and
    correlation ``-rho``.  The correlations cancel in every population
    target (the score sum and the covariate moment conditions stay centered),
    but leverage concentrates on the high-scale half, so the conditional mean
    of the nuisance cross term grows linearly in the covariate dimension.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")
    half = n // 2
    x = rng.standard_normal((n, d))
    x[:half] *= scale_hi
    x[half:] *= scale_lo
    v = rng.standard_normal(n)
    w = rng.standard_normal(n)
    sign = np.ones(n)
    sign[half:] = -1.0
    u = sign * rho * v + math.sqrt(1.0 - rho * rho) * w
    t = v
    y = theta0 * t + u
    beta = np.zeros(d)
    return RegressionData(y=y, t=t, x=x), beta, beta


DESIGNS = {
    "gaussian": sample_gaussian_design,
    "leverage_mix": sample_leverage_mix_design,
}


def sample_design(name: str, rng, n: int, d: int, theta0: float, **params):
    try:
        sampler = DESIGNS[name]
    except KeyError:
        raise ValueError(f"unknown design {name!r}; known: {sorted(DESIGNS)}") from None
    return sampler(rng, n, d, theta0, **params)


# ---------------------------------------------------------------------------
# Partial-linear processes by name.


def make_plm_dgp(name: str, **params) -> PlmDgp:
    """Named partial-linear processes used by the rate experiments."""
    if name == "smooth_default":
        d = int(params.get("d", 3))
        return PlmDgp(
            theta0=float(params.get("theta0", 1.0)),
            g0=FunctionSpec("sine", {"amplitude": 1.0, "frequency": 1.0, "coord": 0}),
            m0=FunctionSpec("linear", {"weights": [0.5] + [0.0] * (d - 2) + [-0.25]
                                       if d >= 2 else [0.5]}),
            noise_u=NoiseSpec("normal", {"sigma": float(params.get("sigma_u", 1.0))}),
            noise_v=NoiseSpec("normal", {"sigma": float(params.get("sigma_v", 1.0))}),
            x_law=CovariateSpec(dim=d),
        )
    if name == "linear_1d":
        return PlmDgp(
            theta0=float(params.get("theta0", 1.0)),
            g0=FunctionSpec("linear", {"weights": [1.0]}),
            m0=FunctionSpec("linear", {"weights": [0.5]}),
            noise_u=NoiseSpec("normal", {"sigma": 1.0}),
            noise_v=NoiseSpec("normal", {"sigma": 1.0}),
            x_law=CovariateSpec(dim=1),
        )
    if name == "smooth_1d":
        return PlmDgp(
            theta0=float(params.get("theta0", 1.0)),
            g0=FunctionSpec("sine", {"amplitude": 1.0, "frequency": 1.5}),
            m0=FunctionSpec("sine", {"amplitude": 0.8, "frequency": 0.7}),
            noise_u=NoiseSpec("normal", {"sigma": 1.0}),
            noise_v=NoiseSpec("normal", {"sigma": 1.0}),
            x_law=CovariateSpec(dim=1),
        )
    raise ValueError(f"unknown partial-linear process {name!r}; known: {PLM_DGPS}")
