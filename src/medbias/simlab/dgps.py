"""Data-generating processes for the experiment suite.

Univariate laws carry the exact quantities the estimator targets need (point
of symmetry, mean, quantile function), so experiments never estimate their
own target.  The regression designs below them generate the partialled and
partial-linear experiments; the ``leverage_mix`` design couples observation
scale to the sign of the noise covariance, which gives the nuisance cross
term a conditional mean that grows with the covariate dimension -- the
regime where dimension scaling becomes visible.
"""

import inspect
import math
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..plm import PlmDgp, linear, sine


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_params(params: dict, defaults: dict, owner: str) -> dict:
    """``params`` over ``defaults``, which name every key ``owner`` reads.

    Other keys are rejected; a value must be an integer where its default is
    one, and a finite number otherwise.
    """
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"params {unknown} are not read by {owner}; it reads {sorted(defaults)}")
    for key, value in params.items():
        if is_int(defaults[key]) and not is_int(value):
            raise ValueError(f"{owner}: params.{key} must be an integer, got {value!r}")
        if not is_real(value):
            raise ValueError(f"{owner}: params.{key} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity, or an int no float holds
            raise ValueError(f"{owner}: params.{key} must be finite, got {value!r}")
    return {**defaults, **params}


#: The params each scalar law reads, with their defaults.
UNIVARIATE_DGPS = {
    "standard_normal": {},
    "uniform": {"lo": -1.0, "hi": 1.0},
    "logistic": {"scale": 1.0},
    "laplace": {"scale": 1.0},
    "exp_centered": {"scale": 1.0},
}


@dataclass(frozen=True)
class UnivariateDgp:
    """Scalar iid law with exact target functionals.

    ``params`` are checked against the law's entry in ``UNIVARIATE_DGPS`` and
    stored with its defaults filled in.
    """

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in UNIVARIATE_DGPS:
            raise ValueError(f"unknown scalar DGP {self.name!r}; known: {sorted(UNIVARIATE_DGPS)}")
        owner = f"scalar DGP {self.name!r}"
        p = {key: float(value) for key, value in
             read_params(self.params, UNIVARIATE_DGPS[self.name], owner).items()}
        if "scale" in p and not p["scale"] > 0.0:
            raise ValueError(f"{owner} needs params.scale > 0, got {p['scale']!r}")
        if "lo" in p and not p["lo"] < p["hi"]:
            raise ValueError(f"{owner} needs params.lo < params.hi, got lo={p['lo']!r}, "
                             f"hi={p['hi']!r}")
        # numpy's uniform raises OverflowError on every draw from such a range
        if "lo" in p and not math.isfinite(p["hi"] - p["lo"]):
            raise ValueError(f"{owner} needs a finite params.hi - params.lo, got lo={p['lo']!r}, "
                             f"hi={p['hi']!r}")
        object.__setattr__(self, "params", p)

    def sample(self, rng, n: int) -> np.ndarray:
        p = self.params
        if self.name == "standard_normal":
            return rng.standard_normal(n)
        if self.name == "uniform":
            return rng.uniform(p["lo"], p["hi"], n)
        if self.name == "logistic":
            return rng.logistic(0.0, p["scale"], n)
        if self.name == "laplace":
            return rng.laplace(0.0, p["scale"], n)
        return rng.exponential(p["scale"], n) - p["scale"]

    @property
    def center(self) -> float | None:
        """Point of symmetry, when the law has one."""
        if self.name == "uniform":
            return 0.5 * (self.params["lo"] + self.params["hi"])
        if self.name in ("standard_normal", "logistic", "laplace"):
            return 0.0
        return None

    @property
    def mean(self) -> float:
        return 0.0 if self.name == "exp_centered" else self.center

    def quantile(self, q: float) -> float:
        """Exact quantile function."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        p = self.params
        if q == 0.5 and self.center is not None:
            return self.center
        if self.name == "standard_normal":
            # ndtri is what scipy.stats.norm.ppf evaluates at loc 0, scale 1
            from scipy.special import ndtri
            return float(ndtri(q))
        if self.name == "uniform":
            return p["lo"] + q * (p["hi"] - p["lo"])
        if self.name == "logistic":
            return p["scale"] * math.log(q / (1.0 - q))
        if self.name == "laplace":
            if q < 0.5:
                return p["scale"] * math.log(2.0 * q)
            return -p["scale"] * math.log(2.0 * (1.0 - q))
        return -p["scale"] * math.log(1.0 - q) - p["scale"]


def make_dgp(name: str, **params) -> UnivariateDgp:
    return UnivariateDgp(name=name, params=params)


# ---------------------------------------------------------------------------
# Regression designs for the partialled experiments.


def _draw_rows(rngs, y, t, x):
    """Row k of x, then of t, then of y, standard normal from the k-th generator of ``rngs``."""
    for rng, y_k, t_k, x_k in zip(rngs, y, t, x, strict=True):
        rng.standard_normal(out=x_k)
        rng.standard_normal(out=t_k)
        rng.standard_normal(out=y_k)


def sample_gaussian_design(rngs, y, t, x, theta0: float):
    """Plain exogenous Gaussian design with independent unit noises.

    Each row draws x, then its treatment noise into ``t``, then its response
    noise into ``y``, which then gets ``theta0 t`` added.  The population
    covariate coefficients are zero, so the population residuals are the
    raw noises.
    """
    _draw_rows(rngs, y, t, x)
    y += theta0 * t


def sample_leverage_mix_design(rngs, y, t, x, theta0: float, rho: float = 0.8,
                               scale_hi: float = 2.0, scale_lo: float = 0.5):
    """Two-group Gaussian design whose cross term has a dimension-sized mean.

    Half of the observations carry covariates of scale ``scale_hi`` and noise
    pair correlation ``+rho``; the other half scale ``scale_lo`` and
    correlation ``-rho``.  The correlations cancel in every population
    target (the covariate coefficients are zero, the score sum and the
    covariate moment conditions stay centered), but leverage concentrates on
    the high-scale half, so the conditional mean of the nuisance cross term
    grows linearly in the covariate dimension.  Each row draws x, then the
    treatment noise v into ``t``, then an independent w into ``y``, which
    becomes theta0 v + (+-rho v + sqrt(1 - rho^2) w).  ``design_params``
    checks the params before any draw.
    """
    _draw_rows(rngs, y, t, x)
    half = t.shape[1] // 2
    x[:, :half] *= scale_hi
    x[:, half:] *= scale_lo
    y *= math.sqrt(1.0 - rho * rho)
    y[:, :half] += rho * t[:, :half]
    y[:, half:] -= rho * t[:, half:]
    y += theta0 * t


DESIGNS = {
    "gaussian": sample_gaussian_design,
    "leverage_mix": sample_leverage_mix_design,
}


def design_params(name: str, params: dict) -> dict:
    """A design's params with its sampler's defaults filled in, checked before any draw."""
    try:
        sampler = DESIGNS[name]
    except KeyError:
        raise ValueError(f"unknown design {name!r}; known: {sorted(DESIGNS)}") from None
    defaults = {key: arg.default for key, arg in inspect.signature(sampler).parameters.items()
                if arg.default is not arg.empty}
    owner = f"design {name!r}"
    params = read_params(params, defaults, owner)
    if not 0.0 <= params.get("rho", 0.0) < 1.0:
        raise ValueError(f"{owner} needs params.rho in [0, 1), got {params['rho']!r}")
    for key in ("scale_hi", "scale_lo"):
        if not params.get(key, 1.0) > 0.0:
            raise ValueError(f"{owner} needs params.{key} > 0, got {params[key]!r}")
    return params


def sample_design(name: str, rngs, y, t, x, theta0: float, **params):
    """Draw one sample per generator of ``rngs`` into the rows of y, t (rows, n) and x (rows, n, d).

    The arrays are filled in place; ``params`` are as ``design_params``
    returns them.  Nothing is checked here: the caller checks the filled
    block once, so a draw that overflows to inf raises no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        DESIGNS[name](rngs, y, t, x, theta0, **params)


# ---------------------------------------------------------------------------
# Partial-linear processes by name.


#: The params each partial-linear process reads, with their defaults.
PLM_DGPS = {
    "smooth_default": {"d": 3, "theta0": 1.0, "sigma_u": 1.0, "sigma_v": 1.0},
    "linear_1d": {"theta0": 1.0},
    "smooth_1d": {"theta0": 1.0},
}


def make_plm_dgp(name: str, **params) -> PlmDgp:
    """Named partial-linear processes used by the rate experiments."""
    if name not in PLM_DGPS:
        raise ValueError(f"unknown partial-linear process {name!r}; known: {sorted(PLM_DGPS)}")
    owner = f"partial-linear process {name!r}"
    p = read_params(params, PLM_DGPS[name], owner)
    theta0 = float(p["theta0"])
    if name == "smooth_default":
        d = p["d"]
        if d < 1:
            raise ValueError(f"{owner} needs params.d >= 1, got {d}")
        weights = [0.5] + [0.0] * (d - 2) + [-0.25] if d >= 2 else [0.5]
        return PlmDgp(theta0, g0=partial(sine, amplitude=1.0, frequency=1.0),
                      m0=partial(linear, weights=np.array(weights)),
                      sigma_u=float(p["sigma_u"]), sigma_v=float(p["sigma_v"]), dim=d)
    if name == "linear_1d":
        return PlmDgp(theta0, g0=partial(linear, weights=np.array([1.0])),
                      m0=partial(linear, weights=np.array([0.5])))
    return PlmDgp(theta0, g0=partial(sine, amplitude=1.0, frequency=1.5),
                  m0=partial(sine, amplitude=0.8, frequency=0.7))
