"""Sample-split partial-linear model with rate-controllable nuisances.

The response is linear in the treatment plus a smooth function of the
covariates; the treatment is a smooth function of the covariates plus noise.
Nuisances stand for fits on one half of the data, and the treatment
coefficient is solved from a residual score on the other half.  The one
nuisance pair is ``corrupted_nuisances``: the truth plus a fixed direction
of known norm, so the nuisance error norms are exact, do not depend on the
data, and the product-of-rates behaviour of the conditional bias becomes a
deterministic experiment.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import med_bias
from .partialling import RegressionData

# ---------------------------------------------------------------------------
# Named smooth functions, noise laws, and the covariate law (config-addressable).


@dataclass(frozen=True)
class FunctionSpec:
    """Named smooth function of the covariates with a parameter map."""

    name: str
    params: dict = field(default_factory=dict)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p = self.params
        if self.name == "linear":
            weights = np.broadcast_to(
                np.asarray(p.get("weights", 1.0), dtype=float), (x.shape[1],)
            )
            return x @ weights + float(p.get("intercept", 0.0))
        if self.name == "sine":
            coord = int(p.get("coord", 0))
            return float(p.get("amplitude", 1.0)) * np.sin(
                float(p.get("frequency", 1.0)) * x[:, coord]
            )
        raise ValueError(f"unknown function name {self.name!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Mean-centered noise law."""

    name: str
    params: dict = field(default_factory=dict)

    def sample(self, rng, n: int) -> np.ndarray:
        p = self.params
        if self.name == "normal":
            return float(p.get("sigma", 1.0)) * rng.standard_normal(n)
        raise ValueError(f"unknown noise law {self.name!r}")


@dataclass(frozen=True)
class CovariateSpec:
    """Standard normal covariate vector; iid across observations."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def sample(self, rng, n: int) -> np.ndarray:
        return rng.standard_normal((n, self.dim))


@dataclass(frozen=True)
class PlmDgp:
    """Partial-linear data-generating process."""

    theta0: float
    g0: FunctionSpec
    m0: FunctionSpec
    noise_u: NoiseSpec
    noise_v: NoiseSpec
    x_law: CovariateSpec


def simulate_plm(dgp: PlmDgp, n: int, seed) -> RegressionData:
    """Draw one dataset: t = m0(x) + v and y = theta0 t + g0(x) + u."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x = dgp.x_law.sample(rng, n)
    v = dgp.noise_v.sample(rng, n)
    u = dgp.noise_u.sample(rng, n)
    t = dgp.m0(x) + v
    y = dgp.theta0 * t + dgp.g0(x) + u
    return RegressionData(y=y, t=t, x=x)


def split_indices(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 50/50 split of range(n) from a seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    perm = rng.permutation(n)
    half = n // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


# ---------------------------------------------------------------------------
# The corrupted nuisance pair: callables x -> prediction with closed-form
# error norms.


class CorruptedFit:
    """Truth plus a fixed perturbation of exactly known norm.

    The perturbation lives in the span of the first two Hermite directions
    h1(x) = x_1 and h2(x) = (x_1^2 - 1)/sqrt(2), an exactly orthonormal pair
    under a standard normal covariate law.  ``pair_overlap`` stores the inner
    product between this fit's direction and its partner's; closed-form error
    moments are reported from the stored rate and overlap, not re-derived
    from the coefficients.
    """

    def __init__(self, truth: FunctionSpec, rate: float, coeff_1: float,
                 coeff_2: float, pair_overlap: float):
        if rate < 0.0:
            raise ValueError("rate must be >= 0")
        if not -1.0 <= pair_overlap <= 1.0:
            raise ValueError("overlap must be in [-1, 1]")
        self.truth = truth
        self.rate = float(rate)
        self.coeff_1 = float(coeff_1)
        self.coeff_2 = float(coeff_2)
        self.pair_overlap = float(pair_overlap)

    def perturbation(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        h1 = x[:, 0]
        h2 = (np.square(x[:, 0]) - 1.0) / math.sqrt(2.0)
        return self.rate * (self.coeff_1 * h1 + self.coeff_2 * h2)

    def __call__(self, x):
        return self.truth(x) + self.perturbation(x)


def corrupted_nuisances(dgp: PlmDgp, rate: float, overlap: float = 1.0,
                        seed: int = 0) -> tuple[CorruptedFit, CorruptedFit]:
    """The pair (m_hat, g_hat): both truths perturbed with error norm ``rate``.

    ``overlap`` in [-1, 1] is the cosine between the two perturbation
    directions (1 aligns them, 0 makes them orthogonal); ``seed`` rotates
    the fixed direction pair inside its two-dimensional span.  ``g_hat``
    perturbs the covariate component of the response net of the treatment
    term, the object the residual score centers on.
    """
    overlap = float(overlap)
    phi = 2.0 * math.pi * np.random.default_rng(int(seed)).random()
    ortho = math.sqrt(max(0.0, 1.0 - overlap * overlap))
    # g direction at angle phi; m direction rotated to have cosine = overlap
    a_g, b_g = math.cos(phi), math.sin(phi)
    a_m = overlap * a_g - ortho * b_g
    b_m = overlap * b_g + ortho * a_g
    m_hat = CorruptedFit(dgp.m0, rate, a_m, b_m, overlap)
    g_hat = CorruptedFit(dgp.g0, rate, a_g, b_g, overlap)
    return m_hat, g_hat


# ---------------------------------------------------------------------------
# Error moments, the split score, and the conditional-bias bound.


@dataclass(frozen=True)
class NuisanceErrorMoments:
    """L2(P_X) moments of the nuisance errors: the two norms and their inner product."""

    norm_m: float
    norm_g: float
    inner: float


def nuisance_error_moments(m_hat: CorruptedFit, g_hat: CorruptedFit) -> NuisanceErrorMoments:
    """Norms and inner product of (m_hat - m0, g_hat - g0), from the stored rate and overlap."""
    inner = g_hat.rate * m_hat.rate * g_hat.pair_overlap
    return NuisanceErrorMoments(norm_m=m_hat.rate, norm_g=g_hat.rate, inner=inner)


def plm_theta(d2_data: RegressionData, m_hat, g_hat):
    """Solve the residual score on the second fold for the treatment coefficient.

    The score is z(theta) = sum of (t - m_hat(x)) ((y - g_hat(x)) - t theta),
    linear in theta; returns the closed-form root and the score function.
    """
    rt = d2_data.t - np.asarray(m_hat(d2_data.x), dtype=float)
    ry = d2_data.y - np.asarray(g_hat(d2_data.x), dtype=float)
    slope = float(rt @ d2_data.t)
    if slope == 0.0:
        raise ValueError("degenerate design: residualized treatment is orthogonal to t")

    level = float(rt @ ry)

    def z_function(theta: float) -> float:
        return level - slope * theta

    return level / slope, z_function


def _bias_and_product(mom: NuisanceErrorMoments, d2_size: int):
    # same multiplication order on both sides so the inequality survives
    # floating point even at the Cauchy-Schwarz equality case
    return d2_size * mom.inner, d2_size * (mom.norm_g * mom.norm_m)


@dataclass(frozen=True)
class PlmSplitFit:
    """State of one sample-split fit: folds, estimate, score, bias and its bound.

    ``cond_bias`` is the conditional bias of the split score at the target,
    the fold-2 size times the inner product of the two nuisance errors;
    ``product_bound`` is the fold-2 size times the product of their norms
    (Cauchy-Schwarz), so ``|cond_bias| <= product_bound`` always.
    """

    d1_indices: np.ndarray
    d2_indices: np.ndarray
    theta_hat: float
    z_at_theta0: float
    cond_bias: float
    product_bound: float

    def __post_init__(self):
        both = np.concatenate((np.ravel(self.d1_indices), np.ravel(self.d2_indices)))
        if not np.array_equal(np.sort(both), np.arange(both.size)):
            if np.intersect1d(self.d1_indices, self.d2_indices).size:
                raise ValueError("folds must be disjoint")
            raise ValueError("folds must partition the observation indices")


def plm_split_fit(dgp: PlmDgp, data: RegressionData, m_hat: CorruptedFit,
                  g_hat: CorruptedFit, split_seed) -> PlmSplitFit:
    """One sample-split pass: split, then solve on fold 2 with the given nuisances.

    The corrupted pair does not depend on the data, so it stands for the
    fold-1 fit without reading fold 1.
    """
    idx1, idx2 = split_indices(data.n, split_seed)
    d2 = data.subset(idx2)
    theta_hat, z_function = plm_theta(d2, m_hat, g_hat)
    mom = nuisance_error_moments(m_hat, g_hat)
    cond_bias, product_bound = _bias_and_product(mom, d2.n)
    return PlmSplitFit(
        d1_indices=idx1,
        d2_indices=idx2,
        theta_hat=theta_hat,
        z_at_theta0=z_function(dgp.theta0),
        cond_bias=cond_bias,
        product_bound=product_bound,
    )


def plm_medbias_profile(z_centered_draws, cond_bias_draws) -> dict:
    """Joint frequencies behind the split estimator's median-bias bound.

    Per replication the centered score is compared against that replication's
    absolute conditional bias: ``p_low`` is the frequency of z <= -|bias| and
    ``p_high`` of z >= |bias|.  Building ``bound`` from these joint
    frequencies handles a bias that varies with the first fold correctly.
    """
    z = np.asarray(z_centered_draws, dtype=float)
    b = np.abs(np.asarray(cond_bias_draws, dtype=float))
    if z.size == 0 or z.shape != b.shape:
        raise ValueError("need equal-length non-empty draw sequences")
    reps = z.size
    p_low = float(np.count_nonzero(z <= -b)) / reps
    p_high = float(np.count_nonzero(z >= b)) / reps
    return {"p_low": p_low, "p_high": p_high, "bound": med_bias(p_low, p_high)}
