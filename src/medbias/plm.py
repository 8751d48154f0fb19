"""Sample-split partial-linear model with rate-controllable nuisances.

The response is linear in the treatment plus a smooth function of the
covariates; the treatment is a smooth function of the covariates plus noise.
Nuisances stand for fits on one half of the data, and the treatment
coefficient is solved from a residual score on the other half.  The one
nuisance pair is ``corrupted_nuisances``: the truth plus a fixed direction
of known norm, so the nuisance error norms are exact, do not depend on the
data, and the product-of-rates behaviour of the conditional bias becomes a
deterministic experiment.

A replication draws the covariates and both noises of all n observations
(``simulate_plm``), then forms the treatment, the response and the nuisance
fits on the fold-2 rows only (``plm_split_fit``).  Each of those is
elementwise in the rows or a row-wise product, so a row's value does not
depend on which other rows are formed; ``tests/test_plm.py`` checks the
estimate and the score bit for bit against a body that forms all n rows.
The conditional bias and its bound depend only on the fold size and the
nuisance pair (``plm_conditional_bias``).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import med_bias

# ---------------------------------------------------------------------------
# Smooth functions of the covariates, and the process.


def linear(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``x @ weights`` for covariates ``x`` of shape (n, d)."""
    return x @ weights


def sine(x: np.ndarray, amplitude: float, frequency: float) -> np.ndarray:
    """``amplitude * sin(frequency * x_1)`` for covariates ``x`` of shape (n, d)."""
    return amplitude * np.sin(frequency * x[:, 0])


@dataclass(frozen=True)
class PlmDgp:
    """Partial-linear process: x ~ N(0, I_dim), t = m0(x) + v, y = theta0 t + g0(x) + u.

    The noises are centered normals, v of scale ``sigma_v`` and u of scale
    ``sigma_u``.  ``m0`` and ``g0`` map covariates of shape (n, dim) to (n,)
    and pickle (``linear`` or ``sine`` under ``functools.partial``).
    """

    theta0: float
    g0: Callable
    m0: Callable
    sigma_u: float = 1.0
    sigma_v: float = 1.0
    dim: int = 1


def simulate_plm(dgp: PlmDgp, n: int, rng) -> tuple:
    """One dataset's standard normal draws, in stream order: x (n, dim), then v and u (n,).

    ``plm_split_fit`` scales the noises and forms t and y on the rows it reads.
    """
    x = rng.standard_normal((n, dgp.dim))
    return x, rng.standard_normal(n), rng.standard_normal(n)


def fold2_rows(n: int, rng) -> np.ndarray:
    """Fold 2 of a uniform 50/50 split of range(n), in increasing order.

    Fold 2 is the last ``n - n // 2`` entries of ``rng.permutation(n)``; a
    mask puts them in order without a sort, and the first ``n // 2`` entries
    (fold 1) are the rest.
    """
    fold2 = np.zeros(n, dtype=bool)
    fold2[rng.permutation(n)[n // 2:]] = True
    return np.flatnonzero(fold2)


# ---------------------------------------------------------------------------
# The corrupted nuisance pair: the truth plus a perturbation of closed-form
# norm.


def hermite_pair(x: np.ndarray) -> tuple:
    """h1(x) = x_1 and h2(x) = (x_1^2 - 1)/sqrt(2), orthonormal under a standard normal x_1."""
    h1 = x[:, 0]
    return h1, (np.square(h1) - 1.0) / math.sqrt(2.0)


@dataclass(frozen=True)
class CorruptedFit:
    """A nuisance fit that is its truth plus a fixed perturbation of exactly known norm.

    The perturbation lives in the span of the Hermite pair; ``pair_overlap``
    stores the inner product between this fit's direction and its partner's.
    Closed-form error moments are reported from the stored rate and overlap,
    not re-derived from the coefficients.
    """

    rate: float
    coeff_1: float
    coeff_2: float
    pair_overlap: float

    def __post_init__(self):
        if self.rate < 0.0:
            raise ValueError("rate must be >= 0")
        if not -1.0 <= self.pair_overlap <= 1.0:
            raise ValueError("overlap must be in [-1, 1]")

    def perturbation(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """The fit minus its truth, at the Hermite pair ``(h1, h2)`` of the covariates."""
        return self.rate * (self.coeff_1 * h1 + self.coeff_2 * h2)


def corrupted_nuisances(rate: float, overlap: float = 1.0,
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
    return (CorruptedFit(float(rate), a_m, b_m, overlap),
            CorruptedFit(float(rate), a_g, b_g, overlap))


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


def plm_conditional_bias(m_hat: CorruptedFit, g_hat: CorruptedFit,
                         d2_size: int) -> tuple[float, float]:
    """Conditional bias of the split score at the target, and its Cauchy-Schwarz bound.

    The bias is the fold-2 size times the inner product of the two nuisance
    errors, the bound the fold-2 size times the product of their norms, so
    |bias| <= bound.  Neither depends on the data.
    """
    mom = nuisance_error_moments(m_hat, g_hat)
    # same multiplication order on both sides so the inequality survives
    # floating point even at the Cauchy-Schwarz equality case
    return d2_size * mom.inner, d2_size * (mom.norm_g * mom.norm_m)


def plm_split_fit(dgp: PlmDgp, draws: tuple, m_hat: CorruptedFit, g_hat: CorruptedFit,
                  rng) -> tuple[float, float]:
    """One sample-split pass on ``simulate_plm`` draws: the estimate and the score at theta0.

    ``rng`` draws the split.  On the fold-2 rows, in increasing order, the
    score z(theta) = sum of (t - m_hat(x)) ((y - g_hat(x)) - t theta) is
    linear in theta; returns its root and z(theta0).  The corrupted pair
    does not depend on the data, so it stands for the fold-1 fit without
    reading fold 1.
    """
    x, v, u = draws
    rows = fold2_rows(v.size, rng)
    x = x.take(rows, axis=0)
    m0, g0 = dgp.m0(x), dgp.g0(x)
    t = m0 + dgp.sigma_v * v.take(rows)
    y = dgp.theta0 * t + g0 + dgp.sigma_u * u.take(rows)
    h1, h2 = hermite_pair(x)
    rt = t - (m0 + m_hat.perturbation(h1, h2))
    ry = y - (g0 + g_hat.perturbation(h1, h2))
    slope = float(rt @ t)
    if slope == 0.0:
        raise ValueError("degenerate design: residualized treatment is orthogonal to t")
    level = float(rt @ ry)
    return level / slope, level - slope * dgp.theta0


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
