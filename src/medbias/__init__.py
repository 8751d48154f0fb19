"""Median-bias bounds for univariate and partialled M/Z-estimators.

The library computes the median-bias functional, exact subgradients of the
standard convex location objectives, the sign-probability bounds that cap
the median bias of their minimizers, and the partialled / sample-split
regression variants.  ``medbias.simlab`` drives the Monte-Carlo experiments
that certify every bound against small-instance oracles.
"""

from .core import (
    EstimatorDraws,
    MedBiasEstimate,
    SignProbabilities,
    freq_std_err,
    mc_med_bias,
    med_bias,
    med_bias_std_err,
    sign_probabilities,
)
from .objectives import (
    AbsoluteDeviation,
    BiweightLocation,
    CheckLoss,
    LogisticLocation,
    NegativeLogLikelihood,
    NormalLocation,
    PowerLoss,
    SubgradientInterval,
    make_family,
    make_objective,
)
from .solver import (
    Bracket,
    ConvergenceError,
    NonConvexityError,
    minimize_convex,
    minimize_scan,
)
from .bounds import (
    IdentifiabilityError,
    convex_bound,
    mle_llr_frequencies,
    nondiff_profile,
    z_exact_medbias,
)
from .partialling import (
    CollinearityError,
    PartialledFit,
    RegressionData,
    ScoreDecomposition,
    SlopeSides,
    default_eta_grid,
    fwl_estimate,
    joint_theta,
    score_decompose,
    slope_sides,
)
from .plm import (
    PlmDgp,
    corrupted_nuisances,
    fold2_rows,
    plm_conditional_bias,
    plm_medbias_profile,
    plm_split_fit,
    simulate_plm,
)

__version__ = "0.1.0"
