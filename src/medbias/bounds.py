"""Right-hand sides of the median-bias bounds.

Every bound here turns sign or comparison probabilities of a score-like
statistic at the target into a cap on the median bias of the estimator.  The
convex bound consumes strict-sign probabilities; any atom at zero simply
weakens it.  The Z-estimator version is an equality in distribution and uses
the weak-inequality probabilities instead.
"""

import numpy as np

from .core import SignProbabilities, freq_std_err, med_bias


class IdentifiabilityError(ValueError):
    """The shifted density is not distinguishable from the reference one."""


def convex_bound(sp: SignProbabilities) -> float:
    """Median-bias cap from the strict-sign probabilities of the score at the target.

    The weaker of P(score < 0) and P(score > 0) lower-bounds the probability
    mass of the estimator on the corresponding side of the target; the atom
    P(score = 0) is not redistributed and just loosens the cap.
    """
    return med_bias(sp.p_neg, sp.p_pos)


def z_exact_medbias(p_weak_le: float, p_weak_ge: float) -> float:
    """Exact median bias of a Z-estimator from weak-sign score probabilities.

    Takes P(score <= 0) and P(score >= 0) at the target.  When the estimator
    is the unique root of an absolutely continuous, strictly monotone score,
    the estimator's side of the target is determined by the score's sign and
    the returned value matches the median bias exactly in distribution.
    """
    return med_bias(p_weak_le, p_weak_ge)


def nondiff_profile(eps_grid, center_values, plus_values, minus_values):
    """Per-epsilon comparison bounds from objective values at the target.

    For each epsilon the bound is built from the empirical frequencies of
    {M(theta0) < M(theta0 + eps)} and {M(theta0) < M(theta0 - eps)}.  Returns
    a list of dicts (one per epsilon, in grid order).
    """
    eps = np.asarray(eps_grid, dtype=float)
    if eps.size < 2:
        raise ValueError("epsilon grid needs at least 2 points")
    if np.any(eps <= 0.0) or np.any(np.diff(eps) >= 0.0):
        raise ValueError("epsilon grid must be positive and strictly decreasing")
    center = np.asarray(center_values, dtype=float)
    plus = np.asarray(plus_values, dtype=float)
    minus = np.asarray(minus_values, dtype=float)
    if plus.shape != (eps.size, center.size) or minus.shape != plus.shape:
        raise ValueError("value arrays must be (n_eps, reps) aligned with the grid")
    reps = center.size
    profile = []
    for k, e in enumerate(eps):
        p_plus = float(np.count_nonzero(center < plus[k])) / reps
        p_minus = float(np.count_nonzero(center < minus[k])) / reps
        profile.append({
            "eps": float(e),
            "p_plus": p_plus,
            "p_minus": p_minus,
            "bound": med_bias(p_plus, p_minus),
            "std_err": freq_std_err(min(p_plus, p_minus), reps),
        })
    return profile


def llr_sign_indicators(family, data_draws, theta0: float, shift: float):
    """Per-replication signs of the log-likelihood-ratio sum at one signed shift.

    Each row's sum of log p_{theta0+shift} - log p_{theta0} is computed once
    and two boolean arrays are returned: the sum centered by n times the
    per-observation expected log-likelihood ratio under ``theta0`` is <= 0,
    and the raw sum is < 0, i.e. M(theta0) < M(theta0 + shift) for the
    negative log-likelihood M.  The expected ratio must be strictly negative
    (identifiability); otherwise ``IdentifiabilityError`` is raised.
    """
    draws = np.atleast_2d(np.asarray(data_draws, dtype=float))
    expected = family.expected_log_likelihood_ratio(theta0, shift)
    if expected >= 0.0:
        raise IdentifiabilityError(
            f"expected log-likelihood ratio {expected!r} at shift {shift!r} is not "
            "strictly negative"
        )
    raw = (family.log_density(draws, theta0 + shift)
           - family.log_density(draws, theta0)).sum(axis=1)
    return raw - draws.shape[1] * expected <= 0.0, raw < 0.0


def mle_llr_lower_bounds(family, data_draws, theta0: float, eps: float):
    """Lower bounds on both objective-comparison probabilities for an MLE.

    Returns empirical frequencies of the centered log-likelihood-ratio sum
    being <= 0 at shifts +eps and -eps.  Each is a lower bound for the
    corresponding comparison probability because the centering term is
    strictly negative.
    """
    if eps == 0.0:
        raise IdentifiabilityError("eps must be nonzero")
    bounds = []
    for shift in (abs(eps), -abs(eps)):
        lower, _ = llr_sign_indicators(family, data_draws, theta0, shift)
        bounds.append(float(np.count_nonzero(lower)) / lower.size)
    return tuple(bounds)


def nonconvex_profile(sp: SignProbabilities, eta_profile) -> list:
    """Window-convexity correction of the convex bound at every delta of a grid.

    ``eta_profile`` is a sequence of (delta, eta1, eta2): eta1 is the
    probability the objective fails to be convex on the window of half-width
    delta around the target, eta2 the probability the estimator escapes the
    window.  Returns one dict per delta, in grid order, with the convex part,
    the raw bound ``convex_part + eta1 + eta2`` and that bound clamped to
    [0, 1/2].
    """
    entries = list(eta_profile)
    if not entries:
        raise ValueError("eta profile must be non-empty")
    base = convex_bound(sp)
    profile = []
    for delta, eta1, eta2 in entries:
        for name, v in (("eta1", eta1), ("eta2", eta2)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v!r} at delta={delta!r} outside [0, 1]")
        raw = base + eta1 + eta2
        profile.append({
            "delta": float(delta),
            "eta1": eta1,
            "eta2": eta2,
            "convex_part": base,
            "raw": raw,
            "clamped": min(max(raw, 0.0), 0.5),
        })
    return profile


def direct_comparison_probabilities(family, data_draws, theta0: float, eps: float):
    """Directly measured objective-comparison frequencies for an MLE shift.

    Companion to ``mle_llr_lower_bounds``: frequencies of
    {M(theta0) < M(theta0 +/- eps)} computed from the log-likelihood-ratio
    sums themselves.
    """
    freqs = []
    for shift in (abs(eps), -abs(eps)):
        _, direct = llr_sign_indicators(family, data_draws, theta0, shift)
        freqs.append(float(np.count_nonzero(direct)) / direct.size)
    return tuple(freqs)
