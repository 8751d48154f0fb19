"""Experiment kind implementations.

Each kind knows how to expand its grid, simulate one chunk of replications
(every replication drawing from its own derived seed stream, so chunking and
worker count can never change a value), and fold the collected arrays into
report rows.  Rows are plain dicts in the canonical report schema; anything
kind-specific goes into the ``detail`` map.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..bounds import (
    convex_bound,
    llr_sign_indicators,
    nondiff_profile,
    nonconvex_profile,
    z_exact_medbias,
)
from ..core import EstimatorDraws, freq_std_err, mc_med_bias, sign_probabilities
from ..objectives import (
    biweight_ddrho,
    biweight_drho,
    biweight_rho,
    make_family,
    make_objective,
)
from ..partialling import fwl_estimate, score_decompose, default_eta_grid, proposition_profile
from ..plm import NuisanceMethod, plm_medbias_profile, plm_split_fit, simulate_plm
from ..solver import Bracket, minimize_convex, minimize_scan
from .dgps import make_dgp, make_plm_dgp, sample_design, target_for
from .hulc import batch_count, hulc_interval
from .seeds import replication_rng


# ---------------------------------------------------------------------------
# Estimator plumbing shared by the univariate kinds.


def build_objective(estimator: dict, data):
    kind = estimator["kind"]
    params = dict(estimator.get("params", {}))
    return make_objective(kind, data, **params)


def default_bracket(data) -> Bracket:
    data = np.asarray(data, dtype=float)
    lo, hi = float(np.min(data)), float(np.max(data))
    span = hi - lo + 1.0
    return Bracket(lo - span, hi + span)


def _check_loss_argmin(data, tau: float) -> float:
    """Argmin of the check loss, midpoint tie-break on flat segments."""
    s = np.sort(np.asarray(data, dtype=float))
    n = s.size
    k = n * tau
    k_round = round(k)
    if abs(k - k_round) < 1e-9 * n and 1 <= k_round <= n - 1:
        return 0.5 * (float(s[k_round - 1]) + float(s[k_round]))
    idx = min(max(math.ceil(k), 1), n)
    return float(s[idx - 1])


def _sample_median(data) -> float:
    """Sample median, midpoint of the two middle order statistics for even n.

    Same value as the general median routine, without its per-call overhead
    (the replication loops call this millions of times on tiny arrays).
    """
    s = np.sort(data)
    half = s.size // 2
    if s.size % 2:
        return float(s[half])
    return 0.5 * (float(s[half - 1]) + float(s[half]))


def estimate_location(estimator: dict, data) -> float:
    """Compute the estimator, using closed forms where they exist.

    Closed forms share the solver's midpoint tie-break, and the two routes
    are cross-checked in the test suite.  ``method: "solver"`` forces the
    subgradient bisection path.
    """
    data = np.asarray(data, dtype=float)
    kind = estimator["kind"]
    params = estimator.get("params", {})
    if estimator.get("method", "auto") == "auto":
        if kind == "abs_dev":
            return _sample_median(data)
        if kind == "quantile":
            return _check_loss_argmin(data, float(params["tau"]))
        if kind == "lp":
            p = float(params["p"])
            if p == 2.0:
                return float(np.mean(data))
            if p == 1.0:
                return _sample_median(data)
        if kind == "neg_loglik" and params.get("family_name", "normal_location") == "normal_location":
            return float(np.mean(data))
    obj = build_objective(estimator, data)
    if not obj.is_convex:
        return minimize_scan(obj, default_bracket(data))
    return minimize_convex(obj, default_bracket(data))


def score_at(estimator: dict, data, theta0: float) -> float:
    """Score statistic at the target: midpoint of the subgradient interval."""
    left, right = build_objective(estimator, data).subgradient(theta0)
    return 0.5 * (left + right)


def score_zero_tol(estimator_kind: str, scores: np.ndarray) -> float:
    """Deadband for sign counting: 0 for exact counting scores, tiny for float ones."""
    if estimator_kind in ("abs_dev", "quantile"):
        return 0.0
    return 1e-12 * (1.0 + float(np.max(np.abs(scores))))


def estimator_label(estimator: dict) -> str:
    params = estimator.get("params", {})
    if not params:
        return estimator["kind"]
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{estimator['kind']}({inner})"


def grid_label(kind: str, point: dict) -> str:
    coords = "|".join(f"{k}={point[k]}" for k in sorted(point))
    return f"{kind}|{coords}" if coords else kind


def _base_row(config, point: dict) -> dict:
    return {
        "experiment": config.experiment,
        "kind": config.kind,
        "dgp": config.dgp.get("name", ""),
        "estimator": estimator_label(config.estimator) if config.estimator else "",
        "n": point.get("n", ""),
        "d": point.get("d", ""),
        "eps": "",
        "delta": "",
        "schedule": point.get("schedule", ""),
        "seed_label": point.get("seed_label", ""),
        "reps": config.reps,
        "p_le": "",
        "p_ge": "",
        "lhs_point": "",
        "lhs_std_err": "",
        "rhs": "",
        "rhs_std_err": "",
        "rhs_kind": "",
        "detail": {},
        "master_seed": config.master_seed,
    }


def _lhs_row(config, point: dict, theta_hat, theta0: float):
    """Canonical row carrying the Monte-Carlo median bias of ``theta_hat``.

    Returns the row and the estimate; kinds that report several rows per
    grid point copy the row for each of them.
    """
    lhs = mc_med_bias(EstimatorDraws(theta_hat, theta0, config.master_seed))
    row = _base_row(config, point)
    row.update(p_le=lhs.p_le, p_ge=lhs.p_ge, lhs_point=lhs.point, lhs_std_err=lhs.std_err)
    return row, lhs


def _univariate_dgp(config):
    return make_dgp(config.dgp["name"], **config.dgp.get("params", {}))


def _target(config, dgp) -> float:
    return target_for(dgp, config.estimator["kind"], config.estimator.get("params", {}))


# ---------------------------------------------------------------------------
# Kind: convex_dominance -- Monte-Carlo median bias of a convex M-estimator
# against the strict-sign probability bound of its score at the target.


def _points_per_n(config):
    return [{"n": int(n)} for n in config.grids["n"]]


def _chunk_convex(config, point, start, stop):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    n = point["n"]
    label = grid_label(config.kind, point)
    count = stop - start
    theta_hat = np.empty(count)
    score = np.empty(count)
    for j, i in enumerate(range(start, stop)):
        rng = replication_rng(config.master_seed, i, label + "|data")
        data = dgp.sample(rng, n)
        theta_hat[j] = estimate_location(config.estimator, data)
        score[j] = score_at(config.estimator, data, theta0)
    return {"theta_hat": theta_hat, "score": score}


def _summarize_convex(config, point, arrays):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], theta0)
    tol = score_zero_tol(config.estimator["kind"], arrays["score"])
    sp = sign_probabilities(arrays["score"], zero_tol=tol)
    row.update(
        rhs=convex_bound(sp),
        rhs_std_err=freq_std_err(min(sp.p_neg, sp.p_pos), lhs.reps),
        rhs_kind="convex_thm1",
        detail={"theta0": theta0, "p_neg": sp.p_neg, "p_zero": sp.p_zero,
                "p_pos": sp.p_pos, "zero_tol": tol},
    )
    return [row], {}


# ---------------------------------------------------------------------------
# Kind: z_estimator_equality -- the Z-estimator identity, with the two sides
# estimated from independent replication streams.


def _chunk_z_equality(config, point, start, stop):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    n = point["n"]
    label = grid_label(config.kind, point)
    count = stop - start
    theta_hat = np.empty(count)
    score = np.empty(count)
    for j, i in enumerate(range(start, stop)):
        rng_lhs = replication_rng(config.master_seed, i, label + "|lhs")
        theta_hat[j] = estimate_location(config.estimator, dgp.sample(rng_lhs, n))
        rng_rhs = replication_rng(config.master_seed, i, label + "|rhs")
        score[j] = score_at(config.estimator, dgp.sample(rng_rhs, n), theta0)
    return {"theta_hat": theta_hat, "score": score}


def _summarize_z_equality(config, point, arrays):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], theta0)
    score = arrays["score"]
    reps = score.size
    p_weak_le = float(np.count_nonzero(score <= 0.0)) / reps
    p_weak_ge = float(np.count_nonzero(score >= 0.0)) / reps
    rhs = z_exact_medbias(p_weak_le, p_weak_ge)
    rhs_se = freq_std_err(min(p_weak_le, p_weak_ge), reps)
    row.update(
        rhs=rhs,
        rhs_std_err=rhs_se,
        rhs_kind="z_exact",
        detail={
            "theta0": theta0,
            "p_weak_le": p_weak_le,
            "p_weak_ge": p_weak_ge,
            "abs_diff": abs(lhs.point - rhs),
            "joint_std_err": math.hypot(lhs.std_err, rhs_se),
        },
    )
    return [row], {}


# ---------------------------------------------------------------------------
# Kind: nondiff_profile -- objective-value comparison bound over an epsilon
# grid, no derivatives involved.


def _chunk_nondiff(config, point, start, stop):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    n = point["n"]
    eps = [float(e) for e in config.grids["eps"]]
    label = grid_label(config.kind, point)
    count = stop - start
    theta_hat = np.empty(count)
    center = np.empty(count)
    plus = np.empty((count, len(eps)))
    minus = np.empty((count, len(eps)))
    for j, i in enumerate(range(start, stop)):
        rng = replication_rng(config.master_seed, i, label + "|data")
        data = dgp.sample(rng, n)
        theta_hat[j] = estimate_location(config.estimator, data)
        obj = build_objective(config.estimator, data)
        center[j] = obj.value(theta0)
        for k, e in enumerate(eps):
            plus[j, k] = obj.value(theta0 + e)
            minus[j, k] = obj.value(theta0 - e)
    return {"theta_hat": theta_hat, "center": center, "plus": plus, "minus": minus}


def _summarize_nondiff(config, point, arrays):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    eps = [float(e) for e in config.grids["eps"]]
    row, _ = _lhs_row(config, point, arrays["theta_hat"], theta0)
    profile = nondiff_profile(eps, arrays["center"], arrays["plus"].T, arrays["minus"].T)
    rows = [
        dict(
            row,
            eps=entry["eps"],
            rhs=entry["bound"],
            rhs_std_err=entry["std_err"],
            rhs_kind="nondiff_eps",
            detail={"theta0": theta0, "p_plus": entry["p_plus"],
                    "p_minus": entry["p_minus"]},
        )
        for entry in profile
    ]
    return rows, {"eps_profile": profile}


# ---------------------------------------------------------------------------
# Kind: mle_llr_consistency -- centered log-likelihood-ratio lower bounds
# against the directly measured comparison probabilities.


def _chunk_mle_llr(config, point, start, stop):
    params = config.estimator.get("params", {})
    family = make_family(params.get("family_name", "normal_location"),
                         **params.get("family_params", {}))
    theta0 = float(config.params.get("theta0", 0.0))
    n = point["n"]
    eps = [float(e) for e in config.grids["eps"]]
    label = grid_label(config.kind, point)
    count = stop - start
    draws = np.empty((count, n))
    for j, i in enumerate(range(start, stop)):
        rng = replication_rng(config.master_seed, i, label + "|data")
        draws[j] = family.sample(rng, theta0, n)
    out = {}
    for k, e in enumerate(eps):
        for side, shift in (("plus", e), ("minus", -e)):
            lower, direct = llr_sign_indicators(family, draws, theta0, shift)
            out[f"lower_{side}_{k}"] = lower.astype(float)
            out[f"direct_{side}_{k}"] = direct.astype(float)
    return out


def _summarize_mle_llr(config, point, arrays):
    params = config.estimator.get("params", {})
    family = make_family(params.get("family_name", "normal_location"),
                         **params.get("family_params", {}))
    theta0 = float(config.params.get("theta0", 0.0))
    n = point["n"]
    eps = [float(e) for e in config.grids["eps"]]
    rows = []
    profile = []
    for k, e in enumerate(eps):
        reps = arrays[f"lower_plus_{k}"].size
        lb_plus = float(arrays[f"lower_plus_{k}"].mean())
        lb_minus = float(arrays[f"lower_minus_{k}"].mean())
        direct_plus = float(arrays[f"direct_plus_{k}"].mean())
        direct_minus = float(arrays[f"direct_minus_{k}"].mean())
        entry = {
            "eps": e,
            "lower_plus": lb_plus,
            "lower_minus": lb_minus,
            "direct_plus": direct_plus,
            "direct_minus": direct_minus,
            "lower_plus_std_err": freq_std_err(lb_plus, reps),
            "lower_minus_std_err": freq_std_err(lb_minus, reps),
            "direct_plus_std_err": freq_std_err(direct_plus, reps),
            "direct_minus_std_err": freq_std_err(direct_minus, reps),
            "expected_llr_per_obs": family.expected_log_likelihood_ratio(theta0, e),
            "n": n,
        }
        profile.append(entry)
        row = _base_row(config, point)
        row["eps"] = e
        row.update(
            rhs=min(lb_plus, lb_minus),
            rhs_std_err=max(entry["lower_plus_std_err"], entry["lower_minus_std_err"]),
            rhs_kind="mle_llr",
            detail=entry,
        )
        rows.append(row)
    return rows, {"llr_profile": profile}


# ---------------------------------------------------------------------------
# Kind: nonconvex_dominance -- redescending location objective; the convex
# bound plus window-convexity and escape penalties over a delta grid.


def _chunk_nonconvex(config, point, start, stop):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    n = point["n"]
    c_tune = float(config.estimator.get("params", {}).get("c", 2.0))
    deltas = [float(d) for d in config.grids["delta"]]
    scan_lo = float(config.params.get("scan_lo", theta0 - 3.0))
    scan_hi = float(config.params.get("scan_hi", theta0 + 3.0))
    scan_points = int(config.params.get("scan_points", 1201))
    window_points = int(config.params.get("window_points", 33))
    label = grid_label(config.kind, point)
    count = stop - start

    data = np.empty((count, n))
    for j, i in enumerate(range(start, stop)):
        rng = replication_rng(config.master_seed, i, label + "|data")
        data[j] = dgp.sample(rng, n)

    # global scan over a dense grid, vectorized over the chunk
    grid = np.linspace(scan_lo, scan_hi, scan_points)
    best_val = np.full(count, np.inf)
    best_theta = np.full(count, grid[0])
    block = 64
    for b in range(0, scan_points, block):
        thetas = grid[b:b + block]
        vals = biweight_rho(data[:, None, :] - thetas[None, :, None], c_tune).sum(axis=2)
        idx = np.argmin(vals, axis=1)
        cand = vals[np.arange(count), idx]
        better = cand < best_val
        best_val = np.where(better, cand, best_val)
        best_theta = np.where(better, thetas[idx], best_theta)

    # polish inside the winning cell by bisection on the derivative
    step = grid[1] - grid[0]
    lo = best_theta - step
    hi = best_theta + step

    def slope(at):
        return -biweight_drho(data - at[:, None], c_tune).sum(axis=1)

    active = (slope(lo) < 0.0) & (slope(hi) > 0.0)
    lo_a, hi_a = lo.copy(), hi.copy()
    for _ in range(50):
        mid = 0.5 * (lo_a + hi_a)
        up = slope(mid) >= 0.0
        hi_a = np.where(active & up, mid, hi_a)
        lo_a = np.where(active & ~up, mid, lo_a)
    refined = 0.5 * (lo_a + hi_a)
    refined_val = biweight_rho(data - refined[:, None], c_tune).sum(axis=1)
    keep = active & (refined_val <= best_val)
    theta_hat = np.where(keep, refined, best_theta)

    score = -biweight_drho(data - theta0, c_tune).sum(axis=1)

    out = {"theta_hat": theta_hat, "score": score}
    for k, delta in enumerate(deltas):
        window = theta0 + np.linspace(-delta, delta, window_points)
        curv_min = np.full(count, np.inf)
        for w in window:
            curv = biweight_ddrho(data - w, c_tune).sum(axis=1)
            curv_min = np.minimum(curv_min, curv)
        out[f"convex_{k}"] = (curv_min >= 0.0).astype(float)
    return out


def _summarize_nonconvex(config, point, arrays):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    deltas = [float(d) for d in config.grids["delta"]]
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], theta0)
    sp = sign_probabilities(arrays["score"],
                            zero_tol=score_zero_tol("biweight", arrays["score"]))
    escape = np.abs(arrays["theta_hat"] - theta0)
    profile = nonconvex_profile(sp, [
        (delta, 1.0 - float(arrays[f"convex_{k}"].mean()),
         float(np.count_nonzero(escape > delta)) / lhs.reps)
        for k, delta in enumerate(deltas)
    ])
    convex_se = freq_std_err(min(sp.p_neg, sp.p_pos), lhs.reps)
    rows = []
    for entry in profile:
        eta_se = math.hypot(freq_std_err(entry["eta1"], lhs.reps),
                            freq_std_err(entry["eta2"], lhs.reps))
        rows.append(dict(
            row,
            delta=entry["delta"],
            rhs=entry["clamped"],
            rhs_std_err=math.hypot(convex_se, eta_se),
            rhs_kind="nonconvex_delta",
            detail={"theta0": theta0, "eta1": entry["eta1"], "eta2": entry["eta2"],
                    "convex_part": entry["convex_part"], "raw": entry["raw"]},
        ))
    best = min(profile, key=lambda entry: entry["raw"])
    return rows, {
        "eta_profile": [{key: entry[key] for key in ("delta", "eta1", "eta2")}
                        for entry in profile],
        "overall": {"convex_part": best["convex_part"], "best_delta": best["delta"],
                    "raw": best["raw"], "clamped": best["clamped"]},
    }


# ---------------------------------------------------------------------------
# Kind: partialled_dominance -- median bias of the partialled least-squares
# coefficient against the threshold bound built from the score decomposition.


def _points_partialled(config):
    return [{"n": int(n), "d": int(d)} for n in config.grids["n"] for d in config.grids["d"]]


def _chunk_partialled(config, point, start, stop, keep_decomposition=True):
    theta0 = float(config.params.get("theta0", 0.5))
    design = config.dgp.get("name", "gaussian")
    design_params = config.dgp.get("params", {})
    n, d = point["n"], point["d"]
    label = grid_label(config.kind, point)
    count = stop - start
    theta_hat = np.empty(count)
    s_n = np.empty(count)
    correction = np.empty(count)
    for j, i in enumerate(range(start, stop)):
        rng = replication_rng(config.master_seed, i, label + "|data")
        data, beta_t, beta_y = sample_design(design, rng, n, d, theta0, **design_params)
        fit = fwl_estimate(data)
        theta_hat[j] = fit.theta_hat
        if keep_decomposition:
            dec = score_decompose(data, fit, theta0, beta_t, beta_y)
            s_n[j] = dec.s_n
            correction[j] = dec.correction
    out = {"theta_hat": theta_hat}
    if keep_decomposition:
        out["s_n"] = s_n
        out["correction"] = correction
    return out


def _summarize_partialled(config, point, arrays):
    theta0 = float(config.params.get("theta0", 0.5))
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], theta0)
    eta_grid = config.grids.get("eta") or default_eta_grid(arrays["s_n"])
    profile = proposition_profile(arrays["s_n"], arrays["correction"], eta_grid)
    best = min(profile, key=lambda r: r["value"])
    rhs_se = math.hypot(
        freq_std_err(min(best["p_low"], best["p_high"]), lhs.reps),
        freq_std_err(best["escape"], lhs.reps),
    )
    row.update(
        rhs=min(0.5, best["value"]),
        rhs_std_err=rhs_se,
        rhs_kind="convex_thm1",
        detail={
            "theta0": theta0,
            "eta_star": best["eta"],
            "raw": best["value"],
            "p_low": best["p_low"],
            "p_high": best["p_high"],
            "escape": best["escape"],
        },
    )
    return [row], {"eta_profile": profile}


# ---------------------------------------------------------------------------
# Kind: dimension_scaling -- median-bias trajectories under two covariate
# dimension schedules.


def schedule_dimension(schedule: str, n: int) -> int:
    if schedule == "quarter_pow":
        return math.ceil(n ** 0.25)
    if schedule == "half_sqrt":
        return math.ceil(math.sqrt(n) / 2.0)
    raise ValueError(f"unknown d schedule {schedule!r}")


def _points_dim_scaling(config):
    return [
        {"schedule": schedule, "n": int(n), "seed_label": int(s)}
        for schedule in config.grids["d_schedules"]
        for n in config.grids["n"]
        for s in config.grids["seed_labels"]
    ]


def _chunk_dim_scaling(config, point, start, stop):
    inner = dict(point)
    inner["d"] = schedule_dimension(point["schedule"], point["n"])
    return _chunk_partialled(config, inner, start, stop, keep_decomposition=False)


def _summarize_dim_scaling(config, point, arrays):
    theta0 = float(config.params.get("theta0", 0.5))
    row, _ = _lhs_row(config, point, arrays["theta_hat"], theta0)
    row["d"] = schedule_dimension(point["schedule"], point["n"])
    row["detail"] = {"theta0": theta0}
    return [row], {}


# ---------------------------------------------------------------------------
# Kind: plm_rate_dichotomy -- sample-split partial-linear estimator with
# corrupted nuisances pinning the product of error rates.


def rate_for(schedule: str, n: int) -> tuple[float, float]:
    """Corruption rate r and the pinned value of sqrt(|D2|) * r**2."""
    d2 = n // 2
    if schedule == "vanishing":
        target = n ** -0.25
    elif schedule == "constant":
        target = 1.0
    else:
        raise ValueError(f"unknown rate schedule {schedule!r}")
    return math.sqrt(target / math.sqrt(d2)), target


def _points_plm(config):
    return [
        {"schedule": schedule, "n": int(n)}
        for schedule in config.grids["rate_schedules"]
        for n in config.grids["n"]
    ]


def _chunk_plm(config, point, start, stop):
    dgp = make_plm_dgp(config.dgp["name"], **config.dgp.get("params", {}))
    n = point["n"]
    rate, _ = rate_for(point["schedule"], n)
    method = NuisanceMethod("corrupted", {
        "rate": rate,
        "overlap": float(config.params.get("overlap", 1.0)),
        "seed": int(config.params.get("corrupt_seed", 0)),
    })
    label = grid_label(config.kind, point)
    count = stop - start
    theta_hat = np.empty(count)
    z0 = np.empty(count)
    cond_bias = np.empty(count)
    cs_ok = np.empty(count)
    for j, i in enumerate(range(start, stop)):
        data = simulate_plm(dgp, n, replication_rng(config.master_seed, i, label + "|data"))
        fit = plm_split_fit(dgp, data, method,
                            replication_rng(config.master_seed, i, label + "|split"))
        theta_hat[j] = fit.theta_hat
        z0[j] = fit.z_at_theta0
        cond_bias[j] = fit.cond_bias
        cs_ok[j] = 1.0 if abs(fit.cond_bias) <= fit.product_bound else 0.0
    return {"theta_hat": theta_hat, "z_at_theta0": z0, "cond_bias": cond_bias,
            "cs_ok": cs_ok}


def _summarize_plm(config, point, arrays):
    dgp = make_plm_dgp(config.dgp["name"], **config.dgp.get("params", {}))
    rate, target = rate_for(point["schedule"], point["n"])
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], dgp.theta0)
    profile = plm_medbias_profile(arrays["z_at_theta0"] - arrays["cond_bias"],
                                  arrays["cond_bias"])
    cs_violations = int(lhs.reps - np.count_nonzero(arrays["cs_ok"]))
    row.update(
        rhs=profile["bound"],
        rhs_std_err=freq_std_err(min(profile["p_low"], profile["p_high"]), lhs.reps),
        # upper bound of the thresholded sign-probability family (it reduces
        # to the exact weak-sign value only when the conditional bias is zero)
        rhs_kind="convex_thm1",
        detail={
            "theta0": dgp.theta0,
            "rate": rate,
            "rate_target": target,
            "mean_cond_bias": float(np.mean(arrays["cond_bias"])),
            "cs_violations": cs_violations,
        },
    )
    return [row], {}


# ---------------------------------------------------------------------------
# Kind: hulc_coverage -- empirical coverage of the min-max batch interval.


def _chunk_hulc(config, point, start, stop):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    alpha = float(config.params.get("alpha", 0.05))
    n = point["n"]
    label = grid_label(config.kind, point)
    count = stop - start
    covered = np.empty(count)

    def batch_estimator(batch):
        return estimate_location(config.estimator, batch)

    for j, i in enumerate(range(start, stop)):
        rng = replication_rng(config.master_seed, i, label + "|data")
        lo, hi = hulc_interval(dgp.sample(rng, n), alpha, batch_estimator)
        covered[j] = 1.0 if lo <= theta0 <= hi else 0.0
    return {"covered": covered}


def _summarize_hulc(config, point, arrays):
    dgp = _univariate_dgp(config)
    theta0 = _target(config, dgp)
    alpha = float(config.params.get("alpha", 0.05))
    b = batch_count(alpha)
    reps = arrays["covered"].size
    coverage = float(arrays["covered"].mean())
    row = _base_row(config, point)
    row["detail"] = {
        "theta0": theta0,
        "alpha": alpha,
        "batches": b,
        "batch_size": point["n"] // b,
        "coverage": coverage,
        "coverage_std_err": freq_std_err(coverage, reps),
        "miss_target": 2.0 * 2.0 ** (-b),
    }
    return [row], {}


# ---------------------------------------------------------------------------
# Registry.


@dataclass(frozen=True)
class KindImpl:
    name: str
    description: str
    grid_points: Callable
    run_chunk: Callable
    summarize: Callable


KINDS = {
    impl.name: impl
    for impl in (
        KindImpl(
            "convex_dominance",
            "median bias of a convex M-estimator vs the strict-sign score bound",
            _points_per_n, _chunk_convex, _summarize_convex,
        ),
        KindImpl(
            "z_estimator_equality",
            "Z-estimator median bias vs the weak-sign score value, independent streams",
            _points_per_n, _chunk_z_equality, _summarize_z_equality,
        ),
        KindImpl(
            "nondiff_profile",
            "objective-comparison bound over a decreasing epsilon grid",
            _points_per_n, _chunk_nondiff, _summarize_nondiff,
        ),
        KindImpl(
            "mle_llr_consistency",
            "centered log-likelihood-ratio lower bounds vs direct comparison frequencies",
            _points_per_n, _chunk_mle_llr, _summarize_mle_llr,
        ),
        KindImpl(
            "nonconvex_dominance",
            "redescending location objective vs the window-convexity corrected bound",
            _points_per_n, _chunk_nonconvex, _summarize_nonconvex,
        ),
        KindImpl(
            "partialled_dominance",
            "partialled least-squares median bias vs the threshold bound",
            _points_partialled, _chunk_partialled, _summarize_partialled,
        ),
        KindImpl(
            "dimension_scaling",
            "median-bias trajectories under two covariate-dimension schedules",
            _points_dim_scaling, _chunk_dim_scaling, _summarize_dim_scaling,
        ),
        KindImpl(
            "plm_rate_dichotomy",
            "sample-split partial-linear estimator with pinned nuisance error rates",
            _points_plm, _chunk_plm, _summarize_plm,
        ),
        KindImpl(
            "hulc_coverage",
            "coverage of the min-max batch interval driven by a location estimator",
            _points_per_n, _chunk_hulc, _summarize_hulc,
        ),
    )
}
