"""Acceptance suite: one test per criterion, at the stated tolerances.

Every test prints a single ``ACCEPTANCE <k> PASS ...`` line (visible with
``pytest -s`` or in the captured output) and asserts the criterion, including
its runtime budget where one is stated.  Monte-Carlo comparisons use three
joint standard errors: ``sqrt(se_lhs**2 + se_rhs**2)`` scaled by three.
"""

import math
import time

import numpy as np

from medbias import (
    SignProbabilities,
    convex_bound,
    fwl_estimate,
    joint_theta,
    mle_llr_lower_bounds,
    score_decompose,
)
from medbias.bounds import direct_comparison_probabilities, nonconvex_profile
from medbias.objectives import make_family
from medbias.partialling import RegressionData
from medbias.simlab import ExperimentConfig, run_experiment, write_csv
from medbias.simlab.kinds import grid_label
from medbias.simlab.seeds import replication_rng

MASTER_SEED = 20_240_817


def _report(number: int, passed: bool, message: str):
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'} - {message}")
    assert passed, f"criterion {number}: {message}"


def _config(**raw) -> ExperimentConfig:
    raw.setdefault("master_seed", MASTER_SEED)
    return ExperimentConfig.from_dict(raw)


def _joint_slack(row) -> float:
    return 3.0 * math.hypot(row["lhs_std_err"], row["rhs_std_err"])


def test_criterion_01_sample_median_unbiased():
    # iid continuous symmetric law, n = 5, 1e5 replications: the sample
    # median is exactly median unbiased (binomial oracle), so the measured
    # value stays below 0.005; runtime under 10 seconds
    started = time.perf_counter()
    result = run_experiment(_config(
        experiment="acc1",
        kind="convex_dominance",
        dgp={"name": "standard_normal"},
        estimator={"kind": "abs_dev"},
        grids={"n": [5]},
        reps=100_000,
    ))
    elapsed = time.perf_counter() - started
    point = result.rows[0]["lhs_point"]
    _report(1, point <= 0.005 and elapsed < 10.0,
            f"median bias {point:.5f} <= 0.005, {elapsed:.1f}s < 10s")


def test_criterion_02_convex_bound_dominance_suite():
    # >= 8 (law, convex objective) pairs, even-n medians and the power-loss
    # exponents 1, 1.5, 2, 4 included; 1e4 replications each; under 5 minutes
    started = time.perf_counter()
    suite = [
        ("standard_normal", {}, {"kind": "abs_dev"}, 5),
        ("standard_normal", {}, {"kind": "abs_dev"}, 4),
        ("exp_centered", {}, {"kind": "abs_dev"}, 6),
        ("uniform", {"lo": -1.0, "hi": 1.0}, {"kind": "quantile", "params": {"tau": 0.25}}, 15),
        ("standard_normal", {}, {"kind": "lp", "params": {"p": 1.0}}, 7),
        ("standard_normal", {}, {"kind": "lp", "params": {"p": 1.5}}, 20),
        ("logistic", {}, {"kind": "lp", "params": {"p": 2.0}}, 12),
        ("standard_normal", {}, {"kind": "lp", "params": {"p": 4.0}}, 25),
        ("logistic", {}, {"kind": "neg_loglik",
                          "params": {"family_name": "logistic_location",
                                     "family_params": {"scale": 1.0}}}, 15),
        ("exp_centered", {}, {"kind": "neg_loglik",
                              "params": {"family_name": "normal_location",
                                         "family_params": {"sigma": 1.0}}}, 10),
    ]
    failures = []
    for i, (dgp, dgp_params, estimator, n) in enumerate(suite):
        result = run_experiment(_config(
            experiment=f"acc2-{i}",
            kind="convex_dominance",
            dgp={"name": dgp, "params": dgp_params},
            estimator=estimator,
            grids={"n": [n]},
            reps=10_000,
        ))
        row = result.rows[0]
        if row["lhs_point"] > row["rhs"] + _joint_slack(row):
            failures.append((dgp, estimator["kind"], n, row["lhs_point"], row["rhs"]))
    elapsed = time.perf_counter() - started
    _report(2, not failures and elapsed < 300.0,
            f"{len(suite)} pairs dominated within 3 joint s.e., "
            f"{elapsed:.0f}s < 300s{'; failures: ' + repr(failures) if failures else ''}")


def test_criterion_03_z_estimator_identity():
    # normal-location MLE with centered exponential errors, n = 10, 1e5
    # replications on each of two independent streams: the weak-sign value
    # matches the measured median bias within 3 joint standard errors
    result = run_experiment(_config(
        experiment="acc3",
        kind="z_estimator_equality",
        dgp={"name": "exp_centered"},
        estimator={"kind": "neg_loglik",
                   "params": {"family_name": "normal_location",
                              "family_params": {"sigma": 1.0}}},
        grids={"n": [10]},
        reps=100_000,
    ))
    row = result.rows[0]
    diff = abs(row["lhs_point"] - row["rhs"])
    slack = _joint_slack(row)
    _report(3, diff <= slack,
            f"|measured - weak-sign value| = {diff:.4f} <= {slack:.4f} "
            f"(lhs {row['lhs_point']:.4f}, rhs {row['rhs']:.4f})")


def test_criterion_04_nondiff_profile_and_llr_bounds():
    # (a) the epsilon-profile comparison bound dominates the measured median
    # bias minus 3 s.e. at every grid point for both objective families
    eps_grid = [1.0, 0.5, 0.25, 0.125]
    problems = []
    for tag, dgp, estimator, n in [
        ("abs_dev", "standard_normal", {"kind": "abs_dev"}, 15),
        ("neg_loglik", "standard_normal",
         {"kind": "neg_loglik", "params": {"family_name": "normal_location",
                                           "family_params": {"sigma": 1.0}}}, 25),
    ]:
        result = run_experiment(_config(
            experiment=f"acc4-{tag}",
            kind="nondiff_profile",
            dgp={"name": dgp},
            estimator=estimator,
            grids={"n": [n], "eps": eps_grid},
            reps=20_000,
        ))
        for row in result.rows:
            if row["rhs"] < row["lhs_point"] - 3.0 * row["lhs_std_err"]:
                problems.append((tag, row["eps"], row["rhs"], row["lhs_point"]))

    # (b) centered log-likelihood-ratio lower bounds are consistent with the
    # directly measured comparison probabilities, and informative for the
    # logistic family at n = 50, eps = 0.2
    for family_name, n, eps_list, reps in [
        ("normal_location", 25, [0.5, 0.2], 50_000),
        ("logistic_location", 50, [0.2], 100_000),
    ]:
        result = run_experiment(_config(
            experiment=f"acc4-llr-{family_name}",
            kind="mle_llr_consistency",
            estimator={"kind": "neg_loglik", "params": {"family_name": family_name}},
            grids={"n": [n], "eps": eps_list},
            reps=reps,
        ))
        for row in result.rows:
            detail = row["detail"]
            for side in ("plus", "minus"):
                lower = detail[f"lower_{side}"]
                direct = detail[f"direct_{side}"]
                slack = 3.0 * math.hypot(detail[f"lower_{side}_std_err"],
                                         detail[f"direct_{side}_std_err"])
                if lower > direct + slack:
                    problems.append((family_name, row["eps"], side, lower, direct))
            if family_name == "logistic_location":
                if min(detail["lower_plus"], detail["lower_minus"]) < 0.45:
                    problems.append((family_name, "level", detail["lower_plus"],
                                     detail["lower_minus"]))
    _report(4, not problems,
            "profile dominance and log-likelihood-ratio consistency hold"
            f"{'; problems: ' + repr(problems) if problems else ''}")


def test_criterion_05_nonconvex_reduction_and_dominance():
    # zero-penalty profile reproduces the convex bound bit for bit
    sp = SignProbabilities(0.437, 0.051, 0.512)
    exact = all(entry["clamped"] == convex_bound(sp)
                for entry in nonconvex_profile(sp, [(0.5, 0.0, 0.0), (2.0, 0.0, 0.0)]))

    # redescending location objective, n = 50, 1e4 replications: the
    # penalty-corrected bound dominates at every window half-width
    result = run_experiment(_config(
        experiment="acc5",
        kind="nonconvex_dominance",
        dgp={"name": "standard_normal"},
        estimator={"kind": "biweight", "params": {"c": 2.0}},
        grids={"n": [50], "delta": [0.25, 0.5, 1.0, 2.0]},
        params={"scan_lo": -3.0, "scan_hi": 3.0, "scan_points": 1201},
        reps=10_000,
    ))
    failures = [
        (row["delta"], row["lhs_point"], row["rhs"])
        for row in result.rows
        if row["lhs_point"] > row["rhs"] + _joint_slack(row)
    ]
    _report(5, exact and not failures,
            f"bit-for-bit reduction {exact}; dominance at all "
            f"{len(result.rows)} deltas"
            f"{'; failures: ' + repr(failures) if failures else ''}")


def test_criterion_06_partialling_algebra():
    # 1e3 random full-rank designs with n <= 200, d <= 20: the partialled
    # coefficient matches the joint solve to 1e-8 relative, the remainder
    # vanishes, and the score pieces are centered; under one minute
    started = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    theta0 = 0.7
    worst_rel = 0.0
    worst_rem = 0.0
    for _ in range(1000):
        n = int(rng.integers(30, 201))
        d = int(rng.integers(0, 21))
        x = rng.standard_normal((n, d))
        beta_t = rng.standard_normal(d)
        beta_extra = rng.standard_normal(d)
        t = x @ beta_t + rng.standard_normal(n)
        y = theta0 * t + x @ beta_extra + rng.standard_normal(n)
        data = RegressionData(y=y, t=t, x=x)
        fit = fwl_estimate(data)
        joint = joint_theta(data)
        worst_rel = max(worst_rel, abs(fit.theta_hat - joint) / max(1.0, abs(joint)))
        dec = score_decompose(data, fit, theta0, beta_t, theta0 * beta_t + beta_extra)
        scale = 1.0 + float(np.sum(np.abs(
            fit.r_t_hat * (fit.r_y_hat - theta0 * fit.r_t_hat))))
        worst_rem = max(worst_rem, abs(dec.remainder) / scale)

    # centering of the score sum and the covariate moment at the targets
    reps, n, d = 2000, 100, 5
    s_vals = np.empty(reps)
    moments = np.empty((reps, d))
    for r in range(reps):
        x = rng.standard_normal((n, d))
        beta_t = rng.standard_normal(d)
        beta_extra = rng.standard_normal(d)
        t = x @ beta_t + rng.standard_normal(n)
        y = theta0 * t + x @ beta_extra + rng.standard_normal(n)
        beta_y = theta0 * beta_t + beta_extra
        r_t = t - x @ beta_t
        r_y = y - x @ beta_y
        s_vals[r] = float(r_t @ (r_y - theta0 * r_t))
        moments[r] = x.T @ (r_y - theta0 * r_t)
    centered = abs(s_vals.mean()) <= 3 * s_vals.std() / math.sqrt(reps)
    for j in range(d):
        centered &= abs(moments[:, j].mean()) <= 3 * moments[:, j].std() / math.sqrt(reps)
    elapsed = time.perf_counter() - started
    ok = worst_rel <= 1e-8 and worst_rem <= 1e-8 and centered and elapsed < 60.0
    _report(6, ok,
            f"worst relative gap {worst_rel:.2e} <= 1e-8, worst remainder "
            f"{worst_rem:.2e} <= 1e-8, centering {centered}, {elapsed:.0f}s < 60s")


def test_criterion_07_proposition_dominance():
    # Gaussian designs, n = 200, d in {2, 8, 20}, 1e4 replications: the
    # threshold bound dominates the measured median bias; the heterogeneous
    # leverage design is included as the non-trivial case
    failures = []
    for design in ("gaussian", "leverage_mix"):
        result = run_experiment(_config(
            experiment=f"acc7-{design}",
            kind="partialled_dominance",
            dgp={"name": design},
            estimator={},
            grids={"n": [200], "d": [2, 8, 20]},
            params={"theta0": 0.5},
            reps=10_000,
        ))
        for row in result.rows:
            if row["lhs_point"] > row["rhs"] + _joint_slack(row):
                failures.append((design, row["d"], row["lhs_point"], row["rhs"]))
    _report(7, not failures,
            "threshold bound dominates on both designs at every d"
            f"{'; failures: ' + repr(failures) if failures else ''}")


def test_criterion_08_dimension_scaling_dichotomy():
    # d = ceil(n^(1/4)): median bias strictly decreasing in n for a majority
    # of seeds; d = ceil(sqrt(n)/2): per-n means flat within +-0.05 and
    # inside (0.02, 0.48)
    result = run_experiment(_config(
        experiment="acc8",
        kind="dimension_scaling",
        dgp={"name": "leverage_mix"},
        estimator={},
        grids={"n": [100, 400, 1600], "d_schedules": ["quarter_pow", "half_sqrt"],
               "seed_labels": [0, 1, 2]},
        params={"theta0": 0.5},
        reps=4000,
    ))
    table = {}
    for row in result.rows:
        table[(row["schedule"], row["n"], row["seed_label"])] = row["lhs_point"]

    decreasing_votes = 0
    for seed in (0, 1, 2):
        seq = [table[("quarter_pow", n, seed)] for n in (100, 400, 1600)]
        decreasing_votes += all(a > b for a, b in zip(seq, seq[1:]))
    majority = decreasing_votes >= 2

    means = [np.mean([table[("half_sqrt", n, s)] for s in (0, 1, 2)])
             for n in (100, 400, 1600)]
    center = float(np.mean(means))
    flat = all(abs(m - center) <= 0.05 for m in means)
    interior = all(0.02 < m < 0.48 for m in means)
    _report(8, majority and flat and interior,
            f"decreasing votes {decreasing_votes}/3, flat-schedule means "
            f"{[round(float(m), 4) for m in means]} within +-0.05 of {center:.4f} "
            f"and inside (0.02, 0.48)")


def test_criterion_09_plm_rate_dichotomy():
    # pinned nuisance error product: vanishing schedule drives the median
    # bias down across n; constant schedule keeps it strictly interior;
    # the conditional-bias inequality holds on every instance
    result = run_experiment(_config(
        experiment="acc9",
        kind="plm_rate_dichotomy",
        dgp={"name": "smooth_default", "params": {"d": 3}},
        estimator={},
        grids={"n": [250, 1000, 4000], "rate_schedules": ["vanishing", "constant"]},
        reps=10_000,
    ))
    table = {(row["schedule"], row["n"]): row for row in result.rows}
    vanishing = [table[("vanishing", n)]["lhs_point"] for n in (250, 1000, 4000)]
    decreasing = all(a > b for a, b in zip(vanishing, vanishing[1:]))
    constant = [table[("constant", n)]["lhs_point"] for n in (250, 1000, 4000)]
    interior = all(0.02 < v < 0.48 for v in constant)
    violations = sum(row["detail"]["cs_violations"] for row in result.rows)
    dominated = all(row["lhs_point"] <= row["rhs"] + _joint_slack(row)
                    for row in result.rows)
    _report(9, decreasing and interior and violations == 0 and dominated,
            f"vanishing {[round(v, 4) for v in vanishing]} decreasing, constant "
            f"{[round(v, 4) for v in constant]} interior, {violations} "
            f"conditional-bias inequality violations, bound dominance {dominated}")


def test_criterion_10_hulc_coverage():
    # sample-median driver, alpha = 0.05 (6 batches), 1e4 runs: empirical
    # coverage at least 0.963 (exact target 1 - 2**-5 minus 3 MC s.e.)
    result = run_experiment(_config(
        experiment="acc10",
        kind="hulc_coverage",
        dgp={"name": "standard_normal"},
        estimator={"kind": "abs_dev"},
        grids={"n": [60]},
        params={"alpha": 0.05},
        reps=10_000,
    ))
    detail = result.rows[0]["detail"]
    ok = detail["batches"] == 6 and detail["coverage"] >= 0.963
    _report(10, ok,
            f"coverage {detail['coverage']:.4f} >= 0.963 with "
            f"{detail['batches']} batches of {detail['batch_size']}")


def test_criterion_11_reproducibility(tmp_path):
    # identical config and master seed give byte-identical CSV reports for
    # worker counts 1 and 8, and across reruns
    config = _config(
        experiment="acc11",
        kind="convex_dominance",
        dgp={"name": "standard_normal"},
        estimator={"kind": "abs_dev"},
        grids={"n": [5, 9]},
        reps=1000,
    )
    paths = []
    for tag, workers in (("w1", 1), ("w8", 8), ("w1_again", 1)):
        result = run_experiment(config, workers=workers)
        path = tmp_path / f"acc11_{tag}.csv"
        write_csv(path, result.rows)
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1] == paths[2]
    _report(11, ok, "CSV bytes identical for workers 1, 8, and a rerun")


def test_llr_chunking_consistency():
    # supporting check: the chunked experiment frequencies coincide with a
    # one-shot call of the lower-bound operation on the same derived draws
    config = _config(
        experiment="acc-llr-consistency",
        kind="mle_llr_consistency",
        estimator={"kind": "neg_loglik", "params": {"family_name": "normal_location"}},
        grids={"n": [12], "eps": [0.4]},
        reps=500,
    )
    result = run_experiment(config)
    family = make_family("normal_location")
    label = grid_label(config.kind, {"n": 12})
    draws = np.stack([
        family.sample(replication_rng(config.master_seed, i, label + "|data"), 0.0, 12)
        for i in range(config.reps)
    ])
    lb_plus, lb_minus = mle_llr_lower_bounds(family, draws, 0.0, 0.4)
    direct = direct_comparison_probabilities(family, draws, 0.0, 0.4)
    detail = result.rows[0]["detail"]
    assert detail["lower_plus"] == lb_plus and detail["lower_minus"] == lb_minus
    assert detail["direct_plus"] == direct[0] and detail["direct_minus"] == direct[1]
