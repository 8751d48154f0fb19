"""Experiment kind implementations.

Each kind is described once, by its ``KindImpl``: how it resolves its config
(rejecting what cannot run), expands its grid, names its seed streams,
simulates one chunk of replications, and folds the collected arrays into
report rows.  Every replication draws from its own derived seed streams,
through ``_replications`` or, for a one-pass chunk, ``draw_chunk``, so
chunking and worker count can never change a value, and a one-replication
chunk reproduces that replication.  The univariate kinds draw a chunk as
one ``(count, n)`` matrix and estimate, score and evaluate it row by row;
the partialled kinds fit a chunk's regressions in cache-sized stacks.  A
chunk function raises its error as is: the engine's ``run_chunk`` names
the failing replication.  Rows are plain dicts in the canonical report
schema; anything kind-specific goes into ``detail``.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ..bounds import (
    IdentifiabilityError,
    checked_eps_grid,
    convex_bound,
    expected_llr,
    llr_frequencies,
    llr_sign_indicators,
    nondiff_profile,
    nonconvex_profile,
    z_exact_medbias,
)
from ..core import EstimatorDraws, freq_std_err, mc_med_bias, med_bias_std_err, sign_probabilities
from ..objectives import (
    BiweightLocation,
    LocationObjective,
    NegativeLogLikelihood,
    NormalLocation,
    biweight_ddrho,
    check_loss_rank,
    make_objective,
)
from ..partialling import (
    RegressionData,
    default_eta_grid,
    fwl_estimate,
    proposition_profile,
    score_decompose,
    slope_sides,
)
from ..plm import (
    corrupted_nuisances,
    plm_conditional_bias,
    plm_medbias_profile,
    plm_split_fit,
    simulate_plm,
)
from ..solver import Bracket, minimize_convex, minimize_scan, scan_grid, slab_rows
from .dgps import design_params, is_int, is_real, make_dgp, make_plm_dgp, read_params, sample_design
from .hulc import batch_count, hulc_interval, miss_bound
from .onepass import LAWS, draw_chunk
from .reports import CSV_COLUMNS
from .seeds import chunk_generators


# ---------------------------------------------------------------------------
# Estimators: resolved once per run, read by every replication.


def default_bracket(data) -> Bracket:
    """The solver's bracket: the data range widened by its width plus one on each
    side, per row of a matrix.

    Finite draws near the float limit widen past it, and one draw past 2**53
    widened by 1 rounds back to itself; ``Bracket`` rejects both (non-finite
    ends or tol, ``lo >= hi``), so their overflow is not warned about.
    """
    data = np.asarray(data, dtype=float)
    lo, hi = data.min(axis=-1), data.max(axis=-1)
    with np.errstate(over="ignore"):
        span = hi - lo + 1.0
        return Bracket(lo - span, hi + span)


def _check_loss_ranks(n: int, tau: float) -> tuple[int, int]:
    """0-based order statistics whose midpoint minimises the check loss at ``tau``."""
    k = check_loss_rank(n, tau)
    if k.is_integer() and 1 <= k <= n - 1:
        return int(k) - 1, int(k)
    idx = min(max(math.ceil(k), 1), n) - 1
    return idx, idx


def _check_loss_argmin(data, tau: float):
    """Argmin of the check loss per row, midpoint tie-break on flat segments."""
    s = np.sort(data, axis=-1)
    lo, hi = _check_loss_ranks(s.shape[-1], tau)
    if lo == hi:
        return s[..., lo]
    return 0.5 * (s[..., lo] + s[..., hi])


def _symmetry_center(estimator_kind: str, dgp) -> float:
    if dgp.center is None:
        raise ValueError(
            f"no closed-form target for {estimator_kind} under asymmetric {dgp.name}"
        )
    return dgp.center


@dataclass(frozen=True)
class Estimator:
    """An estimator as a run uses it, resolved once from ``config.estimator``.

    ``params`` are the keyword arguments of ``make_objective``, ``probe`` is
    the objective built from them on one point, ``closed_form`` maps each row
    of a data matrix to its argmin where one exists, ``target`` maps a scalar
    DGP to the population target, and ``exact_score`` marks integer-valued
    scores, whose signs count exactly.
    """

    kind: str
    params: dict
    probe: LocationObjective
    closed_form: Callable | None
    target: Callable
    exact_score: bool = False

    def objective(self, data) -> LocationObjective:
        return make_objective(self.kind, data, **self.params)


def resolve_estimator(estimator: dict) -> Estimator:
    """Resolve ``config.estimator``, rejecting what the objective cannot be built from."""
    kind = estimator.get("kind")
    try:
        params = dict(estimator.get("params", {}))
        probe = make_objective(kind, [0.0], **params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"estimator {kind!r} with params {estimator.get('params', {})}: "
                         f"{exc}") from None
    if kind in ("abs_dev", "quantile"):
        tau = getattr(probe, "tau", 0.5)
        return Estimator(kind, params, probe, functools.partial(_check_loss_argmin, tau=tau),
                         operator.methodcaller("quantile", tau), exact_score=True)
    power = getattr(probe, "p", None)
    if power == 2.0 or isinstance(getattr(probe, "family", None), NormalLocation):
        return Estimator(kind, params, probe, functools.partial(np.mean, axis=-1),
                         operator.attrgetter("mean"))
    closed_form = functools.partial(_check_loss_argmin, tau=0.5) if power == 1.0 else None
    return Estimator(kind, params, probe, closed_form,
                     functools.partial(_symmetry_center, kind))


def estimate_location(estimator: Estimator, data) -> np.ndarray:
    """The estimate on each row of a ``(rows, n)`` matrix (a 1-d array is one row).

    The closed form where the estimator has one, else the batched convex
    solver, else the biweight scan over 2001 points of each row's bracket,
    in one call: the scan works out only the grid points it visits.  Closed
    forms share the solver's midpoint tie-break, and the routes are
    cross-checked in the test suite.
    """
    data = np.ascontiguousarray(np.atleast_2d(data), dtype=float)
    if estimator.closed_form is not None:
        return estimator.closed_form(data)
    bracket = default_bracket(data)
    if estimator.probe.is_convex:
        return minimize_convex(estimator.objective(data), bracket)
    return minimize_scan(estimator.objective(data), bracket, 2001)


def score_at(obj: LocationObjective, theta0: float) -> np.ndarray:
    """Score statistic at the target per row: midpoint of the subgradient interval."""
    with np.errstate(**obj.errstate):
        left, right = obj.subgradient(theta0)
        return 0.5 * (left + right)


def score_zero_tol(estimator: Estimator, scores: np.ndarray) -> float:
    """Deadband for sign counting: 0 for exact counting scores, tiny for float ones."""
    if estimator.exact_score:
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
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(
        experiment=config.experiment,
        kind=config.kind,
        dgp=config.dgp.get("name", ""),
        estimator=estimator_label(config.estimator) if config.estimator else "",
        n=point.get("n", ""),
        d=point.get("d", ""),
        schedule=point.get("schedule", ""),
        seed_label=point.get("seed_label", ""),
        reps=config.reps,
        detail={},
        master_seed=config.master_seed,
    )
    return row


def _lhs_row(config, point: dict, theta_hat, theta0: float):
    """Canonical row carrying the Monte-Carlo median bias of ``theta_hat``.

    Returns the row and the estimate; kinds that report several rows per
    grid point copy the row for each of them.
    """
    lhs = mc_med_bias(EstimatorDraws(theta_hat, theta0))
    row = _base_row(config, point)
    row.update(p_le=lhs.p_le, p_ge=lhs.p_ge, lhs_point=lhs.point, lhs_std_err=lhs.std_err)
    return row, lhs


# ---------------------------------------------------------------------------
# Replication and config resolution shared by every kind.


def _replications(config, point: dict, start: int, stop: int):
    """Yield one generator per stream of the kind (``KindImpl.streams``) for each
    replication ``start..stop`` of a grid point.

    With ``_sample``'s one-pass draws, the owner of the seeding contract:
    stream ``s`` of replication ``i`` draws the stream of
    ``replication_rng(master_seed, i, f"{grid_label}|{s}")``, so a value
    depends only on (master seed, grid point, index, stream), never on
    chunking, worker count or order.  The chunk is seeded in one pass by
    ``chunk_generators``, which reuses each stream's generator: a replication
    must not keep a generator after the next one is yielded.
    """
    labels = [_stream_label(config, point, stream) for stream in KINDS[config.kind].streams]
    return chunk_generators(config.master_seed, start, stop, labels)


def _stream_label(config, point: dict, stream: str) -> str:
    return f"{grid_label(config.kind, point)}|{stream}"


def _require(ok: bool, message: str):
    if not ok:
        raise ValueError(message)


def _read_params(config, **defaults) -> dict:
    """The kind's ``params`` scalars with defaults filled in."""
    return read_params(config.params, defaults, f"kind {config.kind!r}")


def _int_grid(config, key: str, least: int | None = None):
    bad = [v for v in config.grids[key] if not is_int(v) or (least is not None and v < least)]
    bound = "" if least is None else f" >= {least}"
    _require(not bad, f"grid {key!r} needs integers{bound}, got {bad}")


def _positive_grid(config, key: str):
    bad = [v for v in config.grids[key] if not is_real(v) or not 0.0 < v < math.inf]
    _require(not bad, f"grid {key!r} needs finite numbers > 0, got {bad}")


def _check_finite(matrices: list, source: str):
    """Raise when a draw is not finite (a finite but huge scale can overflow
    them): the LLR and HulC kinds return indicators, which would hide it
    from the engine's check of the chunk's arrays."""
    if not all(np.isfinite(matrix).all() for matrix in matrices):
        raise ValueError(f"a draw from {source} is not finite")


#: Largest n whose ``onepass.LAWS`` chunks are drawn in one numpy pass.  Past
#: about 35 draws per row, the ziggurats' slow-path rows (a third of the
#: normal's rows at n = 32, and half of the exponential's) and the wider
#: ``(count, n)`` temporaries cost more than a generator per replication
#: does; the uniform, which has no slow path, still gains at 64.
_ONE_PASS_MAX_N = 32


def _sample(config, prep, point, start, stop) -> list:
    """The chunk's draws from the scalar DGP: one finite ``(count, n)`` matrix
    per stream of the kind.

    ``standard_normal``, ``uniform`` and ``exp_centered`` chunks of at most
    ``_ONE_PASS_MAX_N`` draws per replication are drawn in one numpy pass per stream
    (``onepass.draw_chunk``), the others from a generator per replication;
    both give ``replication_rng``'s draws bit for bit.
    """
    n = point["n"]
    if prep.dgp.name in LAWS and n <= _ONE_PASS_MAX_N:
        matrices = [draw_chunk(prep.dgp, config.master_seed, start, stop,
                               _stream_label(config, point, stream), n)
                    for stream in KINDS[config.kind].streams]
    else:
        draws = [[prep.dgp.sample(rng, n) for rng in rngs]
                 for rngs in _replications(config, point, start, stop)]
        matrices = [np.array(stream) for stream in zip(*draws)]
    _check_finite(matrices, f"scalar DGP {prep.dgp.name!r}")
    return matrices


def _prepare_univariate(config, convex: bool, **defaults) -> SimpleNamespace:
    """The kind's ``params`` scalars, its estimator, scalar DGP and target.

    ``convex`` kinds certify bounds that need a convex objective (a monotone
    score), so they reject the redescending biweight.
    """
    prep = SimpleNamespace(**_read_params(config, **defaults))
    _int_grid(config, "n", 1)
    prep.estimator = resolve_estimator(config.estimator)
    _require(not convex or prep.estimator.probe.is_convex,
             f"{config.kind} needs a convex estimator; {prep.estimator.kind} is not convex")
    prep.dgp = make_dgp(config.dgp.get("name"), **config.dgp.get("params", {}))
    prep.theta0 = prep.estimator.target(prep.dgp)
    return prep


# ---------------------------------------------------------------------------
# Kind: convex_dominance -- Monte-Carlo median bias of a convex M-estimator
# against the strict-sign probability bound of its score at the target.


def _points_per_n(config):
    return [{"n": int(n)} for n in config.grids["n"]]


def _chunk_convex(config, prep, point, start, stop):
    """The estimate on the first stream's draws and the score on the last's: the
    one stream of ``convex_dominance``, or the two independent streams of
    ``z_estimator_equality``."""
    streams = _sample(config, prep, point, start, stop)
    return {"theta_hat": estimate_location(prep.estimator, streams[0]),
            "score": score_at(prep.estimator.objective(streams[-1]), prep.theta0)}


def _summarize_convex(config, prep, point, arrays):
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], prep.theta0)
    tol = score_zero_tol(prep.estimator, arrays["score"])
    sp = sign_probabilities(arrays["score"], zero_tol=tol)
    row.update(
        rhs=convex_bound(sp),
        rhs_std_err=med_bias_std_err(sp.p_neg, sp.p_pos, lhs.reps),
        rhs_kind="convex_thm1",
        detail={"theta0": prep.theta0, "p_neg": sp.p_neg, "p_zero": sp.p_zero,
                "p_pos": sp.p_pos, "zero_tol": tol},
    )
    return [row], {}


# ---------------------------------------------------------------------------
# Kind: z_estimator_equality -- the Z-estimator identity, with the two sides
# estimated from independent replication streams.


def _summarize_z_equality(config, prep, point, arrays):
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], prep.theta0)
    # the weak-sign frequencies of the score at 0 are the ones the LHS counts
    signs = mc_med_bias(EstimatorDraws(arrays["score"], 0.0))
    rhs = z_exact_medbias(signs.p_le, signs.p_ge)
    row.update(
        rhs=rhs,
        rhs_std_err=signs.std_err,
        rhs_kind="z_exact",
        detail={
            "theta0": prep.theta0,
            "p_weak_le": signs.p_le,
            "p_weak_ge": signs.p_ge,
            "abs_diff": abs(lhs.point - rhs),
            "joint_std_err": math.hypot(lhs.std_err, signs.std_err),
        },
    )
    return [row], {}


# ---------------------------------------------------------------------------
# Kind: nondiff_profile -- objective-value comparison bound over an epsilon
# grid, no derivatives involved.


def _prepare_nondiff(config):
    prep = _prepare_univariate(config, convex=True)
    _positive_grid(config, "eps")
    prep.eps = checked_eps_grid(config.grids["eps"]).tolist()
    return prep


def _chunk_nondiff(config, prep, point, start, stop):
    data, = _sample(config, prep, point, start, stop)
    obj = prep.estimator.objective(data)
    theta0 = prep.theta0
    theta_hat = estimate_location(prep.estimator, data)
    with np.errstate(**obj.errstate):
        return {"theta_hat": theta_hat,
                "center": obj.value(theta0),
                "plus": np.stack([obj.value(theta0 + e) for e in prep.eps], axis=1),
                "minus": np.stack([obj.value(theta0 - e) for e in prep.eps], axis=1)}


def _summarize_nondiff(config, prep, point, arrays):
    row, _ = _lhs_row(config, point, arrays["theta_hat"], prep.theta0)
    profile = nondiff_profile(prep.eps, arrays["center"], arrays["plus"].T, arrays["minus"].T)
    rows = [
        dict(
            row,
            eps=entry["eps"],
            rhs=entry["bound"],
            rhs_std_err=entry["std_err"],
            rhs_kind="nondiff_eps",
            detail={"theta0": prep.theta0, "p_plus": entry["p_plus"],
                    "p_minus": entry["p_minus"]},
        )
        for entry in profile
    ]
    return rows, {"eps_profile": profile}


# ---------------------------------------------------------------------------
# Kind: mle_llr_consistency -- centered log-likelihood-ratio lower bounds
# against the directly measured comparison probabilities.


def _prepare_mle_llr(config):
    """The family and target, and the expected log-likelihood ratio at +e and -e
    for each grid value e, computed once per run (``prep.expected``)."""
    params = _read_params(config, theta0=0.0)
    _int_grid(config, "n", 1)
    estimator = resolve_estimator(config.estimator)
    _require(isinstance(estimator.probe, NegativeLogLikelihood),
             "mle_llr_consistency needs a neg_loglik estimator")
    bad = [e for e in config.grids["eps"] if not is_real(e) or not math.isfinite(e) or e == 0]
    _require(not bad, f"grid 'eps' needs finite nonzero numbers, got {bad}")
    prep = SimpleNamespace(family=estimator.probe.family, theta0=float(params["theta0"]),
                           eps=[float(e) for e in config.grids["eps"]], expected=[])
    # the values without a finite negative ratio at either shift, then each
    # one the family cannot compute, in its words
    unfit, failed = [], []
    for e in prep.eps:
        try:
            prep.expected.append([expected_llr(prep.family, prep.theta0, shift)
                                  for shift in (e, -e)])
        except IdentifiabilityError:
            unfit.append(e)
        except ValueError as err:
            failed.append(f"grid 'eps': {err}")
    head = [f"grid 'eps' values {unfit} give no finite negative expected "
            f"log-likelihood ratio under {prep.family.name}"] if unfit else []
    _require(not head and not failed, "; ".join(head + failed))
    return prep


def _chunk_mle_llr(config, prep, point, start, stop):
    with np.errstate(over="ignore"):  # a draw past the float range is named below
        draws = np.array([prep.family.sample(rng, prep.theta0, point["n"])
                          for rng, in _replications(config, point, start, stop)])
    _check_finite([draws], f"family {prep.family.name!r}")
    out = {}
    for k, (e, (plus, minus)) in enumerate(zip(prep.eps, prep.expected)):
        for side, shift, expected in (("plus", e, plus), ("minus", -e, minus)):
            out[f"lower_{side}_{k}"], out[f"direct_{side}_{k}"] = llr_sign_indicators(
                prep.family, draws, prep.theta0, shift, expected)
    return out


def _summarize_mle_llr(config, prep, point, arrays):
    rows, profile = [], []
    for k, e in enumerate(prep.eps):
        entry = llr_frequencies(*((arrays[f"lower_{side}_{k}"], arrays[f"direct_{side}_{k}"])
                                  for side in ("plus", "minus")))
        rhs, rhs_std_err = entry.pop("bound"), entry.pop("std_err")
        entry.update(eps=e, expected_llr_per_obs=prep.expected[k][0], n=point["n"])
        profile.append(entry)
        rows.append(dict(_base_row(config, point), eps=e, rhs=rhs, rhs_std_err=rhs_std_err,
                         rhs_kind="mle_llr", detail=entry))
    return rows, {"llr_profile": profile}


# ---------------------------------------------------------------------------
# Kind: nonconvex_dominance -- redescending location objective; the convex
# bound plus window-convexity and escape penalties over a delta grid.


def _prepare_nonconvex(config):
    prep = _prepare_univariate(config, convex=False, scan_lo=None, scan_hi=None,
                               scan_points=1201, window_points=33)
    _require(isinstance(prep.estimator.probe, BiweightLocation),
             "nonconvex_dominance drives the biweight estimator only")
    theta0 = prep.theta0
    scan_lo = theta0 - 3.0 if prep.scan_lo is None else float(prep.scan_lo)
    scan_hi = theta0 + 3.0 if prep.scan_hi is None else float(prep.scan_hi)
    _require(scan_lo < scan_hi, f"params.scan_lo={scan_lo} must be below scan_hi={scan_hi}")
    _require(prep.scan_points >= 3,
             f"params.scan_points must be an integer >= 3, got {prep.scan_points!r}")
    _require(prep.window_points >= 2,
             f"params.window_points must be an integer >= 2, got {prep.window_points!r}")
    try:
        prep.scan = Bracket(scan_lo, scan_hi)
        scan_grid(prep.scan, prep.scan_points)
    except ValueError as err:
        raise ValueError(f"params.scan_lo={scan_lo} and params.scan_hi={scan_hi} give no "
                         f"{prep.scan_points}-point scan grid: {err}") from None
    _positive_grid(config, "delta")
    prep.deltas = [float(d) for d in config.grids["delta"]]
    prep.windows = np.array([theta0 + np.linspace(-delta, delta, prep.window_points)
                             for delta in prep.deltas])
    return prep


def _chunk_nonconvex(config, prep, point, start, stop):
    """The scan estimate, the score, and per delta whether the objective's
    curvature is >= 0 at every point of its window: the windows' points are
    evaluated together, one slab of rows at a time."""
    data, = _sample(config, prep, point, start, stop)
    obj = prep.estimator.objective(data)
    points = prep.windows.ravel()
    # three (rows, points, n) arrays are live at once: the differences and
    # biweight_ddrho's two
    size = slab_rows(3 * points.size, point["n"])
    curv_min = np.empty((len(data), len(prep.windows)))
    with np.errstate(**obj.errstate):
        theta_hat = minimize_scan(obj, prep.scan, prep.scan_points)
        score = score_at(obj, prep.theta0)
        for first in range(0, len(data), size):
            rows = slice(first, first + size)
            curv = biweight_ddrho(data[rows, None, :] - points[:, None], obj.c).sum(axis=2)
            curv_min[rows] = curv.reshape(-1, *prep.windows.shape).min(axis=2)
    return {"theta_hat": theta_hat, "score": score,
            **{f"convex_{k}": (curv_min[:, k] >= 0.0).astype(float)
               for k in range(len(prep.windows))}}


def _summarize_nonconvex(config, prep, point, arrays):
    theta0 = prep.theta0
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], theta0)
    sp = sign_probabilities(arrays["score"],
                            zero_tol=score_zero_tol(prep.estimator, arrays["score"]))
    escape = np.abs(arrays["theta_hat"] - theta0)
    profile = nonconvex_profile(sp, [
        (delta, 1.0 - float(arrays[f"convex_{k}"].mean()),
         float(np.count_nonzero(escape > delta)) / lhs.reps)
        for k, delta in enumerate(prep.deltas)
    ])
    convex_se = med_bias_std_err(sp.p_neg, sp.p_pos, lhs.reps)
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


def _prepare_design(config, fit: Callable):
    """Regression design, true coefficient and ``fit``, the kind's block fit."""
    params = _read_params(config, theta0=0.5)
    _int_grid(config, "n", 1)
    if config.grids.get("eta"):
        _positive_grid(config, "eta")
    name = config.dgp.get("name")
    return SimpleNamespace(design=name,
                           design_params=design_params(name, config.dgp.get("params", {})),
                           theta0=float(params["theta0"]), fit=fit,
                           eta=config.grids.get("eta"))


def _fit_decomposed(data, theta0: float) -> dict:
    """Each slope and score decomposition, as ``partialled_dominance`` reads them."""
    fit = fwl_estimate(data)
    beta = np.zeros(data.x.shape[:-2] + (data.d,))  # both designs have zero coefficients
    dec = score_decompose(data, fit, theta0, beta, beta)
    return {"theta_hat": fit.theta_hat, "s_n": dec.s_n, "correction": dec.correction}


def _fit_sides(data, theta0: float) -> dict:
    """Each side of theta0 and whether ``slope_sides`` certified it."""
    return slope_sides(data, theta0)._asdict()


#: Bytes of ``[x | t | y]`` stack per block, by block fit: large enough to
#: share each block's fixed cost (about 120 us at n = 400) among many rows.
#: The QR fit holds about 2.1 more stacks of temporaries per block (the Gram
#: fit 0.15 to 0.57, tracemalloc), and 640 KiB blocks made ``regression`` no
#: faster and raised its peak RSS by 1.15 MiB, so it keeps 256 KiB.  640 KiB
#: is the largest Gram block whose ``dimension_scaling`` chunk at n = 100
#: keeps its tracemalloc peak within 1.19 MiB (1.03 MiB; 768 KiB gives 1.22).
_FIT_BLOCK_BYTES = {_fit_decomposed: 256 << 10, _fit_sides: 640 << 10}
#: Rows per block of partialled fits where fewer fit in the fit's budget
#: (n = 1600, d = 20): two rows share a block's fixed cost of about 15 numpy
#: calls; four gained little more and raised the peak RSS.
_FIT_BLOCK_MIN_ROWS = 2


def fit_block_rows(fit: Callable, n: int, d: int) -> int:
    """Replications per block of ``fit`` on ``n``-row designs with ``d`` covariates."""
    return max(_FIT_BLOCK_MIN_ROWS, _FIT_BLOCK_BYTES[fit] // (8 * n * (d + 2)))


def _full_rank(points):
    """``points``, once every design [t | x] has at least as many rows as columns."""
    wide = [(point["n"], point["d"]) for point in points if point["d"] + 1 > point["n"]]
    _require(not wide, f"grid points (n, d) = {wide} have d + 1 > n, so the design "
                       "[t | x] is rank deficient")
    return points


def _points_partialled(config):
    _int_grid(config, "d", 0)
    return _full_rank([{"n": int(n), "d": int(d)}
                       for n in config.grids["n"] for d in config.grids["d"]])


def _chunk_partialled(config, prep, point, start, stop):
    """Draw the chunk's designs into block stacks and fit each block at once.

    A block holds ``fit_block_rows(prep.fit, n, d)`` replications (as many
    as fit in the fit's ``_FIT_BLOCK_BYTES`` of ``[x | t | y]`` stack, and at
    least ``_FIT_BLOCK_MIN_ROWS``), or the whole chunk if it is shorter; a
    row's fit does not depend on its block, so the values do not depend on
    the block size or on chunking.
    Each block's replications draw straight into its rows, the block is
    checked once, as one ``RegressionData``, and ``prep.fit`` returns its
    arrays, which the chunk concatenates.
    """
    n, d, count = point["n"], point["d"], stop - start
    block = min(count, fit_block_rows(prep.fit, n, d))
    y, t, x = np.empty((block, n)), np.empty((block, n)), np.empty((block, n, d))
    rngs = (rng for rng, in _replications(config, point, start, stop))
    fits = []
    for first in range(0, count, block):
        k = min(block, count - first)
        sample_design(prep.design, itertools.islice(rngs, k), y[:k], t[:k], x[:k],
                      prep.theta0, **prep.design_params)
        fits.append(prep.fit(RegressionData(y=y[:k], t=t[:k], x=x[:k]), prep.theta0))
    return {key: np.concatenate([fit[key] for fit in fits]) for key in fits[0]}


def _summarize_partialled(config, prep, point, arrays):
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], prep.theta0)
    eta_grid = prep.eta or default_eta_grid(arrays["s_n"])
    profile = proposition_profile(arrays["s_n"], arrays["correction"], eta_grid)
    best = min(profile, key=lambda r: r["value"])
    rhs_se = math.hypot(
        med_bias_std_err(best["p_low"], best["p_high"], lhs.reps),
        freq_std_err(best["escape"], lhs.reps),
    )
    row.update(
        rhs=min(0.5, best["value"]),
        rhs_std_err=rhs_se,
        rhs_kind="convex_thm1",
        detail={
            "theta0": prep.theta0,
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
    # the derived d is a coordinate, so it is part of the seed label
    _int_grid(config, "seed_labels")
    return _full_rank([
        {"schedule": schedule, "n": int(n), "d": schedule_dimension(schedule, int(n)),
         "seed_label": int(s)}
        for schedule in config.grids["d_schedules"]
        for n in config.grids["n"]
        for s in config.grids["seed_labels"]
    ])


def _summarize_dim_scaling(config, prep, point, arrays):
    # sign(theta_hat - theta0) falls on each side of 0 as theta_hat does of theta0
    row, _ = _lhs_row(config, point, arrays["side"], 0.0)
    row["detail"] = {"theta0": prep.theta0}
    # per row, except that a block whose batched Cholesky raises counts every
    # row as a fallback: blocks follow the chunk size and the fit's block
    # budget (``fit_block_rows``), so such a count is outside the chunk-size
    # contract (the sides are not)
    certified = int(np.count_nonzero(arrays["certified"]))
    return [row], {"fits": {"certified": certified, "fallback": config.reps - certified}}


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


def _prepare_plm(config):
    """The process, and per (schedule, n) the rate pair, the corrupted nuisance pair,
    and the conditional bias with its bound on a fold 2 of n - n // 2 rows."""
    params = _read_params(config, overlap=1.0, corrupt_seed=0)
    _int_grid(config, "n", 2)
    overlap, seed = params["overlap"], params["corrupt_seed"]
    _require(-1.0 <= overlap <= 1.0, f"params.overlap must be in [-1, 1], got {overlap!r}")
    _require(seed >= 0, f"params.corrupt_seed must be a non-negative integer, got {seed!r}")
    dgp = make_plm_dgp(config.dgp.get("name"), **config.dgp.get("params", {}))
    rates = {(schedule, n): rate_for(schedule, n)
             for schedule in config.grids["rate_schedules"] for n in config.grids["n"]}
    nuisances = {key: corrupted_nuisances(rate, overlap, seed)
                 for key, (rate, _) in rates.items()}
    return SimpleNamespace(
        dgp=dgp, rates=rates, nuisances=nuisances,
        biases={(schedule, n): plm_conditional_bias(m_hat, g_hat, n - n // 2)
                for (schedule, n), (m_hat, g_hat) in nuisances.items()},
    )


def _chunk_plm(config, prep, point, start, stop):
    n = point["n"]
    m_hat, g_hat = prep.nuisances[point["schedule"], n]
    theta_hat, z_at_theta0 = np.empty(stop - start), np.empty(stop - start)
    # an overflowing draw or fit is named by the engine's finite check alone
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (rng_data, rng_split) in enumerate(_replications(config, point, start, stop)):
            draws = simulate_plm(prep.dgp, n, rng_data)
            theta_hat[i], z_at_theta0[i] = plm_split_fit(prep.dgp, draws, m_hat, g_hat,
                                                         rng_split)
    return {"theta_hat": theta_hat, "z_at_theta0": z_at_theta0}


def _summarize_plm(config, prep, point, arrays):
    rate, target = prep.rates[point["schedule"], point["n"]]
    bias, bound = prep.biases[point["schedule"], point["n"]]
    row, lhs = _lhs_row(config, point, arrays["theta_hat"], prep.dgp.theta0)
    profile = plm_medbias_profile(arrays["z_at_theta0"] - bias, bias)
    cs_violations = 0 if abs(bias) <= bound else lhs.reps
    row.update(
        rhs=profile["bound"],
        rhs_std_err=med_bias_std_err(profile["p_low"], profile["p_high"], lhs.reps),
        # upper bound of the thresholded sign-probability family (it reduces
        # to the exact weak-sign value only when the conditional bias is zero)
        rhs_kind="convex_thm1",
        detail={
            "theta0": prep.dgp.theta0,
            "rate": rate,
            "rate_target": target,
            # the bias is one constant per grid point; its reported mean is the
            # mean of one copy per replication, which need not equal its bits
            "mean_cond_bias": float(np.mean(np.full(lhs.reps, bias))),
            "cs_violations": cs_violations,
        },
    )
    return [row], {}


# ---------------------------------------------------------------------------
# Kind: hulc_coverage -- empirical coverage of the min-max batch interval.


def _prepare_hulc(config):
    prep = _prepare_univariate(config, convex=False, alpha=0.05)
    _require(0.0 < prep.alpha < 1.0, f"params.alpha must be in (0, 1), got {prep.alpha!r}")
    prep.batches = batch_count(prep.alpha)
    _int_grid(config, "n", prep.batches)
    return prep


def _chunk_hulc(config, prep, point, start, stop):
    data, = _sample(config, prep, point, start, stop)
    lo, hi = hulc_interval(data, prep.alpha, functools.partial(estimate_location, prep.estimator))
    return {"covered": ((lo <= prep.theta0) & (prep.theta0 <= hi)).astype(float)}


def _summarize_hulc(config, prep, point, arrays):
    reps = arrays["covered"].size
    coverage = float(arrays["covered"].mean())
    row = _base_row(config, point)
    row["detail"] = {
        "theta0": prep.theta0,
        "alpha": prep.alpha,
        "batches": prep.batches,
        "batch_size": point["n"] // prep.batches,
        "coverage": coverage,
        "coverage_std_err": freq_std_err(coverage, reps),
        "miss_target": miss_bound(prep.batches),
    }
    return [row], {}


# ---------------------------------------------------------------------------
# Registry.


@dataclass(frozen=True)
class KindImpl:
    """Everything the lab knows about one experiment kind.

    ``grids`` must be non-empty.  ``prepare(config)`` resolves what the kind
    reads from the config, raising ValueError or TypeError on what cannot
    run; validation and the run share its result as ``prepared``.
    ``run_chunk(config, prepared, point, start, stop)`` simulates
    replications of a grid point into arrays with one row per replication,
    each row depending on that replication alone, and ``summarize(config,
    prepared, point, arrays)`` folds all of them into ``(rows, profile)``.
    ``streams`` names the seed streams each replication draws from.
    """

    name: str
    description: str
    grids: tuple
    prepare: Callable
    grid_points: Callable
    run_chunk: Callable
    summarize: Callable
    streams: tuple = ("data",)


KINDS = {
    impl.name: impl
    for impl in (
        KindImpl(
            "convex_dominance",
            "median bias of a convex M-estimator vs the strict-sign score bound",
            ("n",), functools.partial(_prepare_univariate, convex=True), _points_per_n,
            _chunk_convex, _summarize_convex,
        ),
        KindImpl(
            "z_estimator_equality",
            "Z-estimator median bias vs the weak-sign score value, independent streams",
            ("n",), functools.partial(_prepare_univariate, convex=True), _points_per_n,
            _chunk_convex, _summarize_z_equality, streams=("lhs", "rhs"),
        ),
        KindImpl(
            "nondiff_profile",
            "objective-comparison bound over a decreasing epsilon grid",
            ("n", "eps"), _prepare_nondiff, _points_per_n, _chunk_nondiff, _summarize_nondiff,
        ),
        KindImpl(
            "mle_llr_consistency",
            "centered log-likelihood-ratio lower bounds vs direct comparison frequencies",
            ("n", "eps"), _prepare_mle_llr, _points_per_n, _chunk_mle_llr, _summarize_mle_llr,
        ),
        KindImpl(
            "nonconvex_dominance",
            "redescending location objective vs the window-convexity corrected bound",
            ("n", "delta"), _prepare_nonconvex, _points_per_n, _chunk_nonconvex,
            _summarize_nonconvex,
        ),
        KindImpl(
            "partialled_dominance",
            "partialled least-squares median bias vs the threshold bound",
            ("n", "d"), functools.partial(_prepare_design, fit=_fit_decomposed),
            _points_partialled, _chunk_partialled, _summarize_partialled,
        ),
        KindImpl(
            "dimension_scaling",
            "median-bias trajectories under two covariate-dimension schedules",
            ("n", "d_schedules", "seed_labels"),
            functools.partial(_prepare_design, fit=_fit_sides), _points_dim_scaling,
            _chunk_partialled, _summarize_dim_scaling,
        ),
        KindImpl(
            "plm_rate_dichotomy",
            "sample-split partial-linear estimator with pinned nuisance error rates",
            ("n", "rate_schedules"), _prepare_plm, _points_plm, _chunk_plm, _summarize_plm,
            streams=("data", "split"),
        ),
        KindImpl(
            "hulc_coverage",
            "coverage of the min-max batch interval driven by a location estimator",
            ("n",), _prepare_hulc, _points_per_n, _chunk_hulc, _summarize_hulc,
        ),
    )
}
