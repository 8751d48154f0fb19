"""Benchmark for medbias: certification workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload convex_bisect --seed 0 --seconds 18 --trace 0

Each workload (``perfbench/workloads.json``) is a fixed list of experiment
configs whose ``master_seed`` is the ``--seed`` argument.  One process runs
them in a closed loop through the package's public entry points
(``run_experiment``, ``write_csv``/``write_json`` and ``medbias.simlab.cli.main``).
A first pass at workers=1 warms the process and gives the reference CSV
digests; timed passes at the workload's worker count follow until
``--seconds`` have elapsed.  Every CSV is checked: the digests of every pass
must equal the reference (which makes ``parallel_grid`` worker-invariant),
the reference must equal the pinned digests in ``perfbench/digests.json`` at
the default seed, and each row must satisfy the invariants and Monte-Carlo
bound checks below.

Times are reported at a nominal host speed.  On a shared host the speed a
process gets swings by up to 2x over seconds, so each config is timed
between two runs of a fixed calibration kernel (``calibrate``), and its
time is scaled by ``CALIBRATION_NOMINAL_S`` over their mean; a pass is then
estimated as the sum over configs of each config's median.  The raw times
are kept in the run manifest.  ``setup_s`` is the median over fresh
interpreters that import ``medbias`` and validate the workload's configs,
each scaled by the kernel timed in that interpreter.  ``peak_rss_mib`` is
the largest peak RSS of this process and its children (pool workers and
set-up interpreters).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced workers=1 passes and prints the per-layer metrics, with
the bypass predictions of ``workloads.json`` checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Reports, the run manifest and the spans of the last traced
pass are written under ``.perfbench_out/``.

``--pin-digests`` rewrites ``perfbench/digests.json`` from a workers=1 pass
of every workload at the default seed; use it only in a change that declares
new values.
"""

import os

# Pinned before numpy is imported, so this process, its pool workers and the
# set-up interpreters all run one BLAS thread (OpenBLAS defaults to one
# thread per core, which oversubscribes the cores at workers=2).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = HERE / "workloads.json"
DIGESTS = HERE / "digests.json"

#: CSV column order as documented in the README.
CSV_COLUMNS = [
    "experiment", "kind", "dgp", "estimator", "n", "d", "eps", "delta", "schedule",
    "seed_label", "reps", "p_le", "p_ge", "lhs_point", "lhs_std_err", "rhs",
    "rhs_std_err", "rhs_kind", "detail", "master_seed",
]

#: Standard errors allowed between a measured median bias and its bound.  The
#: bounds are theorems, so only Monte-Carlo noise separates the two; five
#: joint standard errors keep a false alarm below one in a million per row.
MC_SIGMAS = 5.0
DOMINANCE_KINDS = ("convex_thm1", "nondiff_eps", "nonconvex_delta")

#: Time of ``calibrate()`` on an idle 2.0 GHz Xeon core.  Every reported time
#: is scaled by this over the kernel times measured next to it, so that a host
#: running slower (on a shared 2-core Xeon VM the kernel swings between 0.04
#: and 0.07 s for tens of seconds) does not read as a slower program.
CALIBRATION_NOMINAL_S = 0.04

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER_UNITS = {
    "seeds.calls": "count", "seeds.us_per_call": "us", "seeds.self_s": "s",
    "dgps.calls": "count", "dgps.us_per_call": "us", "dgps.self_s": "s",
    "objectives.builds": "count", "objectives.subgradient_calls": "count",
    "objectives.value_calls": "count", "objectives.self_s": "s",
    "solver.solves": "count", "solver.probes_per_solve": "count",
    "solver.us_per_solve": "us", "solver.self_s": "s",
    "kinds.estimates": "count", "kinds.closed_form_frac": "frac",
    "kinds.chunk_self_s": "s", "kinds.summarize_s": "s",
    "core.self_s": "s", "bounds.self_s": "s",
    "partialling.fwl_calls": "count", "partialling.fwl_us_per_call": "us",
    "partialling.decompose_us_per_call": "us", "partialling.self_s": "s",
    "plm.simulate_us_per_call": "us", "plm.split_fit_us_per_call": "us",
    "plm.cond_bias_us_per_call": "us", "plm.self_s": "s",
    "hulc.calls": "count", "hulc.us_per_call": "us",
    "engine.grid_points": "count", "engine.chunks": "count",
    "engine.pool_starts": "count", "engine.self_s": "s",
    "engine.point_wall_s_p50": "s",
    "engine.pool_starts_w2": "count", "engine.point_wall_s_p50_w2": "s",
    "reports.csv_ms": "ms", "reports.json_ms": "ms", "reports.bytes": "bytes",
    "config.validate_ms": "ms",
    "trace.overhead_frac": "frac",
}

#: Per-layer counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("seeds.calls", "solver.solves", "partialling.fwl_calls", "engine.chunks",
                "engine.grid_points", "objectives.subgradient_calls", "kinds.estimates")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, unknown workload)."""


@dataclass(frozen=True)
class Item:
    """One config of a workload, with ``master_seed`` set from ``--seed``."""

    experiment: str
    rows: int
    raw: dict
    cli_path: str | None = None


def load_spec() -> dict:
    with open(WORKLOADS, encoding="utf-8") as fh:
        return json.load(fh)


def workload_items(spec: dict, name: str, seed: int) -> list:
    """The workload's configs; ``seed`` replaces each ``master_seed`` and nothing else."""
    try:
        entries = spec["workloads"][name]["configs"]
    except KeyError:
        raise BenchError(f"unknown workload {name!r}; known: {sorted(spec['workloads'])}") \
            from None
    items = []
    for entry in entries:
        if "cli" in entry:
            path = ROOT / entry["cli"]
            if not path.is_file():
                raise BenchError(f"config file not found: {entry['cli']}")
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            cli_path = entry["cli"]
        else:
            raw, cli_path = entry["config"], None
        raw = {**raw, "master_seed": seed}
        items.append(Item(raw["experiment"], entry["rows"], raw, cli_path))
    return items


def _cpu_s() -> float:
    """CPU seconds of this process (exact) and of its reaped children, such as pool workers."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _outputs(outdir: Path, item: Item) -> tuple:
    return outdir / f"{item.experiment}.csv", outdir / f"{item.experiment}.json"


def calibrate() -> tuple:
    """Wall and CPU seconds a fixed mix of interpreter, small-array and BLAS work takes now.

    The kernel is the benchmark's own code, so no change to ``medbias`` moves
    it; only the speed the host gives this process does.  Each figure is the
    median of five short runs, times five, so that one interrupt does not count.
    """
    import numpy as np

    def once() -> tuple:
        t0, c0 = time.perf_counter(), time.process_time()
        rng = np.random.default_rng(20240817)
        design = rng.standard_normal((200, 12))
        acc = 0.0
        for i in range(800):
            x = rng.standard_normal(24)
            acc += float(np.sum(np.abs(x - 0.25) ** 1.5)) + float(np.sort(x)[12])
            for j in range(24):
                acc += (i * j) % 7
        acc += float(np.linalg.lstsq(design, design[:, 0] + acc, rcond=None)[0][0])
        return time.perf_counter() - t0, time.process_time() - c0

    walls, cpus = zip(*(once() for _ in range(5)))
    return 5.0 * statistics.median(walls), 5.0 * statistics.median(cpus)


def normalized(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal host speed, from the kernel times around it."""
    return seconds * CALIBRATION_NOMINAL_S / (0.5 * (before + after))


def run_pass(items, configs, workers: int, outdir: Path) -> dict:
    """Run every config once and write its reports.

    Each config is timed on its own, between two calibration runs, so that
    its time can be scaled to the nominal host speed.
    """
    from medbias import simlab
    from medbias.simlab import cli

    for item in items:
        for path in _outputs(outdir, item):
            path.unlink(missing_ok=True)
    errors = {}
    sink = io.StringIO()
    walls, cpus, raw_wall, raw_cpu = [], [], 0.0, 0.0
    kernel = [calibrate()]
    before = kernel[0]
    for item, config in zip(items, configs):
        stem = str(outdir / item.experiment)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            if item.cli_path:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(["run", str(ROOT / item.cli_path), "-o", stem,
                                     "--master-seed", str(item.raw["master_seed"]),
                                     "--workers", str(workers)])
                if code != 0:
                    raise RuntimeError(f"medbias run exited with {code}")
            else:
                result = simlab.run_experiment(config, workers=workers)
                simlab.write_csv(stem + ".csv", result.rows)
                simlab.write_json(stem + ".json", result)
        except Exception as exc:  # noqa: BLE001 - a failing config is counted, not fatal
            errors[item.experiment] = f"{type(exc).__name__}: {exc}"
        config_wall = time.perf_counter() - t0
        config_cpu = _cpu_s() - cpu0
        after = calibrate()
        kernel.append(after)
        raw_wall += config_wall
        raw_cpu += config_cpu
        walls.append(normalized(config_wall, before[0], after[0]))
        cpus.append(normalized(config_cpu, before[1], after[1]))
        before = after
    digests, report_bytes = {}, 0
    for item in items:
        if item.experiment in errors:
            continue
        csv_path, json_path = _outputs(outdir, item)
        try:
            data = csv_path.read_bytes()
            report_bytes += len(data) + json_path.stat().st_size
        except OSError as exc:
            errors[item.experiment] = f"report missing: {exc}"
            continue
        digests[item.experiment] = hashlib.sha256(data).hexdigest()
    return {"wall_s": sum(walls), "cpu_s": sum(cpus), "config_wall_s": walls,
            "config_cpu_s": cpus, "raw_wall_s": raw_wall, "raw_cpu_s": raw_cpu,
            "calibration_s": kernel,
            "errors": errors, "digests": digests, "bytes": report_bytes}


# ---------------------------------------------------------------------------
# Output checks.


def check_csv(text: str, item: Item) -> list:
    """Problems found in one report: schema, row count, invariants, bound checks."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_COLUMNS:
        return [f"header {header!r} differs from the documented column order"]
    rows = [dict(zip(CSV_COLUMNS, values)) for values in reader]
    problems = []
    if len(rows) != item.rows:
        problems.append(f"{len(rows)} rows, expected {item.rows}")
    for k, row in enumerate(rows):
        try:
            problems.extend(f"row {k}: {p}" for p in _row_problems(row, item.raw))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"row {k}: unreadable ({type(exc).__name__}: {exc})")
    return problems


def _row_problems(row: dict, raw: dict):
    if row["experiment"] != raw["experiment"] or row["kind"] != raw["kind"]:
        yield f"experiment/kind {row['experiment']}/{row['kind']} not from the config"
    if row["master_seed"] != str(raw["master_seed"]) or row["reps"] != str(raw["reps"]):
        yield f"master_seed/reps {row['master_seed']}/{row['reps']} not from the config"
    num = {key: float(row[key]) for key in
           ("p_le", "p_ge", "lhs_point", "lhs_std_err", "rhs", "rhs_std_err") if row[key]}
    if not all(math.isfinite(v) for v in num.values()):
        yield f"non-finite value in {num}"
        return
    detail = json.loads(row["detail"]) if row["detail"] else {}
    if "p_le" in num:
        p_le, p_ge = num["p_le"], num["p_ge"]
        # every draw is <= or >= the target, so the two frequencies cover 1
        if not (0.0 <= p_le <= 1.0 and 0.0 <= p_ge <= 1.0 and p_le + p_ge >= 1.0 - 1e-12):
            yield f"p_le={p_le}, p_ge={p_ge} are not two covering frequencies"
        if abs(num["lhs_point"] - max(0.0, 0.5 - min(p_le, p_ge))) > 1e-12:
            yield f"lhs_point={num['lhs_point']} is not the median bias of p_le/p_ge"
    rhs_kind = row["rhs_kind"]
    if rhs_kind in DOMINANCE_KINDS or rhs_kind == "z_exact":
        lhs, rhs = num["lhs_point"], num["rhs"]
        slack = MC_SIGMAS * math.hypot(num["lhs_std_err"], num["rhs_std_err"])
        gap = abs(lhs - rhs) if rhs_kind == "z_exact" else lhs - rhs
        if gap > slack:
            yield f"{rhs_kind}: measured {lhs} vs bound {rhs} beyond {MC_SIGMAS} s.e."
    if rhs_kind == "mle_llr":
        for side in ("plus", "minus"):
            lower, direct = detail[f"lower_{side}"], detail[f"direct_{side}"]
            slack = MC_SIGMAS * math.hypot(detail[f"lower_{side}_std_err"],
                                           detail[f"direct_{side}_std_err"])
            if lower > direct + slack:
                yield f"mle_llr {side}: lower bound {lower} above direct {direct}"
    if row["kind"] == "hulc_coverage":
        floor = 1.0 - detail["miss_target"] - MC_SIGMAS * detail["coverage_std_err"]
        if detail["coverage"] < floor:
            yield f"hulc coverage {detail['coverage']} below {floor}"
    if row["kind"] == "plm_rate_dichotomy" and detail.get("cs_violations") != 0:
        yield f"conditional-bias inequality violated {detail.get('cs_violations')} times"


class Tally:
    """Checked items and the failures among them, with their messages."""

    def __init__(self):
        self.attempted = 0
        self.messages = []

    @property
    def failed(self) -> int:
        return len(self.messages)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.messages.append(message)

    def check_pass(self, label: str, items, outcome: dict, reference: dict) -> None:
        """One check per config: ran, and wrote the reference CSV bytes."""
        for item in items:
            name = item.experiment
            if name in outcome["errors"]:
                self.check(False, f"{label} {name}: {outcome['errors'][name]}")
            else:
                self.check(outcome["digests"][name] == reference.get(name),
                           f"{label} {name}: CSV digest {outcome['digests'][name][:12]} "
                           f"differs from the reference {str(reference.get(name))[:12]}")


def check_reference(tally: Tally, items, outcome: dict, outdir: Path, pinned) -> None:
    """The workers=1 reference pass: run, row checks, and pinned digests if any."""
    for item in items:
        name = item.experiment
        if name in outcome["errors"]:
            tally.check(False, f"reference {name}: {outcome['errors'][name]}")
            continue
        problems = check_csv(_outputs(outdir, item)[0].read_text(encoding="utf-8"), item)
        if pinned is not None and outcome["digests"][name] != pinned.get(name):
            problems.append(f"CSV digest {outcome['digests'][name][:12]} differs from the "
                            f"pinned {str(pinned.get(name))[:12]}")
        tally.check(not problems, f"reference {name}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# Set-up time: a fresh interpreter imports medbias and validates the configs.

# The child ends by timing the calibration kernel on its own core, so that its
# set-up time is scaled by the speed of the core it ran on; the kernel's own
# elapsed time is taken off the child's total.
_SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import medbias
from medbias.simlab import ExperimentConfig
for raw in json.loads(sys.argv[3]):
    ExperimentConfig.from_dict(raw)
for path in sys.argv[4:]:
    ExperimentConfig.from_json(path)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from run import calibrate
kernel = calibrate()[0]
print(json.dumps({"kernel_s": kernel, "kernel_wall_s": time.perf_counter() - t0}))
"""


def measure_setup(items, repeats: int, tally: Tally) -> tuple:
    """Normalized and raw set-up times of ``repeats`` fresh interpreters."""
    args = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE),
            json.dumps([item.raw for item in items])]
    args += [str(ROOT / item.cli_path) for item in items if item.cli_path]
    times, raw = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=120)
        total = time.perf_counter() - t0
        ok = done.returncode == 0
        tally.check(ok, f"set-up exited {done.returncode}: {done.stderr.strip()[-300:]}")
        if ok:
            kernel = json.loads(done.stdout.strip().splitlines()[-1])
            raw.append(total - kernel["kernel_wall_s"])
            times.append(raw[-1] * CALIBRATION_NOMINAL_S / kernel["kernel_s"])
    if not times:
        raise BenchError("no set-up run succeeded")
    return times, raw


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass.


def layer_metrics(frame, counters: dict, report_bytes: int) -> dict:
    import numpy as np

    f = frame
    solver = f.mask("solver.minimize_convex", "solver.minimize_scan")
    solves = int(solver.sum())
    estimates = f.mask("kinds.estimate_location")
    n_est = int(estimates.sum())
    solver_parents = f.parent[solver & (f.parent >= 0)]
    solved = np.unique(solver_parents[estimates[solver_parents]]).size
    probes = int(f.children_of(solver, "objectives.subgradient").sum())
    samples = ("dgps.sample", "dgps.sample_design")
    chunk = f.mask("kinds.chunk")
    return {
        "seeds.calls": f.calls("seeds.replication_rng"),
        "seeds.us_per_call": f.us_per_call("seeds.replication_rng"),
        "seeds.self_s": f.layer_self("seeds"),
        "dgps.calls": f.calls(*samples),
        "dgps.us_per_call": f.us_per_call(*samples),
        "dgps.self_s": f.layer_self("dgps"),
        "objectives.builds": f.calls("objectives.make_objective"),
        "objectives.subgradient_calls": f.calls("objectives.subgradient"),
        "objectives.value_calls": f.calls("objectives.value"),
        "objectives.self_s": f.layer_self("objectives"),
        "solver.solves": solves,
        "solver.probes_per_solve": probes / solves if solves else 0.0,
        "solver.us_per_solve": f.us_per_call("solver.minimize_convex",
                                             "solver.minimize_scan"),
        "solver.self_s": f.layer_self("solver"),
        "kinds.estimates": n_est,
        "kinds.closed_form_frac": (n_est - solved) / n_est if n_est else 0.0,
        "kinds.chunk_self_s": float(f.self_time[chunk].sum()),
        "kinds.summarize_s": f.total("kinds.summarize"),
        "core.self_s": f.layer_self("core"),
        "bounds.self_s": f.layer_self("bounds"),
        "partialling.fwl_calls": f.calls("partialling.fwl_estimate"),
        "partialling.fwl_us_per_call": f.us_per_call("partialling.fwl_estimate"),
        "partialling.decompose_us_per_call": f.us_per_call("partialling.score_decompose"),
        "partialling.self_s": f.layer_self("partialling"),
        "plm.simulate_us_per_call": f.us_per_call("plm.simulate_plm"),
        "plm.split_fit_us_per_call": f.us_per_call("plm.plm_split_fit"),
        "plm.cond_bias_us_per_call": f.us_per_call("plm.plm_conditional_bias"),
        "plm.self_s": f.layer_self("plm"),
        "hulc.calls": f.calls("hulc.hulc_interval"),
        "hulc.us_per_call": f.us_per_call("hulc.hulc_interval"),
        "engine.grid_points": counters.get("engine.grid_points", 0),
        "engine.chunks": int(chunk.sum()),
        "engine.pool_starts": counters.get("engine.pool_starts", 0),
        "engine.self_s": f.layer_self("engine"),
        "engine.point_wall_s_p50": point_wall_p50(f),
        "reports.csv_ms": f.total("reports.write_csv") * 1e3,
        "reports.json_ms": f.total("reports.write_json") * 1e3,
        "reports.bytes": report_bytes,
        "config.validate_ms": f.layer_inclusive("config") * 1e3,
    }


def point_wall_p50(frame) -> float:
    """Median grid-point wall time: a run's start, then the end of each summary."""
    import numpy as np

    summaries = frame.mask("kinds.summarize")
    walls = []
    for run in np.flatnonzero(frame.mask("engine.run_experiment")):
        ends = frame.end[summaries & (frame.parent == run)]
        walls.extend(np.diff(np.concatenate(([frame.start[run]], ends))))
    return float(statistics.median(walls)) if walls else 0.0


def traced_pass(items, configs, workers: int, outdir: Path, full: bool):
    import spans

    tracer = spans.Tracer()
    with spans.Patches() as patches:
        spans.install(tracer, patches, full=full)
        outcome = run_pass(items, configs, workers, outdir)
    return outcome, tracer, patches.missing


# ---------------------------------------------------------------------------
# The run.


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy
    from medbias import simlab
    from medbias.simlab import ExperimentConfig

    spec = load_spec()
    items = workload_items(spec, name, seed)
    workers = spec["workloads"][name]["workers"]
    outdir = OUT / name
    outdir.mkdir(parents=True, exist_ok=True)
    pinned = None
    if seed == spec["default_seed"]:
        with open(DIGESTS, encoding="utf-8") as fh:
            pinned = json.load(fh)["csv_sha256"].get(name, {})

    tally = Tally()
    configs = [ExperimentConfig.from_dict(item.raw) for item in items]
    setup, raw_setup = ([], []) if trace else measure_setup(items, spec["setup_repeats"], tally)

    reference = run_pass(items, configs, 1, outdir)
    check_reference(tally, items, reference, outdir, pinned)
    ref_digests = reference["digests"]

    manifest = {
        "workload": name, "seed": seed, "workers": workers, "trace": int(trace),
        "blas_env": {key: os.environ.get(key) for key in BLAS_THREADS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "chunk_size": simlab.CHUNK_SIZE, "csv_sha256": ref_digests,
        "pinned_seed": spec["default_seed"],
        "pinned_match": None if pinned is None else ref_digests == pinned,
    }

    deadline = time.perf_counter() + seconds
    if not trace:
        passes = []
        while len(passes) < spec["min_passes"] or time.perf_counter() < deadline:
            outcome = run_pass(items, configs, workers, outdir)
            tally.check_pass(f"pass {len(passes)}", items, outcome, ref_digests)
            passes.append(outcome)
        walls = [p["wall_s"] for p in passes]
        rss_kib = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        # a pass's time is estimated config by config: the sum of each config's median
        values = {
            "wall_s": sum(map(statistics.median, zip(*(p["config_wall_s"] for p in passes)))),
            "cpu_s": sum(map(statistics.median, zip(*(p["config_cpu_s"] for p in passes)))),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": rss_kib / 1024.0,
        }
        manifest.update(pass_wall_s=walls, setup_s=setup,
                        pass_config_wall_s=[p["config_wall_s"] for p in passes],
                        pass_calibration_s=[p["calibration_s"] for p in passes],
                        raw_pass_wall_s=[p["raw_wall_s"] for p in passes],
                        raw_pass_cpu_s=[p["raw_cpu_s"] for p in passes],
                        raw_setup_s=raw_setup)
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in END_TO_END_UNITS.items()}
    else:
        metrics, missing = measure_layers(items, configs, workers, outdir, deadline,
                                          ref_digests, tally, spec, name, seed)
        manifest["unwrapped_names"] = missing
    manifest["failures"] = tally.messages
    with open(outdir / f"manifest-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _summary(name, seed, metrics, tally, manifest)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def measure_layers(items, configs, workers, outdir, deadline, ref_digests, tally,
                   spec, name, seed):
    untraced, traced, per_pass = [], [], []
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain = run_pass(items, configs, 1, outdir)
        tally.check_pass(f"untraced pass {len(untraced)}", items, plain, ref_digests)
        untraced.append(plain["wall_s"])
        outcome, tracer, missing = traced_pass(items, configs, 1, outdir, full=True)
        tally.check_pass(f"traced pass {len(traced)}", items, outcome, ref_digests)
        traced.append(outcome["wall_s"])
        frame = tracer.frame()
        per_pass.append(layer_metrics(frame, tracer.counters, outcome["bytes"]))
    frame.save(outdir / f"spans-seed{seed}.npz")

    # times are medians over the traced passes; counts are those of the last pass
    values = {key: value if isinstance(value, int) else statistics.median(p[key] for p in per_pass)
              for key, value in per_pass[-1].items()}
    for key in EXACT_COUNTS:
        counts = {p[key] for p in per_pass}
        tally.check(len(counts) == 1, f"{key} differs between traced passes: {counts}")
    values["engine.pool_starts_w2"] = 0
    values["engine.point_wall_s_p50_w2"] = 0.0
    if workers > 1:
        outcome, tracer, _ = traced_pass(items, configs, workers, outdir, full=False)
        tally.check_pass(f"traced workers={workers} pass", items, outcome, ref_digests)
        values["engine.pool_starts_w2"] = tracer.counters.get("engine.pool_starts", 0)
        values["engine.point_wall_s_p50_w2"] = point_wall_p50(tracer.frame())
    base = statistics.median(untraced)
    values["trace.overhead_frac"] = (statistics.median(traced) - base) / base

    for prediction in spec["predictions"]:
        if name in prediction["workloads"]:
            metric, expected = prediction["metric"], prediction["equals"]
            tally.check(values[metric] == expected,
                        f"prediction {metric} == {expected} fails on {name}: "
                        f"{values[metric]}")
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in PER_LAYER_UNITS.items()}
    return metrics, missing


def _summary(name, seed, metrics, tally, manifest) -> None:
    out = sys.stderr
    print(f"workload {name} seed {seed}: {tally.attempted} checks, {tally.failed} failed",
          file=out)
    print(f"  failed_frac = {tally.failed / max(tally.attempted, 1):.6g} frac", file=out)
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}", file=out)
    if "raw_pass_wall_s" in manifest:
        print(f"  unscaled pass wall time: median "
              f"{statistics.median(manifest['raw_pass_wall_s']):.6g} s", file=out)
    for experiment, digest in manifest["csv_sha256"].items():
        print(f"  sha256 {experiment} {digest}", file=out)
    for message in tally.messages:
        print(f"  FAILED {message}", file=out)


def pin_digests() -> None:
    """Rewrite digests.json from a workers=1 pass of every workload at the default seed."""
    from medbias.simlab import ExperimentConfig

    spec = load_spec()
    seed = spec["default_seed"]
    pinned = {}
    for name in spec["workloads"]:
        items = workload_items(spec, name, seed)
        configs = [ExperimentConfig.from_dict(item.raw) for item in items]
        outdir = OUT / name
        outdir.mkdir(parents=True, exist_ok=True)
        outcome = run_pass(items, configs, 1, outdir)
        tally = Tally()
        check_reference(tally, items, outcome, outdir, None)
        if tally.failed:
            raise BenchError(f"{name}: {tally.messages}")
        pinned[name] = outcome["digests"]
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "csv_sha256": pinned}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _import_medbias() -> None:
    if not (SRC / "medbias" / "__init__.py").is_file():
        raise BenchError(f"no medbias sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import medbias

    if Path(medbias.__file__).resolve().parent != (SRC / "medbias").resolve():
        raise BenchError(f"imported medbias from {medbias.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        _import_medbias()
        if args.pin_digests:
            pin_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        seed = load_spec()["default_seed"] if args.seed is None else args.seed
        result = measure(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
