"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

run._import_medbias()

from medbias.simlab import ExperimentConfig, validate_config  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = sorted(SPEC["workloads"])


def test_self_time_on_synthetic_nested_tree():
    # root(0..10) holds a(1..3), which holds c(1.5..2.5), then b(4..6)
    ticks = iter([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("inner.c", lambda: None)
    a = tracer.wrap("inner.a", lambda: leaf())
    b = tracer.wrap("outer.b", lambda: None)
    root = tracer.wrap("outer.root", lambda: (a(), b()))
    root()
    frame = tracer.frame()
    assert list(frame.parent) == [-1, 0, 1, 0]
    assert list(frame.self_time) == [6.0, 1.0, 1.0, 2.0]
    assert frame.layer_self("outer") == 8.0
    assert frame.layer_self("inner") == 2.0
    assert frame.layer_inclusive("inner") == 2.0
    assert frame.calls("inner.a", "inner.c") == 2
    assert list(spans.self_times([0.0, 1.0, 2.0], [5.0, 2.0, 4.0], [-1, 0, 0])) == [2.0, 1.0, 2.0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_config_validates(name):
    for item in run.workload_items(SPEC, name, SPEC["default_seed"]):
        validate_config(ExperimentConfig.from_dict(item.raw))
        if item.cli_path:
            ExperimentConfig.from_json(run.ROOT / item.cli_path)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_changes_only_master_seed(name):
    first = run.workload_items(SPEC, name, 0)
    second = run.workload_items(SPEC, name, 987_654)
    assert [i.raw["master_seed"] for i in first] == [0] * len(first)
    assert [i.raw["master_seed"] for i in second] == [987_654] * len(second)
    strip = [({**i.raw, "master_seed": None}, i.rows, i.cli_path) for i in first]
    assert strip == [({**i.raw, "master_seed": None}, i.rows, i.cli_path) for i in second]


def test_pinned_digests_cover_every_config():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert pinned["seed"] == SPEC["default_seed"]
    for name in WORKLOADS:
        items = run.workload_items(SPEC, name, SPEC["default_seed"])
        assert sorted(pinned["csv_sha256"][name]) == sorted(i.experiment for i in items)


def test_benchmark_json_matches_the_runner():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, spec["why"]) for name, spec in SPEC["workloads"].items()]


def _small(items):
    """The workload with every inline config cut to the minimum of 100 replications."""
    return [item if item.cli_path else replace(item, raw={**item.raw, "reps": 100})
            for item in items]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    items = _small(run.workload_items(SPEC, name, 5))
    configs = [ExperimentConfig.from_dict(item.raw) for item in items]
    counts = []
    for _ in range(2):
        outcome, tracer, _ = run.traced_pass(items, configs, 1, tmp_path, full=True)
        assert outcome["errors"] == {}
        metrics = run.layer_metrics(tracer.frame(), tracer.counters, outcome["bytes"])
        counts.append({key: metrics[key] for key in run.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["seeds.calls"] > 0 and counts[0]["engine.chunks"] > 0


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    import medbias.simlab.engine as engine
    import medbias.simlab.kinds as kinds

    before = (kinds.replication_rng, engine.ProcessPoolExecutor, dict(kinds.KINDS))
    items = _small(run.workload_items(SPEC, "convex_bisect", 1))[:1]
    configs = [ExperimentConfig.from_dict(item.raw) for item in items]
    _, _, missing = run.traced_pass(items, configs, 1, tmp_path, full=True)
    assert missing == []
    assert (kinds.replication_rng, engine.ProcessPoolExecutor, dict(kinds.KINDS)) == before


def test_output_check_flags_broken_reports(tmp_path):
    items = _small(run.workload_items(SPEC, "closed_form_small_n", 2))
    item = next(i for i in items if i.experiment == "bench-closed-quantile-n15")
    outcome = run.run_pass([item], [ExperimentConfig.from_dict(item.raw)], 1, tmp_path)
    text = (tmp_path / f"{item.experiment}.csv").read_text(encoding="utf-8")
    assert run.check_csv(text, item) == []

    header, row = text.splitlines()
    cells = row.split(",")
    rhs = run.CSV_COLUMNS.index("rhs")
    lhs = float(cells[run.CSV_COLUMNS.index("lhs_point")])
    cells[rhs] = repr(lhs - 1.0)  # a bound far below the measured median bias
    assert run.check_csv("\n".join([header, ",".join(cells)]) + "\n", item)
    assert run.check_csv(header + "\n", item)  # a missing row
    assert run.check_csv(text.replace("p_le", "p_lo", 1), item)  # a renamed column

    tally = run.Tally()
    run.check_reference(tally, [item], outcome, tmp_path, {item.experiment: "0" * 64})
    assert tally.failed == 1 and "pinned" in tally.messages[0]
