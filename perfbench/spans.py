"""In-memory span tracing for the benchmark's traced run.

Spans are recorded by wrappers that the benchmark installs around the public
functions of each ``medbias`` module; nothing inside the package is changed.
A span is (name, start, end, parent); self time is a span's duration minus
the time covered by its child spans.  All spans of a process run on one
thread, so the children of a span never overlap and the time they cover is
the sum of their durations.
"""

import dataclasses
import functools
import time
from array import array

import numpy as np


class Tracer:
    """Collects spans in compact arrays and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.counters = {}
        self._stack = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records one span called ``name``."""
        name_id = self._intern(name)
        clock, stack = self.clock, self._stack
        start, end, parent, names = self.start, self.end, self.parent, self.name

        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def frame(self) -> "SpanFrame":
        """The recorded spans as numpy arrays."""
        return SpanFrame(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int64).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


@dataclasses.dataclass
class SpanFrame:
    names: list
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray

    def __post_init__(self):
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)
        self.layer_of_name = [n.split(".", 1)[0] for n in self.names]

    def mask(self, *span_names) -> np.ndarray:
        ids = [self.names.index(n) for n in span_names if n in self.names]
        return np.isin(self.name, ids)

    def calls(self, *span_names) -> int:
        return int(np.count_nonzero(self.mask(*span_names)))

    def total(self, *span_names) -> float:
        return float(self.duration[self.mask(*span_names)].sum())

    def us_per_call(self, *span_names) -> float:
        calls = self.calls(*span_names)
        return self.total(*span_names) / calls * 1e6 if calls else 0.0

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, lay in enumerate(self.layer_of_name) if lay == layer]
        return np.isin(self.name, ids)

    def layer_self(self, layer: str) -> float:
        return float(self.self_time[self.layer_mask(layer)].sum())

    def layer_inclusive(self, layer: str) -> float:
        """Summed duration of the layer's spans not nested in another of its spans."""
        in_layer = self.layer_mask(layer)
        parent_in_layer = np.zeros_like(in_layer)
        has_parent = self.parent >= 0
        parent_in_layer[has_parent] = in_layer[self.parent[has_parent]]
        return float(self.duration[in_layer & ~parent_in_layer].sum())

    def children_of(self, parent_mask: np.ndarray, *span_names) -> np.ndarray:
        """Mask of spans called ``span_names`` whose direct parent is in ``parent_mask``."""
        has_parent = self.parent >= 0
        under = np.zeros(self.name.size, dtype=bool)
        under[has_parent] = parent_mask[self.parent[has_parent]]
        return under & self.mask(*span_names)

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            start=self.start, end=self.end, parent=self.parent)


class Patches:
    """Attribute and mapping-entry replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()

    def set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def wrap(self, tracer: Tracer, owner, attr: str, span: str) -> None:
        """Wrap ``owner.attr`` if it exists; a missing name is recorded, not fatal."""
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        elif isinstance(original, classmethod):
            self.set(owner, attr, classmethod(tracer.wrap(span, original.__func__)))
        else:
            self.set(owner, attr, tracer.wrap(span, original))


# Names as ``medbias.simlab.kinds`` binds them (it imports them by name, so
# wrapping them in their home module would not be seen), with their layer.
KINDS_BOUND = {
    "replication_rng": "seeds",
    "make_dgp": "dgps",
    "make_plm_dgp": "dgps",
    "target_for": "dgps",
    "sample_design": "dgps",
    "make_objective": "objectives",
    "make_family": "objectives",
    "biweight_rho": "objectives",
    "biweight_drho": "objectives",
    "biweight_ddrho": "objectives",
    "minimize_convex": "solver",
    "minimize_scan": "solver",
    "estimate_location": "kinds",
    "score_at": "kinds",
    "mc_med_bias": "core",
    "sign_probabilities": "core",
    "freq_std_err": "core",
    "convex_bound": "bounds",
    "z_exact_medbias": "bounds",
    "nondiff_profile": "bounds",
    "nonconvex_profile": "bounds",
    "centered_llr_sums": "bounds",
    "fwl_estimate": "partialling",
    "score_decompose": "partialling",
    "default_eta_grid": "partialling",
    "proposition_profile": "partialling",
    "simulate_plm": "plm",
    "plm_split_fit": "plm",
    "plm_conditional_bias": "plm",
    "plm_medbias_bound": "plm",
    "hulc_interval": "hulc",
    "batch_count": "hulc",
}


def install(tracer: Tracer, patches: Patches, full: bool = True) -> None:
    """Wrap the public functions of every layer.

    With ``full=False`` only the parent-side engine boundaries are wrapped
    (run entry points, summaries, pool construction), for a traced run whose
    chunks execute in worker processes.
    """
    import medbias.objectives as objectives
    import medbias.simlab as simlab
    import medbias.simlab.cli as cli
    import medbias.simlab.config as config
    import medbias.simlab.dgps as dgps
    import medbias.simlab.engine as engine
    import medbias.simlab.kinds as kinds

    for owner in (simlab, cli):
        patches.wrap(tracer, owner, "run_experiment", "engine.run_experiment")
        patches.wrap(tracer, owner, "write_csv", "reports.write_csv")
        patches.wrap(tracer, owner, "write_json", "reports.write_json")
    patches.wrap(tracer, cli, "main", "cli.main")

    pool_class = getattr(engine, "ProcessPoolExecutor", None)
    if pool_class is None:
        patches.missing.append("engine.ProcessPoolExecutor")
    else:
        def counted_pool(*args, **kwargs):
            tracer.count("engine.pool_starts")
            return pool_class(*args, **kwargs)
        patches.set(engine, "ProcessPoolExecutor", counted_pool)

    for name, impl in list(kinds.KINDS.items()):
        changes = {"summarize": tracer.wrap("kinds.summarize", impl.summarize)}
        if full:
            changes["run_chunk"] = tracer.wrap("kinds.chunk", impl.run_chunk)
            changes["grid_points"] = _counted_points(tracer, impl.grid_points)
        patches.set_item(kinds.KINDS, name, dataclasses.replace(impl, **changes))
    if not full:
        return

    for attr, layer in KINDS_BOUND.items():
        patches.wrap(tracer, kinds, attr, f"{layer}.{attr}")
    patches.wrap(tracer, engine, "validate_config", "config.validate_config")
    patches.wrap(tracer, config, "validate_config", "config.validate_config")
    patches.wrap(tracer, config.ExperimentConfig, "from_dict", "config.from_dict")
    patches.wrap(tracer, config.ExperimentConfig, "from_json", "config.from_json")
    patches.wrap(tracer, dgps.UnivariateDgp, "sample", "dgps.sample")

    for cls in vars(objectives).values():
        if isinstance(cls, type) and issubclass(cls, objectives.LocationObjective):
            for attr in ("value", "subgradient"):
                if attr in cls.__dict__:
                    patches.wrap(tracer, cls, attr, f"objectives.{attr}")
    for cls in (objectives.NormalLocation, objectives.LogisticLocation):
        for attr in ("log_density", "score", "sample"):
            patches.wrap(tracer, cls, attr, f"objectives.family_{attr}")


def _counted_points(tracer: Tracer, grid_points):
    def counted(config):
        points = grid_points(config)
        tracer.count("engine.grid_points", len(points))
        return points
    return functools.update_wrapper(counted, grid_points)
