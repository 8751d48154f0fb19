"""Start-up cost: ``import medbias`` loads numpy, not scipy.

scipy is loaded by the two computations that use it, on first use: the
logistic family's expected log-likelihood ratio loads the compiled QUADPACK
extension ``scipy.integrate._quadpack`` alone, not ``scipy.integrate``, and a
normal quantile other than the median loads ``scipy.special``.  Validating
the benchmark's workload configs loads neither ``scipy.integrate``,
``special``, ``stats`` nor ``optimize``, and reads no ziggurat table: the
one-pass draws probe numpy on their first chunk, not before.  Each check
runs in a fresh interpreter, since this test session has long since
imported scipy and drawn.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

from medbias.simlab import make_dgp

ROOT = Path(__file__).resolve().parent.parent

# Import the package and validate the configs given as JSON (a string entry
# is a config file); then _CHILD prints the scipy modules that are loaded, and
# _PROBE_CHILD how often the one-pass draws built their ziggurat tables and
# their jump constants.
_VALIDATE = """
import json, sys
import medbias
from medbias.simlab import ExperimentConfig
for item in json.loads(sys.argv[1]):
    if isinstance(item, str):
        ExperimentConfig.from_json(item)
    else:
        ExperimentConfig.from_dict(item)
"""
_CHILD = _VALIDATE + """
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
_PROBE_CHILD = _VALIDATE + """
from medbias.simlab import onepass
print(json.dumps([onepass._tables.cache_info().misses, onepass._jumps.cache_info().misses]))
"""


def _child_output(configs, child=_CHILD):
    done = subprocess.run([sys.executable, "-c", child, json.dumps(configs)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _scipy_after(configs) -> list:
    return _child_output(configs)


def _config(kind: str, dgp: dict, estimator: dict, grids: dict, **extra) -> dict:
    return {"experiment": f"startup-{kind}", "kind": kind, "dgp": dgp,
            "estimator": estimator, "grids": grids, "reps": 100, **extra}


# one config of each kind the solver, regression and parallel workloads run;
# none computes a logistic expected log-likelihood ratio
_NO_SCIPY = [
    _config("convex_dominance", {"name": "logistic"},
            {"kind": "neg_loglik", "params": {"family_name": "logistic_location",
                                              "family_params": {"scale": 1.0}}},
            {"n": [15]}),
    _config("convex_dominance", {"name": "standard_normal"},
            {"kind": "lp", "params": {"p": 1.5}}, {"n": [20]}),
    _config("partialled_dominance", {"name": "leverage_mix"}, {}, {"n": [200], "d": [2, 20]},
            params={"theta0": 0.5}),
    _config("dimension_scaling", {"name": "leverage_mix"}, {},
            {"n": [100, 400], "d_schedules": ["half_sqrt"], "seed_labels": [0, 1]},
            params={"theta0": 0.5}),
    _config("plm_rate_dichotomy", {"name": "smooth_default", "params": {"d": 3}}, {},
            {"n": [250, 4000], "rate_schedules": ["vanishing"]}),
    _config("nonconvex_dominance", {"name": "standard_normal"},
            {"kind": "biweight", "params": {"c": 2.0}}, {"n": [50], "delta": [0.25, 1.0]},
            params={"scan_lo": -3.0, "scan_hi": 3.0, "scan_points": 1201}),
]


def test_import_and_validation_load_no_scipy():
    shipped = sorted(str(path) for path in (ROOT / "configs").glob("*.json"))
    assert len(shipped) == 2
    assert _scipy_after(shipped + _NO_SCIPY) == []


# the scipy modules that cost start-up time: each imports several others
_HEAVY = {"scipy.integrate", "scipy.special", "scipy.stats", "scipy.optimize"}


def _workload_configs() -> list:
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    return [str(ROOT / entry["cli"]) if "cli" in entry else entry["config"]
            for workload in workloads.values() for entry in workload["configs"]]


def test_workload_validation_loads_no_heavy_scipy():
    configs = _workload_configs()
    assert any(isinstance(c, dict) and c["kind"] == "mle_llr_consistency" for c in configs)
    assert _HEAVY.isdisjoint(_scipy_after(configs))


def test_import_and_workload_validation_probe_no_ziggurat_table():
    assert _child_output(_workload_configs(), _PROBE_CHILD) == [0, 0]


def test_scipy_loads_where_it_computes():
    llr = _config("mle_llr_consistency", {},
                  {"kind": "neg_loglik", "params": {"family_name": "logistic_location"}},
                  {"n": [50], "eps": [0.2]})
    loaded = _scipy_after([llr])
    assert "scipy.integrate._quadpack" in loaded and _HEAVY.isdisjoint(loaded)
    quantile = _config("convex_dominance", {"name": "standard_normal"},
                       {"kind": "quantile", "params": {"tau": 0.25}}, {"n": [15]})
    loaded = _scipy_after([quantile])
    assert "scipy.special" in loaded and "scipy.stats" not in loaded


def test_normal_quantile_is_norm_ppf_bit_for_bit():
    tiny = np.finfo(float).tiny
    tails = [5e-324, tiny, 1e-300, 1e-100, 1e-20, 1e-10, 1e-5, 0.5 - 1e-16, 0.5 + 1e-16]
    tails += [1.0 - q for q in (1e-5, 1e-10, 2.0 ** -52)] + [np.nextafter(1.0, 0.0)]
    qs = np.concatenate([np.linspace(0.0, 1.0, 2001)[1:-1], tails])
    dgp = make_dgp("standard_normal")
    ours = np.array([dgp.quantile(float(q)) for q in qs])
    reference = np.array([float(stats.norm.ppf(q)) for q in qs])
    assert np.array_equal(ours.view(np.uint64), reference.view(np.uint64))
