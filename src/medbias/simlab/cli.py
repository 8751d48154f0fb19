"""Command-line interface for the experiment lab.

Subcommands: ``run`` (execute a config and write reports), ``validate``
(config check only), ``list-experiments``.  Failures print a machine-readable
JSON error record to stderr and exit nonzero.  The ``MEDBIAS_WORKERS``
environment variable overrides the default worker count; an explicit
``--workers`` flag beats both.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig
from .engine import list_experiment_kinds, run_experiment
from .reports import write_csv, write_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medbias",
        description="Monte-Carlo certification lab for median-bias bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config and write reports")
    run.add_argument("config", help="path to a JSON experiment config")
    run.add_argument("--output", "-o", default=None,
                     help="output stem; writes <stem>.csv and <stem>.json "
                          "(default: the experiment id in the working directory)")
    run.add_argument("--workers", type=int, default=None,
                     help="worker process count (default: MEDBIAS_WORKERS or 1)")
    run.add_argument("--master-seed", type=int, default=None,
                     help="override the config master seed")
    run.add_argument("--format", choices=("csv", "json", "both"), default="both",
                     help="report format (default: both)")

    val = sub.add_parser("validate", help="validate a config without running it")
    val.add_argument("config", help="path to a JSON experiment config")

    sub.add_parser("list-experiments", help="list the available experiment kinds")
    return parser


def _workers_from_env() -> int:
    raw = os.environ.get("MEDBIAS_WORKERS", "")
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"MEDBIAS_WORKERS={raw!r} is not an integer") from None
    if value < 1:
        raise ConfigError(f"MEDBIAS_WORKERS={value} must be >= 1")
    return value


def _error_record(exc: BaseException) -> str:
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
    )


def _load_config(path: str, master_seed: int | None) -> ExperimentConfig:
    raw_path = Path(path)
    if not raw_path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    config = ExperimentConfig.from_json(raw_path)
    if master_seed is not None:
        # the run validates the config again, seed included
        config = dataclasses.replace(config, master_seed=master_seed)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.master_seed)
    workers = args.workers if args.workers is not None else _workers_from_env()
    if workers < 1:
        raise ConfigError(f"workers={workers} must be >= 1")
    stem = args.output or config.experiment

    result = run_experiment(config, workers=workers)

    written = []
    if args.format in ("csv", "both"):
        csv_path = f"{stem}.csv"
        write_csv(csv_path, result.rows)
        written.append(csv_path)
    if args.format in ("json", "both"):
        json_path = f"{stem}.json"
        write_json(json_path, result)
        written.append(json_path)

    print(f"experiment {config.experiment}: {len(result.rows)} rows "
          f"in {result.wall_time_s:.2f}s -> {', '.join(written)}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args.config, None)
    print(f"ok: {config.experiment} ({config.kind})")
    return 0


def _cmd_list() -> int:
    for name, description in list_experiment_kinds():
        print(f"{name}: {description}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list()
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all failures
        print(_error_record(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
