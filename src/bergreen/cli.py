"""Command line front end: ``bergreen <experiment> --config cfg.json [...]``.

Writes ``report.json`` plus CSV data files into the output directory and
prints one line per pass/fail check.  Exit status is 0 when every check
passed, 1 when any failed, and 2 for configuration errors, a weight that is
not finite and positive where it is sampled among them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import BergreenError, ConfigError, WeightError
from .harness import EXPERIMENTS, ExperimentConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergreen",
        description="Weighted Bergman kernel / Green's function verification experiments.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, type=Path, help="JSON experiment config")
    parser.add_argument("--out", type=Path, default=Path("bergreen-out"), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--points", type=int, default=None, help="override the random point count")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the experiment's primary tolerance")
    return parser


def _load_config(args) -> ExperimentConfig:
    """The config file with the command-line overrides applied, validated."""
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("a config must be a JSON object")
    data["experiment"] = args.experiment
    if args.seed is not None:
        data["seed"] = args.seed
    if args.points is not None:
        data["count"] = args.points
    config = ExperimentConfig.from_dict(data)
    if args.tol is not None:
        config = dataclasses.replace(config, tolerances={
            **config.tolerances, config.primary_tolerance(): args.tol})
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(config, args.out)
    except (ConfigError, WeightError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BergreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for check in report.checks:
        print(check.line())
    for note in report.notes:
        print(f"[NOTE] {note}")
    print(f"report written to {args.out / 'report.json'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
