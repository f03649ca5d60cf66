"""Command-line experiment runner.

Subcommands: ``run <config>`` executes a config file, ``validate <config>``
reports every invariant violation without executing, and ``preset <name>``
runs one of the built-in fig1..fig8 sweeps. Exit codes: 0 success, 2 config
error, 3 runtime/infeasibility error.
"""

import argparse
import sys
from dataclasses import replace

from .experiment import (
    ConfigError,
    ExperimentConfig,
    normalize_engines,
    parse_config_file,
    run_experiment,
    validate,
)
from .presets import PRESET_NAMES, figure_preset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="Monte Carlo master seed")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per sweep point")
    parser.add_argument("--engines", help="comma list from analytic,bound,monte_carlo")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--json", dest="json_path", help="JSON mirror output path")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the Monte Carlo chunks of all "
                             "sweep points (>= 1; output does not depend on it)")


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.engines is not None:
        updates["engines"] = normalize_engines(args.engines)
    if args.out is not None:
        updates["output_path"] = args.out
    if args.json_path is not None:
        updates["json_path"] = args.json_path
    return replace(config, **updates) if updates else config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogsep",
        description="Symbol error probability sweeps for cognitive radio links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config file")
    run_p.add_argument("config", help="path to a key = value config file")
    _add_overrides(run_p)

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a key = value config file")

    pre_p = sub.add_parser("preset", help="run a built-in figure sweep")
    pre_p.add_argument("name", choices=PRESET_NAMES)
    _add_overrides(pre_p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        if args.command == "validate":
            config = parse_config_file(args.config)
            diags = validate(config)
            for diag in diags:
                print(f"error: {diag}")
            if diags:
                return EXIT_CONFIG
            print("ok")
            return EXIT_OK

        if args.command == "run":
            config = parse_config_file(args.config)
        else:
            config = figure_preset(args.name)
        config = _apply_overrides(config, args)
        if not config.output_path:
            raise ConfigError("no output path (set output.path or pass --out)")
        rows = run_experiment(config, workers=args.workers)
    except ConfigError as exc:
        print(f"cogsep: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # infeasibility / numeric failure
        print(f"cogsep: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"wrote {len(rows)} rows to {config.output_path}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
