"""Command-line experiment runner.

Subcommands: ``run <config>`` executes a config file, ``validate <config>``
reports every invariant violation without executing, and ``preset <name>``
runs one of the built-in fig1..fig8 sweeps. Exit codes: 0 success, 2 config
error, 3 runtime/infeasibility error; any other exception is a bug and raises.
"""

import argparse
import sys
from dataclasses import fields, replace

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
    """Config overrides, each stored under the ExperimentConfig field it replaces."""
    parser.add_argument("--seed", type=int, help="Monte Carlo master seed")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per sweep point")
    parser.add_argument("--engines", type=normalize_engines,
                        help="comma list from analytic,bound,monte_carlo")
    parser.add_argument("--out", dest="output_path", help="CSV output path")
    parser.add_argument("--json", dest="json_path", help="JSON mirror output path")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the Monte Carlo chunks of all "
                             "sweep points (>= 1; output does not depend on it)")


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {field.name: getattr(args, field.name) for field in fields(config)
               if getattr(args, field.name, None) is not None}
    return replace(config, **updates)


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
    except (RuntimeError, ValueError, ArithmeticError, OSError) as exc:  # a failure, not a bug
        print(f"cogsep: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"wrote {len(rows)} rows to {config.output_path}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
