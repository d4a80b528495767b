"""Command-line front end: run configs, list families, drive the oracles.

Like ``experiment``, it imports only the standard library at load time,
so ``summa family`` and ``summa oracle`` never load numpy."""

from __future__ import annotations

import argparse
import sys

from .experiment import (ConfigError, ExperimentConfig, family_catalog_lines,
                         load_config, run)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as ``ConfigError``."""

    def error(self, message):
        raise ConfigError(self.prog, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="summa",
        description="Finite-scale checks for absolute Cesaro summability "
                    "factor theorems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--out", metavar="DIR",
                       help="output directory (overrides the config's own)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the stdout summary")

    p_family = sub.add_parser("family", help="inspect the builtin bundles")
    p_family.add_argument("--list", action="store_true", dest="list_families",
                          help="print one line per builtin family")

    p_oracle = sub.add_parser("oracle",
                              help="run the exact rational check suites")
    p_oracle.add_argument("--seed", type=int, required=True,
                          help="suite seed (unsigned 64-bit)")
    p_oracle.add_argument("--trials", type=int,
                          help="override every suite's trial count")
    p_oracle.add_argument("--out", metavar="DIR",
                          help="directory for report.json (default: cwd)")
    p_oracle.add_argument("--quiet", action="store_true",
                          help="suppress the stdout summary")

    return parser


def _cmd_run(args) -> int:
    report = run(load_config(args.config), out_dir=args.out, quiet=args.quiet)
    return report.exit_status


def _cmd_family(args) -> int:
    if not args.list_families:
        raise ConfigError("family", "nothing to do; pass --list")
    for line in family_catalog_lines():
        print(line)
    return 0


def _cmd_oracle(args) -> int:
    obj = {"mode": "oracle", "seed": args.seed}
    if args.trials is not None:
        obj["trials"] = args.trials
    config = ExperimentConfig.from_json(obj)
    report = run(config, out_dir=args.out, quiet=args.quiet)
    return report.exit_status


def main(argv=None) -> int:
    handlers = {"run": _cmd_run, "family": _cmd_family, "oracle": _cmd_oracle}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
