"""Command line interface: ``claw run``, ``claw selftest``, ``claw version``.

Exit codes: 0 success, 1 config error, 2 invariant violation in selftest.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import ConfigError, parse_config
from .experiments import emit_csv, run_experiment
from .selftest import run_selftest


def _parse_set(pairs):
    out = []
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = item.split("=", 1)
        out.append((key.strip(), value.strip()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="claw",
        description="transport-collapse experiments for scalar conservation laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument(
        "--set",
        dest="overrides",
        metavar="key=value",
        action="append",
        default=[],
        help="override a config key (section keys as section.key)",
    )

    sub.add_parser("selftest", help="run the built-in invariant suites")
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0

    if args.command == "selftest":
        failures = run_selftest(sys.stdout)
        if failures:
            print(f"{failures} invariant check(s) failed", file=sys.stderr)
            return 2
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, overrides=_parse_set(args.overrides))
        table = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if cfg.output:
            with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
                emit_csv(table, fh)
        else:
            emit_csv(table, sys.stdout)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
