"""Command-line front end: ``python -m repro.lint`` and the
``repro-consistency lint`` subcommand.

Both entry points share :func:`add_lint_arguments` /
:func:`run_from_args`, so they behave identically whichever way the
linter is invoked.  There is one mode and nothing to configure: every
run is the whole battery under :class:`~repro.lint.config.LintConfig`'s
defaults.

Exit codes: ``0`` clean (possibly with waived findings), ``1`` at least
one unwaived finding, ``2`` usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.lint.engine import lint_paths
from repro.lint.reporting import render_human, render_rule_list
from repro.lint.rules import all_rules

__all__ = ["main", "build_parser", "add_lint_arguments", "run_from_args"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint arguments on ``parser`` (shared with repro.cli)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="describe every registered rule and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & trace-safety linter for the "
            "consistency reproduction: enforces that campaigns stay "
            "a pure function of (seed, config)."
        ),
    )
    add_lint_arguments(parser)
    return parser


def _safe_print(output: str) -> None:
    """Print without tracebacks when e.g. ``| head`` closed stdout."""
    try:
        print(output)
    except BrokenPipeError:  # pragma: no cover - depends on the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        _safe_print(render_rule_list(all_rules()))
        return 0
    try:
        result = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    _safe_print(render_human(result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_from_args(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
