"""Command line interface.

`trisect verify` runs the registered check suites at a working torsion
level and writes the report as JSON or markdown; `trisect eval` evaluates
a one-line intersection-ring statement.  Exit status: 0 when nothing
failed, 1 when any check failed or raised, 2 on usage or parse errors and
when the report cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal

from .checks import run_verify
from .expr import DslError, evaluate_statement
from .report import SUITES, render_json, render_markdown
from .torsion import DEFAULT_LEVEL, InsufficientLevelError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisect",
        description="Exact arithmetic checks for the registered curve,"
                    " torsion, and intersection-ring claims.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run check suites and report")
    verify.add_argument("--suite", action="append",
                        choices=SUITES + ("all",), metavar="SUITE",
                        help="suite to run (repeatable; one of %(choices)s;"
                             " default all)")
    verify.add_argument("--torsion-level", type=int, default=DEFAULT_LEVEL,
                        metavar="N",
                        help="working torsion level, a multiple of 6"
                             " (default %(default)s)")
    verify.add_argument("--format", choices=("json", "markdown"),
                        default="json", help="report format"
                                             " (default %(default)s)")
    verify.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")

    evaluate = sub.add_parser("eval", help="evaluate a ring statement")
    evaluate.add_argument("statement", help='e.g. "chi E(3): 4D - F"')
    return parser


def _run_verify_command(args) -> int:
    suites = tuple(args.suite) if args.suite else ("all",)
    try:
        report = run_verify(suites, args.torsion_level)
    except InsufficientLevelError as exc:
        print(f"trisect: {exc}", file=sys.stderr)
        return 2
    render = render_json if args.format == "json" else render_markdown
    text = render(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"trisect: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if report.failed else 0


def _run_eval_command(args) -> int:
    try:
        values = evaluate_statement(args.statement)
    except DslError as exc:
        print(f"trisect: {exc}", file=sys.stderr)
        return 2
    # Decimal prints an int of any length; str() stops at
    # sys.get_int_max_str_digits() digits
    print(", ".join(str(Decimal(v)) for v in values))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _run_verify_command(args)
    return _run_eval_command(args)


if __name__ == "__main__":
    sys.exit(main())
