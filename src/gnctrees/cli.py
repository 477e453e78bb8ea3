"""Command-line front end: counting, censuses, series, bijection, and the
reproduction harness.

Subcommands
    count      exact count of an avoidance class by brute force, closed
               formula, or generating function
    census     joint (u, h, d) statistic table as CSV or JSON
    series     render a solved series family, optionally at a numeric point
    bijection  encode/decode trees as little Schroeder paths, or run the
               bijectivity suite at one size
    verify     run the verification suites; exit status 0 iff all pass
    oeis       emit a named sequence as a b-file or CSV

All output is deterministic: no clocks, no randomness, and JSON is emitted
with sorted keys.

Each route has one size ceiling.  A size flag is checked once, at the parser,
against the ceiling of the route it drives (from 0, or 2 for verify --order);
a value outside is a usage error that names the flag.  --max-n is always the
largest n that verify or oeis computes.

    brute force  trees.DEFAULT_EDGE_BOUND = 8 edges: count/census --n,
                 bijection --check, verify --max-n
    series       MAX_ORDER = 20: series/verify --order, count --method series --n
    formulas     MAX_FORMULA_N = 200: count --method formula --n, oeis --max-n

This module only parses: it imports argparse, os, re and sys, and no other
gnctrees module.  main loads `commands`, which holds the command bodies, and
runs the one the arguments name; each command imports the modules it runs,
inside its own function:

    oeis       formulas, combinat
    series     series
    count      patterns, trees; plus formulas and combinat for --method
               formula, or series for --method series
    census     patterns, trees
    bijection  schroder, trees; plus verify, patterns and combinat for --check
    verify     verify, and the modules of the suites it runs (all six for
               --suite all)

so a cold `--help` compiles only this module and the package's __init__.
The suites themselves, and the records they yield, are in `verify`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# typing.TYPE_CHECKING without importing typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Sequence

    from .verify import VerificationReport

__all__ = ["main", "console_main", "build_parser", "run_suites"]

DEFAULT_ORDER = 12
MAX_ORDER = 20
# formula route ceiling: every b-file is one O(N^2) prefix pass of big-integer terms
MAX_FORMULA_N = 200
# `series --at` values: digits per value, and the accepted forms (no exponent,
# no zero denominator)
MAX_POINT_DIGITS = 50
_POINT_VALUE = re.compile(r"[+-]?(?:\d+/0*[1-9]\d*|\d+(?:\.\d*)?|\.\d+)")
# verify --suite choices: `all`, then verify.SUITE_TABLE's suites in its order
SUITES = ("all", "equations", "identities", "theorems", "oracle", "bijection")


class CommandError(Exception):
    """A failure the user can mend: main prints it as one `error:` line and
    exits 1."""


def _point(text: str) -> tuple[Fraction, Fraction, Fraction] | None:
    """Three exact values "x,y,z", each an integer, a decimal or p/q with at
    most MAX_POINT_DIGITS digits; an exponent could ask for unbounded work.
    An empty text asks for no substitution."""
    if not text:
        return None
    from fractions import Fraction

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expects three comma-separated values, e.g. 1,0,1")
    for p in parts:
        if not _POINT_VALUE.fullmatch(p) or sum(ch.isdigit() for ch in p) > MAX_POINT_DIGITS:
            raise argparse.ArgumentTypeError(
                f"{p!r} is not an integer, decimal or p/q with at most {MAX_POINT_DIGITS} digits"
            )
    return tuple(Fraction(p) for p in parts)  # type: ignore[return-value]


def _pattern_set(text: str) -> tuple[str, ...]:
    from . import patterns

    try:
        return patterns.parse_pattern_set(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_range(parser: argparse.ArgumentParser, flag: str, value: int, lo: int, hi: int) -> None:
    """Reject a value outside lo..hi as a usage error that names its flag."""
    if not lo <= value <= hi:
        parser.error(f"{flag} {value} outside {lo}..{hi}")


def run_suites(suite: str, max_n: int, order: int) -> VerificationReport:
    """The report of one suite of verify.SUITE_TABLE, or for "all" of every
    suite not in verify.NOT_IN_ALL, in table order."""
    import functools

    from . import series, verify

    # one identity run, made on first use, serves both series suites
    identity_checks = functools.cache(lambda: series.verify_identities(order))
    report = verify.VerificationReport(suite=suite)
    table = verify.SUITE_TABLE
    for name in [n for n in table if n not in verify.NOT_IN_ALL] if suite == "all" else (suite,):
        report.checks.extend(table[name](max_n, order, identity_checks))
    return report


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnctrees",
        description="Exact counting, series, and bijection toolkit for "
        "generalized non-crossing trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write to FILE instead of stdout")

    p_count = sub.add_parser("count", parents=[common], help="count one avoidance class")
    p_count.add_argument("--n", type=int, required=True, help="edge count")
    p_count.add_argument(
        "--avoid", type=_pattern_set, default="", help='comma-separated patterns, e.g. "uu,h"'
    )
    p_count.add_argument("--method", choices=("brute", "formula", "series"), default="brute")
    p_count.set_defaults(parser=p_count)

    p_census = sub.add_parser("census", parents=[common], help="joint statistic table")
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--avoid", type=_pattern_set, default="")
    p_census.add_argument("--star", action="store_true", help="only trees with a unique label-1 point")
    p_census.add_argument("--format", choices=("csv", "json"), default="csv")
    p_census.set_defaults(parser=p_census)

    p_series = sub.add_parser("series", parents=[common], help="render a solved series family")
    p_series.add_argument("--family", required=True, help="solved family, e.g. master or uu-dd")
    p_series.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_series.add_argument(
        "--at", type=_point, default=None, help='exact substitution "x,y,z", e.g. "1,0,1" or "1/2,0,0.5"'
    )
    p_series.add_argument("--format", choices=("text", "json"), default="text")
    p_series.set_defaults(parser=p_series)

    p_bij = sub.add_parser("bijection", parents=[common], help="Schroeder path encoding")
    group = p_bij.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", type=int, metavar="N", help="run the bijectivity suite at size N")
    group.add_argument("--encode", metavar="FILE", help="tree JSON file (or - for stdin) to path text")
    group.add_argument("--decode", metavar="PATH", help='path text such as "UFFUFDDUUDD" to tree JSON')
    p_bij.add_argument("--format", choices=("text", "json"), help="--encode output form (default text)")
    p_bij.set_defaults(parser=p_bij)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--max-n", type=int, default=5, help="largest n the brute-force checks compute")
    p_verify.add_argument("--order", type=int, default=DEFAULT_ORDER, help="series truncation order")
    p_verify.set_defaults(parser=p_verify)

    p_oeis = sub.add_parser("oeis", parents=[common], help="emit a named sequence")
    p_oeis.add_argument("--sequence", required=True, help="sequence id, e.g. gnc-h")
    p_oeis.add_argument("--max-n", type=int, required=True, help="largest index computed")
    p_oeis.add_argument("--format", choices=("bfile", "csv"), default="bfile")
    p_oeis.set_defaults(parser=p_oeis)

    return parser


def _join_at(argv: Sequence[str]) -> list[str]:
    """Write `--at V` as `--at=V`: argparse reads a separate value such as
    -1,0,1, which starts with a minus sign, as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--at":
            out[-1] = f"--at={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_at(sys.argv[1:] if argv is None else argv))
    from . import commands

    try:
        return getattr(commands, f"cmd_{args.command}")(args, args.parser)
    except (CommandError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does); send the rest to
        # devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    # `python -m gnctrees.cli` runs this file as __main__, and `commands`
    # imports it as gnctrees.cli: one module under both names, not two copies
    # with two CommandError classes
    sys.modules[__spec__.name] = sys.modules[__name__]
    console_main()
