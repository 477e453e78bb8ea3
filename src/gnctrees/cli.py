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

At module level this imports only argparse, os, re and sys, and no other
gnctrees module; each command imports the modules it runs, inside its own
function:

    oeis       formulas, combinat
    series     series
    count      patterns, trees; plus formulas and combinat for --method
               formula, or series for --method series
    census     patterns, trees
    bijection  schroder, trees; plus verify, patterns and combinat for --check
    verify     verify, and the modules of the suites it runs (all six for
               --suite all)

so a cold `--help` loads only this module and the package's __init__.
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
    from typing import Iterable, Sequence

    from . import schroder
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
    suite not in verify.NOT_IN_ALL, in table order, each on its own; a refused
    certified read ends a suite in a failing record "<suite>:refused"."""
    from . import verify

    report = verify.VerificationReport(suite=suite)
    table = verify.SUITE_TABLE
    for name in [n for n in table if n not in verify.NOT_IN_ALL] if suite == "all" else (suite,):
        try:
            report.checks.extend(table[name](max_n, order))
        except ArithmeticError as exc:  # a failed certificate: the suite's earlier records stay
            params, claim = {"max_n": max_n, "order": order}, "the suite runs to its end"
            report.checks.append(verify.CheckRecord(f"{name}:refused", params, name, claim, str(exc), False))
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


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _write(parts: Iterable[str], output: str | None) -> None:
    if not output or output == "-":
        for part in parts:
            sys.stdout.write(part)
        return
    try:
        with open(output, "w") as fh:
            for part in parts:
                fh.write(part)
    except OSError as exc:
        raise CommandError(f"--output {output}: {exc.strerror or exc}") from None


def _emit(text: str, output: str | None) -> None:
    _write((text,) if text.endswith("\n") else (text, "\n"), output)


# one series_terms dict as json.dumps(..., indent=2, sort_keys=True) writes it
# inside a document's member list
_TERM_JSON = (
    '    {\n      "coeff": %(coeff)d,\n      "n": %(n)d,\n'
    '      "x": %(x)d,\n      "y": %(y)d,\n      "z": %(z)d\n    }'
)


def _emit_terms(members: dict[str, list[dict]], output: str | None) -> None:
    """_emit(json.dumps(members, indent=2, sort_keys=True)) for a system's
    series_terms lists, one format string per term.  Every system has a
    member, and every solved series a t^0 term, so neither the document nor
    a list is empty; a member name is written as it is, so it must need no
    JSON escape (series.SYSTEMS names are lowercase words and hyphens)."""

    def parts() -> Iterable[str]:
        for i, name in enumerate(sorted(members)):
            terms = ",\n".join(_TERM_JSON % t for t in members[name])
            yield f'{"," if i else "{"}\n  "{name}": [\n{terms}\n  ]'
        yield "\n}\n"

    _write(parts(), output)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def cmd_count(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import patterns, trees

    # without the words that filter nothing, so each route sees the same set
    pats = patterns._norm_patterns(args.avoid)
    given = ",".join(args.avoid)
    n = args.n
    ceiling = {"brute": trees.DEFAULT_EDGE_BOUND, "formula": MAX_FORMULA_N, "series": MAX_ORDER}
    _check_range(parser, "--n", n, 0, ceiling[args.method])
    if args.method == "formula":
        from . import formulas

        fn = formulas.FORMULA_COUNTS.get(frozenset(pats))
        if fn is None:
            supported = sorted(",".join(sorted(k)) or "(none)" for k in formulas.FORMULA_COUNTS)
            parser.error(f"--avoid: no closed formula for avoid set {given!r}; supported: {supported}")
        value = fn(n)
    elif args.method == "series":
        from . import series

        values = series.avoider_counts(pats, n)
        if values is None:
            members = (m for s in series.SYSTEMS if not s.star for m in s.members)
            solved = sorted(",".join(m.avoids) or "(none)" for m in members if m.avoids is not None)
            parser.error(
                f"--avoid: no solved series family covers avoid set {given!r}; "
                f"supported: any subset of u,h,d plus one of {solved}"
            )
        value = values[n]
    else:
        value = patterns.census(n, pats).total
    _emit(str(value), args.output)
    return 0


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def cmd_census(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import patterns, trees

    _check_range(parser, "--n", args.n, 0, trees.DEFAULT_EDGE_BOUND)
    pats = args.avoid
    cen = patterns.census(args.n, pats, star_only=args.star)
    rows = [(st.u, st.h, st.d, c) for st, c in cen.items()]
    if args.format == "json":
        import json

        payload = {
            "n": args.n,
            "avoid": list(pats),
            "star": args.star,
            "rows": [{"u": u, "h": h, "d": d, "count": c} for u, h, d, c in rows],
            "total": cen.total,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        lines = ["u,h,d,count"] + [f"{u},{h},{d},{c}" for u, h, d, c in rows]
        _emit("\n".join(lines), args.output)
    return 0


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def cmd_series(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import series

    families = {s.name: s for s in series.SYSTEMS if s.family}
    system = families.get(args.family)
    if system is None:
        parser.error(f"--family {args.family!r} is not one of {', '.join(families)}")
    _check_range(parser, "--order", args.order, 0, MAX_ORDER)
    members = [(m.name, f) for m, f in zip(system.members, series.packed_solve(system.name, args.order))]
    if args.at:
        values = {name: [str(v) for v in series.eval_numeric(f, *args.at)] for name, f in members}
        if args.format == "json":
            import json

            _emit(json.dumps(values, indent=2, sort_keys=True), args.output)
        else:
            _emit("\n".join(f"{name}: " + ", ".join(vs) for name, vs in values.items()), args.output)
        return 0
    if args.format == "json":
        _emit_terms({name: series.series_terms(f) for name, f in members}, args.output)
    else:
        blocks = [f"# {name}\n{series.render_series(f)}" for name, f in members]
        _emit("\n\n".join(blocks), args.output)
    return 0


# ---------------------------------------------------------------------------
# bijection
# ---------------------------------------------------------------------------


def _parse_path_arg(text: str) -> schroder.SchroderPath:
    import json

    from . import schroder

    # accepts both the text form "UFD" and the JSON list form ["U","F","D"]
    if text.lstrip().startswith("["):
        steps = json.loads(text)
        return schroder.SchroderPath(tuple(steps))
    return schroder.SchroderPath.from_text(text)


def cmd_bijection(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import json

    from . import schroder, trees

    if args.format is not None and args.encode is None:
        parser.error("--format applies to --encode only")
    if args.decode is not None:
        try:
            path = _parse_path_arg(args.decode)
        except (ValueError, RecursionError) as exc:  # JSON nested past the recursion limit
            raise CommandError(f"--decode: malformed path: {exc}") from None
        tree = schroder.decode_path(path)
        _emit(json.dumps(trees.tree_to_json(tree), sort_keys=True), args.output)
        return 0
    if args.encode is not None:
        try:
            if args.encode == "-":
                data = json.load(sys.stdin)
            else:
                with open(args.encode) as fh:
                    data = json.load(fh)
        except OSError as exc:
            raise CommandError(f"--encode {args.encode}: {exc.strerror or exc}") from None
        except (ValueError, RecursionError) as exc:  # bad text or bytes, or nested past the limit
            raise CommandError(f"--encode {args.encode}: malformed JSON: {exc}") from None
        # an invalid tree raises ValueError, which main reports
        path = schroder.encode_tree(trees.tree_from_json(data))
        if args.format == "json":
            _emit(json.dumps(list(path.steps)), args.output)
        else:
            _emit(path.as_text(), args.output)
        return 0
    _check_range(parser, "--check", args.check, 0, trees.DEFAULT_EDGE_BOUND)
    from . import verify

    report = verify.VerificationReport(f"bijection:n={args.check}", list(verify._bijection_records(args.check)))
    _emit(report.to_json(), args.output)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import trees

    _check_range(parser, "--order", args.order, 2, MAX_ORDER)
    _check_range(parser, "--max-n", args.max_n, 0, trees.DEFAULT_EDGE_BOUND)
    report = run_suites(args.suite, args.max_n, args.order)
    _emit(report.to_json(), args.output)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# oeis
# ---------------------------------------------------------------------------


def cmd_oeis(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import formulas

    seq = formulas.SEQUENCES.get(args.sequence)
    if seq is None:
        parser.error(
            f"unknown sequence {args.sequence!r}; available: {', '.join(sorted(formulas.SEQUENCES))}"
        )
    _check_range(parser, "--max-n", args.max_n, 0, MAX_FORMULA_N)
    values = seq.regenerate(args.max_n)
    if args.format == "csv":
        lines = ["n,value"] + [f"{n},{v}" for n, v in enumerate(values)]
    else:
        lines = [f"{n} {v}" for n, v in enumerate(values)]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_at(sys.argv[1:] if argv is None else argv))
    try:
        # read when main runs, so a wrapper set on cli.cmd_* after import applies
        return globals()[f"cmd_{args.command}"](args, args.parser)
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
    console_main()
