"""The bodies of the `gnctrees` subcommands and their output helpers.

cli parses the arguments and loads this module to run the command it names;
each command imports the gnctrees modules it runs inside its own function.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

# run_suites is read from cli when verify runs, so that a wrapper installed on
# cli.run_suites after this import still applies
from . import cli
from .cli import MAX_FORMULA_N, MAX_ORDER, CommandError, _check_range

if TYPE_CHECKING:
    from . import schroder

# encoder chunks joined per write of a streamed JSON document
_JSON_BATCH = 4096


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


def _emit_json(payload: object, output: str | None) -> None:
    """json.dumps(payload, indent=2, sort_keys=True) and a newline, written in
    joined batches of the encoder's chunks, so that neither the chunk list nor
    the whole text is ever held."""
    import json

    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    batches = iter(lambda: list(itertools.islice(chunks, _JSON_BATCH)), [])
    _write(itertools.chain(map("".join, batches), ("\n",)), output)


# one series_terms dict as json.dumps(..., indent=2, sort_keys=True) writes it
# inside a document's member list
_TERM_JSON = (
    '    {\n      "coeff": %(coeff)d,\n      "n": %(n)d,\n'
    '      "x": %(x)d,\n      "y": %(y)d,\n      "z": %(z)d\n    }'
)


def _emit_terms(members: dict[str, list[dict]], output: str | None) -> None:
    """_emit_json(members) for a system's series_terms lists, one format
    string per term.  Every system has a member, and every solved series a
    t^0 term, so neither the document nor a list is empty; a member name is
    written as it is, so it must need no JSON escape (series.SYSTEMS names
    are lowercase words and hyphens)."""

    def parts() -> Iterable[str]:
        for i, name in enumerate(sorted(members)):
            terms = ",\n".join(_TERM_JSON % t for t in members[name])
            yield f'{"," if i else "{"}\n  "{name}": [\n{terms}\n  ]'
        yield "\n}\n"

    _write(parts(), output)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _series_values(pats: Sequence[str], order: int) -> list | None:
    """Counts for n = 0..order from the solved series, or None when no
    solved system covers the avoid set."""
    from . import series

    f = series.avoider_series([p for p in pats if len(p) > 1], order)
    if f is None:
        return None
    x0, y0, z0 = (0 if letter in pats else 1 for letter in "uhd")
    return series.eval_numeric(f, x0, y0, z0)


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
        values = _series_values(pats, max(n, 1))
        if values is None:
            from . import series

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
    import json

    from . import patterns, trees

    _check_range(parser, "--n", args.n, 0, trees.DEFAULT_EDGE_BOUND)
    pats = args.avoid
    cen = patterns.census(args.n, pats, star_only=args.star)
    rows = [(st.u, st.h, st.d, c) for st, c in cen.items()]
    if args.format == "json":
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
            _emit_json(values, args.output)
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
    report = cli.run_suites(args.suite, args.max_n, args.order)
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
