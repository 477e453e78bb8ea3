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

Building the parser loads no other gnctrees module; each command imports the
modules it runs, inside its own function:

    oeis       formulas, combinat
    series     series
    count      patterns, trees; plus formulas and combinat for --method
               formula, or series for --method series
    census     patterns, trees
    bijection  schroder, trees; plus patterns and combinat for --check
    verify     the modules of the suites it runs (all six for --suite all)

so a cold `--help` compiles only this module and the package's __init__.

Verification is one table, SUITE_TABLE: suite name -> generator, in the order
`verify --suite all` runs them; `all` skips the suites in NOT_IN_ALL, empty
today.  Each suite takes (max_n, order, identity_checks) and yields its
CheckRecords in report order, computing each record as it is yielded;
run_suites is one loop over the table.  A record is built by _compare
(expected and observed values) or _claim (a wording (claim, good word, bad
word) and whether the claim holds).

The series suites solve each system once in TRI, at --order; the identities,
homogeneity and the trivariate oracle all read that cached solve (the oracle
solves further only when its brute-force range, n <= 5, passes the order).
Prefix stability compares it with the packed-ring solve at order - 1, a
second computation in another ring with its own certificate.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

    from . import patterns, schroder, series

    # the one series.verify_identities run that the series suites share
    IdentityRun = Callable[[], list[series.IdentityCheck]]

__all__ = ["main", "console_main", "build_parser", "run_suites"]

DEFAULT_ORDER = 12
MAX_ORDER = 20
# formula route ceiling: every b-file is one O(N^2) prefix pass of big-integer terms
MAX_FORMULA_N = 200
# `series --at` values: digits per value, and the accepted forms (no exponent,
# no zero denominator)
MAX_POINT_DIGITS = 50
_POINT_VALUE = re.compile(r"[+-]?(?:\d+/0*[1-9]\d*|\d+(?:\.\d*)?|\.\d+)")
# encoder chunks joined per write of a streamed JSON document
_JSON_BATCH = 4096


@dataclass
class CheckRecord:
    check_id: str
    params: dict
    source: str
    expected: object
    observed: object
    passed: bool

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "params": self.params,
            "source": self.source,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        failed = sum(1 for c in self.checks if not c.passed)
        payload = {
            "suite": self.suite,
            "checks": [c.to_dict() for c in self.checks],
            "total": len(self.checks),
            "passed": len(self.checks) - failed,
            "failed": failed,
            "ok": self.ok,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _compare(check_id: str, params: dict, source: str, expected: object, observed: object) -> CheckRecord:
    return CheckRecord(check_id, params, source, expected, observed, observed == expected)


def _claim(check_id: str, params: dict, source: str, wording: tuple[str, str, str], ok: bool) -> CheckRecord:
    """A pass/fail record: wording is (claim, good word, bad word); the claim
    is expected, the good or bad word observed."""
    claim, good, bad = wording
    return CheckRecord(check_id, params, source, claim, good if ok else bad, ok)


# the wordings that more than one record uses
ZERO_RESIDUAL = ("zero residual", "zero", "nonzero")
IDENTITY = ("identity", "identity", "mismatch")
CENSUS_MARGINALS = ("refined counts equal census marginals", "equal", "different")
CENSUS_POLYNOMIALS = ("series coefficients equal census polynomials", "equal", "different")
HOMOGENEITY = ("each t^n coefficient homogeneous of degree n with positive terms", "holds", "violated")
PREFIX_STABILITY = ("extending the order never changes earlier coefficients", "stable", "changed")


class CommandError(Exception):
    """A failure the user can mend: main prints it as one `error:` line and
    exits 1."""


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
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    batches = iter(lambda: list(itertools.islice(chunks, _JSON_BATCH)), [])
    _write(itertools.chain(map("".join, batches), ("\n",)), output)


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

    pats = args.avoid
    n = args.n
    ceiling = {"brute": trees.DEFAULT_EDGE_BOUND, "formula": MAX_FORMULA_N, "series": MAX_ORDER}
    _check_range(parser, "--n", n, 0, ceiling[args.method])
    if args.method == "formula":
        from . import formulas

        fn = formulas.FORMULA_COUNTS.get(frozenset(pats))
        if fn is None:
            supported = sorted(",".join(sorted(k)) or "(none)" for k in formulas.FORMULA_COUNTS)
            parser.error(
                f"no closed formula for avoid set {','.join(pats)!r}; supported: {supported}"
            )
        value = fn(n)
    elif args.method == "series":
        values = _series_values(pats, max(n, 1))
        if values is None:
            from . import series

            members = (m for s in series.SYSTEMS if not s.star for m in s.members)
            solved = sorted(",".join(m.avoids) or "(none)" for m in members if m.avoids is not None)
            parser.error(
                f"no solved series family covers avoid set {','.join(pats)!r}; "
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
        _emit_json({name: series.series_terms(f) for name, f in members}, args.output)
    else:
        blocks = [f"# {name}\n{series.render_series(f)}" for name, f in members]
        _emit("\n\n".join(blocks), args.output)
    return 0


# ---------------------------------------------------------------------------
# bijection
# ---------------------------------------------------------------------------


def _bijection_records(n: int) -> Iterator[CheckRecord]:
    from . import combinat, patterns, schroder

    params = {"n": n}
    kept = list(patterns.enumerate_avoiders(n, ("h", "d")))
    yield _compare(f"bijection:count:n={n}", params, "formula", combinat.little_schroeder(n), len(kept))
    paths = [schroder.encode_tree(t) for t in kept]
    image = {p.steps for p in paths}
    yield _compare(f"bijection:injective:n={n}", params, "brute", len(kept), len(image))
    every_path = list(schroder.enumerate_schroder(n))
    target = {p.steps for p in every_path}
    wording = ("image equals all little Schroeder paths", "equal", "different")
    yield _claim(f"bijection:image:n={n}", params, "brute", wording, image == target)
    round_ok = all(schroder.decode_path(p) == t for t, p in zip(kept, paths))
    yield _claim(f"bijection:decode-encode:n={n}", params, "brute", IDENTITY, round_ok)
    back_ok = all(
        schroder.encode_tree(schroder.decode_path(p)).steps == p.steps for p in every_path
    )
    yield _claim(f"bijection:encode-decode:n={n}", params, "brute", IDENTITY, back_ok)


def _parse_path_arg(text: str) -> schroder.SchroderPath:
    from . import schroder

    # accepts both the text form "UFD" and the JSON list form ["U","F","D"]
    if text.lstrip().startswith("["):
        steps = json.loads(text)
        return schroder.SchroderPath(tuple(steps))
    return schroder.SchroderPath.from_text(text)


def cmd_bijection(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import schroder, trees

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
    report = VerificationReport(f"bijection:n={args.check}", list(_bijection_records(args.check)))
    _emit(report.to_json(), args.output)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _identity_records(
    identity_checks: IdentityRun, category: str, prefix: str, order: int
) -> Iterator[CheckRecord]:
    for chk in identity_checks():
        if chk.category == category:
            yield _claim(f"{prefix}:{chk.name}", {"order": order}, "series", ZERO_RESIDUAL, chk.ok)


def _suite_equations(max_n: int, order: int, identity_checks: IdentityRun) -> Iterator[CheckRecord]:
    from . import series

    yield from _identity_records(identity_checks, "defining", "equation", order)
    params = {"order": order}
    for system in series.SYSTEMS:
        fams = system.solve(order)
        homogeneous = all(
            all(a + b + c == n and v > 0 for (a, b, c), v in f.coeffs[n].terms.items())
            for f in fams
            for n in range(order + 1)
        )
        yield _claim(f"equation:homogeneity:{system.name}", params, "series", HOMOGENEITY, homogeneous)
        # order - 1 is a second computation in another ring, with its own certificate
        try:
            shorter = series.packed_solve(system.name, order - 1)
        except ArithmeticError:  # uncertified, or digits that no count polynomial packs
            stable = False
        else:
            stable = all(f.coeffs[:order] == g.coeffs for f, g in zip(fams, shorter))
        yield _claim(f"equation:prefix-stability:{system.name}", params, "series", PREFIX_STABILITY, stable)


def _suite_identities(max_n: int, order: int, identity_checks: IdentityRun) -> Iterator[CheckRecord]:
    yield from _identity_records(identity_checks, "derived", "identity", order)


# Closed formula, solved series and brute force must agree on each avoid set.
# The formula is named, and read from `formulas` when the check runs, so that
# an evaluator replaced on that module (a wrapper or a test's fault) is used.
THEOREM_FAMILIES = (
    ("level-free", ("h",), "h_avoiding"),
    ("descent-free", ("d",), "d_avoiding"),
    ("increasing", ("h", "d"), "little_schroeder"),
    ("uu-h", ("uu", "h"), "uu_h"),
    ("dd-h", ("dd", "h"), "dd_h"),
    ("ud-h", ("ud", "h"), "ud_h"),
    ("du-h", ("du", "h"), "du_h"),
    ("alternating", ("uu", "dd", "h"), "alternating"),
)


def _refined_equals_census(refined: Callable[[int, int], int], pats: tuple[str, ...], max_n: int) -> bool:
    """Whether refined(n, k) is the census count of the avoid set at size n
    with k ascents, for every n <= max_n and k <= n."""
    from . import patterns

    for n in range(max_n + 1):
        by_ascents = [0] * (n + 1)
        for st, c in patterns.census(n, pats).items():
            by_ascents[st.u] += c
        if [refined(n, k) for k in range(n + 1)] != by_ascents:
            return False
    return True


def _suite_theorems(max_n: int, order: int, identity_checks: IdentityRun) -> Iterator[CheckRecord]:
    from . import formulas, patterns

    brute_n = {"n": f"0..{max_n}"}
    for name, pats, formula in THEOREM_FAMILIES:
        fn = getattr(formulas, formula)
        formula_vals = [fn(n) for n in range(max(order, max_n) + 1)]
        yield _compare(
            f"theorem:{name}:formula-vs-series",
            {"n": f"0..{order}"},
            "series",
            formula_vals[: order + 1],
            _series_values(pats, order),
        )
        brute_vals = [patterns.census(n, pats).total for n in range(max_n + 1)]
        yield _compare(
            f"theorem:{name}:formula-vs-brute", brute_n, "brute", formula_vals[: max_n + 1], brute_vals
        )

    # refined counts against census marginals, and their own marginals
    refined_ok = _refined_equals_census(formulas.d_avoiding_by_ascents, ("d",), max_n)
    yield _claim("theorem:descent-free-by-ascents:vs-brute", brute_n, "brute", CENSUS_MARGINALS, refined_ok)
    marg_ok = all(
        sum(formulas.d_avoiding_by_ascents(n, k) for k in range(n + 1)) == formulas.d_avoiding(n)
        for n in range(11)
    )
    wording = ("sums to the descent-free totals", "holds", "violated")
    yield _claim("theorem:descent-free-by-ascents:marginal", {"n": "0..10"}, "formula", wording, marg_ok)
    alt_ok = _refined_equals_census(formulas.alternating_by_ascents, ("uu", "dd", "h"), max_n)
    yield _claim("theorem:alternating-by-ascents:vs-brute", brute_n, "brute", CENSUS_MARGINALS, alt_ok)
    marg2_ok = all(
        sum(formulas.alternating_by_ascents(n, r) for r in range(n + 1)) == formulas.alternating(n)
        and sum((-1) ** r * formulas.alternating_by_ascents(n, r) for r in range(n + 1))
        == formulas.parity_signed(n)
        for n in range(11)
    )
    wording = ("plain and signed marginals agree", "hold", "violated")
    yield _claim("theorem:alternating-by-ascents:marginals", {"n": "0..10"}, "formula", wording, marg2_ok)

    # ascent-parity-signed counts by signed brute force
    parity_hi = min(max_n + 2, 7)
    yield _compare(
        "theorem:alternating-parity:signed-brute",
        {"n": f"0..{parity_hi}"},
        "brute",
        [formulas.parity_signed(n) for n in range(parity_hi + 1)],
        [patterns.census(n, ("uu", "dd", "h")).signed_by_ascents() for n in range(parity_hi + 1)],
    )

    # Narayana polynomial identity
    nara_ok = all(
        formulas.narayana_check(n, q).equal for n in range(1, 21) for q in range(-3, 4)
    ) and all(formulas.narayana_check(n, 0).lhs == 0 for n in range(1, 21))
    wording = ("both sides equal; zero at q=0", "hold", "violated")
    yield _claim("theorem:narayana-identity", {"n": "1..20", "q": "-3..3"}, "formula", wording, nara_ok)

    # pinned sequence prefixes regenerate
    for name, seq in sorted(formulas.SEQUENCES.items()):
        yield _compare(
            f"theorem:sequence:{name}",
            {"n": f"0..{len(seq.values) - 1}"},
            seq.provenance,
            list(seq.values),
            list(seq.regenerate()),
        )


def _merged_shards(n: int, pats: tuple[str, ...], shard_count: int) -> patterns.StatCensus:
    """The census of the avoid set, classified tree by tree over every shard
    of the reference generator and summed."""
    from . import patterns, trees

    table: dict[tuple[int, int], int] = {}
    for i in range(shard_count):
        for t in trees.enumerate_gnc(n, shard_count=shard_count, shard_index=i):
            if patterns.avoids(t, pats):
                _, st = trees.classify(t)
                table[st.u, st.d] = table.get((st.u, st.d), 0) + 1
    return patterns.StatCensus(n, table)


def _suite_oracle(max_n: int, order: int, identity_checks: IdentityRun) -> Iterator[CheckRecord]:
    from . import combinat, patterns, series, trees

    hi = min(max_n, 5)
    upto_hi = {"n": f"0..{hi}"}
    for system in series.SYSTEMS:
        # at verify's own order this is the solve the series suites cached
        for member, f in zip(system.members, system.solve(max(hi, order))):
            if member.avoids is None:
                continue
            ok = all(
                f.coeffs[n].terms
                == patterns.census(n, member.avoids, star_only=system.star).as_terms()
                for n in range(hi + 1)
            )
            yield _claim(f"oracle:trivariate:{member.name}", upto_hi, "brute", CENSUS_POLYNOMIALS, ok)
    # generator totals
    points = min(max_n, 7) + 1
    counts_ok = all(
        sum(1 for _ in trees.enumerate_nc_trees(p)) == combinat.ternary(p - 1)
        for p in range(1, points + 1)
    )
    wording = ("ternary numbers", "match", "differ")
    yield _claim("oracle:nc-tree-counts", {"points": f"1..{points}"}, "formula", wording, counts_ok)
    totals_ok = all(patterns.census(n).total == combinat.gnc_total(n) for n in range(hi + 1))
    yield _claim("oracle:gnc-totals", upto_hi, "formula", ("2^n times ternary", "match", "differ"), totals_ok)
    # avoiding the single ascent pattern collapses to all-level trees
    ascent_free = (patterns.census(n, ("u",)) for n in range(hi + 1))
    u_ok = all(
        c.total == combinat.ternary(c.n) and c.as_terms() == {(0, c.n, 0): combinat.ternary(c.n)}
        for c in ascent_free
    )
    wording = ("ascent-free trees are exactly the all-level ones", "holds", "violated")
    yield _claim("oracle:ascent-free-collapse", upto_hi, "brute", wording, u_ok)
    # the reference generator's shards, merged, give the kernel's census
    shard_counts = [2, 4, 8]
    kernel = patterns.census(4, ("uu",))
    shard_ok = all(_merged_shards(4, ("uu",), k) == kernel for k in shard_counts)
    # "jobs" is the pinned name of the shard counts
    params = {"n": 4, "jobs": shard_counts}
    wording = ("identical censuses at every shard count", "identical", "different")
    yield _claim("oracle:shard-merge-determinism", params, "brute", wording, shard_ok)


def _suite_bijection(max_n: int, order: int, identity_checks: IdentityRun) -> Iterator[CheckRecord]:
    from . import formulas, patterns, schroder, trees

    for n in range(min(max_n, 6) + 1):
        yield from _bijection_records(n)
    # the pinned eight-point instance
    base = trees.NcTree.of(8, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (0, 6), (6, 7)])
    text = schroder.encode_tree(trees.make_gnc(base, {1, 4, 6, 7})).as_text()
    yield _compare("bijection:eight-point-instance", {"edges": 7}, "published", "UFFUFDDUUDD", text)
    # the literal-rule diagnostic: one collision at n = 3
    kept = list(patterns.enumerate_avoiders(3, ("h", "d")))
    words: dict[tuple[str, ...], int] = {}
    for t in kept:
        w = schroder.encode_tree_literal(t)
        words[w] = words.get(w, 0) + 1
    sizes = sorted(words.values())
    ok = len(kept) == 11 and len(words) == 10 and sizes == [1] * 9 + [2]
    yield CheckRecord(
        "bijection:literal-rule-collision:n=3",
        {"n": 3},
        "brute",
        "10 distinct words over 11 trees, one shared by exactly two",
        f"{len(words)} words, multiplicities {sizes}",
        ok,
    )
    # big-step path counts match the {dd, h} formula
    hi = min(max_n + 2, 7)
    yield _compare(
        "bijection:coker-counts",
        {"n": f"0..{hi}"},
        "formula",
        [formulas.dd_h(n) for n in range(hi + 1)],
        [schroder.coker_count(n) for n in range(hi + 1)],
    )


# The suites in the order `verify --suite all` runs them, then those it skips.
SUITE_TABLE = {
    "equations": _suite_equations,
    "identities": _suite_identities,
    "theorems": _suite_theorems,
    "oracle": _suite_oracle,
    "bijection": _suite_bijection,
}
# not run by `all`, whose report is pinned
NOT_IN_ALL: tuple[str, ...] = ()
SUITES = ("all", *SUITE_TABLE)


def run_suites(suite: str, max_n: int, order: int) -> VerificationReport:
    from . import series

    # one identity run, made on first use, serves both series suites
    identity_checks = functools.cache(lambda: series.verify_identities(order))
    report = VerificationReport(suite=suite)
    for name in [n for n in SUITE_TABLE if n not in NOT_IN_ALL] if suite == "all" else (suite,):
        report.checks.extend(SUITE_TABLE[name](max_n, order, identity_checks))
    return report


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
    p_count.set_defaults(fn=cmd_count, parser=p_count)

    p_census = sub.add_parser("census", parents=[common], help="joint statistic table")
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--avoid", type=_pattern_set, default="")
    p_census.add_argument("--star", action="store_true", help="only trees with a unique label-1 point")
    p_census.add_argument("--format", choices=("csv", "json"), default="csv")
    p_census.set_defaults(fn=cmd_census, parser=p_census)

    p_series = sub.add_parser("series", parents=[common], help="render a solved series family")
    p_series.add_argument("--family", required=True, help="solved family, e.g. master or uu-dd")
    p_series.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_series.add_argument(
        "--at", type=_point, default=None, help='exact substitution "x,y,z", e.g. "1,0,1" or "1/2,0,0.5"'
    )
    p_series.add_argument("--format", choices=("text", "json"), default="text")
    p_series.set_defaults(fn=cmd_series, parser=p_series)

    p_bij = sub.add_parser("bijection", parents=[common], help="Schroeder path encoding")
    group = p_bij.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", type=int, metavar="N", help="run the bijectivity suite at size N")
    group.add_argument("--encode", metavar="FILE", help="tree JSON file (or - for stdin) to path text")
    group.add_argument("--decode", metavar="PATH", help='path text such as "UFFUFDDUUDD" to tree JSON')
    p_bij.add_argument("--format", choices=("text", "json"), default="text", help="encode output form")
    p_bij.set_defaults(fn=cmd_bijection, parser=p_bij)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--max-n", type=int, default=5, help="largest n the brute-force checks compute")
    p_verify.add_argument("--order", type=int, default=DEFAULT_ORDER, help="series truncation order")
    p_verify.set_defaults(fn=cmd_verify, parser=p_verify)

    p_oeis = sub.add_parser("oeis", parents=[common], help="emit a named sequence")
    p_oeis.add_argument("--sequence", required=True, help="sequence id, e.g. gnc-h")
    p_oeis.add_argument("--max-n", type=int, required=True, help="largest index computed")
    p_oeis.add_argument("--format", choices=("bfile", "csv"), default="bfile")
    p_oeis.set_defaults(fn=cmd_oeis, parser=p_oeis)

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
    try:
        return args.fn(args, args.parser)
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
