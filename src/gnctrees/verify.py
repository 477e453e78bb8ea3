"""The verification suites behind `gnctrees verify` and `bijection --check`.

Verification is one table, SUITE_TABLE: suite name -> generator, in the order
`verify --suite all` runs them; `all` skips the suites in NOT_IN_ALL, empty
today.  Each suite takes (max_n, order) and yields its CheckRecords in
report order, computing each record as it is yielded; cli.run_suites is one
loop over the table, and no suite reads another's records.  A record is
built by _compare (expected and observed values) or _claim (a wording
(claim, good word, bad word) and whether the claim holds).

The series suites solve each system once in TRI, at --order; the defining
records read each solve's certificate, and the identities, homogeneity and
the trivariate oracle read the cached solve (the oracle solves further only
when its brute-force range, n <= 5, passes the order).
Prefix stability compares it with the packed-ring solve at order - 1, a
second computation in another ring with its own certificate.

Only `verify` and `bijection --check` load this module.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:
    from . import patterns


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


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_equations(max_n: int, order: int) -> Iterator[CheckRecord]:
    from . import series

    params = {"order": order}
    for chk in series.defining_checks(order):
        yield _claim(f"equation:{chk.name}", params, "series", ZERO_RESIDUAL, chk.ok)
    for system in series.SYSTEMS:
        fams = system.solve(order)
        homogeneous = all(
            all(a + b + c == n and v > 0 for (a, b, c), v in f[n].terms.items())
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


def _suite_identities(max_n: int, order: int) -> Iterator[CheckRecord]:
    from . import series

    for chk in series.verify_identities(order):
        if chk.category == "derived":
            yield _claim(f"identity:{chk.name}", {"order": order}, "series", ZERO_RESIDUAL, chk.ok)


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


def _suite_theorems(max_n: int, order: int) -> Iterator[CheckRecord]:
    from . import formulas, patterns, series

    brute_n = {"n": f"0..{max_n}"}
    for name, pats, formula in THEOREM_FAMILIES:
        fn = getattr(formulas, formula)
        formula_vals = [fn(n) for n in range(max(order, max_n) + 1)]
        yield _compare(
            f"theorem:{name}:formula-vs-series",
            {"n": f"0..{order}"},
            "series",
            formula_vals[: order + 1],
            series.avoider_counts(pats, order),
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


def _merged_shards(n: int, pats: tuple[str, ...], strides: Sequence[int]) -> list[patterns.StatCensus]:
    """Per stride k, the avoid set's census merged from the k stride shards of
    the reference generator's base trees; each tree is classified once."""
    from . import patterns, trees

    per_base = []
    for _, group in itertools.groupby(trees.enumerate_gnc(n), key=lambda t: t.base):
        stats = (trees.classify(t)[1] for t in group if patterns.avoids(t, pats))
        per_base.append(Counter((st.u, st.d) for st in stats))
    shards = ([sum(per_base[i::k], Counter()) for i in range(k)] for k in strides)
    return [patterns.StatCensus(n, sum(parts, Counter())) for parts in shards]


def _suite_oracle(max_n: int, order: int) -> Iterator[CheckRecord]:
    from . import combinat, patterns, series, trees

    hi = min(max_n, 5)
    upto_hi = {"n": f"0..{hi}"}
    for system in series.SYSTEMS:
        # at verify's own order this is the solve the series suites cached
        for member, f in zip(system.members, system.solve(max(hi, order))):
            if member.avoids is None:
                continue
            ok = all(
                f[n].terms
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
    strides = [2, 4, 8]
    kernel = patterns.census(4, ("uu",))
    shard_ok = all(c == kernel for c in _merged_shards(4, ("uu",), strides))
    # bench/pinned.json pins this record's id and its "jobs" param (the
    # strides) until the re-pin planned in ROADMAP.md deletes the record
    params = {"n": 4, "jobs": strides}
    wording = ("identical censuses at every shard count", "identical", "different")
    yield _claim("oracle:shard-merge-determinism", params, "brute", wording, shard_ok)


def _suite_bijection(max_n: int, order: int) -> Iterator[CheckRecord]:
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
