"""Pattern containment, avoidance filtering, and exact statistic censuses.

A pattern is a nonempty word over {u, h, d}.  A tree contains it when some
run of consecutive edges directed away from the root spells the word, i.e.
the pattern occurs as a factor of some root-to-vertex class word.  An
occurrence is identified with the run itself (a vertex plus len(pattern)
successive parent-to-child steps) and counted once, no matter how many
deeper paths extend it.  The runs ending at a vertex are the patterns that
end its root word, so one depth-first walk that carries an Aho-Corasick
state (Aho & Corasick, CACM 1975) from each parent to its children finds
every occurrence.

The walk is mask-parallel.  The 2^n trees over one base tree differ only in
their jump mask, and the class of an edge is a function of the mask: edge
p -> v with v > p is an ascent exactly for the masks with a jump in gaps
p+1..v, and a level for the rest; with v < p it is a descent exactly for
the masks with a jump in gaps v+1..p.  A set of masks is a Python int used
as a bitset (bit m for mask m), so each edge class is one bitset and the
walk keeps, per vertex and automaton state, the masks whose root word leads
there.  One walk over a base tree classifies all of its masks at once; a
single tree is the same walk over a one-mask universe.

Censuses aggregate the (ascents, levels, descents) statistic over a tree
class exactly; they are the brute-force oracle every generating function and
closed form is checked against.  Ascent and descent counts are kept
bit-sliced (bit i of the count at every mask is one int), and the table is
read off by splitting the kept masks on those bits and counting the members
of each part.  Base trees partition into shards by index stride and shard
tables merge by addition, so results are independent of shard count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .trees import (
    DEFAULT_EDGE_BOUND,
    BaseProfile,
    BoundExceededError,
    GncTree,
    NcTree,
    StatTriple,
    enumerate_nc_trees,
    jumps_from_mask,
)

PATTERN_ALPHABET = frozenset("uhd")
# column order of automaton rows and of per-edge class bitsets
_CLASS_ORDER = "uhd"

__all__ = [
    "parse_pattern",
    "parse_pattern_set",
    "word_contains",
    "count_occurrences",
    "avoids",
    "enumerate_avoiders",
    "StatCensus",
    "census",
    "occurrence_census",
]


def parse_pattern(word: str) -> str:
    if not word:
        raise ValueError("pattern must be nonempty")
    bad = set(word) - PATTERN_ALPHABET
    if bad:
        raise ValueError(f"pattern letters must be u, h, or d (got {sorted(bad)})")
    return word


def parse_pattern_set(text: str) -> tuple[str, ...]:
    """Parse a comma-separated pattern list such as "uu,dd,h"; "" means none."""
    if not text.strip():
        return ()
    return tuple(parse_pattern(part.strip()) for part in text.split(","))


def word_contains(word: str, pattern: str) -> bool:
    """True iff the pattern occurs as a consecutive factor of the word."""
    return parse_pattern(pattern) in word


def _norm_patterns(patterns: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted({parse_pattern(p) for p in patterns}))


def _check_size(n: int, bound: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > bound:
        raise BoundExceededError(f"n={n} exceeds bound {bound}")


_Automaton = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


@lru_cache(maxsize=None)
def _automaton(patterns: tuple[str, ...], stop_at_match: bool) -> _Automaton:
    """Aho-Corasick automaton of a pattern set over the edge classes.

    Returns the transition rows, indexed by state and then by class in
    _CLASS_ORDER, and the accepting states: those whose word ends in a
    pattern.  State 0 is the empty word.  With ``stop_at_match`` an
    accepting state has no transitions, so a walk drops the masks that
    reach it; avoidance needs only the first match, counting needs them all.
    """
    goto: list[dict[str, int]] = [{}]
    ends = [False]
    for pat in patterns:
        s = 0
        for c in pat:
            if c not in goto[s]:
                goto[s][c] = len(goto)
                goto.append({})
                ends.append(False)
            s = goto[s][c]
        ends[s] = True
    rows: list[tuple[int, ...]] = [tuple(goto[0].get(c, 0) for c in _CLASS_ORDER)]
    rows += [()] * (len(goto) - 1)
    fail = [0] * len(goto)
    queue = list(goto[0].values())
    # breadth first, so a failure link always names a finished, shallower state
    for s in queue:
        ends[s] = ends[s] or ends[fail[s]]
        row = []
        for k, c in enumerate(_CLASS_ORDER):
            t = goto[s].get(c)
            if t is None:
                row.append(rows[fail[s]][k])
            else:
                fail[t] = rows[fail[s]][k]
                queue.append(t)
                row.append(t)
        rows[s] = tuple(row)
    if stop_at_match:
        rows = [() if e else row for row, e in zip(rows, ends)]
    return tuple(rows), tuple(s for s, e in enumerate(ends) if e)


def _walk(prof: BaseProfile, classes: list, univ: int, automaton: _Automaton) -> list[int]:
    """The class-word walk: for each non-root vertex in preorder, the masks
    whose root word reaches an accepting state at that vertex."""
    rows, accepting = automaton
    parents = prof.parents
    live: list[dict[int, int]] = [{}] * len(parents)
    live[0] = {0: univ}
    hits = []
    for v in prof.preorder[1:]:
        here: dict[int, int] = {}
        for s, masks in live[parents[v]].items():
            for t, cls in zip(rows[s], classes[v]):
                m = masks & cls
                if m:
                    here[t] = here.get(t, 0) | m
        live[v] = here
        hit = 0
        for s in accepting:
            hit |= here.get(s, 0)
        hits.append(hit)
    return hits


def _edge_classes(prof: BaseProfile, spans: Mapping[tuple[int, int], int], univ: int) -> list:
    """Per vertex, the (u, h, d) bitsets of the edge from its parent.

    ``spans[a, b]`` holds the masks with a jump in some gap a+1..b.
    """
    classes: list = [None] * len(prof.parents)
    for v in prof.preorder[1:]:
        p = prof.parents[v]
        if v > p:
            up = spans[p, v] & univ
            classes[v] = (up, univ ^ up, 0)
        else:
            down = spans[v, p] & univ
            classes[v] = (0, univ ^ down, down)
    return classes


def _kept(prof: BaseProfile, classes: list, univ: int, patterns: tuple[str, ...]) -> int:
    """The masks of the universe whose tree avoids every pattern."""
    if not patterns:
        return univ
    for hit in _walk(prof, classes, univ, _automaton(patterns, True)):
        univ &= ~hit
    return univ


def _one_tree(tree: GncTree) -> tuple[BaseProfile, list]:
    """The walk's inputs for a single tree: its mask is the only bit, bit 0."""
    labels = tree.labels
    spans = {(a, b): int(labels[a] < labels[b]) for a, b in tree.base.edges}
    prof = tree.profile
    return prof, _edge_classes(prof, spans, 1)


def count_occurrences(tree: GncTree, pattern: str) -> int:
    """Number of downward runs of consecutive edges spelling the pattern."""
    prof, classes = _one_tree(tree)
    return sum(_walk(prof, classes, 1, _automaton((parse_pattern(pattern),), False)))


def avoids(tree: GncTree, patterns: Iterable[str]) -> bool:
    """True iff no pattern in the set occurs anywhere in the tree."""
    pats = _norm_patterns(patterns)
    if not pats:
        raise ValueError("avoids requires a nonempty pattern set")
    prof, classes = _one_tree(tree)
    return _kept(prof, classes, 1, pats) == 1


@lru_cache(maxsize=None)
def _gap_spans(n: int) -> dict[tuple[int, int], int]:
    """For points a < b, the bitset of jump masks with a jump in some gap a+1..b."""
    full = (1 << (1 << n)) - 1
    # gap k+1 is bit k of a mask
    no_jump = [sum(1 << m for m in range(1 << n) if not m >> k & 1) for k in range(n)]
    spans = {}
    for a in range(n):
        quiet = full
        for b in range(a + 1, n + 1):
            quiet &= no_jump[b - 1]
            spans[a, b] = full ^ quiet
    return spans


def _universe(n: int, star_only: bool) -> int:
    """Every jump mask, or only those with gap 1 a jump (every mask at n = 0)."""
    if star_only and n:
        return sum(1 << m for m in range(1, 1 << n, 2))
    return (1 << (1 << n)) - 1


def _classified_bases(n: int, univ: int) -> Iterator[tuple[NcTree, list]]:
    """Each base tree with n edges in order, with its edge-class bitsets."""
    spans = _gap_spans(n)
    for base in enumerate_nc_trees(n + 1, bound=n + 1):
        yield base, _edge_classes(base.profile, spans, univ)


def _add(counter: list[int], masks: int, low: int = 0) -> None:
    """Add one to the bit-sliced count, whose bit 0 is ``counter[low]``, at
    every mask in the set."""
    for i in range(low, len(counter)):
        if not masks:
            return
        bits = counter[i]
        counter[i] = bits ^ masks
        masks &= bits


def _split(masks: int, counter: list[int]) -> list[int]:
    """Partition a mask set by a bit-sliced count: part v holds the masks
    where the count is v."""
    parts = [masks]
    for bits in counter:
        if bits:
            rest = ~bits
            parts = [part & rest for part in parts] + [part & bits for part in parts]
        else:
            parts += [0] * len(parts)
    return parts


def enumerate_avoiders(
    n: int, patterns: Iterable[str], bound: int = DEFAULT_EDGE_BOUND
) -> Iterator[GncTree]:
    """Yield the trees with n edges avoiding every pattern, in the
    (base, jump mask) order of ``trees.enumerate_gnc``."""
    _check_size(n, bound)
    pats = _norm_patterns(patterns)
    univ = _universe(n, False)
    for base, classes in _classified_bases(n, univ):
        kept = _kept(base.profile, classes, univ, pats)
        while kept:
            low = kept & -kept
            yield GncTree(base, jumps_from_mask(low.bit_length() - 1))
            kept ^= low


class StatCensus:
    """Exact joint (u, h, d) distribution over a class of trees with n edges.

    Entries are keyed internally by (u, d) with h = n - u - d derived.
    """

    __slots__ = ("n", "_table")

    def __init__(self, n: int, table: Mapping[tuple[int, int], int]):
        self.n = n
        self._table = {k: v for k, v in table.items() if v}

    @property
    def total(self) -> int:
        return sum(self._table.values())

    def count(self, u: int, h: int, d: int) -> int:
        if u + h + d != self.n:
            return 0
        return self._table.get((u, d), 0)

    def items(self) -> list[tuple[StatTriple, int]]:
        return [
            (StatTriple(u, self.n - u - d, d), c)
            for (u, d), c in sorted(self._table.items(), key=lambda kv: (kv[0][0], self.n - sum(kv[0]), kv[0][1]))
        ]

    def as_terms(self) -> dict[tuple[int, int, int], int]:
        """Exponent-triple form matching the series coefficient convention."""
        return {(u, self.n - u - d, d): c for (u, d), c in self._table.items()}

    def signed_by_ascents(self) -> int:
        return sum(c if u % 2 == 0 else -c for (u, d), c in self._table.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatCensus):
            return NotImplemented
        return self.n == other.n and self._table == other._table

    def __repr__(self) -> str:
        return f"StatCensus(n={self.n}, total={self.total}, classes={len(self._table)})"


def _census_shards(
    n: int, patterns: tuple[str, ...], star_only: bool, shard_count: int
) -> dict[int, dict[tuple[int, int], int]]:
    """(u, d) tables of the shards, base tree number i going to shard i mod shard_count."""
    univ = _universe(n, star_only)
    width = n.bit_length()
    # cells[s][u + d * 2^width]: kept trees of shard s with u ascents, d descents
    cells: dict[int, list[int]] = {}
    for pos, (base, classes) in enumerate(_classified_bases(n, univ)):
        kept = _kept(base.profile, classes, univ, patterns)
        count = [0] * (2 * width)
        for up, _, down in classes[1:]:
            _add(count, up)
            _add(count, down, width)
        shard = cells.setdefault(pos % shard_count, [0] * (1 << 2 * width))
        for key, part in enumerate(_split(kept, count)):
            if part:
                shard[key] += part.bit_count()
    return {
        s: {(key % (1 << width), key >> width): c for key, c in enumerate(shard) if c}
        for s, shard in cells.items()
    }


@lru_cache(maxsize=None)
def _census_cached(n: int, patterns: tuple[str, ...], star_only: bool) -> StatCensus:
    return StatCensus(n, _census_shards(n, patterns, star_only, 1)[0])


def census(
    n: int,
    patterns: Iterable[str] = (),
    star_only: bool = False,
    jobs: int = 1,
    bound: int = DEFAULT_EDGE_BOUND,
) -> StatCensus:
    """Joint statistic distribution over all trees with n edges avoiding the set.

    An empty pattern set means no filtering; ``star_only`` restricts to trees
    whose root is the only point labeled 1.  With ``jobs`` > 1 the base trees
    are split into that many stride shards whose tables are summed; the
    merge is a plain sum, so the result never depends on the shard count.
    """
    _check_size(n, bound)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    pats = _norm_patterns(patterns)
    if jobs == 1:
        return _census_cached(n, pats, star_only)
    table: dict[tuple[int, int], int] = {}
    for shard in _census_shards(n, pats, star_only, jobs).values():
        for key, cnt in shard.items():
            table[key] = table.get(key, 0) + cnt
    return StatCensus(n, table)


@lru_cache(maxsize=None)
def _occurrence_census_cached(n: int, pattern: str) -> tuple[tuple[int, int], ...]:
    univ = _universe(n, False)
    width = n.bit_length()
    out: dict[int, int] = {}
    automaton = _automaton((pattern,), False)
    for base, classes in _classified_bases(n, univ):
        hits = [0] * width
        for hit in _walk(base.profile, classes, univ, automaton):
            _add(hits, hit)
        for m, masks in enumerate(_split(univ, hits)):
            if masks:
                out[m] = out.get(m, 0) + masks.bit_count()
    return tuple(sorted(out.items()))


def occurrence_census(n: int, pattern: str, bound: int = DEFAULT_EDGE_BOUND) -> dict[int, int]:
    """For each m, the number of trees with n edges containing the pattern
    exactly m times."""
    _check_size(n, bound)
    return dict(_occurrence_census_cached(n, parse_pattern(pattern)))
