"""Pattern containment, avoidance filtering, and exact statistic censuses.

A pattern is a nonempty word over {u, h, d}.  A tree contains it when some
run of consecutive edges directed away from the root spells the word, i.e.
the pattern occurs as a factor of some root-to-vertex class word.  An
occurrence is identified with the run itself (a vertex plus len(pattern)
successive parent-to-child steps) and counted once, no matter how many
deeper paths extend it.  The runs ending at a vertex are the patterns that
end its root word, so a walk that carries an Aho-Corasick state (Aho &
Corasick, CACM 1975) from each parent to its children finds every
occurrence.

The walk is mask-parallel.  The 2^n trees over one base tree differ only in
their jump mask, and the class of an edge is a function of the mask: edge
p -> v with v > p is an ascent exactly for the masks with a jump in gaps
p+1..v, and a level for the rest; with v < p it is a descent exactly for
the masks with a jump in gaps v+1..p.  A set of masks is a Python int used
as a bitset (bit m for mask m), so each edge class is one bitset and the
walk keeps, per vertex and automaton state, the masks whose root word leads
there.  A single tree is the same walk with one state per vertex.

The walk is also prefix-shared.  Censuses never build a base tree: one
depth-first search grows every non-crossing tree on points 0..n from the
root 0, one edge at a time.  A pending task is a vertex r that still needs
children on an interval lo..hi not containing r.  Its children's subtrees
fill consecutive spans of the interval, so the task picks its first span
lo..e and the child c in it, emits the edge r -> c, and leaves three tasks:
c's children on lo..c-1 and on c+1..e, and r's on e+1..hi.  Every tree
comes out exactly once, and each edge step (class bitsets, automaton
transition, hits, statistic split) runs once for all completions of the
partial tree that ends in it.  An avoidance search drops a branch as soon
as no mask is left, so sparse classes cost little more than their survivors.

Censuses aggregate the (ascents, levels, descents) statistic over a tree
class exactly; they are the brute-force oracle every generating function and
closed form is checked against.  Each partial tree keeps its masks split by
the ascents and descents they have so far, and each edge but the last
refines that split once.  A complete tree is counted at its last edge: the
census applies that edge's split while it counts the masks, so no parts
dict is built per tree, and the edges are a linked list shared with the
partial trees, not a tuple copied at every edge.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .trees import (
    DEFAULT_EDGE_BOUND,
    GncTree,
    NcTree,
    StatTriple,
    check_size,
    jumps_from_mask,
)

PATTERN_ALPHABET = frozenset("uhd")
# column order of automaton rows and of per-edge class bitsets
_CLASS_ORDER = "uhd"

__all__ = [
    "parse_pattern",
    "parse_pattern_set",
    "count_occurrences",
    "avoids",
    "enumerate_avoiders",
    "StatCensus",
    "census",
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


def _norm_patterns(patterns: Iterable[str]) -> tuple[str, ...]:
    """The avoid set, sorted, without the words that filter nothing: those
    with another word of the set as a factor."""
    if isinstance(patterns, str):
        # iterating a str would read "uu" as the set {u}
        raise TypeError(
            f"a pattern set is an iterable of words, not the str {patterns!r}; "
            "parse_pattern_set reads comma-separated text"
        )
    words = {parse_pattern(p) for p in patterns}
    return tuple(sorted(w for w in words if not any(v != w and v in w for v in words)))


_Automaton = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


@lru_cache(maxsize=256)
def _automaton(patterns: tuple[str, ...], stop_at_match: bool) -> _Automaton:
    """Aho-Corasick automaton of a pattern set over the edge classes.

    Returns the transition rows, indexed by state and then by class in
    _CLASS_ORDER, and the accepting states: those whose word ends in a
    pattern.  State 0 is the empty word.  With ``stop_at_match`` an
    accepting state has no transitions, so the census walk drops the masks
    that reach it; avoidance needs only the first match.
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


def _tree_hits(tree: GncTree, patterns: tuple[str, ...]) -> Iterator[bool]:
    """The walk along one tree's preorder: per non-root vertex, whether its
    root word ends in a pattern."""
    rows, accepting = _automaton(patterns, False)
    labels = tree.labels
    prof = tree.profile
    state = [0] * len(labels)
    for v in prof.preorder[1:]:
        p = prof.parents[v]
        step = labels[v] - labels[p]
        state[v] = s = rows[state[p]][0 if step > 0 else 1 if step == 0 else 2]
        yield s in accepting


def count_occurrences(tree: GncTree, pattern: str) -> int:
    """Number of downward runs of consecutive edges spelling the pattern."""
    return sum(_tree_hits(tree, (parse_pattern(pattern),)))


def avoids(tree: GncTree, patterns: Iterable[str]) -> bool:
    """True iff no pattern in the set occurs anywhere in the tree."""
    pats = _norm_patterns(patterns)
    if not pats:
        raise ValueError("avoids requires a nonempty pattern set")
    return not any(_tree_hits(tree, pats))


@lru_cache(maxsize=32)
def _class_table(n: int, star_only: bool) -> tuple[int, list[list[tuple[int, int, int]]]]:
    """The mask universe and, for points r != c, the (u, h, d) bitsets of
    the edge r -> c over it.

    The universe is every jump mask, or with ``star_only`` the masks with
    gap 1 a jump (every mask at n = 0).  Gap k+1 is bit k of a mask.
    """
    univ = (1 << (1 << n)) - 1
    if star_only and n:
        univ = sum(1 << m for m in range(1, 1 << n, 2))
    no_jump = [sum(1 << m for m in range(1 << n) if not m >> k & 1) for k in range(n)]
    table = [[(0, 0, 0)] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        quiet = univ
        for b in range(a + 1, n + 1):
            # masks with no jump in gaps a+1..b: the edge between a and b is level
            quiet &= no_jump[b - 1]
            jump = univ ^ quiet
            table[a][b] = (jump, quiet, 0)
            table[b][a] = (0, quiet, jump)
    return univ, table


_Leaf = tuple[tuple | None, int, dict[int, int], int, int]


def _grow(n: int, patterns: tuple[str, ...], star_only: bool) -> Iterator[_Leaf]:
    """Depth-first over the partial non-crossing trees with n edges that
    avoid the patterns.

    Yields ``(edges, kept, parts, jump, shift)`` for every complete tree
    that keeps a mask, at its last edge: its edges as a shared linked list
    ((low, high), rest) ending in None, the kept masks, the masks split by
    statistic before the last edge, {u + (n + 1) d: the masks with u ascents
    and d descents}, nonempty parts that may hold masks no longer kept, and
    the last edge's split, which moves the masks in ``jump`` to key +
    ``shift``.  The masks that match a pattern leave the kept set, and a
    branch with none left is dropped.  A parts dict is shared between the
    partial trees grown from it and is never changed.
    """
    univ, table = _class_table(n, star_only)
    if not n:
        yield None, univ, {0: univ}, 0, 0
        return
    rows, accepting = _automaton(patterns, True)
    # pending tasks (r, lo, hi, live states at r) form a linked list of
    # pairs shared between the partial trees that still need them
    live0 = {0: univ} if patterns else {}
    stack: list = [(((0, 1, n, live0), None), univ, {0: univ}, None)]
    while stack:
        ((r, lo, hi, live), rest), kept, parts, edges = stack.pop()
        for c in range(lo, hi + 1):
            up, level, down = table[r][c]
            here, hit = live, 0
            if live:
                # the class-word walk along r -> c: the live {state: masks}
                # at c, and the masks whose root word reaches a match there
                here = {}
                for s, masks in live.items():
                    row = rows[s]
                    # an accepting state of the stop-at-match automaton has no row
                    if not row:
                        continue
                    masks &= kept
                    if m := masks & up:
                        here[row[0]] = here.get(row[0], 0) | m
                    if m := masks & level:
                        here[row[1]] = here.get(row[1], 0) | m
                    if m := masks & down:
                        here[row[2]] = here.get(row[2], 0) | m
                for s in accepting:
                    hit |= here.get(s, 0)
            left = kept ^ hit
            if not left:
                continue
            # an upward edge (r < c) is an ascent or a level, a downward one
            # a descent or a level
            jump, shift = (up, 1) if r < c else (down, n + 1)
            edge = ((r, c) if r < c else (c, r), edges)
            below = ((c, lo, c - 1, here), rest) if c > lo else rest
            if below is None and c == hi:
                yield edge, left, parts, jump, shift
                continue
            split: dict[int, int] = {}
            get = split.get
            for key, masks in parts.items():
                if hit:
                    masks &= left
                j = masks & jump
                if j:
                    split[key + shift] = get(key + shift, 0) | j
                    masks ^= j
                if masks:
                    split[key] = get(key, 0) | masks
            # c's subtree fills the span lo..e
            for e in range(c, hi + 1):
                nxt = ((r, e + 1, hi, live), below) if e < hi else below
                if e > c:
                    nxt = ((c, c + 1, e, here), nxt)
                stack.append((nxt, left, split, edge))


def enumerate_avoiders(
    n: int, patterns: Iterable[str], bound: int = DEFAULT_EDGE_BOUND
) -> Iterator[GncTree]:
    """Yield the trees with n edges avoiding every pattern, in the
    (base, jump mask) order of ``trees.enumerate_gnc``."""
    check_size(n, bound)
    found = []
    for edges, kept, *_ in _grow(n, _norm_patterns(patterns), False):
        pairs = []
        while edges:
            edge, edges = edges
            pairs.append(edge)
        found.append((tuple(sorted(pairs)), kept))
    found.sort()
    for edges, kept in found:
        base = NcTree(n + 1, frozenset(edges))
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


@lru_cache(maxsize=256)
def _census_cached(n: int, patterns: tuple[str, ...], star_only: bool) -> StatCensus:
    # indexed by u + (n + 1) d; each tree's last edge splits its parts here,
    # as they are counted
    counts = [0] * (n + 1) ** 2
    for _, kept, parts, jump, shift in _grow(n, patterns, star_only):
        for key, masks in parts.items():
            masks &= kept
            j = (masks & jump).bit_count()
            counts[key + shift] += j
            counts[key] += masks.bit_count() - j
    return StatCensus(n, {(key % (n + 1), key // (n + 1)): c for key, c in enumerate(counts)})


def census(
    n: int,
    patterns: Iterable[str] = (),
    star_only: bool = False,
    bound: int = DEFAULT_EDGE_BOUND,
) -> StatCensus:
    """Joint statistic distribution over all trees with n edges avoiding the set.

    An empty pattern set means no filtering; ``star_only`` restricts to trees
    whose root is the only point labeled 1.
    """
    check_size(n, bound)
    return _census_cached(n, _norm_patterns(patterns), star_only)

