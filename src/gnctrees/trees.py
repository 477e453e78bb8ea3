"""Non-crossing trees on a circle and their label-augmented generalization.

A non-crossing tree lives on points 0..p-1 placed counterclockwise on a
circle: a spanning tree whose edges, drawn as chords, never cross in the
interior.  The generalized variant adds a set of "jump" gaps taken from
{1, .., n} for a tree on n + 1 points; the label of position k is one plus
the number of jumps at or before k.  Labels therefore increase weakly around
the circle, cover a contiguous range starting at 1, and position 0 (the
first point labeled 1) is the root.

Orienting every edge away from the root classifies it by the parent and
child labels: an ascent (parent < child), a level (equal), or a descent
(parent > child).  The word spelled by the classes along a root-to-vertex
path is the object pattern matching works on.

Trees are immutable values.  ``NcTree`` and ``GncTree`` are named tuples,
not dataclasses, so that the commands that only count trees (``census``,
``count --method brute``) load neither ``dataclasses`` nor ``inspect``; a
tree therefore equals the bare tuple of its fields.  Enumeration is
deterministic: non-crossing trees come out in lexicographic order of their
sorted edge list, and the generalized trees in (edge list, jump bitmask)
order.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

ASCENT = "u"
LEVEL = "h"
DESCENT = "d"

# the brute-force ceiling, in edges, of every enumeration and census
DEFAULT_EDGE_BOUND = 8


class BoundExceededError(RuntimeError):
    """Requested enumeration size exceeds the configured resource bound."""


def check_size(n: int, bound: int) -> None:
    """Reject a size n outside 0..bound before any enumeration starts."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > bound:
        raise BoundExceededError(f"n={n} exceeds bound {bound}")


class StatTriple(NamedTuple):
    """Counts of ascents, levels, and descents of one tree."""

    u: int
    h: int
    d: int


def _norm_edge(edge: Iterable[int]) -> tuple[int, int]:
    a, b = edge
    return (a, b) if a < b else (b, a)


def crossing(e1: Iterable[int], e2: Iterable[int]) -> bool:
    """True iff the two chords strictly interleave on the circle.

    Edges sharing an endpoint never cross.
    """
    a, b = _norm_edge(e1)
    c, d = _norm_edge(e2)
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b < d) or (c < a < d < b)


def _immutable(tree: object, name: str, value: object) -> None:
    """``__setattr__`` of the tree classes: they keep an instance dict, for
    ``cached_property`` to fill, but no attribute can be set."""
    raise AttributeError(f"{type(tree).__name__} is immutable: cannot set {name!r}")


class NcTree(NamedTuple("NcTree", [("points", int), ("edges", frozenset[tuple[int, int]])])):
    """Spanning tree on circularly ordered points with non-crossing chords."""

    __setattr__ = _immutable

    @staticmethod
    def of(points: int, edges: Iterable[Iterable[int]]) -> "NcTree":
        return NcTree(points, frozenset(_norm_edge(e) for e in edges))

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def profile(self) -> "BaseProfile":
        """Rooted structure, computed once and shared by every jump set."""
        return base_profile(self)


class GncTree(NamedTuple("GncTree", [("base", NcTree), ("jumps", frozenset[int])])):
    """A non-crossing tree plus the jump set that determines its labels.

    Storing (base, jumps) makes the 2^n bar construction the literal data
    model; labels and the rooted orientation are derived on demand.  The
    constructor checks nothing: ``make_gnc`` checks every invariant.
    """

    __setattr__ = _immutable

    @property
    def n(self) -> int:
        return self.base.points - 1

    @cached_property
    def labels(self) -> tuple[int, ...]:
        jumps = self.jumps
        out = []
        lab = 1
        for k in range(self.base.points):
            if k in jumps:
                lab += 1
            out.append(lab)
        return tuple(out)

    @property
    def profile(self) -> "BaseProfile":
        return self.base.profile


class BaseProfile(NamedTuple):
    """Rooted structure of a spanning tree, shared across all jump sets.

    ``preorder`` visits children in increasing position order starting at
    the root 0; ``parents[0]`` is -1.
    """

    parents: tuple[int, ...]
    preorder: tuple[int, ...]
    depths: tuple[int, ...]


def base_profile(base: NcTree) -> BaseProfile:
    p = base.points
    adj: list[list[int]] = [[] for _ in range(p)]
    # sorted edges fill every adjacency list in increasing order: the
    # neighbours below a point arrive before the ones above it
    for a, b in base.sorted_edges:
        adj[a].append(b)
        adj[b].append(a)
    parents = [-1] * p
    depths = [0] * p
    preorder: list[int] = []
    seen = [False] * p
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        preorder.append(v)
        kids = [w for w in adj[v] if not seen[w]]
        for w in kids:
            seen[w] = True
            parents[w] = v
            depths[w] = depths[v] + 1
        stack.extend(reversed(kids))
    if len(preorder) != p:
        raise ValueError("edge set is not connected")
    if len(base.edges) != p - 1:
        raise ValueError("edge set is not spanning")
    return BaseProfile(tuple(parents), tuple(preorder), tuple(depths))


def make_gnc(base: NcTree, jumps: Iterable[int]) -> GncTree:
    """Build a generalized tree, raising ValueError naming each problem ``validate`` finds."""
    tree = GncTree(base, frozenset(jumps))
    problems = validate(tree)
    if problems:
        raise ValueError("invalid tree: " + "; ".join(problems))
    return tree


def classify(tree: GncTree) -> tuple[dict[tuple[int, int], str], StatTriple]:
    """Per-edge class, oriented away from the root, plus the stat triple."""
    prof = tree.profile
    labels = tree.labels
    classes: dict[tuple[int, int], str] = {}
    u = h = d = 0
    for v in prof.preorder[1:]:
        par = prof.parents[v]
        lp, lc = labels[par], labels[v]
        if lp < lc:
            cls = ASCENT
            u += 1
        elif lp == lc:
            cls = LEVEL
            h += 1
        else:
            cls = DESCENT
            d += 1
        classes[(par, v)] = cls
    return classes, StatTriple(u, h, d)


def path_word(tree: GncTree, v: int) -> str:
    """Edge-class word read from the root down to vertex v (empty at the root)."""
    prof = tree.profile
    labels = tree.labels
    if not 0 <= v < tree.base.points:
        raise ValueError(f"vertex {v} out of range")
    word = []
    while v != 0:
        par = prof.parents[v]
        lp, lc = labels[par], labels[v]
        word.append(ASCENT if lp < lc else LEVEL if lp == lc else DESCENT)
        v = par
    return "".join(reversed(word))


def _crossing_pair(edges: Iterable[Iterable[int]]) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Two crossing edges, or None when no two edges cross, in O(E log E).

    Scanned as intervals by left end, the longest first, the edges still open
    form a chain of nested intervals; an edge crosses some open edge iff it
    crosses the innermost one that ends after its left end.
    """
    open_edges: list[tuple[int, int]] = []
    for a, b in sorted(map(_norm_edge, edges), key=lambda e: (e[0], -e[1])):
        while open_edges and open_edges[-1][1] <= a:
            open_edges.pop()
        if open_edges and crossing(open_edges[-1], (a, b)):
            return open_edges[-1], (a, b)
        open_edges.append((a, b))
    return None


def validate(tree: GncTree) -> list[str]:
    """Return the list of violated invariants (empty iff the tree is valid)."""
    problems: list[str] = []
    base = tree.base
    p = base.points
    if p < 1:
        return [f"point count {p} < 1"]
    edges = list(base.edges)
    for a, b in edges:
        if not (0 <= a < p and 0 <= b < p):
            problems.append(f"edge ({a},{b}) endpoint out of range")
        if a == b:
            problems.append(f"edge ({a},{b}) is a loop")
    if len(edges) != p - 1:
        problems.append(f"{len(edges)} edges, expected {p - 1}")
    pair = _crossing_pair(edges)
    if pair is not None:
        problems.append(f"edges {pair[0]} and {pair[1]} cross")
    # union-find over the endpoints only, so that a huge point count read
    # from tree JSON builds nothing per point: connected iff p - 1 edges join
    comp: dict[int, int] = {}

    def find(x: int) -> int:
        while comp.get(x, x) != x:
            comp[x] = comp.get(comp[x], comp[x])
            x = comp[x]
        return x

    joins = 0
    for a, b in edges:
        if 0 <= a < p and 0 <= b < p:
            ra, rb = find(a), find(b)
            if ra != rb:
                comp[ra] = rb
                joins += 1
    if joins != p - 1:
        problems.append("edge set is not connected")
    # labels are computed from the jumps: with each jump in 1..n the root's is 1
    for j in tree.jumps:
        if not 1 <= j <= p - 1:
            problems.append(f"jump {j} outside 1..{p - 1}")
    return problems


def enumerate_nc_trees(points: int, bound: int = DEFAULT_EDGE_BOUND + 1) -> Iterator[NcTree]:
    """Yield every non-crossing tree on the given points exactly once.

    Backtracking over chords in lexicographic order, growing a non-crossing
    forest; candidates that cross a chosen chord or close a cycle are skipped
    and prefixes that cannot reach a spanning tree are cut.  Output order is
    lexicographic on the sorted edge list.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    if points > bound:
        raise BoundExceededError(f"{points} points exceeds bound {bound}")
    if points == 1:
        yield NcTree(1, frozenset())
        return
    chords = [(a, b) for a in range(points) for b in range(a + 1, points)]
    m = len(chords)
    conflicts = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if crossing(chords[i], chords[j]):
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i

    chosen: list[tuple[int, int]] = []

    def extend(start: int, comp: list[int], allowed: int, need: int) -> Iterator[NcTree]:
        if need == 0:
            yield NcTree(points, frozenset(chosen))
            return
        j = start
        while m - j >= need:
            if (allowed >> j) & 1:
                a, b = chords[j]
                ca, cb = comp[a], comp[b]
                if ca != cb:
                    merged = [ca if c == cb else c for c in comp]
                    chosen.append(chords[j])
                    yield from extend(j + 1, merged, allowed & ~conflicts[j], need - 1)
                    chosen.pop()
            j += 1

    yield from extend(0, list(range(points)), (1 << m) - 1, points - 1)


def jumps_from_mask(mask: int) -> frozenset[int]:
    """Bit j-1 of the mask encodes membership of gap j."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return frozenset(out)


def enumerate_gnc(n: int, bound: int = DEFAULT_EDGE_BOUND) -> Iterator[GncTree]:
    """Yield every rooted generalized non-crossing tree with n edges once.

    Cartesian product of the non-crossing trees on n + 1 points with all 2^n
    jump subsets, in canonical (base, jump mask) order: the 2^n trees over
    one base tree come out consecutively.
    """
    check_size(n, bound)
    for base in enumerate_nc_trees(n + 1, bound=bound + 1):
        for mask in range(1 << n):
            yield GncTree(base, jumps_from_mask(mask))


def enumerate_gnc_star(n: int, bound: int = DEFAULT_EDGE_BOUND) -> Iterator[GncTree]:
    """Yield the trees whose root is the only point labeled 1.

    Equivalent to requiring gap 1 to be a jump (every tree qualifies at
    n = 0).
    """
    for tree in enumerate_gnc(n, bound=bound):
        if n == 0 or 1 in tree.jumps:
            yield tree


def tree_to_json(tree: GncTree) -> dict:
    """Interchange form; labels are emitted for readability only."""
    return {
        "n": tree.n,
        "edges": [list(e) for e in tree.base.sorted_edges],
        "jumps": sorted(tree.jumps),
        "labels": list(tree.labels),
    }


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def tree_from_json(data: dict | str) -> GncTree:
    """Parse the interchange form, recomputing labels from the jump set.

    Raises ValueError naming the first malformed field, or every violated
    invariant of the parsed tree and every repeated edge or jump.
    """
    if isinstance(data, str):
        import json

        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"tree JSON: expected an object with n, edges and jumps, got {type(data).__name__}")
    for field in ("n", "edges", "jumps"):
        if field not in data:
            raise ValueError(f"tree JSON: missing field {field!r}")
    n, edges, jumps = data["n"], data["edges"], data["jumps"]
    if not _is_int(n):
        raise ValueError("tree JSON: n must be an integer")
    if n < 0:
        raise ValueError("tree JSON: n must be a nonnegative integer")
    pairs = (list, tuple)
    if not isinstance(edges, pairs) or not all(
        isinstance(e, pairs) and len(e) == 2 and all(map(_is_int, e)) for e in edges
    ):
        raise ValueError("tree JSON: edges must be a list of integer pairs")
    if not isinstance(jumps, pairs) or not all(map(_is_int, jumps)):
        raise ValueError("tree JSON: jumps must be a list of integers")
    # a set merges a repeated edge or jump, so only the list shows one
    counts = Counter(map(_norm_edge, edges))
    problems = [f"edge ({a},{b}) is repeated" for (a, b), k in counts.items() if k > 1]
    problems += [f"jump {j} is repeated" for j, k in Counter(jumps).items() if k > 1]
    tree = GncTree(NcTree(n + 1, frozenset(counts)), frozenset(jumps))
    problems += validate(tree)
    if problems:
        raise ValueError("invalid tree: " + "; ".join(problems))
    return tree
