"""Little Schroeder paths, big-step nonnegative paths, and the encoding of
increasing generalized non-crossing trees as Schroeder paths.

A little Schroeder path of length 2n runs from (0,0) to (2n,0) with unit up
steps, unit down steps, and two-unit flat steps that never touch the x-axis.
Here a flat is one step object of width two, so lengths stay explicit and
the two halves of a flat can never be separated by malformed input.

The encoding applies to trees avoiding both levels and descents (every edge
an ascent).  For those trees every edge goes from a smaller position to a
larger one, and depth-first preorder with children in increasing position
order visits positions 0, 1, .., n in order.  Reading the traversal, an edge
emits an up step when first entered and a down step when left; whenever a
down step is immediately followed by an up step into a point whose gap is
not a jump (its label equals the label of the circularly preceding point),
that down-up pair fuses into one flat.  First children force their gap to be
a jump (otherwise the edge would be a level), while later siblings leave the
gap free, which is exactly the freedom the flats record; this makes the map
a bijection onto the little Schroeder paths.

A second encoder implements the fusing rule keyed on equal label pairs of
consecutive readings instead.  That rule is not injective (two trees with 4
points share a word); it ships as a diagnostic so the discrepancy between
the two readings stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .trees import DEFAULT_EDGE_BOUND, GncTree, NcTree, check_size

__all__ = [
    "SchroderPath",
    "enumerate_schroder",
    "encode_tree",
    "decode_path",
    "encode_tree_literal",
    "CokerPath",
    "enumerate_coker",
    "coker_count",
]


@dataclass(frozen=True)
class SchroderPath:
    """Step sequence over 'U', 'D', 'F' (F = one flat pair of width two)."""

    steps: tuple[str, ...]

    def __post_init__(self):
        height = 0
        for s in self.steps:
            if s == "U":
                height += 1
            elif s == "D":
                height -= 1
                if height < 0:
                    raise ValueError("path dips below the axis")
            elif s == "F":
                if height < 1:
                    raise ValueError("flat step at ground level")
            else:
                raise ValueError(f"unknown step {s!r}")
        if height != 0:
            raise ValueError("path does not return to the axis")

    @property
    def n(self) -> int:
        length = sum(2 if s == "F" else 1 for s in self.steps)
        return length // 2

    def as_text(self) -> str:
        return "".join(self.steps)

    @staticmethod
    def from_text(text: str) -> "SchroderPath":
        return SchroderPath(tuple(text))

    def __str__(self) -> str:
        return self.as_text()


def enumerate_schroder(n: int, bound: int = DEFAULT_EDGE_BOUND) -> Iterator[SchroderPath]:
    """All little Schroeder paths of length 2n, in U < F < D branching order."""
    check_size(n, bound)

    acc: list[str] = []

    def extend(remaining: int, height: int) -> Iterator[SchroderPath]:
        if remaining == 0:
            yield SchroderPath(tuple(acc))
            return
        if height + 1 <= remaining - 1:
            acc.append("U")
            yield from extend(remaining - 1, height + 1)
            acc.pop()
        if height >= 1 and height <= remaining - 2:
            acc.append("F")
            yield from extend(remaining - 2, height)
            acc.pop()
        if height >= 1:
            acc.append("D")
            yield from extend(remaining - 1, height - 1)
            acc.pop()

    yield from extend(2 * n, 0)


def _tour(tree: GncTree) -> Iterator[tuple[int, bool]]:
    """Depth-first tour from the root without recursion, children in
    increasing position order: (v, True) on entering the edge to v, and
    (v, False) on leaving it."""
    prof = tree.profile
    path: list[int] = []  # the vertices entered and not yet left
    for v in prof.preorder[1:]:
        while len(path) >= prof.depths[v]:
            yield path.pop(), False
        path.append(v)
        yield v, True
    while path:
        yield path.pop(), False


def _check_all_ascents(tree: GncTree) -> None:
    """Reject a tree unless every edge is an ascent: each child's label
    exceeds its parent's."""
    labels = tree.labels
    parents = tree.profile.parents
    if any(labels[parents[v]] >= labels[v] for v in range(1, len(labels))):
        raise ValueError("tree contains a level or descent edge")


def encode_tree(tree: GncTree) -> SchroderPath:
    """Encode a {h, d}-avoiding tree as a little Schroeder path.

    Preorder with children in increasing position order; up on first reading,
    down on second, and a down immediately followed by an up into a non-jump
    gap fuses into one flat.
    """
    _check_all_ascents(tree)
    jumps = tree.jumps
    steps: list[str] = []
    for v, entering in _tour(tree):
        if not entering:
            steps.append("D")
        elif v not in jumps and steps and steps[-1] == "D":
            steps[-1] = "F"
        else:
            steps.append("U")
    return SchroderPath(tuple(steps))


def decode_path(path: SchroderPath) -> GncTree:
    """Rebuild the tree a path encodes; inverse of encode_tree.

    Up attaches the next position as a child of the current point with its
    gap a jump and descends; down ascends; a flat ascends and then attaches
    the next position with its gap not a jump.
    """
    edges: list[tuple[int, int]] = []
    jumps: set[int] = set()
    stack = [0]
    next_pos = 1
    for s in path.steps:
        if s == "U":
            edges.append((stack[-1], next_pos))
            jumps.add(next_pos)
            stack.append(next_pos)
            next_pos += 1
        elif s == "D":
            stack.pop()
        else:  # F: ascend, then attach without a jump
            stack.pop()
            edges.append((stack[-1], next_pos))
            stack.append(next_pos)
            next_pos += 1
    # a path's tree is valid by construction, so make_gnc's checks are skipped
    return GncTree(NcTree.of(next_pos, edges), frozenset(jumps))


def encode_tree_literal(tree: GncTree) -> tuple[str, ...]:
    """Diagnostic encoder fusing on equal label pairs of adjacent readings.

    An edge read the second time becomes 'HL' when the immediately following
    reading is a first read of an ascent with the same (parent label, child
    label) pair, which becomes 'HR'; otherwise second reads are 'D' and first
    reads 'U'.  Not injective: trees can collide on the same word.
    """
    _check_all_ascents(tree)
    prof = tree.profile
    labels = tree.labels
    # (label pair, is_first_read)
    readings = [((labels[prof.parents[v]], labels[v]), first) for v, first in _tour(tree)]
    tokens: list[str] = []
    i = 0
    while i < len(readings):
        pair, first = readings[i]
        if not first and i + 1 < len(readings):
            nxt_pair, nxt_first = readings[i + 1]
            if nxt_first and nxt_pair == pair:
                tokens.append("HL")
                tokens.append("HR")
                i += 2
                continue
        tokens.append("U" if first else "D")
        i += 1
    return tuple(tokens)


CokerPath = tuple[int, ...]
"""Signed step list: entry +k or -k is a step (k, +k) or (k, -k)."""


def enumerate_coker(n: int, bound: int = DEFAULT_EDGE_BOUND) -> Iterator[CokerPath]:
    """All nonnegative paths from (0,0) to (2n,0) with steps (k, +-k), k >= 1."""
    check_size(n, bound)

    acc: list[int] = []

    def extend(remaining: int, height: int) -> Iterator[CokerPath]:
        if remaining == 0:
            yield tuple(acc)
            return
        # an up of size k must leave room to come back down
        for k in range(1, (remaining - height) // 2 + 1):
            acc.append(k)
            yield from extend(remaining - k, height + k)
            acc.pop()
        for k in range(1, min(height, remaining) + 1):
            acc.append(-k)
            yield from extend(remaining - k, height - k)
            acc.pop()

    yield from extend(2 * n, 0)


def coker_count(n: int, bound: int = DEFAULT_EDGE_BOUND) -> int:
    """The number of paths enumerate_coker(n) lists, counted without listing.

    ways[r][h] counts the completions from height h with r columns left, by
    the same choice of steps as enumerate_coker: an up of size k while
    h + 2k <= r, a down of size k <= h.  O(n^3) integer additions;
    enumerate_coker is the oracle the count is tested against.
    """
    check_size(n, bound)
    ways = [[1]]  # ways[r][h] for 0 <= h <= r; only h = r (mod 2) can finish
    for r in range(1, 2 * n + 1):
        row = []
        for h in range(r + 1):
            ups = sum(ways[r - k][h + k] for k in range(1, (r - h) // 2 + 1))
            row.append(ups + sum(ways[r - k][h - k] for k in range(1, h + 1)))
        ways.append(row)
    return ways[2 * n][0]
