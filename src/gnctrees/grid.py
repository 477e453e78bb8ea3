"""The grid ring: a series coefficient held as its values at integer points,
and exact interpolation back to a homogeneous TriPoly.

The grid of an order is the simplex x = i, y = j, z = 1 with i + j <= order,
listed row by row in i.  A Grid is the tuple of a coefficient's values there,
and each ring operation is a map over the tuple.  A homogeneous polynomial of
degree n <= order is fixed by its values on the part of the grid with
i + j <= n (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5), so
``interpolate`` recovers it in integers.

Only ``series.interpolated_solve`` loads this module; the routes that solve
over TriPoly do not.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import factorial
from operator import add, mul, neg, sub
from typing import Iterable

from .series import Ring, TriPoly

__all__ = ["Grid", "grid_points", "grid_ring", "interpolate"]


class Grid(tuple):
    """Values at the grid points, one ring operation a map over the tuple."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return any(self)

    def __add__(self, other: "Grid") -> "Grid":
        return Grid(map(add, self, other))

    def __sub__(self, other: "Grid") -> "Grid":
        return Grid(map(sub, self, other))

    def __neg__(self) -> "Grid":
        return Grid(map(neg, self))

    def __mul__(self, other: "Grid | int") -> "Grid":
        return Grid(map(mul, self, repeat(other) if isinstance(other, int) else other))

    __rmul__ = __mul__


def _mul_sum(pairs: Iterable[tuple[Grid, Grid]]) -> Grid:
    """The sum of p * q over the pairs, point by point; there is at least one."""
    acc = None
    for p, q in pairs:
        acc = list(map(mul, p, q)) if acc is None else list(map(add, acc, map(mul, p, q)))
    return Grid(acc)


def grid_points(order: int) -> list[tuple[int, int]]:
    """The simplex grid (i, j), i + j <= order, row by row in i."""
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


@lru_cache(maxsize=4)
def grid_ring(order: int) -> Ring:
    """The ring of values at x = i, y = j, z = 1 for i + j <= order."""
    pts = grid_points(order)
    one = Grid(repeat(1, len(pts)))
    return Ring(f"grid-{order}", one * 0, one, Grid(i for i, _ in pts), Grid(j for _, j in pts), one, _mul_sum)


@lru_cache(maxsize=4)
def _stirling1(order: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind by column: [k][a] is s(a, k),
    0 <= a <= order, so that x(x-1)...(x-a+1) is the sum of s(a, k) x^k."""
    rows = [[1]]
    for a in range(order):
        prev = rows[-1] + [0]
        rows.append([(prev[k - 1] if k else 0) - a * prev[k] for k in range(a + 2)])
    return [[row[k] if k < len(row) else 0 for row in rows] for k in range(order + 1)]


def _differences(seq: list[int]) -> list[int]:
    """The forward differences of seq at its start: f(0), Δf(0), Δ²f(0), ..."""
    out = []
    while seq:
        out.append(seq[0])
        seq = list(map(sub, seq[1:], seq))
    return out


def _exact_div(v: int, d: int) -> int:
    q, r = divmod(v, d)
    if r:
        raise ArithmeticError(f"grid values are not an integer polynomial: {v} / {d}")
    return q


def interpolate(values: Grid, n: int, order: int) -> TriPoly:
    """The homogeneous degree-n TriPoly with these values on the order's grid.

    Forward differences in y and then in x at the origin give a! b! times the
    coefficient c[a][b] of the binomial basis C(x, a) C(y, b); after the exact
    division (ArithmeticError if inexact), the signed Stirling numbers of the
    first kind turn the falling factorials into powers x^k y^l, and z takes
    degree n - k - l.  Only the points with i + j <= n are read.
    """
    rows, start = [], 0  # rows[i][b]: the b-th difference in y at (i, 0)
    for i in range(n + 1):
        rows.append(_differences(values[start : start + n + 1 - i]))
        start += order + 1 - i
    fact = [factorial(k) for k in range(n + 1)]
    cols = []  # cols[b][a] = c[a][b], from the differences down column b
    for b in range(n + 1):
        diffs = _differences([row[b] for row in rows[: n + 1 - b]])
        cols.append([_exact_div(v, fact[a] * fact[b]) for a, v in enumerate(diffs)])
    s = _stirling1(order)
    d = []  # d[a][l]: the falling factorials in y turned into powers y^l
    for a in range(n + 1):
        ca = [cols[b][a] for b in range(n + 1 - a)]
        d.append([sum(map(mul, ca[l:], s[l][l:])) for l in range(n + 1 - a)])
    terms = {}
    for l in range(n + 1):  # then in x, into powers x^k
        dl = [d[a][l] for a in range(n + 1 - l)]
        for k in range(len(dl)):
            terms[k, l, n - k - l] = sum(map(mul, dl[k:], s[k][k:]))
    return TriPoly(terms)
