"""Exact truncated power series in t with integer polynomial coefficients.

The series tracked here have [t^n] equal to a polynomial in three marking
variables: x marks ascents, y levels, z descents, while t marks the edge
count.  Every functional equation satisfied by these series has each
non-constant right-hand term carrying an explicit factor of t, so the
equation is a t-adic contraction and is solved degree by degree with plain
integer arithmetic; the radical closed forms are never touched, and the
identities stated through square roots are verified instead through series
reciprocals and composition with the Catalan series (the unique solution of
c = 1 + f * c^2 for arguments with zero constant term).

There is one series class, TriSeries, and it is lazy: [t^n] of a series
is computed on first read, from lower coefficients of its operands, and
memoized, so each coefficient of each series is computed once, and one that
is never read is never computed; a square forms each product of two
distinct terms once.  Each system is written once, as a ``step`` from its
unknowns to their right-hand sides.  The solver calls that step online,
on unknowns that read their own right-hand sides, and then a second time,
on the solution: per unknown, the certificate says whether it is its own
image.  A solve is kept with its certificate, once per (system, order, ring);
``defining_checks`` reports each certificate, every public read refuses a
failed one, and a step reads the systems it builds on uncertified, so each
defining record speaks for its own system alone.

The engine is generic in its coefficient ring: series, solver and steps take
their zero, one, marks x, y, z and sum-of-products kernel from one Ring.
TRI has TriPoly coefficients; a point ring (see below) and the packed ring
of an order have plain int coefficients.  A sum or product of a TRI series
and an int one raises ValueError as it is built; int rings may meet, as the
identities compare numbers across points, keeping the left ring's marks,
which no reader uses.  A packed coefficient is a polynomial evaluated at
x = 2^(k (order + 1)), y = 2^k, z = 1; its base-2^k digits are its coefficients.
Every [t^n] of a solved series is homogeneous of degree n, and its
coefficients count trees with n <= order edges, so each is at most
gnc_total(order); k is one bit wider than that count (53 bits at order 16),
and the top bit of each digit is a guard.  So ``packed_solve`` solves a
system once in the packed ring, with the same certificate, and reads each
[t^n] back from its digits.  That is the route ``series`` prints, and it
is faster than the TriPoly dict convolution.  ``verify``, ``count --method
series`` and ``avoider_counts`` keep TRI: a polynomial read from digits is
homogeneous by construction, so only a trivariate solve can show that
homogeneity holds.
``verify`` solves each system in TRI once, at its order; its prefix
stability check reads order - 1 from the packed ring, a second computation
with its own certificate.

A TriPoly is one dict from a packed monomial key to its coefficient: the
exponents of x, y and z sit in fixed-width fields of one int, so a product
monomial's key is the sum of its factors' keys, and a product with one term,
such as a mark x, y or z, adds that term's key to every key.  Each exponent
is at most EXPONENT_LIMIT (511); one past it, given or made by a product,
raises ValueError rather than carry into the next field.  ``TriPoly.terms`` is the
tuple-keyed view {(a, b, c): coefficient}, decoded when it is read.

Coupled systems whose second unknown is the x-z swap of the first are solved
with the swapped series as an independent second unknown, which keeps the
right-hand sides polynomial; the swap relation is then a checkable fact, not
an assumption.  Each coupled unknown X has a Row beside its Member in
SYSTEMS, which one builder, _coupled_step, reads: the right-hand side is
open, L(X) + m K(X, Y) X, or closed, (1 + m K(X, Y)) L(X), with L(X) = 1 +
y t W^2 X, K(X, Y) = 2XY - W^2, W the level-only series, Y another unknown
or L of one, and m = x t for a counted member or z t for its swap.  A star
system's gate is read from the row of the unstarred member of its class.

There is one series algebra.  A univariate specialization is a point-ring
series: each coefficient evaluated at the point, as a TriSeries over
``point_ring(x, y, z)``, whose marks are the point's values.  The identities
at numeric points use on it the same operators, reciprocal and Catalan
composition as the trivariate ones, and multiply ints.  ``substitute`` keeps
TriPoly coefficients, for partial substitutions such as y = 0.  In every
ring, [t^n] of a product forces each factor to the last index it reads, then
pairs slices of the two factors' memo lists in one kernel call, rather than
reading each term through the lazy lookup.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import starmap
from operator import mul, or_
from typing import Callable, Iterable, NamedTuple, Sequence

from .combinat import gnc_total

__all__ = [
    "TriPoly",
    "EXPONENT_LIMIT",
    "TriSeries",
    "P_ONE",
    "P_X",
    "P_Y",
    "P_Z",
    "Ring",
    "TRI",
    "tri_const",
    "point_ring",
    "invert",
    "catalan_compose",
    "solve_ternary_gf",
    "solve_master",
    "solve_star",
    "solve_uu_dd",
    "solve_ud_du",
    "solve_uudd",
    "solve_star_pattern",
    "Row",
    "Member",
    "System",
    "SYSTEMS",
    "avoider_counts",
    "packed_solve",
    "coeff",
    "eval_numeric",
    "render_series",
    "series_terms",
    "IdentityCheck",
    "defining_checks",
    "verify_identities",
]


# A monomial x^a y^b z^c is packed into one int with a field of _BITS bits per
# exponent, a in the high field.  The top bit of each field is a guard: an
# exponent is at most EXPONENT_LIMIT = 2^(_BITS - 1) - 1, so adding two packed
# keys adds the exponents and can never carry into the next field; an
# exponent sum past the limit sets its field's guard bit instead.  Keys sort
# as their (a, b, c) tuples do.
_BITS = 10
EXPONENT_LIMIT = (1 << (_BITS - 1)) - 1
_FIELD = (1 << _BITS) - 1
_GUARD = sum(1 << (_BITS - 1) << shift for shift in (0, _BITS, 2 * _BITS))


def _pack(a: int, b: int, c: int) -> int:
    if not (0 <= a <= EXPONENT_LIMIT and 0 <= b <= EXPONENT_LIMIT and 0 <= c <= EXPONENT_LIMIT):
        raise ValueError(f"exponent of x^{a} y^{b} z^{c} outside 0..{EXPONENT_LIMIT}")
    return a << 2 * _BITS | b << _BITS | c


def _unpack(k: int) -> tuple[int, int, int]:
    return k >> 2 * _BITS, k >> _BITS & _FIELD, k & _FIELD


class TriPoly:
    """Polynomial in x, y, z with integer coefficients, stored sparsely.

    It is one dict from the packed key of each monomial (see _pack) to its
    nonzero coefficient; each exponent is at most EXPONENT_LIMIT, and a
    larger one, given or made by a product, raises ValueError.  ``terms`` is
    the tuple-keyed view {(a, b, c): coefficient}, decoded when read, and the
    constructor takes that form.
    """

    __slots__ = ("_packed",)

    def __init__(self, terms: dict[tuple[int, int, int], int] | None = None):
        self._packed = {_pack(*k): v for k, v in (terms or {}).items() if v}

    @classmethod
    def _of(cls, packed: dict[int, int]) -> "TriPoly":
        """The polynomial of a packed dict that no one else holds: it takes
        the dict and deletes its zero coefficients in place."""
        if 0 in packed.values():
            for k in [k for k, v in packed.items() if not v]:
                del packed[k]
        return cls._wrap(packed)

    @classmethod
    def _wrap(cls, packed: dict[int, int]) -> "TriPoly":
        """The polynomial of a packed dict with no zero coefficient that no
        one else holds."""
        p = cls.__new__(cls)
        p._packed = packed
        return p

    @property
    def terms(self) -> dict[tuple[int, int, int], int]:
        return {_unpack(k): v for k, v in self._packed.items()}

    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._packed == ({0: other} if other else {})
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self._packed == other._packed

    def __hash__(self) -> int:
        return hash(frozenset(self._packed.items()))

    def __add__(self, other: "TriPoly") -> "TriPoly":
        out = dict(self._packed)
        get = out.get
        for k, v in other._packed.items():
            out[k] = get(k, 0) + v
        return TriPoly._of(out)

    def __neg__(self) -> "TriPoly":
        return TriPoly._wrap({k: -v for k, v in self._packed.items()})

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        out = dict(self._packed)
        get = out.get
        for k, v in other._packed.items():
            out[k] = get(k, 0) - v
        return TriPoly._of(out)

    def __mul__(self, other: "TriPoly | int") -> "TriPoly":
        if isinstance(other, int):
            return TriPoly._of({k: v * other for k, v in self._packed.items()})
        if len(other._packed) == 1:
            return _monomial_mul(self, other)
        return _poly_mul([(self, other)])

    __rmul__ = __mul__

    def swap_xz(self) -> "TriPoly":
        # the x and z fields trade places; the y field stays
        return TriPoly._wrap(
            {(k & _FIELD) << 2 * _BITS | k & _FIELD << _BITS | k >> 2 * _BITS: v for k, v in self._packed.items()}
        )

    def substitute(self, x: int | None = None, y: int | None = None, z: int | None = None) -> "TriPoly":
        """Partially evaluate at integer points, keeping the other variables."""
        out: dict[tuple[int, int, int], int] = {}
        for (a, b, c), v in self.terms.items():
            if x is not None:
                v *= x**a
                a = 0
            if y is not None:
                v *= y**b
                b = 0
            if z is not None:
                v *= z**c
                c = 0
            k = (a, b, c)
            out[k] = out.get(k, 0) + v
        return TriPoly(out)

    def eval(self, x0, y0, z0):
        """Full evaluation; accepts exact rationals."""
        total = 0
        for k, v in self._packed.items():
            total += v * x0 ** (k >> 2 * _BITS) * y0 ** (k >> _BITS & _FIELD) * z0 ** (k & _FIELD)
        return total

    def __repr__(self) -> str:
        return f"TriPoly({render_poly(self)!r})"


P_ZERO = TriPoly()
P_ONE = TriPoly({(0, 0, 0): 1})
P_X = TriPoly({(1, 0, 0): 1})
P_Y = TriPoly({(0, 1, 0): 1})
P_Z = TriPoly({(0, 0, 1): 1})


def _poly_mul(pairs: Iterable[tuple[TriPoly, TriPoly]]) -> TriPoly:
    """The sum of p * q over the pairs: the one convolution kernel.

    A product monomial's key is the sum of its factors' keys; the shorter
    factor runs in the outer loop.  ValueError if an exponent of the product
    passes EXPONENT_LIMIT.
    """
    out: dict[int, int] = {}
    get = out.get
    for p, q in pairs:
        outer, inner = p._packed, q._packed
        if len(outer) > len(inner):
            outer, inner = inner, outer
        inner_items = inner.items()
        for k1, v1 in outer.items():
            for k2, v2 in inner_items:
                k = k1 + k2
                out[k] = get(k, 0) + v1 * v2
    if reduce(or_, out, 0) & _GUARD:
        raise ValueError(f"a product exponent exceeds {EXPONENT_LIMIT}")
    return TriPoly._of(out)


def _monomial_mul(p: TriPoly, m: TriPoly) -> TriPoly:
    """p * m for a one-term m, as _poly_mul finds it: m's key added to every
    key of p and its coefficient multiplied in, with the same ValueError."""
    ((km, vm),) = m._packed.items()
    out = {k + km: v * vm for k, v in p._packed.items()}
    if reduce(or_, out, 0) & _GUARD:
        raise ValueError(f"a product exponent exceeds {EXPONENT_LIMIT}")
    return TriPoly._wrap(out)


class Ring:
    """A coefficient ring: its zero, one, the marks x, y, z and its
    sum-of-products kernel, which is never given an empty list of pairs.
    Two rings are equal, and hash alike, when their names are: the _solve
    cache is keyed by ring."""

    __slots__ = ("name", "zero", "one", "x", "y", "z", "mul_sum")

    def __init__(self, name: str, zero, one, x, y, z, mul_sum: Callable[[Iterable[tuple]], object]) -> None:
        self.name, self.zero, self.one, self.x, self.y, self.z, self.mul_sum = name, zero, one, x, y, z, mul_sum

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ring):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


# the trivariate ring: what verify, count --method series and avoider_counts read
TRI = Ring("tri", P_ZERO, P_ONE, P_X, P_Y, P_Z, _poly_mul)


def _int_mul_sum(pairs: Iterable[tuple[int, int]]) -> int:
    return sum(starmap(mul, pairs))


def point_ring(x, y, z) -> Ring:
    """The ring of int coefficients with the marks at the point (x, y, z): a
    series over it is a series specialized there.  Its name holds the point."""
    return Ring(f"point-{x},{y},{z}", 0, 1, x, y, z, _int_mul_sum)


def render_poly(p: TriPoly) -> str:
    if not p.terms:
        return "0"
    parts: list[str] = []
    for (a, b, c), v in sorted(p.terms.items(), reverse=True):
        factors = []
        for name, e in (("x", a), ("y", b), ("z", c)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(v)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not parts:
            parts.append(term if v > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if v > 0 else f"- {term}")
    return " ".join(parts)


class TriSeries:
    """Truncated series over ``ring`` (TRI unless a ring says otherwise):
    f[n] is the coefficient at t^n, 0 <= n <= order; reading outside that
    range raises IndexError.

    A series is lazy: f[n] is computed on first read, by its ``rule`` from
    lower coefficients of its operands, and memoized.  A series given its
    coefficients has them memoized already; each operator returns a series of
    its operands' smaller order whose rule reads theirs, and ``coeffs``
    forces every coefficient.  ``val`` is a lower bound on the t-adic
    valuation: coefficients below it are zero without being computed, and a
    product sums only the terms both factors' bounds allow.  A series times
    itself is a square: its [t^n] pairs each f[i] with f[n - i] once, for
    i < n - i, against a lazily doubled copy of f, and adds f[n/2]^2 for
    even n, in one kernel call, with about half the products.
    """

    __slots__ = ("order", "ring", "val", "rule", "memo", "busy")

    def __init__(self, coeffs: Iterable[TriPoly], order: int | None = None, ring: Ring = TRI):
        cs = tuple(coeffs)
        if order is None:
            order = len(cs) - 1
        if len(cs) != order + 1:
            raise ValueError("coefficient list does not match order")
        self.order, self.ring, self.rule, self.memo, self.busy = order, ring, None, cs, False
        self.val = next((n for n, c in enumerate(cs) if c), len(cs))

    @classmethod
    def _lazy(cls, order: int, ring: Ring, val: int, rule: Callable[[int], object] | None = None) -> "TriSeries":
        """The series whose [t^n] is rule(n) for val <= n <= order, zero below."""
        f = cls.__new__(cls)
        f.order, f.ring, f.val, f.rule, f.memo, f.busy = order, ring, val, rule, [], False
        return f

    def __getitem__(self, n: int):
        memo = self.memo
        if 0 <= n < len(memo):
            return memo[n]
        if not 0 <= n <= self.order:
            raise IndexError(f"[t^{n}] outside 0..{self.order}")
        if self.busy:
            raise ArithmeticError(f"equation is not a t-adic contraction: [t^{n}] reads itself")
        self.busy = True
        try:
            while len(memo) <= n:
                k = len(memo)
                memo.append(self.rule(k) if k >= self.val else self.ring.zero)
        finally:
            self.busy = False
        return memo[n]

    @property
    def coeffs(self) -> tuple:
        if len(self.memo) <= self.order:
            self[self.order]
        return tuple(self.memo)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def _ring_with(self, other: "TriSeries") -> Ring:
        if (self.ring is TRI) is not (other.ring is TRI):
            raise ValueError(f"series over {self.ring.name} and {other.ring.name} do not combine")
        return self.ring

    def __add__(self, other: "TriSeries") -> "TriSeries":
        order = min(self.order, other.order)
        return self._lazy(order, self._ring_with(other), min(self.val, other.val), lambda n: self[n] + other[n])

    def __sub__(self, other: "TriSeries") -> "TriSeries":
        order = min(self.order, other.order)
        return self._lazy(order, self._ring_with(other), min(self.val, other.val), lambda n: self[n] - other[n])

    def __neg__(self) -> "TriSeries":
        return self._lazy(self.order, self.ring, self.val, lambda n: -self[n])

    def __mul__(self, other: "TriSeries") -> "TriSeries":
        # [t^n] forces each factor to the last index it reads, then pairs
        # slices of the factors' memos, the second one reversed
        lo, hi, mul_sum = self.val, other.val, self._ring_with(other).mul_sum
        if other is self:
            twice = self.scale(2)

            def square(n: int):
                twice[n - lo]  # forces self to n - lo too
                half = (n + 1) // 2
                pairs = list(zip(self.memo[lo:half], twice.memo[n - lo : n - half : -1]))
                if n % 2 == 0:
                    mid = self.memo[n // 2]
                    pairs.append((mid, mid))
                return mul_sum(pairs)

            return self._lazy(self.order, self.ring, 2 * lo, square)

        def product(n: int):
            self[n - hi]
            other[n - lo]
            return mul_sum(zip(self.memo[lo : n - hi + 1], reversed(other.memo[hi : n - lo + 1])))

        return self._lazy(min(self.order, other.order), self.ring, lo + hi, product)

    def scale(self, p: TriPoly | int) -> "TriSeries":
        return self._lazy(self.order, self.ring, self.val, lambda n: self[n] * p)

    def shift(self, k: int = 1) -> "TriSeries":
        """Multiply by t^k, truncating at the original order."""
        return self._lazy(self.order, self.ring, self.val + k, lambda n: self[n - k])

    def truncate(self, order: int) -> "TriSeries":
        return self._lazy(order, self.ring, self.val, lambda n: self[n] if n <= self.order else self.ring.zero)

    def swap_xz(self) -> "TriSeries":
        return TriSeries([c.swap_xz() for c in self.coeffs], self.order)

    def substitute(self, x: int | None = None, y: int | None = None, z: int | None = None) -> "TriSeries":
        return TriSeries([c.substitute(x=x, y=y, z=z) for c in self.coeffs], self.order)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return f"TriSeries(order={self.order})"


def tri_const(value: TriPoly | int, order: int, ring: Ring = TRI) -> TriSeries:
    if isinstance(value, int):
        value = ring.one * value
    return TriSeries([value] + [ring.zero] * order, order, ring)


def invert(f: TriSeries) -> TriSeries:
    """Reciprocal series; the constant term must be exactly 1."""
    ring = f.ring
    if f[0] != ring.one:
        raise ValueError("invert requires constant term 1")
    mul_sum = ring.mul_sum

    def rule(n: int):
        f[n]
        # g is forced to n - 1, since it computes its coefficients in order
        return -mul_sum(zip(f.memo[1 : n + 1], g.memo[n - 1 :: -1]))

    g = TriSeries._lazy(f.order, ring, 0, rule)
    g.memo.append(ring.one)
    return g


def _at_point(f: TriSeries, x, y, z) -> TriSeries:
    """f specialized at the point: each coefficient evaluated there, as a
    series over the point's ring."""
    return TriSeries([c.eval(x, y, z) for c in f.coeffs], f.order, point_ring(x, y, z))


def coeff(f: TriSeries, n: int, a: int, b: int, c: int) -> int:
    if not 0 <= n <= f.order:
        raise ValueError(f"t-degree {n} outside 0..{f.order}")
    return f[n].terms.get((a, b, c), 0)


def eval_numeric(f: TriSeries, x0, y0, z0) -> list:
    """Exact evaluation at ints or Fractions; returns the coefficient list in t.

    Integral entries come back as plain ints.
    """
    values = (c.eval(x0, y0, z0) for c in f.coeffs)
    return [int(v) if v.denominator == 1 else v for v in values]


def render_series(f: TriSeries) -> str:
    return "\n".join(f"t^{n}: {render_poly(c)}" for n, c in enumerate(f.coeffs))


def series_terms(f: TriSeries) -> list[dict]:
    out = []
    for n, p in enumerate(f.coeffs):
        for (a, b, c), v in sorted(p.terms.items(), reverse=True):
            out.append({"n": n, "x": a, "y": b, "z": c, "coeff": v})
    return out


def _tadic_solve(
    order: int, unknowns: int, step: _Step, ring: Ring = TRI
) -> tuple[tuple[TriSeries, ...], tuple[bool, ...]]:
    """Solve a t-adically contracting system online; return it with its certificate.

    ``step`` maps the unknowns to their right-hand sides.  It is called first
    on lazy unknowns that read their own right-hand sides, which turns each
    right-hand side into a network of memoized series; forcing [t^n] of every
    unknown for n = 0..order then computes each coefficient of every
    intermediate series once, from lower ones.  Every non-constant right-hand
    term carries a factor t, so [t^n] of a right-hand side reads only lower
    coefficients of the unknowns; a step that breaks this raises
    ArithmeticError.  The step is then called a second time, on the solution;
    the certificate says, per unknown, whether it is its own image, which
    holds in a correct solution and which _certified checks.  The unknowns,
    and so the solution and image, are series over ``ring``.
    """
    vals = tuple(TriSeries._lazy(order, ring, 0) for _ in range(unknowns))
    try:
        for v, rhs in zip(vals, step(vals)):
            v.rule = rhs.__getitem__
        # the rules alone hold the online network, so it is freed before the image is built
        del rhs
        for n in range(order + 1):
            for v in vals:
                v[n]
    finally:
        for v in vals:
            v.rule = None  # break the unknown -> right-hand side -> unknown cycle
    out = tuple(TriSeries(v.memo, order, ring) for v in vals)
    return out, tuple(f == g for f, g in zip(out, step(out)))


def _certified(solution: tuple[TriSeries, ...], certificate: tuple[bool, ...]) -> tuple[TriSeries, ...]:
    """The solution, once each unknown is its own image."""
    if not all(certificate):
        raise ArithmeticError("fixed-point iteration failed to stabilize")
    return solution


def catalan_compose(f: TriSeries) -> TriSeries:
    """The unique series c with c = 1 + f * c^2; f must have no constant term.

    Composing the Catalan generating function with f, done without radicals.
    """
    if f[0]:
        raise ValueError("catalan_compose requires zero constant term")
    one = tri_const(1, f.order, f.ring)
    (c,) = _certified(*_tadic_solve(f.order, 1, lambda v: (one + f * (v[0] * v[0]),), f.ring))
    return c


# The marks multiply a series by x t, y t or z t of its own ring, in one lazy layer.


def _mark(f: TriSeries, m) -> TriSeries:
    return TriSeries._lazy(f.order, f.ring, f.val + 1, lambda n: f[n - 1] * m)


def _yt(f: TriSeries) -> TriSeries:
    return _mark(f, f.ring.y)


def _xt(f: TriSeries) -> TriSeries:
    return _mark(f, f.ring.x)


def _zt(f: TriSeries) -> TriSeries:
    return _mark(f, f.ring.z)


# Each system's equations, written once.  A factory(order, *members, ring=ring)
# of a system's members returns the step that maps the unknowns to their
# right-hand sides; the solver calls it online and once more, on the solution.

_Step = Callable[[tuple], tuple]


def _ternary_step(order: int, *members: Member, ring: Ring = TRI) -> _Step:
    one = tri_const(1, order, ring)
    return lambda v: (one + _yt(v[0] * v[0] * v[0]),)


def _pieces(order: int, ring: Ring) -> tuple[TriSeries, TriSeries, Callable]:
    """(one, W^2, L) with L(V) = 1 + y t V, so that L(W^2 X) is L(X).

    A Row's right-hand side, open L(X) + m K(X, Y) X or closed (1 + m K(X,
    Y)) L(X), is built from these, and so is a star gate: x t Y X, or x t
    Y L(X) for a closed row, read from the row of the unstarred member X
    that counts the star's class.
    """
    one = tri_const(1, order, ring)
    (w,), _ = _solve_system("ternary", order, ring)
    return one, w * w, (lambda v: one + _yt(v))


class Row(NamedTuple):
    """The right-hand side of a coupled unknown X (see _pieces): Y is
    unknown ``y`` of its system, or L of it when ``lifted``."""

    y: int
    closed: bool = False
    lifted: bool = False


def _coupled_step(order: int, *members: Member, ring: Ring = TRI) -> _Step:
    """The step of a coupled system, one right-hand side per member's row.
    The mark m of unknown i is x t for a counted member (even i) and z t for
    its x-z swap (odd i).  W^2 X is formed once per unknown, for L(X) and the open
    form, and X Y and K(X, Y) once per pair whose rows read each other; an
    open row writes K(X, Y) X as 2 (X Y) X - W^2 X when Y's row reads X,
    sharing X Y, and as 2 (X X) Y - W^2 X otherwise, which costs ud-du
    fewer term products than (X Y) X."""
    one, w2, L = _pieces(order, ring)
    rows = tuple(m.row for m in members)

    def step(vals: tuple) -> tuple:
        wx = [w2 * v for v in vals]
        lx = [L(v) for v in wx]
        # (X Y, K(X, Y)) by pair: series are lazy, so a product no row reads costs nothing
        shared: dict = {}
        out = []
        for i, (x, r) in enumerate(zip(vals, rows)):
            y = lx[r.y] if r.lifted else vals[r.y]
            mark = _zt if i % 2 else _xt
            back = rows[r.y]
            mutual = not (r.lifted or back.lifted) and back.y == i  # Y's row reads X
            key = frozenset((i, r.y)) if mutual else i
            if key not in shared:
                xy = x * y
                shared[key] = xy, xy.scale(2) - w2
            xy, k = shared[key]
            if r.closed:
                out.append((one + mark(k)) * lx[i])
            else:
                out.append(lx[i] + mark((xy * x if mutual else x * x * y).scale(2) - wx[i]))
        return tuple(out)

    return step


def _star_step(order: int, member: Member, *, ring: Ring = TRI) -> _Step:
    """S = 1 + gate * (2S - 1) for root-unique-label trees avoiding the member's
    long words.  The gate is read from the row of the unstarred member that
    counts the same class (see _pieces), so it always carries a factor t."""
    one, w2, L = _pieces(order, ring)
    system, i = _counting(member.avoids)
    (vals, _), r = _solve_system(system.name, order, ring), system.members[i].row
    y = L(w2 * vals[r.y]) if r.lifted else vals[r.y]
    gate = _xt(y * (L(w2 * vals[i]) if r.closed else vals[i]))
    return lambda v: (one + gate * (v[0] + v[0] - one),)


def solve_ternary_gf(order: int) -> TriSeries:
    """Level-only generating function: the fixed point of W = 1 + y t W^3."""
    (w,) = _solved("ternary", order, TRI)
    return w


def solve_master(order: int) -> tuple[TriSeries, TriSeries]:
    """Joint statistic series over all trees, with its x-z swapped twin.

    T = 1 + (y - x) t W^2 T + 2 x t T^2 U and the swapped equation for U,
    where W is the level-only series.
    """
    return _solved("master", order, TRI)


def solve_star(order: int) -> TriSeries:
    """Series over trees whose root is the only point labeled 1.

    Solved from S = 1 + x t T U (2S - 1) given the master pair (T, U).
    """
    (s,) = _solved("star", order, TRI)
    return s


def solve_uu_dd(order: int) -> tuple[TriSeries, TriSeries, TriSeries, TriSeries]:
    """Avoider series for the double-ascent and double-descent patterns.

    Returns (uu-avoiders A, swapped dd-avoiders B, dd-avoiders C, swapped
    uu-avoiders D); (A, B) and (C, D) are two independently coupled pairs.
    """
    return _solved("uu-dd", order, TRI)


def solve_ud_du(order: int) -> tuple[TriSeries, TriSeries, TriSeries, TriSeries]:
    """Avoider series for the ascent-descent and descent-ascent patterns.

    Returns (ud-avoiders E, swapped du-avoiders F, du-avoiders G, swapped
    ud-avoiders H).
    """
    return _solved("ud-du", order, TRI)


def solve_uudd(order: int) -> tuple[TriSeries, TriSeries]:
    """Avoider series for the pair {uu, dd} (alternating once levels are cut)."""
    return _solved("uudd", order, TRI)


_STAR_PATTERNS = ("uu", "dd", "ud", "du")


def solve_star_pattern(order: int, sigma: str) -> TriSeries:
    """Root-unique-label avoider series for one length-two pattern.

    Each is solved from S = 1 + gate * (2S - 1) where the gate is built from
    the already-solved unstarred series of the same pattern family.
    """
    if sigma not in _STAR_PATTERNS:
        raise ValueError(f"unsupported pattern {sigma!r}; one of uu, dd, ud, du")
    (s,) = _solved(f"star-{sigma}", order, TRI)
    return s


# ---------------------------------------------------------------------------
# the solved systems, in report order
# ---------------------------------------------------------------------------


class Member(NamedTuple):
    """One series a system solves for."""

    name: str  # as ``series --family`` prints it
    avoids: tuple[str, ...] | None  # long patterns its trees avoid, if it counts a class
    equation: str | None = None  # the name of its check in defining_checks
    row: Row | None = None  # its right-hand side, in a coupled system


class System(NamedTuple):
    """One solved system: its solver, step and the series it returns."""

    name: str
    solver: str  # a solve_* function of this module
    step: Callable[..., _Step]  # step(order, *members, ring=ring)
    members: tuple[Member, ...]
    star: bool = False  # root-unique-label trees only; its solver takes the member's words
    family: bool = True  # offered by ``series --family``

    def solve(self, order: int) -> tuple[TriSeries, ...]:
        # looked up per call, so wrappers installed on the module attribute apply
        out = globals()[self.solver](order, *(self.members[0].avoids if self.star else ()))
        return out if isinstance(out, tuple) else (out,)


SYSTEMS: tuple[System, ...] = (
    System("ternary", "solve_ternary_gf", _ternary_step, (Member("ternary", None, "ternary-cubic"),)),
    System(
        "master",
        "solve_master",
        _coupled_step,
        (
            Member("master", (), "master-simplified", Row(1)),
            Member("master-swap", None, "master-simplified-swap", Row(0)),
        ),
    ),
    System("star", "solve_star", _star_step, (Member("star", (), "star-equation"),), star=True),
    System(
        "uu-dd",
        "solve_uu_dd",
        _coupled_step,
        (
            Member("uu", ("uu",), "uu-simplified", Row(1, closed=True)),
            Member("dd-swap", None, row=Row(0)),
            Member("dd", ("dd",), "dd-simplified", Row(3)),
            Member("uu-swap", None, row=Row(2, closed=True)),
        ),
    ),
    System(
        "ud-du",
        "solve_ud_du",
        _coupled_step,
        (
            Member("ud", ("ud",), "ud-simplified", Row(1, lifted=True)),
            Member("du-swap", None, row=Row(0)),
            Member("du", ("du",), "du-simplified", Row(3)),
            Member("ud-swap", None, row=Row(2, lifted=True)),
        ),
    ),
    System(
        "uudd",
        "solve_uudd",
        _coupled_step,
        (
            Member("uu-dd", ("uu", "dd"), "alt-pair-simplified", Row(1, closed=True)),
            Member("uu-dd-swap", None, row=Row(0, closed=True)),
        ),
    ),
    *(
        System(
            f"star-{s}",
            "solve_star_pattern",
            _star_step,
            (Member(f"star-{s}", (s,), f"{s}-star-equation"),),
            star=True,
            family=False,
        )
        for s in _STAR_PATTERNS
    ),
)


# a star no public solver offers: only its defining check and verify_identities read it
_ALT_PAIR_STAR = Member("alt-pair-star", ("uu", "dd"), "alt-pair-star-equation")

# `verify --suite all` keeps 21 solves (11 in TRI at its order, 10 packed at order - 1),
# and 31 below order 5, where the oracle also solves the ten systems at order 5
_SOLVE_CACHE = 32


@lru_cache(maxsize=_SOLVE_CACHE)
def _solve(step: Callable[..., _Step], members: tuple[Member, ...], order: int, ring: Ring):
    """The system of these members solved in the ring once, with its certificate."""
    return _tadic_solve(order, len(members), step(order, *members, ring=ring), ring)


def _solve_system(name: str, order: int, ring: Ring) -> tuple[tuple[TriSeries, ...], tuple[bool, ...]]:
    system = next(s for s in SYSTEMS if s.name == name)
    return _solve(system.step, system.members, order, ring)


def _solved(name: str, order: int, ring: Ring) -> tuple[TriSeries, ...]:
    """The named system's solution in the ring, certified: a failed certificate raises on each read."""
    return _certified(*_solve_system(name, order, ring))


# The packed ring of an order holds a series coefficient as one int: the
# polynomial at x = 2^(k (order + 1)), y = 2^k, z = 1, so that the
# coefficient of x^a y^b z^(n - a - b) is base-2^k digit a (order + 1) + b
# (Kronecker substitution; von zur Gathen & Gerhard, *Modern Computer
# Algebra*, ch. 8).  [t^n] of a solved series counts trees with n <= order
# edges, so each coefficient is at most gnc_total(n) <= gnc_total(order);
# with k one bit wider than gnc_total(order) it stays below the top bit of
# its digit, which is a guard as in _pack (53 bits at order 16, 68 at 20).
# Each unpacked coefficient reads k, so it is computed once per order.


@lru_cache(maxsize=_SOLVE_CACHE)
def _digit_bits(order: int) -> int:
    return gnc_total(order).bit_length() + 1


def _packed_ring(order: int) -> Ring:
    k = _digit_bits(order)
    return Ring(f"packed-{order}", 0, 1, 1 << k * (order + 1), 1 << k, 1, _int_mul_sum)


def _unpack_digits(value: int, n: int, order: int) -> TriPoly:
    """The homogeneous degree-n TriPoly packed into value by the order's
    packed ring.  ArithmeticError if a digit sets its guard bit (a negative
    or oversized coefficient) or if value has digits that no degree-n
    monomial owns."""
    k = _digit_bits(order)
    mask, guard, width = (1 << k) - 1, 1 << k - 1, k * (order + 1)
    # row a holds the digits of x^a y^b for b = 0..order: one shift of the
    # value per row, then one shift of the row per digit; a step in b adds
    # one to the y field of the monomial's key and takes one from its z field
    row_mask, step = (1 << width) - 1, (1 << _BITS) - 1
    packed, stray = {}, value >> width * (n + 1)
    for a in range(n + 1):
        row = value >> width * a & row_mask
        key = _pack(a, 0, n - a)
        for b in range(n + 1 - a):
            d = row & mask
            if d & guard:
                raise ArithmeticError(f"packed [t^{n}]: the digit of x^{a} y^{b} z^{n - a - b} sets its guard bit")
            if d:
                packed[key] = d
            key += step
            row >>= k
        stray = stray or row
    if stray:
        raise ArithmeticError(f"packed [t^{n}] has digits that no degree-{n} monomial owns")
    return TriPoly._wrap(packed)


def packed_solve(name: str, order: int) -> tuple[TriSeries, ...]:
    """The named system solved once in the order's packed ring, each [t^n]
    read back from its base-2^k digits: the same series as its
    System.solve(order), found without a TriPoly product."""
    return tuple(
        TriSeries([_unpack_digits(c, n, order) for n, c in enumerate(f.coeffs)], order)
        for f in _solved(name, order, _packed_ring(order))
    )


def _counting(words: Iterable[str]) -> tuple[System, int] | None:
    """(system, index) of the unstarred member that counts the class of these
    long words; None when no solved system counts it."""
    key = frozenset(words)
    for system in SYSTEMS:
        for i, member in enumerate(system.members):
            if not system.star and member.avoids is not None and frozenset(member.avoids) == key:
                return system, i
    return None


def avoider_counts(pats: Sequence[str], order: int) -> list | None:
    """The numbers of trees avoiding the patterns, for n = 0..order, from the
    solved series of the class of the long patterns with the avoided
    letters' marks set to 0; None when no solved system counts that class."""
    found = _counting(p for p in pats if len(p) > 1)
    if found is None:
        return None
    system, i = found
    x0, y0, z0 = (0 if letter in pats else 1 for letter in "uhd")
    return eval_numeric(system.solve(order)[i], x0, y0, z0)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


class IdentityCheck(NamedTuple):
    """Outcome of one residual check; category separates the equations the
    solvers consume ("defining") from the redundant forms that guard against
    transcription errors ("derived")."""

    name: str
    category: str
    ok: bool


def defining_checks(order: int) -> list[IdentityCheck]:
    """Per member that states its system's equation, in report order, whether
    it is its own image under the step: its solve's certificate."""
    checks = []
    for step, members in (*((s.step, s.members) for s in SYSTEMS), (_star_step, (_ALT_PAIR_STAR,))):
        _, certificate = _solve(step, members, order, TRI)
        checks += (IdentityCheck(m.equation, "defining", ok) for m, ok in zip(members, certificate) if m.equation)
    return checks


def verify_identities(order: int = 12) -> list[IdentityCheck]:
    """The defining checks, then the solved series substituted into every
    derived identity, each reporting whether its residual is identically zero
    to the given order.  Radical closed forms are checked through their
    reciprocal plus Catalan-composition equivalents.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    checks = defining_checks(order)
    (s_alt,), _ = _solve(_star_step, (_ALT_PAIR_STAR,), order, TRI)

    # every other identity is derived: redundant given the defining ones
    def check(name: str, lhs: TriSeries, rhs: TriSeries) -> None:
        checks.append(IdentityCheck(name, "derived", (lhs - rhs).is_zero()))

    one = tri_const(1, order)
    w = solve_ternary_gf(order)
    t_full, u_full = solve_master(order)
    s_star = solve_star(order)
    a_uu, b_dds, c_dd, d_uus = solve_uu_dd(order)
    e_ud, f_dus, g_du, h_uds = solve_ud_du(order)
    p_alt, q_alt = solve_uudd(order)
    s_uu = solve_star_pattern(order, "uu")
    s_dd = solve_star_pattern(order, "dd")
    s_ud = solve_star_pattern(order, "ud")
    s_du = solve_star_pattern(order, "du")
    w2 = w * w

    def dbl(s: TriSeries) -> TriSeries:
        return s + s - one

    # swap involutions
    check("master-swap-involution", u_full, t_full.swap_xz())
    check("uu-dd-swap-involution", b_dds, c_dd.swap_xz())
    check("dd-uu-swap-involution", d_uus, a_uu.swap_xz())
    check("ud-du-swap-involution", f_dus, g_du.swap_xz())
    check("du-ud-swap-involution", h_uds, e_ud.swap_xz())
    check("alt-pair-swap-involution", q_alt, p_alt.swap_xz())

    def raw(name: str, x: TriSeries, s: TriSeries, g: TriSeries) -> None:
        """X = 1 + yt W^2 X + (yt W (X - W) + xt G)(2S - 1), where S is the
        family's star series and G its ascent term."""
        check(f"{name}-raw-decomposition", x, one + _yt(w2 * x) + (_yt(w * (x - w)) + _xt(g)) * dbl(s))

    # raw decompositions (redundant given the simplified forms)
    raw("master", t_full, s_star, t_full * (u_full.scale(2) - w))
    check(
        "master-substituted-form",
        t_full,
        one
        - _yt(w2)
        - _xt(t_full * w)
        + _yt(w * (one + w) * t_full)
        + _xt((one - _yt(w2)) * t_full * t_full * u_full).scale(2),
    )
    # trailing star factor read as the uu-star series
    raw("uu", a_uu, s_uu, (b_dds.scale(2) - w) * (one + _yt(w2 * a_uu)))
    raw("dd", c_dd, s_dd, (d_uus.scale(2) - w) * c_dd)
    raw("ud", e_ud, s_ud, e_ud * (one + _yt(w2 * (f_dus.scale(2) - w))))
    raw("du", g_du, s_du, g_du * (h_uds.scale(2) - w))
    raw("alt-pair", p_alt, s_alt, (q_alt.scale(2) - w) * (one + _yt(w2 * p_alt)))

    # radical-free composition forms
    alpha = invert(one - _yt(w2) + _xt(w2))
    alpha2 = alpha * alpha
    beta = invert(one - _yt(w2) + _zt(w2))
    check(
        "master-catalan-form",
        t_full,
        alpha * catalan_compose(_xt(u_full * alpha2).scale(2)),
    )
    inner = catalan_compose(_zt(t_full * beta * beta).scale(2))
    check(
        "master-nested-catalan-form",
        t_full,
        alpha * catalan_compose(_xt(alpha2 * beta * inner).scale(2)),
    )
    check("u-avoider-collapse", t_full.substitute(x=0), w.substitute(x=0))

    # alternating pair with levels cut, keeping x and z symbolic
    p0 = p_alt.substitute(y=0)
    q0 = q_alt.substitute(y=0)
    xt1 = _xt(one)
    zt1 = _zt(one)
    check("alt-pair-no-levels", p0, one - xt1 + _xt(q0 * p0).scale(2))
    check("alt-pair-no-levels-swap", q0, one - zt1 + _zt(p0 * q0).scale(2))
    check(
        "alt-pair-no-levels-quadratic",
        p0,
        one - xt1 - (_zt(p0) - _xt(p0)).scale(2) + _zt(p0 * p0).scale(2),
    )
    p01 = p_alt.substitute(y=0, z=1)
    amb = invert(one + one.shift().scale(2) - xt1.scale(2))
    # levels cut, descent mark set to 1, ascent mark symbolic
    check(
        "alt-pair-catalan-form",
        p01,
        (one - xt1)
        * amb
        * catalan_compose(((one - xt1) * amb * amb).shift().scale(2)),
    )

    # univariate specializations: each series evaluated at a point is a
    # series over that point's ring, so the same algebra multiplies ints
    unit = _at_point(one, 1, 1, 1)
    t1 = unit.shift()
    schroeder = _at_point(e_ud, 1, 0, 1)
    tern1 = _at_point(w, 1, 1, 1)

    q101 = _at_point(t_full, 1, 0, 1)
    check("level-avoider-cubic", q101, unit + ((q101 * q101 * q101).scale(2) - q101).shift())

    m110 = _at_point(t_full, 1, 1, 0)
    check("d-avoider-catalan-form", m110, catalan_compose(tern1.scale(2).shift()))

    m100 = _at_point(t_full, 1, 0, 0)
    check("hd-avoider-schroeder", m100, schroeder)
    check("schroeder-quadratic", m100, unit + ((m100 * m100).scale(2) - m100).shift())

    a101 = _at_point(a_uu, 1, 0, 1)
    c101 = _at_point(c_dd, 1, 0, 1)
    check("uu-dd-no-levels-ratio", a101 * (unit - c101.scale(2).shift()), unit - t1)
    check("dd-no-levels-quadratic", c101, unit + ((c101 * c101).scale(4) - c101.scale(3)).shift())
    inv3 = invert(unit + t1.scale(3))
    check("dd-no-levels-catalan-form", c101, inv3 * catalan_compose((inv3 * inv3).scale(4).shift()))
    cc = catalan_compose(invert(unit - t1).scale(2).shift())
    check("uu-no-levels-form", a101, unit + (cc.scale(2) - unit).shift())

    # level-free ud-avoiders and level-and-descent-free trees share the series
    check("ud-no-levels-schroeder", schroeder, m100)
    inv1p = invert(unit + t1)
    g101 = _at_point(g_du, 1, 0, 1)
    arg = (schroeder * (inv1p * inv1p)).scale(2).shift()
    check("du-no-levels-catalan-form", g101, inv1p * catalan_compose(arg))

    p101 = _at_point(p_alt, 1, 0, 1)
    calt = catalan_compose((t1 - t1.shift()).scale(2))
    check("alternating-catalan-form", p101, calt - calt.shift())
    pm101 = _at_point(p_alt, -1, 0, 1)
    csgn = catalan_compose(t1.shift().scale(-2))
    check("alternating-signed-form", pm101, unit - csgn.shift())

    # propositions at x = y = z = 1
    a1 = _at_point(a_uu, 1, 1, 1)
    c1 = _at_point(c_dd, 1, 1, 1)
    w1sq = tern1 * tern1
    lhs_fac = unit + ((a1 * c1).scale(2) - w1sq).shift()
    check("uu-proposition-at-ones", a1, lhs_fac * (unit + (w1sq * a1).shift()))
    check("dd-proposition-at-ones", c1, unit + (c1 * c1 * a1).scale(2).shift())
    e1 = _at_point(e_ud, 1, 1, 1)
    g1 = _at_point(g_du, 1, 1, 1)
    inner1 = unit + (w1sq * g1).shift()
    # with the square on the ud series, as the simplified equation requires
    check("ud-proposition-at-ones", e1, unit + (e1 * e1 * inner1).scale(2).shift())
    check("du-proposition-at-ones", g1, unit + (g1 * g1 * e1).scale(2).shift())
    pa1 = _at_point(p_alt, 1, 1, 1)
    fac2 = unit + ((pa1 * pa1).scale(2) - w1sq).shift()
    check("alt-pair-proposition-at-ones", pa1, (unit + (w1sq * pa1).shift()) * fac2)

    return checks
