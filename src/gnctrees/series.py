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

Each system is written once, as a ``step`` from its unknowns to their
right-hand sides.  The solver runs that step online: on lazy series whose
[t^n] is built from lower coefficients and memoized, so each coefficient of
each intermediate series is computed once.  It then evaluates the same step
once, eagerly, on the result: that image is the certificate.  The solver
keeps it beside the solution, in one cache keyed by (system, order, ring);
the public solvers require the two to be equal, and the defining records of
``verify_identities`` read the image instead of evaluating the step again.

The engine is generic in its coefficient ring: series, solver and steps take
their zero, one, marks x, y, z and sum-of-products kernel from one Ring.
There are two.  TRI has TriPoly coefficients.  The packed ring of an order
has plain int coefficients: a polynomial evaluated at one point, x = 2^(k
(order + 1)), y = 2^k, z = 1, whose base-2^k digits are its coefficients.
Every [t^n] of a solved series is homogeneous of degree n with nonnegative
counts below the digit size, so ``packed_solve`` solves a system once in
the packed ring, with the same certificate, and reads each [t^n] back from
its digits.  That is the route ``series`` prints, and it is faster than the
TriPoly dict convolution.  ``verify``, ``count --method series`` and
``avoider_series`` keep TRI: a polynomial read from digits is homogeneous by
construction, so only a trivariate solve can show that homogeneity holds.
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
an assumption.  Every coupled right-hand side is built from two pieces,
L(X) = 1 + y t W^2 X and K(X, Y) = 2XY - W^2 with W the level-only series:
it is either L(X) + m K X or (1 + m K) L(X), with m = x t or z t.

There is one series algebra.  A univariate specialization is the series
substituted at an integer point, ``f.substitute(x=1, y=0, z=1)``: a TriSeries
with constant coefficients, on which the identities at numeric points use the
same operators, reciprocal and Catalan composition as the trivariate ones.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, NamedTuple

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
    "invert",
    "catalan_compose",
    "solve_ternary_gf",
    "solve_master",
    "solve_star",
    "solve_uu_dd",
    "solve_ud_du",
    "solve_uudd",
    "solve_star_pattern",
    "Member",
    "System",
    "SYSTEMS",
    "avoider_series",
    "packed_solve",
    "coeff",
    "eval_numeric",
    "render_series",
    "series_terms",
    "IdentityCheck",
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
        """The polynomial of a packed dict, its zero coefficients dropped."""
        p = cls.__new__(cls)
        p._packed = {k: v for k, v in packed.items() if v}
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
        return TriPoly._of({k: -v for k, v in self._packed.items()})

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
        return TriPoly({(c, b, a): v for (a, b, c), v in self.terms.items()})

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
        for (a, b, c), v in self.terms.items():
            total += v * x0**a * y0**b * z0**c
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
    return TriPoly._of(out)


class Ring:
    """A coefficient ring: its zero, one, the marks x, y, z and its
    sum-of-products kernel, which is never given an empty list of pairs.
    Two rings are equal, and hash alike, when their names are: the _solved
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


# the trivariate ring: what verify, count --method series and avoider_series read
TRI = Ring("tri", P_ZERO, P_ONE, P_X, P_Y, P_Z, _poly_mul)


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
    """Truncated series: coeffs[n] is the coefficient at t^n, 0 <= n <= order,
    an element of ``ring`` (a TriPoly unless a ring says otherwise)."""

    __slots__ = ("order", "coeffs", "ring")

    def __init__(self, coeffs: Iterable[TriPoly], order: int | None = None, ring: Ring = TRI):
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if len(cs) != order + 1:
            raise ValueError("coefficient list does not match order")
        self.order = order
        self.coeffs = tuple(cs)
        self.ring = ring

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TriSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n, self.ring)

    def __sub__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TriSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)], n, self.ring)

    def __neg__(self) -> "TriSeries":
        return TriSeries([-c for c in self.coeffs], self.order, self.ring)

    def __mul__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        n = min(self.order, other.order)
        f, g = self.coeffs, other.coeffs
        lo, hi = _valuation(f), _valuation(g)
        mul_sum, zero = self.ring.mul_sum, self.ring.zero
        return TriSeries(
            [mul_sum((f[i], g[k - i]) for i in range(lo, k - hi + 1)) if k >= lo + hi else zero for k in range(n + 1)],
            n,
            self.ring,
        )

    def scale(self, p: TriPoly | int) -> "TriSeries":
        return TriSeries([c * p for c in self.coeffs], self.order, self.ring)

    def shift(self, k: int = 1) -> "TriSeries":
        """Multiply by t^k, truncating at the original order."""
        keep = max(0, self.order + 1 - k)
        out = [self.ring.zero] * (self.order + 1 - keep) + list(self.coeffs[:keep])
        return TriSeries(out, self.order, self.ring)

    def truncate(self, order: int) -> "TriSeries":
        if order <= self.order:
            return TriSeries(self.coeffs[: order + 1], order, self.ring)
        return TriSeries(list(self.coeffs) + [self.ring.zero] * (order - self.order), order, self.ring)

    def swap_xz(self) -> "TriSeries":
        return TriSeries([c.swap_xz() for c in self.coeffs], self.order)

    def substitute(self, x: int | None = None, y: int | None = None, z: int | None = None) -> "TriSeries":
        return TriSeries([c.substitute(x=x, y=y, z=z) for c in self.coeffs], self.order)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return f"TriSeries(order={self.order})"


def _valuation(coeffs: tuple) -> int:
    """The index of the first nonzero coefficient, or len(coeffs)."""
    return next((n for n, c in enumerate(coeffs) if c), len(coeffs))


def tri_const(value: TriPoly | int, order: int, ring: Ring = TRI) -> TriSeries:
    if isinstance(value, int):
        value = ring.one * value
    return TriSeries([value] + [ring.zero] * order, order, ring)


def invert(f: TriSeries) -> TriSeries:
    """Reciprocal series; the constant term must be exactly 1."""
    ring = f.ring
    if f.coeffs[0] != ring.one:
        raise ValueError("invert requires constant term 1")
    out = [ring.one]
    for n in range(1, f.order + 1):
        out.append(-ring.mul_sum((f.coeffs[k], out[n - k]) for k in range(1, n + 1)))
    return TriSeries(out, f.order, ring)


def coeff(f: TriSeries, n: int, a: int, b: int, c: int) -> int:
    if not 0 <= n <= f.order:
        raise ValueError(f"t-degree {n} outside 0..{f.order}")
    return f.coeffs[n].terms.get((a, b, c), 0)


def eval_numeric(f: TriSeries, x0, y0, z0) -> list:
    """Exact evaluation at ints or Fractions; returns the coefficient list in t.

    Integral entries come back as plain ints.
    """
    values = (c.eval(x0, y0, z0) for c in f.coeffs)
    return [int(v) if v.denominator == 1 else v for v in values]


def render_series(f: TriSeries) -> str:
    return "\n".join(f"t^{n}: {render_poly(f.coeffs[n])}" for n in range(f.order + 1))


def series_terms(f: TriSeries) -> list[dict]:
    out = []
    for n in range(f.order + 1):
        for (a, b, c), v in sorted(f.coeffs[n].terms.items(), reverse=True):
            out.append({"n": n, "x": a, "y": b, "z": c, "coeff": v})
    return out


class _Lazy:
    """A series whose [t^n] is computed on first request, then memoized.

    It supports the operators a ``step`` applies to its unknowns, mixed freely
    with TriSeries constants of its ring.  ``val`` is a lower bound on the
    t-adic valuation: coefficients below it are zero without being computed,
    and a product sums only the terms both factors' bounds allow.
    """

    __slots__ = ("val", "rule", "memo", "busy", "ring")

    def __init__(
        self,
        val: int,
        ring: Ring,
        rule: Callable[[int], object] | None = None,
        memo: list | None = None,
    ):
        self.val = val
        self.ring = ring
        self.rule = rule
        self.memo: list = memo if memo is not None else []
        self.busy = False

    def __getitem__(self, n: int):
        memo = self.memo
        if n < len(memo):
            return memo[n]
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

    def __add__(self, other: "_Lazy | TriSeries") -> "_Lazy":
        g = _lift(other)
        return _Lazy(min(self.val, g.val), self.ring, lambda n: self[n] + g[n])

    __radd__ = __add__

    def __sub__(self, other: "_Lazy | TriSeries") -> "_Lazy":
        g = _lift(other)
        return _Lazy(min(self.val, g.val), self.ring, lambda n: self[n] - g[n])

    def __rsub__(self, other: TriSeries) -> "_Lazy":
        return _lift(other) - self

    def __mul__(self, other: "_Lazy | TriSeries") -> "_Lazy":
        g = _lift(other)
        lo, hi = self.val, g.val
        mul_sum = self.ring.mul_sum
        return _Lazy(lo + hi, self.ring, lambda n: mul_sum((self[i], g[n - i]) for i in range(lo, n - hi + 1)))

    __rmul__ = __mul__

    def scale(self, p) -> "_Lazy":
        return _Lazy(self.val, self.ring, lambda n: self[n] * p)

    def shift(self, k: int = 1) -> "_Lazy":
        return _Lazy(self.val + k, self.ring, lambda n: self[n - k])


def _lift(f: "_Lazy | TriSeries") -> _Lazy:
    if isinstance(f, _Lazy):
        return f
    return _Lazy(_valuation(f.coeffs), f.ring, memo=list(f.coeffs))


def _tadic_solve(
    order: int,
    unknowns: int,
    step: Callable[[tuple[TriSeries, ...]], tuple[TriSeries, ...]],
    ring: Ring = TRI,
) -> tuple[tuple[TriSeries, ...], tuple[TriSeries, ...]]:
    """Solve a t-adically contracting system online; return it with its image.

    ``step`` maps the unknowns to their right-hand sides.  It is called once
    on lazy unknowns, which turns each right-hand side into a network of
    memoized streams; forcing [t^n] of every unknown for n = 0..order then
    computes each coefficient of every intermediate series once, from lower
    ones.  Every non-constant right-hand term carries a factor t, so [t^n] of
    a right-hand side reads only lower coefficients of the unknowns; a step
    that breaks this raises ArithmeticError.  The step is then evaluated once
    eagerly on the result, and that image is returned with it as the
    certificate: a correct solution is its own image.  The image is kept, so
    the defining records read it rather than evaluate the step again.  The
    unknowns, and so the solution and image, are series over ``ring``.
    """
    vals = tuple(_Lazy(0, ring) for _ in range(unknowns))
    try:
        for v, rhs in zip(vals, step(vals)):
            v.rule = _lift(rhs).__getitem__
        for n in range(order + 1):
            for v in vals:
                v[n]
    finally:
        for v in vals:
            v.rule = None  # break the unknown -> right-hand side -> unknown cycle
    out = tuple(TriSeries(v.memo, order, ring) for v in vals)
    return out, step(out)


def _certified(solution: tuple[TriSeries, ...], image: tuple[TriSeries, ...]) -> tuple[TriSeries, ...]:
    """The solution, once it is its own image."""
    if image != solution:
        raise ArithmeticError("fixed-point iteration failed to stabilize")
    return solution


def catalan_compose(f: TriSeries) -> TriSeries:
    """The unique series c with c = 1 + f * c^2; f must have no constant term.

    Composing the Catalan generating function with f, done without radicals.
    """
    if f.coeffs[0]:
        raise ValueError("catalan_compose requires zero constant term")
    one = tri_const(1, f.order, f.ring)
    (c,) = _certified(*_tadic_solve(f.order, 1, lambda v: (one + f * (v[0] * v[0]),), f.ring))
    return c


# The marks multiply a TriSeries or a lazy series by x t, y t or z t of its
# own ring.


def _yt(f: TriSeries) -> TriSeries:
    return f.scale(f.ring.y).shift()


def _xt(f: TriSeries) -> TriSeries:
    return f.scale(f.ring.x).shift()


def _zt(f: TriSeries) -> TriSeries:
    return f.scale(f.ring.z).shift()


# Each system's equations, written once.  A factory takes the order and the
# ring, and returns the step that maps the unknowns to their right-hand
# sides; the solver runs it online and then once eagerly, on the solution.
# The steps accept TriSeries and the solver's lazy series alike.

_Step = Callable[[tuple], tuple]


def _ternary_step(order: int, *, ring: Ring = TRI) -> _Step:
    one = tri_const(1, order, ring)
    return lambda v: (one + _yt(v[0] * v[0] * v[0]),)


def _pieces(order: int, ring: Ring) -> tuple[TriSeries, TriSeries, Callable]:
    """(one, W^2, L) with L(V) = 1 + y t V, so that L(W^2 X) is L(X).

    Every coupled right-hand side is open, L(X) + m K(X, Y) X, or closed,
    (1 + m K(X, Y)) L(X), with m = x t or z t.  A step writes K(X, Y) X as
    2 XXY - W^2 X and forms W^2 X once per unknown, for L(X) and for the
    open form; it names the products it uses twice, so each is computed
    once, and it brackets XXY in whichever order costs fewer term products.
    """
    one = tri_const(1, order, ring)
    (w,) = _solution("ternary", order, ring)
    return one, w * w, (lambda v: one + _yt(v))


def _master_step(order: int, *, ring: Ring = TRI) -> _Step:
    _, w2, L = _pieces(order, ring)

    def step(vals: tuple) -> tuple:
        t, u = vals
        tu, vt, vu = t * u, w2 * t, w2 * u
        return (L(vt) + _xt((tu * t).scale(2) - vt), L(vu) + _zt((tu * u).scale(2) - vu))

    return step


def _uu_dd_step(order: int, *, ring: Ring = TRI) -> _Step:
    one, w2, L = _pieces(order, ring)

    def step(vals: tuple) -> tuple:
        a, b, c, d = vals
        ab, cd, vb, vc = a * b, c * d, w2 * b, w2 * c
        return (
            (one + _xt(ab.scale(2) - w2)) * L(w2 * a),
            L(vb) + _zt((ab * b).scale(2) - vb),
            L(vc) + _xt((cd * c).scale(2) - vc),
            (one + _zt(cd.scale(2) - w2)) * L(w2 * d),
        )

    return step


def _ud_du_step(order: int, *, ring: Ring = TRI) -> _Step:
    _, w2, L = _pieces(order, ring)

    def step(vals: tuple) -> tuple:
        e, f, g, h = vals
        ve, vf, vg, vh = (w2 * v for v in vals)
        lf, lg = L(vf), L(vg)
        # the square first: (E E) L(F) costs fewer term products than (E L(F)) E
        return (
            L(ve) + _xt((e * e * lf).scale(2) - ve),
            lf + _zt((f * f * e).scale(2) - vf),
            lg + _xt((g * g * h).scale(2) - vg),
            L(vh) + _zt((h * h * lg).scale(2) - vh),
        )

    return step


def _uudd_step(order: int, *, ring: Ring = TRI) -> _Step:
    one, w2, L = _pieces(order, ring)

    def step(vals: tuple) -> tuple:
        p, q = vals
        k = (p * q).scale(2) - w2
        return ((one + _xt(k)) * L(w2 * p), (one + _zt(k)) * L(w2 * q))

    return step


def _star_step(order: int, sigma: str = "", *, ring: Ring = TRI) -> _Step:
    """S = 1 + gate * (2S - 1) for root-unique-label trees avoiding sigma ("" for
    no pattern, "uudd" for the pair).  The gate is built from the unstarred
    series of the same family and always carries a factor t."""
    one, w2, L = _pieces(order, ring)
    if sigma == "":
        t, u = _solution("master", order, ring)
        gate = _xt(t * u)
    elif sigma == "uu":
        a, b, _, _ = _solution("uu-dd", order, ring)
        gate = _xt(b * L(w2 * a))
    elif sigma == "dd":
        _, _, c, d = _solution("uu-dd", order, ring)
        gate = _xt(d * c)
    elif sigma == "ud":
        e, f, _, _ = _solution("ud-du", order, ring)
        gate = _xt(e * L(w2 * f))
    elif sigma == "du":
        _, _, g, h = _solution("ud-du", order, ring)
        gate = _xt(g * h)
    else:  # "uudd"
        p, q = _solution("uudd", order, ring)
        gate = _xt(q * L(w2 * p))
    return lambda v: (one + gate * (v[0] + v[0] - one),)


def solve_ternary_gf(order: int) -> TriSeries:
    """Level-only generating function: the fixed point of W = 1 + y t W^3."""
    (w,) = _solution("ternary", order, TRI)
    return w


def solve_master(order: int) -> tuple[TriSeries, TriSeries]:
    """Joint statistic series over all trees, with its x-z swapped twin.

    T = 1 + (y - x) t W^2 T + 2 x t T^2 U and the swapped equation for U,
    where W is the level-only series.
    """
    return _solution("master", order, TRI)


def solve_star(order: int) -> TriSeries:
    """Series over trees whose root is the only point labeled 1.

    Solved from S = 1 + x t T U (2S - 1) given the master pair (T, U).
    """
    (s,) = _solution("star", order, TRI)
    return s


def solve_uu_dd(order: int) -> tuple[TriSeries, TriSeries, TriSeries, TriSeries]:
    """Avoider series for the double-ascent and double-descent patterns.

    Returns (uu-avoiders A, swapped dd-avoiders B, dd-avoiders C, swapped
    uu-avoiders D); (A, B) and (C, D) are two independently coupled pairs.
    """
    return _solution("uu-dd", order, TRI)


def solve_ud_du(order: int) -> tuple[TriSeries, TriSeries, TriSeries, TriSeries]:
    """Avoider series for the ascent-descent and descent-ascent patterns.

    Returns (ud-avoiders E, swapped du-avoiders F, du-avoiders G, swapped
    ud-avoiders H).
    """
    return _solution("ud-du", order, TRI)


def solve_uudd(order: int) -> tuple[TriSeries, TriSeries]:
    """Avoider series for the pair {uu, dd} (alternating once levels are cut)."""
    return _solution("uudd", order, TRI)


_STAR_PATTERNS = ("uu", "dd", "ud", "du")


def solve_star_pattern(order: int, sigma: str) -> TriSeries:
    """Root-unique-label avoider series for one length-two pattern.

    Each is solved from S = 1 + gate * (2S - 1) where the gate is built from
    the already-solved unstarred series of the same pattern family.
    """
    if sigma not in _STAR_PATTERNS:
        raise ValueError(f"unsupported pattern {sigma!r}; one of uu, dd, ud, du")
    (s,) = _solution(f"star-{sigma}", order, TRI)
    return s


# ---------------------------------------------------------------------------
# the solved systems, in report order
# ---------------------------------------------------------------------------


class Member(NamedTuple):
    """One series a system solves for."""

    name: str  # as ``series --family`` prints it
    avoids: tuple[str, ...] | None  # long patterns its trees avoid, if it counts a class
    equation: str | None = None  # its defining check in verify_identities


class System(NamedTuple):
    """One solved system: its solver, step and the series it returns."""

    name: str
    solver: str  # a solve_* function of this module
    step: Callable[..., _Step]  # called as step(order, *args, ring=ring)
    members: tuple[Member, ...]
    star: bool = False  # root-unique-label trees only
    args: tuple[str, ...] = ()  # extra solver arguments
    family: bool = True  # offered by ``series --family``

    def solve(self, order: int) -> tuple[TriSeries, ...]:
        # looked up per call, so wrappers installed on the module attribute apply
        out = globals()[self.solver](order, *self.args)
        return out if isinstance(out, tuple) else (out,)


SYSTEMS: tuple[System, ...] = (
    System("ternary", "solve_ternary_gf", _ternary_step, (Member("ternary", None, "ternary-cubic"),)),
    System(
        "master",
        "solve_master",
        _master_step,
        (Member("master", (), "master-simplified"), Member("master-swap", None, "master-simplified-swap")),
    ),
    System("star", "solve_star", _star_step, (Member("star", (), "star-equation"),), star=True),
    System(
        "uu-dd",
        "solve_uu_dd",
        _uu_dd_step,
        (
            Member("uu", ("uu",), "uu-simplified"),
            Member("dd-swap", None),
            Member("dd", ("dd",), "dd-simplified"),
            Member("uu-swap", None),
        ),
    ),
    System(
        "ud-du",
        "solve_ud_du",
        _ud_du_step,
        (
            Member("ud", ("ud",), "ud-simplified"),
            Member("du-swap", None),
            Member("du", ("du",), "du-simplified"),
            Member("ud-swap", None),
        ),
    ),
    System(
        "uudd",
        "solve_uudd",
        _uudd_step,
        (Member("uu-dd", ("uu", "dd"), "alt-pair-simplified"), Member("uu-dd-swap", None)),
    ),
    *(
        System(
            f"star-{s}",
            "solve_star_pattern",
            _star_step,
            (Member(f"star-{s}", (s,), f"{s}-star-equation"),),
            star=True,
            args=(s,),
            family=False,
        )
        for s in _STAR_PATTERNS
    ),
)


# solved systems kept with their images: one `verify --suite all` solves
# the ten systems twice, in TRI at its order and in the packed ring at order - 1
_SOLVE_CACHE = 32


@lru_cache(maxsize=_SOLVE_CACHE)
def _solved(name: str, order: int, ring: Ring) -> tuple[tuple[TriSeries, ...], tuple[TriSeries, ...]]:
    """(solution, image) of the named system in the ring: its one certified solve."""
    system = next(s for s in SYSTEMS if s.name == name)
    return _tadic_solve(order, len(system.members), system.step(order, *system.args, ring=ring), ring)


def _solution(name: str, order: int, ring: Ring) -> tuple[TriSeries, ...]:
    return _certified(*_solved(name, order, ring))


# The packed ring of an order holds a series coefficient as one int: the
# polynomial at x = 2^(k (order + 1)), y = 2^k, z = 1, so that the
# coefficient of x^a y^b z^(n - a - b) is base-2^k digit a (order + 1) + b
# (Kronecker substitution; von zur Gathen & Gerhard, *Modern Computer
# Algebra*, ch. 8).  [t^n] of a solved series counts trees with n edges, so
# each coefficient is at most 2^n ternary(n) < 16^n <= 2^(4 order); with
# k = 4 order + 2 it stays below the top bit of its digit, which is a guard
# as in _pack.


def _digit_bits(order: int) -> int:
    return 4 * order + 2


def _packed_ring(order: int) -> Ring:
    k = _digit_bits(order)
    return Ring(
        f"packed-{order}", 0, 1, 1 << k * (order + 1), 1 << k, 1, lambda pairs: sum(p * q for p, q in pairs)
    )


def _unpack_digits(value: int, n: int, order: int) -> TriPoly:
    """The homogeneous degree-n TriPoly packed into value by the order's
    packed ring.  ArithmeticError if a digit sets its guard bit (a negative
    or oversized coefficient) or if value has digits that no degree-n
    monomial owns."""
    k = _digit_bits(order)
    mask, guard = (1 << k) - 1, 1 << k - 1
    terms, back = {}, 0
    for a in range(n + 1):
        for b in range(n + 1 - a):
            shift = k * (a * (order + 1) + b)
            d = value >> shift & mask
            if d & guard:
                raise ArithmeticError(f"packed [t^{n}]: the digit of x^{a} y^{b} z^{n - a - b} sets its guard bit")
            terms[a, b, n - a - b] = d
            back |= d << shift
    if back != value:
        raise ArithmeticError(f"packed [t^{n}] has digits that no degree-{n} monomial owns")
    return TriPoly(terms)


def packed_solve(name: str, order: int) -> tuple[TriSeries, ...]:
    """The named system solved once in the order's packed ring, each [t^n]
    read back from its base-2^k digits: the same series as its
    System.solve(order), found without a TriPoly product."""
    return tuple(
        TriSeries([_unpack_digits(c, n, order) for n, c in enumerate(f.coeffs)], order)
        for f in _solution(name, order, _packed_ring(order))
    )


def avoider_series(avoid: Iterable[str], order: int) -> TriSeries | None:
    """The solved series of all trees avoiding the given long patterns, or
    None when no solved system counts that class."""
    key = frozenset(avoid)
    for system in SYSTEMS:
        for i, member in enumerate(system.members):
            if not system.star and member.avoids is not None and frozenset(member.avoids) == key:
                return system.solve(order)[i]
    return None


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


def verify_identities(order: int = 12) -> list[IdentityCheck]:
    """Substitute the solved series into every tracked identity.

    Each check reports whether the residual is identically zero to the given
    order.  Radical closed forms are checked through their reciprocal plus
    Catalan-composition equivalents.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    # defining equations: each solved series against its system's step applied
    # to the certified solution, the image kept by that one solve
    checks: list[IdentityCheck] = []
    for system in SYSTEMS:
        _, image = _solved(system.name, order, TRI)
        for member, lhs, rhs in zip(system.members, system.solve(order), image):
            if member.equation:
                checks.append(IdentityCheck(member.equation, "defining", (lhs - rhs).is_zero()))
    # solved here only
    (s_alt,), (s_alt_image,) = _tadic_solve(order, 1, _star_step(order, "uudd"))
    checks.append(IdentityCheck("alt-pair-star-equation", "defining", (s_alt - s_alt_image).is_zero()))

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
        """X = 1 + yt W^2 X + yt W (X - W)(2S - 1) + xt G (2S - 1), where S is
        the family's star series and G its ascent term."""
        ds = dbl(s)
        check(f"{name}-raw-decomposition", x, one + _yt(w2 * x) + _yt(w * (x - w) * ds) + _xt(g * ds))

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

    # univariate specializations: the same algebra on constant coefficients
    t1 = one.shift()
    schroeder = e_ud.substitute(x=1, y=0, z=1)
    tern1 = w.substitute(x=1, y=1, z=1)

    q101 = t_full.substitute(x=1, y=0, z=1)
    check("level-avoider-cubic", q101, one + ((q101 * q101 * q101).scale(2) - q101).shift())

    m110 = t_full.substitute(x=1, y=1, z=0)
    check("d-avoider-catalan-form", m110, catalan_compose(tern1.scale(2).shift()))

    m100 = t_full.substitute(x=1, y=0, z=0)
    check("hd-avoider-schroeder", m100, schroeder)
    check("schroeder-quadratic", m100, one + ((m100 * m100).scale(2) - m100).shift())

    a101 = a_uu.substitute(x=1, y=0, z=1)
    c101 = c_dd.substitute(x=1, y=0, z=1)
    check("uu-dd-no-levels-ratio", a101 * (one - c101.scale(2).shift()), one - t1)
    check("dd-no-levels-quadratic", c101, one + ((c101 * c101).scale(4) - c101.scale(3)).shift())
    inv3 = invert(one + t1.scale(3))
    check("dd-no-levels-catalan-form", c101, inv3 * catalan_compose((inv3 * inv3).scale(4).shift()))
    cc = catalan_compose(invert(one - t1).scale(2).shift())
    check("uu-no-levels-form", a101, one + (cc.scale(2) - one).shift())

    # level-free ud-avoiders and level-and-descent-free trees share the series
    check("ud-no-levels-schroeder", schroeder, m100)
    inv1p = invert(one + t1)
    g101 = g_du.substitute(x=1, y=0, z=1)
    arg = (schroeder * (inv1p * inv1p)).scale(2).shift()
    check("du-no-levels-catalan-form", g101, inv1p * catalan_compose(arg))

    p101 = p_alt.substitute(x=1, y=0, z=1)
    calt = catalan_compose((t1 - t1.shift()).scale(2))
    check("alternating-catalan-form", p101, calt - calt.shift())
    pm101 = p_alt.substitute(x=-1, y=0, z=1)
    csgn = catalan_compose(t1.shift().scale(-2))
    check("alternating-signed-form", pm101, one - csgn.shift())

    # propositions at x = y = z = 1
    a1 = a_uu.substitute(x=1, y=1, z=1)
    c1 = c_dd.substitute(x=1, y=1, z=1)
    w1sq = tern1 * tern1
    lhs_fac = one + ((a1 * c1).scale(2) - w1sq).shift()
    check("uu-proposition-at-ones", a1, lhs_fac * (one + (w1sq * a1).shift()))
    check("dd-proposition-at-ones", c1, one + (c1 * c1 * a1).scale(2).shift())
    e1 = e_ud.substitute(x=1, y=1, z=1)
    g1 = g_du.substitute(x=1, y=1, z=1)
    inner1 = one + (w1sq * g1).shift()
    # with the square on the ud series, as the simplified equation requires
    check("ud-proposition-at-ones", e1, one + (e1 * e1 * inner1).scale(2).shift())
    check("du-proposition-at-ones", g1, one + (g1 * g1 * e1).scale(2).shift())
    pa1 = p_alt.substitute(x=1, y=1, z=1)
    fac2 = one + ((pa1 * pa1).scale(2) - w1sq).shift()
    check("alt-pair-proposition-at-ones", pa1, (one + (w1sq * pa1).shift()) * fac2)

    return checks
