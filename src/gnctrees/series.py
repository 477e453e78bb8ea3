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
each intermediate series is computed once.  It then certifies the result
with one eager evaluation of the same step, which must return the result
unchanged.

Coupled systems whose second unknown is the x-z swap of the first are solved
with the swapped series as an independent second unknown, which keeps the
right-hand sides polynomial; the swap relation is then a checkable fact, not
an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

__all__ = [
    "TriPoly",
    "TriSeries",
    "P_ONE",
    "P_X",
    "P_Y",
    "P_Z",
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
    "coeff",
    "eval_numeric",
    "render_series",
    "series_terms",
    "IdentityCheck",
    "verify_identities",
]


class TriPoly:
    """Polynomial in x, y, z with integer coefficients, stored sparsely."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = TriPoly({(0, 0, 0): other})
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "TriPoly") -> "TriPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return TriPoly(out)

    def __neg__(self) -> "TriPoly":
        return TriPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return TriPoly(out)

    def __mul__(self, other: "TriPoly | int") -> "TriPoly":
        if isinstance(other, int):
            return TriPoly({k: v * other for k, v in self.terms.items()})
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
    """The sum of p * q over the pairs: the one convolution kernel."""
    out: dict[tuple[int, int, int], int] = {}
    get = out.get
    for p, q in pairs:
        qterms = q.terms.items()
        for (a1, b1, c1), v1 in p.terms.items():
            for (a2, b2, c2), v2 in qterms:
                k = (a1 + a2, b1 + b2, c1 + c2)
                out[k] = get(k, 0) + v1 * v2
    return TriPoly(out)


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
    """Truncated series: coeffs[n] is the polynomial at t^n, 0 <= n <= order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[TriPoly], order: int | None = None):
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if len(cs) != order + 1:
            raise ValueError("coefficient list does not match order")
        self.order = order
        self.coeffs = tuple(cs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TriSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n)

    def __sub__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TriSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)], n)

    def __neg__(self) -> "TriSeries":
        return TriSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        n = min(self.order, other.order)
        f, g = self.coeffs, other.coeffs
        return TriSeries([_poly_mul((f[i], g[k - i]) for i in range(k + 1)) for k in range(n + 1)], n)

    def scale(self, p: TriPoly | int) -> "TriSeries":
        return TriSeries([c * p for c in self.coeffs], self.order)

    def shift(self, k: int = 1) -> "TriSeries":
        """Multiply by t^k, truncating at the original order."""
        keep = max(0, self.order + 1 - k)
        out = [P_ZERO] * (self.order + 1 - keep) + list(self.coeffs[:keep])
        return TriSeries(out, self.order)

    def truncate(self, order: int) -> "TriSeries":
        if order <= self.order:
            return TriSeries(self.coeffs[: order + 1], order)
        return TriSeries(list(self.coeffs) + [P_ZERO] * (order - self.order), order)

    def swap_xz(self) -> "TriSeries":
        return TriSeries([c.swap_xz() for c in self.coeffs], self.order)

    def substitute(self, x: int | None = None, y: int | None = None, z: int | None = None) -> "TriSeries":
        return TriSeries([c.substitute(x=x, y=y, z=z) for c in self.coeffs], self.order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __repr__(self) -> str:
        return f"TriSeries(order={self.order})"


def tri_const(value: TriPoly | int, order: int) -> TriSeries:
    if isinstance(value, int):
        value = TriPoly({(0, 0, 0): value})
    return TriSeries([value] + [P_ZERO] * order, order)


def invert(f: TriSeries) -> TriSeries:
    """Reciprocal series; the constant term must be exactly 1."""
    if f.coeffs[0] != P_ONE:
        raise ValueError("invert requires constant term 1")
    out = [P_ONE]
    for n in range(1, f.order + 1):
        acc = P_ZERO
        for k in range(1, n + 1):
            acc = acc + f.coeffs[k] * out[n - k]
        out.append(-acc)
    return TriSeries(out, f.order)


def coeff(f: TriSeries, n: int, a: int, b: int, c: int) -> int:
    if not 0 <= n <= f.order:
        raise ValueError(f"t-degree {n} outside 0..{f.order}")
    return f.coeffs[n].terms.get((a, b, c), 0)


def eval_numeric(f: TriSeries, x0, y0, z0) -> list:
    """Exact substitution; returns the univariate coefficient list in t.

    Entries integral over the rationals come back as plain ints.
    """
    out = []
    for c in f.coeffs:
        v = c.eval(Fraction(x0), Fraction(y0), Fraction(z0))
        out.append(int(v) if v.denominator == 1 else v)
    return out


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
    with TriSeries constants.  ``val`` is a lower bound on the t-adic
    valuation: coefficients below it are zero without being computed, and a
    product sums only the terms both factors' bounds allow.
    """

    __slots__ = ("val", "rule", "memo", "busy")

    def __init__(
        self,
        val: int,
        rule: Callable[[int], TriPoly] | None = None,
        memo: list[TriPoly] | None = None,
    ):
        self.val = val
        self.rule = rule
        self.memo: list[TriPoly] = memo if memo is not None else []
        self.busy = False

    def __getitem__(self, n: int) -> TriPoly:
        memo = self.memo
        if n < len(memo):
            return memo[n]
        if self.busy:
            raise ArithmeticError(f"equation is not a t-adic contraction: [t^{n}] reads itself")
        self.busy = True
        try:
            while len(memo) <= n:
                k = len(memo)
                memo.append(self.rule(k) if k >= self.val else P_ZERO)
        finally:
            self.busy = False
        return memo[n]

    def __add__(self, other: "_Lazy | TriSeries") -> "_Lazy":
        g = _lift(other)
        return _Lazy(min(self.val, g.val), lambda n: self[n] + g[n])

    __radd__ = __add__

    def __sub__(self, other: "_Lazy | TriSeries") -> "_Lazy":
        g = _lift(other)
        return _Lazy(min(self.val, g.val), lambda n: self[n] - g[n])

    def __rsub__(self, other: TriSeries) -> "_Lazy":
        return _lift(other) - self

    def __mul__(self, other: "_Lazy | TriSeries") -> "_Lazy":
        g = _lift(other)
        lo, hi = self.val, g.val
        return _Lazy(lo + hi, lambda n: _poly_mul((self[i], g[n - i]) for i in range(lo, n - hi + 1)))

    __rmul__ = __mul__

    def scale(self, p: TriPoly | int) -> "_Lazy":
        return _Lazy(self.val, lambda n: self[n] * p)

    def shift(self, k: int = 1) -> "_Lazy":
        return _Lazy(self.val + k, lambda n: self[n - k])


def _lift(f: "_Lazy | TriSeries") -> _Lazy:
    if isinstance(f, _Lazy):
        return f
    val = next((n for n, c in enumerate(f.coeffs) if c), f.order + 1)
    return _Lazy(val, memo=list(f.coeffs))


def _tadic_solve(
    order: int,
    unknowns: int,
    step: Callable[[tuple[TriSeries, ...]], tuple[TriSeries, ...]],
) -> tuple[TriSeries, ...]:
    """Solve a t-adically contracting system online, then certify the result.

    ``step`` maps the unknowns to their right-hand sides.  It is called once
    on lazy unknowns, which turns each right-hand side into a network of
    memoized streams; forcing [t^n] of every unknown for n = 0..order then
    computes each coefficient of every intermediate series once, from lower
    ones.  Every non-constant right-hand term carries a factor t, so [t^n] of
    a right-hand side reads only lower coefficients of the unknowns; a step
    that breaks this raises ArithmeticError.  One eager evaluation of
    ``step`` on the result certifies it: the result must be its own image.
    """
    vals = tuple(_Lazy(0) for _ in range(unknowns))
    try:
        for v, rhs in zip(vals, step(vals)):
            v.rule = _lift(rhs).__getitem__
        for n in range(order + 1):
            for v in vals:
                v[n]
    finally:
        for v in vals:
            v.rule = None  # break the unknown -> right-hand side -> unknown cycle
    out = tuple(TriSeries(v.memo, order) for v in vals)
    if step(out) != out:
        raise ArithmeticError("fixed-point iteration failed to stabilize")
    return out


def catalan_compose(f: TriSeries) -> TriSeries:
    """The unique series c with c = 1 + f * c^2; f must have no constant term.

    Composing the Catalan generating function with f, done without radicals.
    """
    if not f.coeffs[0].is_zero():
        raise ValueError("catalan_compose requires zero constant term")
    one = tri_const(1, f.order)
    (c,) = _tadic_solve(f.order, 1, lambda v: (one + f * (v[0] * v[0]),))
    return c


def _yt(f: TriSeries) -> TriSeries:
    return f.scale(P_Y).shift()


def _xt(f: TriSeries) -> TriSeries:
    return f.scale(P_X).shift()


def _zt(f: TriSeries) -> TriSeries:
    return f.scale(P_Z).shift()


# Each system's equations, written once.  A factory takes the order and
# returns the step that maps the unknowns to their right-hand sides; the
# solver runs it, and verify_identities applies it to the solution.  The
# steps accept TriSeries and the solver's lazy series alike.

_Step = Callable[[tuple], tuple]


def _ternary_step(order: int) -> _Step:
    one = tri_const(1, order)
    return lambda v: (one + (v[0] * v[0] * v[0]).scale(P_Y).shift(),)


def _w2(order: int) -> TriSeries:
    w = solve_ternary_gf(order)
    return w * w


def _master_step(order: int) -> _Step:
    one = tri_const(1, order)
    w2 = _w2(order)

    def step(vals: tuple) -> tuple:
        t, u = vals
        w2t, w2u, tu = w2 * t, w2 * u, t * u
        t_new = one + _yt(w2t) - _xt(w2t) + _xt(tu * t).scale(2)
        u_new = one + _yt(w2u) - _zt(w2u) + _zt(tu * u).scale(2)
        return (t_new, u_new)

    return step


def _uu_dd_step(order: int) -> _Step:
    one = tri_const(1, order)
    w2 = _w2(order)
    xtw2 = _xt(w2)
    ztw2 = _zt(w2)

    def step(vals: tuple) -> tuple:
        a, b, c, d = vals
        w2b, w2c, ab, cd = w2 * b, w2 * c, a * b, c * d
        a_new = (one - xtw2 + _xt(ab).scale(2)) * (one + _yt(w2 * a))
        b_new = one + _yt(w2b) - _zt(w2b) + _zt(ab * b).scale(2)
        c_new = one + _yt(w2c) - _xt(w2c) + _xt(cd * c).scale(2)
        d_new = (one - ztw2 + _zt(cd).scale(2)) * (one + _yt(w2 * d))
        return (a_new, b_new, c_new, d_new)

    return step


def _ud_du_step(order: int) -> _Step:
    one = tri_const(1, order)
    w2 = _w2(order)

    def step(vals: tuple) -> tuple:
        e, f, g, h = vals
        w2e, w2f, w2g, w2h = w2 * e, w2 * f, w2 * g, w2 * h
        e_new = one + _yt(w2e) - _xt(w2e) + _xt(e * e * (one + _yt(w2f))).scale(2)
        f_new = one + _yt(w2f) - _zt(w2f) + _zt(f * f * e).scale(2)
        g_new = one + _yt(w2g) - _xt(w2g) + _xt(g * g * h).scale(2)
        h_new = one + _yt(w2h) - _zt(w2h) + _zt(h * h * (one + _yt(w2g))).scale(2)
        return (e_new, f_new, g_new, h_new)

    return step


def _uudd_step(order: int) -> _Step:
    one = tri_const(1, order)
    w2 = _w2(order)
    xtw2 = _xt(w2)
    ztw2 = _zt(w2)

    def step(vals: tuple) -> tuple:
        p, q = vals
        pq = p * q
        p_new = (one + _yt(w2 * p)) * (one - xtw2 + _xt(pq).scale(2))
        q_new = (one + _yt(w2 * q)) * (one - ztw2 + _zt(pq).scale(2))
        return (p_new, q_new)

    return step


def _star_step(order: int, sigma: str = "") -> _Step:
    """S = 1 + gate * (2S - 1) for root-unique-label trees avoiding sigma ("" for
    no pattern, "uudd" for the pair).  The gate is built from the unstarred
    series of the same family and always carries a factor t."""
    one = tri_const(1, order)

    def lift(f: TriSeries) -> TriSeries:
        return one + _yt(_w2(order) * f)

    if sigma == "":
        t, u = solve_master(order)
        gate = _xt(t * u)
    elif sigma == "uu":
        a, b, _, _ = solve_uu_dd(order)
        gate = _xt(b * lift(a))
    elif sigma == "dd":
        _, _, c, d = solve_uu_dd(order)
        gate = _xt(d * c)
    elif sigma == "ud":
        e, f, _, _ = solve_ud_du(order)
        gate = _xt(e * lift(f))
    elif sigma == "du":
        _, _, g, h = solve_ud_du(order)
        gate = _xt(g * h)
    else:  # "uudd"
        p, q = solve_uudd(order)
        gate = _xt(q * lift(p))
    return lambda v: (one + gate * (v[0] + v[0] - one),)


@lru_cache(maxsize=None)
def solve_ternary_gf(order: int) -> TriSeries:
    """Level-only generating function: the fixed point of W = 1 + y t W^3."""
    (w,) = _tadic_solve(order, 1, _ternary_step(order))
    return w


@lru_cache(maxsize=None)
def solve_master(order: int) -> tuple[TriSeries, TriSeries]:
    """Joint statistic series over all trees, with its x-z swapped twin.

    T = 1 + (y - x) t W^2 T + 2 x t T^2 U and the swapped equation for U,
    where W is the level-only series.
    """
    return _tadic_solve(order, 2, _master_step(order))


@lru_cache(maxsize=None)
def solve_star(order: int) -> TriSeries:
    """Series over trees whose root is the only point labeled 1.

    Solved from S = 1 + x t T U (2S - 1) given the master pair (T, U).
    """
    (s,) = _tadic_solve(order, 1, _star_step(order))
    return s


@lru_cache(maxsize=None)
def solve_uu_dd(order: int) -> tuple[TriSeries, TriSeries, TriSeries, TriSeries]:
    """Avoider series for the double-ascent and double-descent patterns.

    Returns (uu-avoiders A, swapped dd-avoiders B, dd-avoiders C, swapped
    uu-avoiders D); (A, B) and (C, D) are two independently coupled pairs.
    """
    return _tadic_solve(order, 4, _uu_dd_step(order))


@lru_cache(maxsize=None)
def solve_ud_du(order: int) -> tuple[TriSeries, TriSeries, TriSeries, TriSeries]:
    """Avoider series for the ascent-descent and descent-ascent patterns.

    Returns (ud-avoiders E, swapped du-avoiders F, du-avoiders G, swapped
    ud-avoiders H).
    """
    return _tadic_solve(order, 4, _ud_du_step(order))


@lru_cache(maxsize=None)
def solve_uudd(order: int) -> tuple[TriSeries, TriSeries]:
    """Avoider series for the pair {uu, dd} (alternating once levels are cut)."""
    return _tadic_solve(order, 2, _uudd_step(order))


_STAR_PATTERNS = ("uu", "dd", "ud", "du")


@lru_cache(maxsize=None)
def solve_star_pattern(order: int, sigma: str) -> TriSeries:
    """Root-unique-label avoider series for one length-two pattern.

    Each is solved from S = 1 + gate * (2S - 1) where the gate is built from
    the already-solved unstarred series of the same pattern family.
    """
    if sigma not in _STAR_PATTERNS:
        raise ValueError(f"unsupported pattern {sigma!r}; one of uu, dd, ud, du")
    (s,) = _tadic_solve(order, 1, _star_step(order, sigma))
    return s


# ---------------------------------------------------------------------------
# the solved systems, in report order
# ---------------------------------------------------------------------------


class Member(NamedTuple):
    """One series a system solves for."""

    name: str  # as ``series --family`` prints it
    avoids: tuple[str, ...] | None  # long patterns its trees avoid, if it counts a class
    equation: str | None = None  # its defining check in verify_identities


@dataclass(frozen=True)
class System:
    """One solved system: its solver, step and the series it returns."""

    name: str
    solver: str  # a solve_* function of this module
    step: Callable[..., _Step]  # called as step(order, *args)
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
# univariate exact helpers (identity checks at numeric points)
# ---------------------------------------------------------------------------


def _u_mul(a: list, b: list) -> list:
    n = min(len(a), len(b)) - 1
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


def _u_invert(a: list, order: int) -> list:
    a = list(a) + [0] * (order + 1 - len(a))
    if a[0] != 1:
        raise ValueError("univariate invert requires constant term 1")
    out = [1]
    for n in range(1, order + 1):
        out.append(-sum(a[k] * out[n - k] for k in range(1, n + 1)))
    return out


def _u_catalan(f: list, order: int) -> list:
    f = list(f) + [0] * (order + 1 - len(f))
    if f[0] != 0:
        raise ValueError("univariate catalan composition requires zero constant term")
    c = [1]
    for n in range(1, order + 1):
        sq = [sum(c[i] * c[k - i] for i in range(k + 1)) for k in range(n)]
        c.append(sum(f[j] * sq[n - j] for j in range(1, n + 1)))
    return c


def _u_shift(a: list, order: int, k: int = 1) -> list:
    return ([0] * k + list(a))[: order + 1]


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one residual check; category separates the equations the
    solvers consume ("defining") from the redundant forms that guard against
    transcription errors ("derived")."""

    name: str
    category: str
    ok: bool
    detail: str = ""


def verify_identities(order: int = 12) -> list[IdentityCheck]:
    """Substitute the solved series into every tracked identity.

    Each check reports whether the residual is identically zero to the given
    order.  Radical closed forms are checked through their reciprocal plus
    Catalan-composition equivalents.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    # defining equations: each solver's own step, applied to its solution
    checks: list[IdentityCheck] = []
    for system in SYSTEMS:
        solution = system.solve(order)
        image = system.step(order, *system.args)(solution)
        for member, lhs, rhs in zip(system.members, solution, image):
            if member.equation:
                checks.append(IdentityCheck(member.equation, "defining", (lhs - rhs).is_zero()))
    alt_star_step = _star_step(order, "uudd")  # solved here only
    (s_alt,) = _tadic_solve(order, 1, alt_star_step)
    alt_ok = (s_alt - alt_star_step((s_alt,))[0]).is_zero()
    checks.append(IdentityCheck("alt-pair-star-equation", "defining", alt_ok))

    # every other identity is derived: redundant given the defining ones
    def check(name: str, lhs: TriSeries, rhs: TriSeries, detail: str = "") -> None:
        checks.append(IdentityCheck(name, "derived", (lhs - rhs).is_zero(), detail))

    def check_u(name: str, lhs: list, rhs: list, detail: str = "") -> None:
        n = min(len(lhs), len(rhs))
        checks.append(IdentityCheck(name, "derived", lhs[:n] == rhs[:n], detail))

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

    # raw decompositions (redundant given the simplified forms)
    check(
        "master-raw-decomposition",
        t_full,
        one
        + _yt(w2 * t_full)
        + _yt(w * (t_full - w) * dbl(s_star))
        + _xt(t_full * (u_full.scale(2) - w) * dbl(s_star)),
    )
    check(
        "master-substituted-form",
        t_full,
        one
        - _yt(w2)
        - _xt(t_full * w)
        + _yt(w * (one + w) * t_full)
        + _xt((one - _yt(w2)) * t_full * t_full * u_full).scale(2),
    )
    check(
        "uu-raw-decomposition",
        a_uu,
        one
        + _yt(w2 * a_uu)
        + _yt(w * (a_uu - w) * dbl(s_uu))
        + _xt((b_dds.scale(2) - w) * (one + _yt(w2 * a_uu)) * dbl(s_uu)),
        detail="trailing star factor read as the uu-star series",
    )
    check(
        "dd-raw-decomposition",
        c_dd,
        one
        + _yt(w2 * c_dd)
        + _yt(w * (c_dd - w) * dbl(s_dd))
        + _xt((d_uus.scale(2) - w) * c_dd * dbl(s_dd)),
    )
    check(
        "ud-raw-decomposition",
        e_ud,
        one
        + _yt(w2 * e_ud)
        + _yt(w * (e_ud - w) * dbl(s_ud))
        + _xt(e_ud * (one + _yt(w2 * (f_dus.scale(2) - w))) * dbl(s_ud)),
    )
    check(
        "du-raw-decomposition",
        g_du,
        one
        + _yt(w2 * g_du)
        + _yt(w * (g_du - w) * dbl(s_du))
        + _xt(g_du * (h_uds.scale(2) - w) * dbl(s_du)),
    )
    check(
        "alt-pair-raw-decomposition",
        p_alt,
        one
        + _yt(w2 * p_alt)
        + _yt(w * (p_alt - w) * dbl(s_alt))
        + _xt((q_alt.scale(2) - w) * (one + _yt(w2 * p_alt)) * dbl(s_alt)),
    )

    # radical-free composition forms
    alpha = invert(one - _yt(w2) + _xt(w2))
    beta = invert(one - _yt(w2) + _zt(w2))
    check(
        "master-catalan-form",
        t_full,
        alpha * catalan_compose(_xt(u_full * alpha * alpha).scale(2)),
    )
    inner = catalan_compose(_zt(t_full * beta * beta).scale(2))
    check(
        "master-nested-catalan-form",
        t_full,
        alpha * catalan_compose(_xt(alpha * alpha * beta * inner).scale(2)),
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
    check(
        "alt-pair-catalan-form",
        p01,
        (one - xt1)
        * amb
        * catalan_compose(((one - xt1) * amb * amb).shift().scale(2)),
        detail="levels cut, descent mark set to 1, ascent mark symbolic",
    )

    # univariate specializations
    n = order
    schroeder = eval_numeric(e_ud, 1, 0, 1)
    tern1 = eval_numeric(w, 1, 1, 1)

    q101 = eval_numeric(t_full, 1, 0, 1)
    cube = _u_mul(q101, _u_mul(q101, q101))
    rhs = [1] + [-q101[k - 1] + 2 * cube[k - 1] for k in range(1, n + 1)]
    check_u("level-avoider-cubic", q101, rhs)

    m110 = eval_numeric(t_full, 1, 1, 0)
    check_u(
        "d-avoider-catalan-form",
        m110,
        _u_catalan(_u_shift([2 * v for v in tern1], n), n),
    )

    m100 = eval_numeric(t_full, 1, 0, 0)
    check_u("hd-avoider-schroeder", m100, schroeder)
    m100sq = _u_mul(m100, m100)
    check_u(
        "schroeder-quadratic",
        m100,
        [1] + [-m100[k - 1] + 2 * m100sq[k - 1] for k in range(1, n + 1)],
    )

    a101 = eval_numeric(a_uu, 1, 0, 1)
    c101 = eval_numeric(c_dd, 1, 0, 1)
    ratio = _u_mul(a101, [1] + [-2 * c101[k - 1] for k in range(1, n + 1)])
    check_u("uu-dd-no-levels-ratio", ratio, [1, -1] + [0] * (n - 1))
    check_u(
        "dd-no-levels-quadratic",
        c101,
        [1]
        + [
            -3 * c101[k - 1] + 4 * sum(c101[i] * c101[k - 1 - i] for i in range(k))
            for k in range(1, n + 1)
        ],
    )
    inv3 = _u_invert([1, 3], n)
    check_u(
        "dd-no-levels-catalan-form",
        c101,
        _u_mul(inv3, _u_catalan(_u_shift([4 * v for v in _u_mul(inv3, inv3)], n), n)),
    )
    inv1m = _u_invert([1, -1], n)
    cc = _u_catalan(_u_shift([2 * v for v in inv1m], n), n)
    rhs_uu = [1, -1 + 2 * cc[0]] + [2 * cc[k - 1] for k in range(2, n + 1)]
    check_u("uu-no-levels-form", a101, rhs_uu)

    check_u(
        "ud-no-levels-schroeder",
        schroeder,
        m100,
        detail="level-free ud-avoiders and level-and-descent-free trees share the series",
    )
    inv1p = _u_invert([1, 1], n)
    g101 = eval_numeric(g_du, 1, 0, 1)
    arg = _u_shift([2 * v for v in _u_mul(schroeder, _u_mul(inv1p, inv1p))], n)
    check_u("du-no-levels-catalan-form", g101, _u_mul(inv1p, _u_catalan(arg, n)))

    p101 = eval_numeric(p_alt, 1, 0, 1)
    calt = _u_catalan([0, 2, -2], n)
    check_u(
        "alternating-catalan-form",
        p101,
        [1] + [calt[k] - calt[k - 1] for k in range(1, n + 1)],
    )
    pm101 = eval_numeric(p_alt, -1, 0, 1)
    csgn = _u_catalan([0, 0, -2], n)
    check_u(
        "alternating-signed-form",
        pm101,
        [1] + [-csgn[k - 1] for k in range(1, n + 1)],
    )

    # propositions at x = y = z = 1
    def one_plus_t(series: list) -> list:
        return [1] + [series[k - 1] for k in range(1, n + 1)]

    a1 = eval_numeric(a_uu, 1, 1, 1)
    c1 = eval_numeric(c_dd, 1, 1, 1)
    w1sq = _u_mul(tern1, tern1)
    a1c1 = _u_mul(a1, c1)
    lhs_fac = [1] + [-w1sq[k - 1] + 2 * a1c1[k - 1] for k in range(1, n + 1)]
    check_u(
        "uu-proposition-at-ones",
        a1,
        _u_mul(lhs_fac, one_plus_t(_u_mul(w1sq, a1))),
    )
    check_u(
        "dd-proposition-at-ones",
        c1,
        one_plus_t([2 * v for v in _u_mul(_u_mul(c1, c1), a1)]),
    )
    e1 = eval_numeric(e_ud, 1, 1, 1)
    g1 = eval_numeric(g_du, 1, 1, 1)
    inner1 = one_plus_t(_u_mul(w1sq, g1))
    check_u(
        "ud-proposition-at-ones",
        e1,
        one_plus_t([2 * v for v in _u_mul(_u_mul(e1, e1), inner1)]),
        detail="with the square on the ud series, as the simplified equation requires",
    )
    check_u(
        "du-proposition-at-ones",
        g1,
        one_plus_t([2 * v for v in _u_mul(_u_mul(g1, g1), e1)]),
    )
    pa1 = eval_numeric(p_alt, 1, 1, 1)
    pa1sq = _u_mul(pa1, pa1)
    fac2 = [1] + [-w1sq[k - 1] + 2 * pa1sq[k - 1] for k in range(1, n + 1)]
    check_u(
        "alt-pair-proposition-at-ones",
        pa1,
        _u_mul(one_plus_t(_u_mul(w1sq, pa1)), fac2),
    )

    return checks
