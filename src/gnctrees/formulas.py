"""Closed-form evaluators for every counting theorem in the toolkit.

Each function evaluates one explicit sum of exact integer terms, every
division checked exact: a term whose quotient is not an integer raises
ArithmeticError, so a transcribed factor that is off by one fails
immediately rather than producing a plausible-looking wrong integer.

The degenerate 0/0 terms appearing in two of the sums are fixed by reading
the offending factor as a coefficient of a zeroth power (value 1 at index 0,
else 0); this is the convention under which the evaluators reproduce the
published sequence prefixes pinned in SEQUENCES.

The {du, h} count is a double sum over i, j with k = n - i - j, and
du_h_values evaluates it for every n up to a bound N at once.  Write
p = i + j and m = i + 2p + 1.  The sign and binomial of a term,
(-1)^k C(3i + 2j + k, k), is the coefficient [t^k] of (1 + t)^(-m), so

    du_h(n) = [t^n] sum_m (1 + t)^(-m) R_m(t),
    R_m(t)  = sum_p 2^p C_i catpow(i, p - i) t^p   over i = m - 1 - 2p, 0 <= i <= p,

where C_i is the i-th Catalan number and catpow(i, j) is [t^j] of the i-th
power of the Catalan series.  Horner in 1/(1 + t) runs m from 3N + 1 down
to 1: add R_m, then divide the series, truncated after t^N, by 1 + t with
b_k = a_k - b_(k-1).  Every step adds or subtracts exact integers, and
each quotient coefficient depends only on the coefficients at or below it,
so the truncation loses nothing: the values are the sum's, exactly, in
O(N^2) additions and one Catalan-power coefficient per pair (i, p).

A SequencePrefix holds a prefix evaluator, upto -> the values for
n = 0..upto, so a b-file is one call.  The {du, h} and little Schroeder
sequences share their evaluators with du_h and little_schroeder, which read
one entry of the prefix; every other sequence lifts its per-n closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .combinat import binomial, catalan, catalan_power_coeff, gnc_total, little_schroeder
from .combinat import little_schroeder_values, ternary, ternary_power_coeff

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "h_avoiding",
    "d_avoiding",
    "d_avoiding_by_ascents",
    "uu_h",
    "dd_h",
    "ud_h",
    "du_h",
    "du_h_values",
    "alternating",
    "alternating_by_ascents",
    "parity_signed",
    "narayana_check",
    "SequencePrefix",
    "SEQUENCES",
    "FORMULA_COUNTS",
]


def h_avoiding(n: int) -> int:
    """Number of level-free trees with n edges.

    Alternating sum sum_i (-1)^(n-i) (2^i/(2i+1)) C(3i,i) C(n+2i,3i), whose
    factor C(3i,i)/(2i+1) is the ternary number T_i.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0
    for i in range(n + 1):
        term = 2**i * ternary(i) * binomial(n + 2 * i, 3 * i)
        total += term if (n - i) % 2 == 0 else -term
    return total


def d_avoiding(n: int) -> int:
    """Number of descent-free trees with n edges."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(ternary_power_coeff(i, n - i) * 2**i * catalan(i) for i in range(n + 1))


def d_avoiding_by_ascents(n: int, k: int) -> int:
    """Descent-free trees with n edges and exactly k ascents.

    Every ascent mark in the Catalan-composition form of the descent-free
    series rides on t times the cube of the ternary series, so the x^k t^n
    coefficient factors as [t^(n-k)] of the (3k+1)-st ternary power times an
    alternating convolution.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    bracket = sum(
        (-1) ** (k - i) * binomial(k + i, k - i) * 2**i * catalan(i) for i in range(k + 1)
    )
    return ternary_power_coeff(3 * k + 1, n - k) * bracket


def uu_h(m: int) -> int:
    """Number of {uu, h}-avoiding trees with m edges.

    The underlying sum counts trees with n + 2 edges; this evaluator takes
    the plain edge count m and absorbs the shift (values 1, 1 below m = 2).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m <= 1:
        return 1
    n = m - 2
    return sum(binomial(n, i) * 2 ** (i + 2) * catalan(i + 1) for i in range(n + 1))


def dd_h(n: int) -> int:
    """Number of {dd, h}-avoiding trees with n edges."""
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0
    for j in range(n + 1):
        term = binomial(2 * n - j, j) * 3**j * 4 ** (n - j) * catalan(n - j)
        total += term if j % 2 == 0 else -term
    return total


def ud_h(n: int) -> int:
    """Number of {ud, h}-avoiding trees with n edges (little Schroeder)."""
    return little_schroeder(n)


def du_h_values(upto: int) -> list[int]:
    """Numbers of {du, h}-avoiding trees with n = 0..upto edges: the double
    sum grouped by m and evaluated by Horner in 1/(1 + t) (module docstring)."""
    if upto < 0:
        raise ValueError("n must be >= 0")
    cat = [catalan(i) for i in range(upto + 1)]
    b = [0] * (upto + 1)
    for m in range(3 * upto + 1, 0, -1):
        # add R_m: the pairs with i = m - 1 - 2p and 0 <= i <= p <= upto
        lo = -(-(m - 1) // 3)
        for p in range(lo, min((m - 1) // 2, upto) + 1):
            i = m - 1 - 2 * p
            b[p] += 2**p * cat[i] * catalan_power_coeff(i, p - i)
        # divide by 1 + t; b[k] is still 0 below k = lo
        for k in range(lo + 1, upto + 1):
            b[k] -= b[k - 1]
    return b


def du_h(n: int) -> int:
    """Number of {du, h}-avoiding trees with n edges."""
    return du_h_values(n)[n]


def alternating(n: int) -> int:
    """Number of {uu, dd, h}-avoiding trees with n edges."""
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0
    for i in range(n + 1):
        term = binomial(i + 1, n - i) * 2**i * catalan(i)
        total += term if (n - i) % 2 == 0 else -term
    return total


def alternating_by_ascents(n: int, r: int) -> int:
    """Alternating trees with n edges and exactly r ascents."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    total = 0
    for i in range(n + 1):
        for j in range(n - i + 1):
            k = n - i - j
            term = (
                binomial(i + 1, j)
                * binomial(2 * i + k, k)
                * binomial(k, r - j)
                * 2 ** (i + k)
                * catalan(i)
            )
            total += term if (r + k) % 2 == 0 else -term
    return total


def parity_signed(n: int) -> int:
    """Ascent-parity-signed count of alternating trees with n edges.

    Nonzero only at n = 0 (value 1) and odd n = 2k + 1, where the value is
    (-1)^(k+1) 2^k C_k.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    if n % 2 == 0:
        return 0
    k = (n - 1) // 2
    value = 2**k * catalan(k)
    return value if (k + 1) % 2 == 0 else -value


class NarayanaCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


def narayana_check(n: int, q) -> NarayanaCheck:
    """Evaluate both sides of the Narayana polynomial identity at rational q.

    lhs = sum_{i=1..n} (1/n) C(n,i-1) C(n,i) q^i
    rhs = sum_{i=0..n} C(n+i,n-i) C_i (q-1)^(n-i)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    from fractions import Fraction  # only this check needs it; b-files load none

    # both sides times n r^n, at q = p/r in lowest terms, are integer sums
    q = Fraction(q)
    p, r = q.numerator, q.denominator
    lhs = sum(binomial(n, i - 1) * binomial(n, i) * p**i * r ** (n - i) for i in range(1, n + 1))
    rhs = n * sum(binomial(n + i, n - i) * catalan(i) * (p - r) ** (n - i) * r**i for i in range(n + 1))
    scale = n * r**n
    return NarayanaCheck(Fraction(lhs, scale), Fraction(rhs, scale), lhs == rhs)


@dataclass(frozen=True)
class SequencePrefix:
    """A sequence's pinned leading values, their provenance and its prefix
    evaluator.

    Provenance "published" marks prefixes printed in the literature for the
    class, kept as regression fixtures; "derived" prefixes were computed by
    this toolkit's own oracles and frozen.
    """

    values: tuple[int, ...]
    provenance: str
    fn: Callable[[int], list[int]]  # upto -> the values for n = 0..upto

    def regenerate(self, upto: int | None = None) -> tuple[int, ...]:
        """The values for n = 0..upto, by default as many as are pinned."""
        if upto is None:
            upto = len(self.values) - 1
        if upto < 0:
            raise ValueError("n must be >= 0")
        return tuple(self.fn(upto))


def _each_n(fn: Callable[[int], int]) -> Callable[[int], list[int]]:
    """The prefix evaluator of a sequence with a per-n closed form."""
    return lambda upto: [fn(n) for n in range(upto + 1)]


SEQUENCES: dict[str, SequencePrefix] = {
    "gnc-total": SequencePrefix((1, 2, 12, 96, 880, 8736, 91392), "derived", _each_n(gnc_total)),
    "ternary": SequencePrefix((1, 1, 3, 12, 55, 273, 1428, 7752), "derived", _each_n(ternary)),
    "catalan": SequencePrefix((1, 1, 2, 5, 14, 42, 132), "derived", _each_n(catalan)),
    "little-schroeder": SequencePrefix((1, 1, 3, 11, 45, 197, 903), "derived", little_schroeder_values),
    "gnc-h": SequencePrefix((1, 1, 5, 31, 217, 1637, 12985), "published", _each_n(h_avoiding)),
    "gnc-d": SequencePrefix((1, 2, 10, 62, 424, 3070), "published", _each_n(d_avoiding)),
    "gnc-hd": SequencePrefix((1, 1, 3, 11, 45, 197, 903), "derived", little_schroeder_values),
    "gnc-uu-h": SequencePrefix((1, 1, 4, 20, 116, 740), "derived", _each_n(uu_h)),
    "gnc-dd-h": SequencePrefix((1, 1, 5, 29, 185, 1257), "derived", _each_n(dd_h)),
    "gnc-ud-h": SequencePrefix((1, 1, 3, 11, 45, 197, 903), "derived", little_schroeder_values),
    "gnc-du-h": SequencePrefix((1, 1, 5, 27, 157, 957, 6025), "published", du_h_values),
    "gnc-alternating": SequencePrefix((1, 1, 4, 18, 88, 456, 2464), "derived", _each_n(alternating)),
    "gnc-alternating-signed": SequencePrefix((1, -1, 0, 2, 0, -8, 0, 40), "derived", _each_n(parity_signed)),
}


# Pattern classes with a closed-form count, keyed by the avoided set.
FORMULA_COUNTS: dict[frozenset[str], Callable[[int], int]] = {
    frozenset(): gnc_total,
    frozenset({"u"}): ternary,
    frozenset({"u", "d"}): ternary,
    frozenset({"h"}): h_avoiding,
    frozenset({"d"}): d_avoiding,
    frozenset({"h", "d"}): little_schroeder,
    frozenset({"uu", "h"}): uu_h,
    frozenset({"dd", "h"}): dd_h,
    frozenset({"ud", "h"}): ud_h,
    frozenset({"du", "h"}): du_h,
    frozenset({"uu", "dd", "h"}): alternating,
}
