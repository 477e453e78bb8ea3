"""Exact integer kernels for the counting sequences used by every module.

Everything here is arbitrary-precision integer arithmetic.  Divisions only
occur where the quotient is provably integral and are checked, so a wrong
formula fails loudly instead of silently rounding.
"""

from __future__ import annotations

import math

__all__ = [
    "binomial",
    "catalan",
    "ternary",
    "gnc_total",
    "little_schroeder",
    "little_schroeder_values",
    "ternary_power_coeff",
    "catalan_power_coeff",
]


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-exact division {num}/{den}")
    return q


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with value 0 whenever k < 0 or k > n.

    The out-of-range convention keeps summation formulas free of edge-case
    guards.  Negative ``n`` is rejected.
    """
    if n < 0:
        raise ValueError("binomial: n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(n: int) -> int:
    """n-th Catalan number, C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("catalan: n must be nonnegative")
    return _exact_div(binomial(2 * n, n), n + 1)


def ternary(n: int) -> int:
    """n-th ternary number, C(3n, n) / (2n + 1).

    Counts non-crossing trees on n + 1 circularly ordered points.
    """
    if n < 0:
        raise ValueError("ternary: n must be nonnegative")
    return _exact_div(binomial(3 * n, n), 2 * n + 1)


def gnc_total(n: int) -> int:
    """Number of rooted generalized non-crossing trees with n edges.

    Equals 2^n times the ternary number: extending a non-crossing tree on
    n + 1 points with any subset of the n label-increase gaps.
    """
    if n < 0:
        raise ValueError("gnc_total: n must be nonnegative")
    return (1 << n) * ternary(n)


def little_schroeder_values(upto: int) -> list[int]:
    """The little Schroeder numbers for n = 0..upto.

    Extracted from the series fixed point R = 1 - t*R + 2*t*R^2 rather than a
    hardcoded recurrence, so the values rest on the same equation the rest of
    the toolkit verifies.  O(upto^2) integer work, no shared state.
    """
    if upto < 0:
        raise ValueError("little_schroeder: n must be nonnegative")
    r = [1]
    for m in range(1, upto + 1):
        conv = sum(r[i] * r[m - 1 - i] for i in range(m))
        r.append(2 * conv - r[m - 1])
    return r


def little_schroeder(n: int) -> int:
    """n-th little Schroeder number."""
    return little_schroeder_values(n)[n]


def ternary_power_coeff(i: int, j: int) -> int:
    """Coefficient of t^j in the i-th power of the ternary generating function.

    Closed form (i / (3j + i)) * C(3j + i, j) for i >= 1.  The degenerate
    i = 0 case is the constant series 1, so the value is 1 when j = 0 and 0
    otherwise.
    """
    if i < 0 or j < 0:
        raise ValueError("ternary_power_coeff: i and j must be nonnegative")
    if i == 0:
        return 1 if j == 0 else 0
    return _exact_div(i * binomial(3 * j + i, j), 3 * j + i)


def catalan_power_coeff(i: int, j: int) -> int:
    """Coefficient of t^j in the i-th power of the Catalan generating function:
    (i / (2j + i)) * C(2j + i, j), with the i = 0 case as above."""
    if i < 0 or j < 0:
        raise ValueError("catalan_power_coeff: i and j must be nonnegative")
    if i == 0:
        return 1 if j == 0 else 0
    return _exact_div(i * binomial(2 * j + i, j), 2 * j + i)
