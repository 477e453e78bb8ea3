import itertools

import pytest

from gnctrees.combinat import (
    _exact_div,
    binomial,
    catalan,
    catalan_power_coeff,
    gnc_total,
    little_schroeder,
    ternary,
    ternary_power_coeff,
)


def pascal_table(rows):
    """Independent oracle: the additive recurrence, no multiplication."""
    table = [[1]]
    for n in range(1, rows):
        prev = table[-1]
        table.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return table


def brute_dyck_count(n):
    """Independent oracle: enumerate all +-1 step sequences of length 2n."""
    count = 0
    for steps in itertools.product((1, -1), repeat=2 * n):
        height = 0
        for s in steps:
            height += s
            if height < 0:
                break
        else:
            if height == 0:
                count += 1
    return count


def multiplicative_binomial(n, k):
    """Independent oracle: the running-product loop with floor division."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i
    return out


def test_binomial_hand_values():
    assert binomial(4, 2) == 6
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 0) == 1
    assert binomial(21, 7) == 116280


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_matches_pascal_recurrence():
    table = pascal_table(26)
    for n in range(26):
        for k in range(n + 1):
            assert binomial(n, k) == table[n][k]


def test_binomial_matches_multiplicative_loop():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(n=hypothesis.strategies.integers(min_value=0, max_value=400))
    def check(n):
        for k in range(-2, n + 3):
            assert binomial(n, k) == multiplicative_binomial(n, k), (n, k)

    check()


def test_binomial_symmetry():
    for n in range(101):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n, n - k)


def test_catalan_small_by_dyck_path_count():
    for n in range(7):
        assert catalan(n) == brute_dyck_count(n)
    assert catalan(0) == 1
    assert catalan(3) == 5


def test_catalan_convolution_recurrence():
    for n in range(16):
        assert catalan(n + 1) == sum(catalan(i) * catalan(n - i) for i in range(n + 1))
    assert catalan(10) == 16796


def test_ternary_values():
    assert [ternary(n) for n in range(8)] == [1, 1, 3, 12, 55, 273, 1428, 7752]
    # exact division must hold far out
    for n in range(61):
        assert ternary(n) * (2 * n + 1) == binomial(3 * n, n)


def test_ternary_matches_cubic_fixed_point_to_order_30():
    from gnctrees.series import eval_numeric, solve_ternary_gf

    assert eval_numeric(solve_ternary_gf(30), 1, 1, 1) == [ternary(n) for n in range(31)]


def test_gnc_total_values():
    assert [gnc_total(n) for n in range(7)] == [1, 2, 12, 96, 880, 8736, 91392]
    for n in range(20):
        assert gnc_total(n) == 2**n * ternary(n)


def test_little_schroeder_values():
    assert [little_schroeder(n) for n in range(7)] == [1, 1, 3, 11, 45, 197, 903]


def test_little_schroeder_quadratic_identity():
    # 2 t R^2 - (1 + t) R + 1 = 0, checked by plain convolution to order 20
    r = [little_schroeder(n) for n in range(21)]
    sq = [sum(r[i] * r[k - i] for i in range(k + 1)) for k in range(21)]
    for k in range(21):
        residual = (2 * sq[k - 1] if k >= 1 else 0) - r[k] - (r[k - 1] if k >= 1 else 0)
        residual += 1 if k == 0 else 0
        assert residual == 0, k


def test_ternary_power_coeff_examples():
    assert ternary_power_coeff(0, 0) == 1
    assert ternary_power_coeff(0, 3) == 0
    assert ternary_power_coeff(1, 2) == ternary(2) == 3
    assert ternary_power_coeff(2, 1) == 2


def test_ternary_power_coeff_matches_series_powers():
    # oracle: convolve the ternary series with itself i times
    order = 12
    base = [ternary(n) for n in range(order + 1)]
    power = [1] + [0] * order
    for i in range(9):
        for j in range(order + 1):
            assert ternary_power_coeff(i, j) == power[j], (i, j)
        power = [sum(power[a] * base[j - a] for a in range(j + 1)) for j in range(order + 1)]


def test_catalan_power_coeff_matches_series_powers():
    # oracle: the Catalan series from its convolution recurrence, raised to
    # the i-th power by plain convolution
    order = 15
    base = [1]
    for n in range(order):
        base.append(sum(base[a] * base[n - a] for a in range(n + 1)))
    power = [1] + [0] * order
    for i in range(order + 1):
        for j in range(order + 1):
            assert catalan_power_coeff(i, j) == power[j], (i, j)
        power = [sum(power[a] * base[j - a] for a in range(j + 1)) for j in range(order + 1)]


@pytest.mark.parametrize("i, j", [(1, 1), (2, 3), (5, 4)])
def test_wrong_divisor_raises(i, j):
    # the Catalan-power numerator over 2j + i + 1 instead of 2j + i
    assert _exact_div(i * binomial(2 * j + i, j), 2 * j + i) == catalan_power_coeff(i, j)
    with pytest.raises(ArithmeticError):
        _exact_div(i * binomial(2 * j + i, j), 2 * j + i + 1)


def test_negative_arguments_rejected():
    for fn in (catalan, ternary, gnc_total, little_schroeder):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        ternary_power_coeff(-1, 0)
    with pytest.raises(ValueError):
        ternary_power_coeff(0, -2)
    with pytest.raises(ValueError):
        catalan_power_coeff(-1, 0)
    with pytest.raises(ValueError):
        catalan_power_coeff(0, -2)
