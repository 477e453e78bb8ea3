import dataclasses
from fractions import Fraction
from math import comb

import pytest

from gnctrees import formulas
from gnctrees.cli import MAX_FORMULA_N, main
from gnctrees.combinat import _exact_div, binomial, catalan, catalan_power_coeff, little_schroeder
from gnctrees.combinat import ternary
from gnctrees.formulas import (
    FORMULA_COUNTS,
    SEQUENCES,
    SequencePrefix,
    alternating,
    alternating_by_ascents,
    d_avoiding,
    d_avoiding_by_ascents,
    dd_h,
    du_h,
    du_h_values,
    h_avoiding,
    narayana_check,
    parity_signed,
    ud_h,
    uu_h,
)
from gnctrees.patterns import census
from gnctrees.series import solve_uudd


def published_h_avoiding(n):
    """The published sum, with its rational factor 2^i / (2i + 1)."""
    return sum(
        (-1) ** (n - i) * Fraction(2**i, 2 * i + 1) * comb(3 * i, i) * comb(n + 2 * i, 3 * i)
        for i in range(n + 1)
    )


def published_du_h(n):
    """The published double sum, with the Catalan-power coefficient
    (i / (2j + i)) C(2j + i, j) as a fraction (1 at i = j = 0)."""
    total = Fraction(0)
    for i in range(n + 1):
        for j in range(n - i + 1):
            k = n - i - j
            power = Fraction(i, 2 * j + i) * comb(2 * j + i, j) if i else Fraction(j == 0)
            catalan_i = Fraction(comb(2 * i, i), i + 1)
            total += (-1) ** k * comb(3 * i + 2 * j + k, k) * power * 2 ** (i + j) * catalan_i
    return total


def literal_du_h(n):
    """The reference for du_h_values: the {du, h} double sum term by term,
    a fresh sum over i, j for each n, with k = n - i - j."""
    total = 0
    for i in range(n + 1):
        outer = 2**i * catalan(i)
        for j in range(n - i + 1):
            k = n - i - j
            term = binomial(3 * i + 2 * j + k, k) * catalan_power_coeff(i, j) * 2**j * outer
            total += term if k % 2 == 0 else -term
    return total


# The per-n evaluator of each sequence: the FORMULA_COUNTS entry of its
# pattern class where it has one, else its closed form.
PER_N = {
    "gnc-total": FORMULA_COUNTS[frozenset()],
    "ternary": FORMULA_COUNTS[frozenset({"u"})],
    "catalan": catalan,
    "little-schroeder": little_schroeder,
    "gnc-h": FORMULA_COUNTS[frozenset({"h"})],
    "gnc-d": FORMULA_COUNTS[frozenset({"d"})],
    "gnc-hd": FORMULA_COUNTS[frozenset({"h", "d"})],
    "gnc-uu-h": FORMULA_COUNTS[frozenset({"uu", "h"})],
    "gnc-dd-h": FORMULA_COUNTS[frozenset({"dd", "h"})],
    "gnc-ud-h": FORMULA_COUNTS[frozenset({"ud", "h"})],
    "gnc-du-h": FORMULA_COUNTS[frozenset({"du", "h"})],
    "gnc-alternating": FORMULA_COUNTS[frozenset({"uu", "dd", "h"})],
    "gnc-alternating-signed": parity_signed,
}


def census_by_ascents(n, pats):
    out = {}
    for st, c in census(n, pats).items():
        out[st.u] = out.get(st.u, 0) + c
    return out


def test_h_avoiding_published_prefix():
    assert [h_avoiding(n) for n in range(7)] == [1, 1, 5, 31, 217, 1637, 12985]


def test_integer_evaluators_match_published_fraction_sums():
    for n in range(41):
        assert h_avoiding(n) == published_h_avoiding(n), n
        assert du_h(n) == published_du_h(n), n


def test_du_h_prefix_matches_the_literal_double_sum():
    literal = [literal_du_h(n) for n in range(61)]
    assert du_h_values(60) == literal
    assert [du_h(n) for n in range(61)] == literal


def test_non_exact_term_raises(monkeypatch):
    # a Catalan-power coefficient with a wrong divisor must fail the sum
    def wrong(i, j):
        return _exact_div(i * comb(2 * j + i, j), 2 * j + i + 1) if i else int(j == 0)

    monkeypatch.setattr(formulas, "catalan_power_coeff", wrong)
    with pytest.raises(ArithmeticError):
        du_h(3)


def test_d_avoiding_published_prefix():
    assert [d_avoiding(n) for n in range(6)] == [1, 2, 10, 62, 424, 3070]


def test_d_avoiding_by_ascents_edge_cases():
    for n in range(9):
        assert d_avoiding_by_ascents(n, 0) == ternary(n)
    assert d_avoiding_by_ascents(1, 1) == 1
    assert sum(d_avoiding_by_ascents(4, k) for k in range(5)) == 424
    with pytest.raises(ValueError):
        d_avoiding_by_ascents(3, 4)


def test_d_avoiding_by_ascents_matches_brute_force():
    for n in range(5):
        by_k = census_by_ascents(n, ("d",))
        for k in range(n + 1):
            assert d_avoiding_by_ascents(n, k) == by_k.get(k, 0), (n, k)


def test_d_avoiding_marginal():
    for n in range(11):
        assert sum(d_avoiding_by_ascents(n, k) for k in range(n + 1)) == d_avoiding(n)


def test_uu_h_values():
    assert [uu_h(m) for m in range(6)] == [1, 1, 4, 20, 116, 740]
    assert uu_h(2) == census(2, ("uu", "h")).total


def test_dd_h_values():
    assert [dd_h(n) for n in range(6)] == [1, 1, 5, 29, 185, 1257]
    assert dd_h(2) == census(2, ("dd", "h")).total


def test_ud_h_is_little_schroeder():
    for n in range(9):
        assert ud_h(n) == little_schroeder(n)
    assert ud_h(4) == 45


def test_du_h_published_prefix():
    assert [du_h(n) for n in range(7)] == [1, 1, 5, 27, 157, 957, 6025]
    assert du_h(3) == 27
    assert du_h(6) == 6025


def test_alternating_values():
    assert alternating(2) == 4
    assert [alternating(n) for n in range(6)] == [1, 1, 4, 18, 88, 456]
    assert alternating_by_ascents(2, 1) == 2
    for n in range(4):
        assert sum(alternating_by_ascents(n, r) for r in range(n + 1)) == alternating(n)


def test_alternating_by_ascents_matches_brute_force():
    for n in range(5):
        by_r = census_by_ascents(n, ("uu", "dd", "h"))
        for r in range(n + 1):
            assert alternating_by_ascents(n, r) == by_r.get(r, 0), (n, r)


def test_alternating_by_ascents_matches_series_x_degrees():
    p, _ = solve_uudd(10)
    p01 = p.substitute(y=0, z=1)
    for n in range(11):
        for r in range(n + 1):
            assert alternating_by_ascents(n, r) == p01.coeffs[n].terms.get((r, 0, 0), 0)


def test_alternating_marginals():
    for n in range(11):
        assert sum(alternating_by_ascents(n, r) for r in range(n + 1)) == alternating(n)
        signed = sum((-1) ** r * alternating_by_ascents(n, r) for r in range(n + 1))
        assert signed == parity_signed(n)


def test_parity_signed_values():
    assert [parity_signed(n) for n in range(8)] == [1, -1, 0, 2, 0, -8, 0, 40]
    assert parity_signed(4) == 0
    assert parity_signed(3) == 2


def test_narayana_check():
    chk = narayana_check(1, 2)
    assert chk.lhs == chk.rhs == 2
    for n in range(1, 21):
        for q in (-3, -2, -1, 0, 1, 2, 3):
            assert narayana_check(n, q).equal, (n, q)
        assert narayana_check(n, 0).lhs == 0
    assert narayana_check(5, 1).lhs == catalan(5) == 42
    assert narayana_check(3, Fraction(1, 2)).equal
    with pytest.raises(ValueError):
        narayana_check(0, 1)


def test_sequences_registry():
    for name, seq in SEQUENCES.items():
        assert seq.regenerate() == seq.values, name
        assert seq.provenance in ("published", "derived")
    assert SEQUENCES["gnc-h"].provenance == "published"
    assert SEQUENCES["gnc-du-h"].values[6] == 6025
    assert SEQUENCES["gnc-total"].regenerate(4) == (1, 2, 12, 96, 880)


def test_a_sequence_entry_is_its_values_provenance_and_evaluator():
    # keyed by name in SEQUENCES; the benchmark tracer swaps fn by dataclasses.replace
    assert [f.name for f in dataclasses.fields(SequencePrefix)] == ["values", "provenance", "fn"]
    seq = SEQUENCES["catalan"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        seq.fn = None
    assert dataclasses.replace(seq, fn=lambda upto: [7] * (upto + 1)).regenerate(2) == (7, 7, 7)


def test_sequence_prefixes_are_prefix_stable_and_match_per_n():
    assert PER_N.keys() == SEQUENCES.keys()
    for name, seq in SEQUENCES.items():
        full = seq.regenerate(60)
        assert len(full) == 61, name
        for a in range(61):
            assert seq.regenerate(a) == full[: a + 1], (name, a)
        assert full == tuple(PER_N[name](n) for n in range(61)), name


def test_regenerate_rejects_negative():
    for seq in SEQUENCES.values():
        with pytest.raises(ValueError, match="n must be >= 0"):
            seq.regenerate(-1)


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_bfile_at_the_ceiling_matches_per_n(capsys, name):
    assert main(["oeis", "--sequence", name, "--max-n", str(MAX_FORMULA_N)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == MAX_FORMULA_N + 1
    assert lines[-1] == f"{MAX_FORMULA_N} {PER_N[name](MAX_FORMULA_N)}"


def test_formula_counts_registry_agrees_with_brute_force():
    for key, fn in FORMULA_COUNTS.items():
        for n in range(4):
            if key:
                assert fn(n) == census(n, tuple(sorted(key))).total, key
            else:
                assert fn(n) == census(n).total


def test_rejects_negative():
    for fn in (h_avoiding, d_avoiding, dd_h, du_h, alternating, parity_signed, uu_h):
        with pytest.raises(ValueError):
            fn(-1)
