"""Property tests: the census kernel and the per-tree occurrence counter against
a naive per-tree oracle, the round trips of the tree and path encodings, any
small tree JSON read back as a valid tree or a named ValueError, the
crossing scan of ``validate`` against a test of every pair of edges,
substitution and evaluation into a point's ring against the series algebra,
the lazy operators read in any order against the same int-list reference, a
square against the product with an equal operand, the packed TriPoly kernel
against a tuple-keyed convolution, the one-term product against that kernel,
the packed x-z swap against the tuple-keyed one, the polynomial operators'
results against their operands' dicts, the prefix stability of every solved
system, the digits of the packed ring read back into the polynomial, and the
integer Narayana check against a direct evaluation in fractions.

The census oracle reads every root-to-vertex word with ``path_word`` and
tests patterns with plain string containment, so it shares no code with the
kernel in ``gnctrees.patterns``.  The series oracle is plain int lists with
their own product, reciprocal and Catalan composition.
"""

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gnctrees.combinat import gnc_total  # noqa: E402
from gnctrees.formulas import narayana_check  # noqa: E402
from gnctrees.patterns import census, count_occurrences, enumerate_avoiders  # noqa: E402
from gnctrees.series import (  # noqa: E402
    EXPONENT_LIMIT,
    SYSTEMS,
    TRI,
    TriPoly,
    TriSeries,
    _at_point,
    _digit_bits,
    _monomial_mul,
    _packed_ring,
    _poly_mul,
    _unpack_digits,
    catalan_compose,
    invert,
)
from gnctrees.schroder import decode_path, encode_tree, enumerate_schroder  # noqa: E402
from gnctrees.trees import (  # noqa: E402
    GncTree,
    NcTree,
    classify,
    crossing,
    enumerate_gnc,
    enumerate_nc_trees,
    jumps_from_mask,
    make_gnc,
    path_word,
    tree_from_json,
    tree_to_json,
    validate,
)

words = st.text(alphabet="uhd", min_size=1, max_size=3)
pattern_sets = st.lists(words, min_size=1, max_size=3)
sizes = st.integers(min_value=0, max_value=5)


@lru_cache(maxsize=None)
def naive_trees(n):
    """(tree, root-to-vertex words, stat triple, star) for every tree with n edges."""
    out = []
    for t in enumerate_gnc(n):
        paths = tuple(path_word(t, v) for v in range(n + 1))
        out.append((t, paths, classify(t)[1], n == 0 or 1 in t.jumps))
    return out


def naive_avoids(paths, pats):
    return not any(p in w for w in paths for p in pats)


@settings(max_examples=40, deadline=None)
@given(n=sizes, pats=pattern_sets | st.just([]), star=st.booleans())
def test_census_equals_naive_oracle(n, pats, star):
    table = {}
    for _, paths, stat, is_star in naive_trees(n):
        if (is_star or not star) and naive_avoids(paths, pats):
            table[stat] = table.get(stat, 0) + 1
    assert dict(census(n, pats, star_only=star).items()) == table


@settings(max_examples=30, deadline=None)
@given(n=sizes, pattern=words)
def test_count_occurrences_equals_naive_counts(n, pattern):
    # an occurrence is a run ending at a vertex: a root word ending in the pattern
    for t, paths, _, _ in naive_trees(n):
        assert count_occurrences(t, pattern) == sum(w.endswith(pattern) for w in paths)


@settings(max_examples=20, deadline=None)
@given(n=sizes, pats=pattern_sets)
def test_avoiders_are_the_naive_avoiders_in_order(n, pats):
    expected = [t for t, paths, _, _ in naive_trees(n) if naive_avoids(paths, pats)]
    assert list(enumerate_avoiders(n, pats)) == expected


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=0, max_value=7))
def test_unfiltered_census_total_is_gnc_total(n):
    assert census(n).total == gnc_total(n)


@lru_cache(maxsize=None)
def nc_trees(points):
    return list(enumerate_nc_trees(points))


@lru_cache(maxsize=None)
def schroder_paths(n):
    return list(enumerate_schroder(n))


@st.composite
def gnc_trees(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    base = draw(st.sampled_from(nc_trees(n + 1)))
    mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return make_gnc(base, jumps_from_mask(mask))


@st.composite
def little_schroder_paths(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return draw(st.sampled_from(schroder_paths(n)))


@settings(max_examples=60, deadline=None)
@given(tree=gnc_trees())
def test_tree_json_round_trip(tree):
    assert tree_from_json(tree_to_json(tree)) == tree


@settings(max_examples=60, deadline=None)
@given(path=little_schroder_paths())
def test_encode_and_decode_are_inverse_on_paths(path):
    tree = decode_path(path)
    assert encode_tree(tree) == path
    assert decode_path(encode_tree(tree)) == tree


tree_objects = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=0, max_value=5),
        "edges": st.lists(st.lists(st.integers(min_value=-1, max_value=6), min_size=2, max_size=2), max_size=7),
        "jumps": st.lists(st.integers(min_value=-1, max_value=7), max_size=6),
    }
)


@settings(max_examples=200, deadline=None)
@given(data=tree_objects)
@example(data={"n": 2, "edges": [[1, 1], [0, 1]], "jumps": []})
def test_tree_json_is_a_valid_tree_or_a_named_value_error(data):
    try:
        tree = tree_from_json(data)
    except ValueError as exc:
        assert str(exc).startswith(("tree JSON: ", "invalid tree: ")), exc
        return
    assert validate(tree) == []
    assert tree_from_json(tree_to_json(tree)) == tree


CROSSING_PAIR = re.compile(r"edges \((\d+), (\d+)\) and \((\d+), (\d+)\) cross")


@st.composite
def edge_sets(draw, max_points=8):
    points = draw(st.integers(min_value=2, max_value=max_points))
    ends = st.integers(min_value=0, max_value=points - 1)
    # loops included: a loop crosses nothing, and the scan must step over it
    edges = draw(st.lists(st.tuples(ends, ends), max_size=12))
    return NcTree.of(points, edges)


@settings(max_examples=200, deadline=None)
@given(base=edge_sets())
def test_validate_rejects_exactly_the_edge_sets_with_a_crossing_pair(base):
    crossed = [p for p in validate(GncTree(base, frozenset())) if "cross" in p]
    assert bool(crossed) == any(crossing(e, f) for e, f in itertools.combinations(base.edges, 2))
    for problem in crossed:
        a, b, c, d = map(int, CROSSING_PAIR.fullmatch(problem).groups())
        assert {(a, b), (c, d)} <= base.edges and crossing((a, b), (c, d))


# ---------------------------------------------------------------------------
# substitution commutes with the series algebra
# ---------------------------------------------------------------------------


def u_at(f, x, y, z):
    """[t^n] of f at an integer point, as a plain int list."""
    return [sum(v * x**a * y**b * z**c for (a, b, c), v in p.terms.items()) for p in f.coeffs]


def u_mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def u_shift(a):
    return [0] + a[:-1]


def u_invert(a):
    out = [1]
    for n in range(1, len(a)):
        out.append(-sum(a[k] * out[n - k] for k in range(1, n + 1)))
    return out


def u_catalan(f):
    c = [1]
    for n in range(1, len(f)):
        sq = u_mul(c, c)
        c.append(sum(f[j] * sq[n - j] for j in range(1, n + 1)))
    return c


def constants(f):
    """The coefficient list of a series substituted at a point."""
    assert all(set(p.terms) <= {(0, 0, 0)} for p in f.coeffs)
    return [p.terms.get((0, 0, 0), 0) for p in f.coeffs]


tri_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * 3), st.integers(-3, 3), max_size=3
).map(TriPoly)
points = st.tuples(*[st.integers(-2, 2)] * 3)


@st.composite
def series_pairs(draw):
    order = draw(st.integers(min_value=0, max_value=6))
    same_order = st.lists(tri_polys, min_size=order + 1, max_size=order + 1).map(TriSeries)
    return draw(same_order), draw(same_order)


def with_constant(f, value):
    return TriSeries((f.ring.one * value,) + f.coeffs[1:], f.order, f.ring)


@settings(max_examples=40, deadline=None)
@given(pair=series_pairs(), scale=tri_polys, point=points)
def test_substitution_commutes_with_the_series_algebra(pair, scale, point):
    f, g = pair
    x, y, z = point
    fu, gu = u_at(f, *point), u_at(g, *point)
    s = u_at(TriSeries([scale]), *point)[0]
    unit, nil = u_at(with_constant(f, 1), *point), u_at(with_constant(g, 0), *point)
    cases = [
        (lambda a, b, p: a + b, [p + q for p, q in zip(fu, gu)]),
        (lambda a, b, p: a - b, [p - q for p, q in zip(fu, gu)]),
        (lambda a, b, p: a * b, u_mul(fu, gu)),
        (lambda a, b, p: a.shift(), u_shift(fu)),
        (lambda a, b, p: a.scale(p), [s * p for p in fu]),
        (lambda a, b, p: invert(with_constant(a, 1)), u_invert(unit)),
        (lambda a, b, p: catalan_compose(with_constant(b, 0)), u_catalan(nil)),
    ]
    subs = dict(x=x, y=y, z=z)
    for op, expected in cases:
        # substituting after the operation, or operating on substituted series
        assert constants(op(f, g, scale).substitute(**subs)) == expected
        assert constants(op(f.substitute(**subs), g.substitute(**subs), scale.substitute(**subs))) == expected
        # or operating on int series over the point's ring
        assert list(op(_at_point(f, *point), _at_point(g, *point), scale.eval(*point)).coeffs) == expected


def shared_operand(f, g):
    """h + h t for h = f g: two readers of one lazy series."""
    h = f * g
    return h + h.shift()


@settings(max_examples=40, deadline=None)
@given(pair=series_pairs(), scale=tri_polys, point=points, data=st.data())
def test_operator_coefficients_read_in_any_order_are_the_reference_values(pair, scale, point, data):
    f, g = pair
    fu, gu = u_at(f, *point), u_at(g, *point)
    s = u_at(TriSeries([scale]), *point)[0]
    fg = u_mul(fu, gu)
    plus, minus_shifted = [p + q for p, q in zip(fu, gu)], [p - q for p, q in zip(fu, u_shift(gu))]
    cases = [
        (lambda: f + g, plus),
        (lambda: f - g, [p - q for p, q in zip(fu, gu)]),
        (lambda: -f, [-p for p in fu]),
        (lambda: f * g, fg),
        (lambda: f.shift(), u_shift(fu)),
        (lambda: f.shift(2), u_shift(u_shift(fu))),
        (lambda: f.scale(scale), [s * p for p in fu]),
        (lambda: (f * g).shift() - f, [p - q for p, q in zip(u_shift(fg), fu)]),
        (lambda: shared_operand(f, g), [p + q for p, q in zip(fg, u_shift(fg))]),
        (lambda: (f + g) * (f - g.shift()), u_mul(plus, minus_shifted)),
    ]
    for build, expected in cases:
        h = build()
        read = {n: h[n] for n in data.draw(st.permutations(range(len(expected))))}
        assert [read[n].eval(*point) for n in range(len(expected))] == expected
        assert h.coeffs == tuple(read[n] for n in range(len(expected)))


signed_tri_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-(2**40), 2**40) | st.integers(-3, 3), max_size=4
).map(TriPoly)


@st.composite
def square_operands(draw):
    """A lazy series of order 0..8 over TRI (signed, mixed-degree
    coefficients) or over the order's packed ring (signed ints), whose
    valuation bound is 0..3."""
    order = draw(st.integers(min_value=0, max_value=8))
    if draw(st.booleans()):
        ring, coeffs = TRI, signed_tri_polys
    else:
        ring, coeffs = _packed_ring(order), st.integers(-(2**300), 2**300) | st.integers(-3, 3)
    base = TriSeries(draw(st.lists(coeffs, min_size=order + 1, max_size=order + 1)), order, ring)
    return base.shift(draw(st.integers(min_value=0, max_value=3)))


@settings(max_examples=80, deadline=None)
@given(f=square_operands(), data=st.data())
def test_a_square_is_the_product_with_an_equal_operand(f, data):
    # f * f pairs its terms against a doubled copy; an equal but distinct
    # operand takes the general product
    square = f * f
    read = {n: square[n] for n in data.draw(st.permutations(range(f.order + 1)))}
    general = f * TriSeries(f.coeffs, f.order, f.ring)
    assert [read[n] for n in range(f.order + 1)] == list(general.coeffs)
    assert square.coeffs == general.coeffs


@settings(max_examples=80, deadline=None)
@given(f=square_operands(), data=st.data())
def test_equal_series_are_those_whose_difference_is_zero(f, data):
    # g is f, or f with one coefficient changed; == compares values and the
    # difference is built in the shared ring, and the two verdicts agree
    coeffs = list(f.coeffs)
    if data.draw(st.booleans()):
        n = data.draw(st.integers(0, f.order))
        coeffs[n] = coeffs[n] + data.draw(st.sampled_from([f.ring.one, f.ring.x, -f.ring.y, f.ring.one * 3]))
    g = TriSeries(coeffs, f.order, f.ring)
    assert (f == g) is (f - g).is_zero() is (tuple(coeffs) == f.coeffs)


# ---------------------------------------------------------------------------
# the packed kernel against a tuple-keyed convolution
# ---------------------------------------------------------------------------


def exponents(top):
    """An exponent in 0..top: anywhere, at the top, or near zero (so that
    product monomials collide and their coefficients add)."""
    return st.integers(0, top) | st.integers(max(0, top - 2), top) | st.integers(0, min(top, 2))


def signed_polys(tops):
    """Tuple-keyed terms, mixed degrees and signed coefficients, each exponent
    at most its field's top; zero coefficients included."""
    return st.dictionaries(
        st.tuples(*map(exponents, tops)), st.integers(-(2**70), 2**70) | st.integers(-2, 2), max_size=6
    )


@st.composite
def factor_pairs(draw):
    """Up to four pairs whose exponents may reach EXPONENT_LIMIT in each
    field without a product passing it."""
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        tops = draw(st.tuples(*[st.integers(0, EXPONENT_LIMIT)] * 3))
        pairs.append((draw(signed_polys(tops)), draw(signed_polys([EXPONENT_LIMIT - t for t in tops]))))
    return pairs


def tuple_convolution(pairs):
    out = {}
    for p, q in pairs:
        for (a1, b1, c1), v1 in p.items():
            for (a2, b2, c2), v2 in q.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


@settings(max_examples=60, deadline=None)
@given(pairs=factor_pairs())
def test_packed_kernel_is_the_tuple_keyed_convolution(pairs):
    polys = [(TriPoly(p), TriPoly(q)) for p, q in pairs]
    for raw, poly in zip(itertools.chain(*pairs), itertools.chain(*polys)):
        # the decoded view round-trips through the constructor
        assert poly.terms == {k: v for k, v in raw.items() if v}
        assert TriPoly(poly.terms) == poly
    assert _poly_mul(polys).terms == tuple_convolution(pairs)


@settings(max_examples=60, deadline=None)
@given(
    field=st.integers(0, 2),
    low=st.integers(1, EXPONENT_LIMIT),
    other=st.integers(0, EXPONENT_LIMIT // 2),
)
def test_an_exponent_past_the_limit_is_a_value_error(field, low, other):
    def mono(e):
        key = [other] * 3
        key[field] = e
        return tuple(key)

    with pytest.raises(ValueError):
        TriPoly({mono(EXPONENT_LIMIT + low): 1})
    with pytest.raises(ValueError):
        TriPoly({mono(-low): 1})
    # each factor fits, but one product exponent in the field is one past the limit
    p = TriPoly({mono(low): 2, (0, 0, 0): 1})
    q = TriPoly({mono(EXPONENT_LIMIT + 1 - low): -1, (0, 0, 0): 5})
    with pytest.raises(ValueError):
        _poly_mul([(p, q)])
    with pytest.raises(ValueError):
        p * q


@settings(max_examples=100, deadline=None)
@given(
    p=signed_polys([EXPONENT_LIMIT] * 3),
    key=st.tuples(*map(exponents, [EXPONENT_LIMIT] * 3)),
    coeff=st.integers(-(2**70), 2**70).filter(bool),
)
@example(p={(EXPONENT_LIMIT, 0, 0): 3, (0, 1, 2): -1}, key=(1, 0, 0), coeff=1)
@example(p={(EXPONENT_LIMIT - 1, 0, 0): 3, (0, 1, 2): -1}, key=(1, 0, 0), coeff=-2)
def test_a_one_term_product_is_a_key_shift_equal_to_the_kernel(p, key, coeff):
    # the marks x t, y t and z t multiply by a one-term TriPoly this way
    poly, mono = TriPoly(p), TriPoly({key: coeff})
    try:
        expected = _poly_mul([(poly, mono)])
    except ValueError:
        with pytest.raises(ValueError, match=f"exceeds {EXPONENT_LIMIT}"):
            _monomial_mul(poly, mono)
        with pytest.raises(ValueError, match=f"exceeds {EXPONENT_LIMIT}"):
            poly * mono
    else:
        assert _monomial_mul(poly, mono) == expected
        assert poly * mono == expected


@settings(max_examples=100, deadline=None)
@given(p=signed_polys([EXPONENT_LIMIT] * 3))
@example(p={(EXPONENT_LIMIT, 0, 0): 3, (0, EXPONENT_LIMIT, 1): -1, (1, 2, EXPONENT_LIMIT): 5})
def test_the_packed_swap_is_the_tuple_keyed_swap_and_an_involution(p):
    poly = TriPoly(p)
    swapped = poly.swap_xz()
    assert swapped.terms == {(c, b, a): v for (a, b, c), v in poly.terms.items()}
    assert swapped.swap_xz() == poly


@settings(max_examples=100, deadline=None)
@given(p=tri_polys, q=tri_polys, k=st.integers(-2, 2))
def test_the_operators_leave_their_operands_alone(p, q, k):
    # TriPoly._of takes the dict it is given, so each operator hands it a new one
    before = dict(p._packed), dict(q._packed)
    results = [p + q, p - q, -p, p * q, q * p, p * k, k * p, _poly_mul([(p, q), (q, p)])]
    assert (p._packed, q._packed) == before
    for r in results:
        assert r._packed is not p._packed and r._packed is not q._packed
        assert all(r._packed.values())


@settings(max_examples=100, deadline=None)
@given(system=st.sampled_from(SYSTEMS), order=st.integers(min_value=2, max_value=10))
def test_solving_one_order_further_keeps_every_coefficient(system, order):
    shorter = system.solve(order - 1)
    assert all(len(g.coeffs) == order for g in shorter)
    assert [f.coeffs[:order] for f in system.solve(order)] == [g.coeffs for g in shorter]


def _monomials(n):
    return [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]


@st.composite
def count_polys(draw):
    """(p, n, order): p homogeneous of degree n <= order <= 20, with
    coefficients in 0..2^(k-1)-1, the range a digit of the order's packed
    ring holds below its guard bit."""
    order = draw(st.integers(min_value=0, max_value=20))
    n = draw(st.integers(min_value=0, max_value=order))
    top = (1 << _digit_bits(order) - 1) - 1
    terms = draw(st.dictionaries(st.sampled_from(_monomials(n)), st.integers(0, top)))
    return TriPoly(terms), n, order


def _packed(p, order):
    ring = _packed_ring(order)
    return p.eval(ring.x, ring.y, ring.z)


@settings(max_examples=100, deadline=None)
@given(case=count_polys())
def test_a_packed_count_polynomial_reads_back(case):
    p, n, order = case
    assert _unpack_digits(_packed(p, order), n, order) == p


@settings(max_examples=100, deadline=None)
@given(case=count_polys(), data=st.data())
def test_a_coefficient_outside_the_digit_range_raises(case, data):
    # one coefficient from -2^(k-1)..-1 or 2^(k-1)..2^k-1: it sets its digit's
    # guard bit without carrying into the digits of the other monomials
    p, n, order = case
    k = _digit_bits(order)
    monomial = data.draw(st.sampled_from(_monomials(n)))
    bad = data.draw(st.integers(-(1 << k - 1), -1) | st.integers(1 << k - 1, (1 << k) - 1))
    with pytest.raises(ArithmeticError):
        _unpack_digits(_packed(TriPoly({**p.terms, monomial: bad}), order), n, order)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    p=st.integers(min_value=-9, max_value=9),
    r=st.integers(min_value=1, max_value=9),
)
def test_narayana_check_is_the_direct_evaluation(n, p, r):
    q = Fraction(p, r)
    lhs = sum(Fraction(comb(n, i - 1) * comb(n, i), n) * q**i for i in range(1, n + 1))
    rhs = sum(comb(n + i, n - i) * (comb(2 * i, i) // (i + 1)) * (q - 1) ** (n - i) for i in range(n + 1))
    chk = narayana_check(n, q)
    assert (chk.lhs, chk.rhs, chk.equal) == (lhs, rhs, lhs == rhs)
