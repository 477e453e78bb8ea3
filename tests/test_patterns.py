import itertools

import pytest

from gnctrees import formulas
from gnctrees.combinat import little_schroeder, ternary
from gnctrees.patterns import (
    StatCensus,
    _grow,
    _norm_patterns,
    avoids,
    census,
    count_occurrences,
    enumerate_avoiders,
    parse_pattern,
    parse_pattern_set,
)
from gnctrees.trees import (
    BoundExceededError,
    GncTree,
    NcTree,
    StatTriple,
    classify,
    enumerate_gnc,
    enumerate_nc_trees,
    jumps_from_mask,
    path_word,
)


def all_patterns(max_len):
    for k in range(1, max_len + 1):
        for word in itertools.product("uhd", repeat=k):
            yield "".join(word)


def test_parse_pattern():
    assert parse_pattern("uud") == "uud"
    with pytest.raises(ValueError):
        parse_pattern("")
    with pytest.raises(ValueError):
        parse_pattern("ux")


def test_parse_pattern_set():
    assert parse_pattern_set("uu,dd,h") == ("uu", "dd", "h")
    assert parse_pattern_set("") == ()
    assert parse_pattern_set(" u , d ") == ("u", "d")


def test_count_occurrences_examples(eight_point_tree):
    assert count_occurrences(eight_point_tree, "u") == 7
    assert count_occurrences(eight_point_tree, "uu") == 3
    assert count_occurrences(eight_point_tree, "uuu") == 0
    assert count_occurrences(eight_point_tree, "d") == 0


def test_avoids_examples(eight_point_tree):
    assert avoids(eight_point_tree, ("h", "d")) is True
    assert avoids(eight_point_tree, ("uu",)) is False
    with pytest.raises(ValueError):
        avoids(eight_point_tree, ())


def test_avoids_consistent_with_occurrence_count():
    # and both agree with factor containment of every root-to-vertex word
    for n in range(5):
        for tree in enumerate_gnc(n):
            words = [path_word(tree, v) for v in range(n + 1)]
            for sigma in all_patterns(2):
                occ = count_occurrences(tree, sigma)
                av = avoids(tree, (sigma,))
                assert av == (occ == 0)
                assert av == all(sigma not in w for w in words)


def test_census_n2_by_hand():
    cen = census(2)
    assert cen.total == 12
    expected = {
        StatTriple(0, 2, 0): 3,
        StatTriple(1, 1, 0): 4,
        StatTriple(1, 0, 1): 2,
        StatTriple(2, 0, 0): 3,
    }
    assert dict(cen.items()) == expected
    assert cen.count(1, 1, 0) == 4
    assert cen.count(2, 0, 0) == 3
    assert cen.count(0, 0, 2) == 0


def test_census_filtered_totals():
    for n in range(7):
        assert census(n, ("h", "d")).total == little_schroeder(n)
        un = census(n, ("u",))
        assert un.total == ternary(n)
        assert un.as_terms() == {(0, n, 0): ternary(n)}


def test_census_star():
    cen = census(1, (), star_only=True)
    assert dict(cen.items()) == {StatTriple(1, 0, 0): 1}
    assert census(0, (), star_only=True).total == 1
    for n in range(5):
        brute = sum(1 for _ in enumerate_gnc(n) if n == 0 or 1 in _.jumps)
        assert census(n, (), star_only=True).total == brute


def test_census_matches_per_tree_scan():
    # cross-check the census against a scan that shares nothing with its
    # kernel: factor containment in every root-to-vertex word
    for pats in ((), ("uu",), ("ud", "h"), ("uhd",), ("h", "uh"), ("uu", "dd", "h", "uud")):
        for n in range(5):
            table = {}
            for t in enumerate_gnc(n):
                words = [path_word(t, v) for v in range(n + 1)]
                if any(p in w for w in words for p in pats):
                    continue
                _, st = classify(t)
                table[st] = table.get(st, 0) + 1
            assert dict(census(n, pats).items()) == table


def _edge_set(edges):
    """The edges of _grow's linked list ((low, high), rest)."""
    out = []
    while edges:
        edge, edges = edges
        out.append(edge)
    return frozenset(out)


def _last_split(kept, parts, jump, shift):
    """The parts a leaf of _grow holds once its last edge's split is taken."""
    split = {}
    for key, masks in parts.items():
        masks &= kept
        for k, m in ((key + shift, masks & jump), (key, masks & ~jump)):
            if m:
                split[k] = split.get(k, 0) | m
    return split


def test_grown_base_trees_are_the_nc_trees_once_each():
    # with no pattern every partial tree completes: one leaf per base tree
    for points in range(1, 9):
        grown = [_edge_set(leaf[0]) for leaf in _grow(points - 1, (), False)]
        assert len(grown) == len(set(grown)) == ternary(points - 1)
        assert set(grown) == {t.edges for t in enumerate_nc_trees(points)}


@pytest.mark.parametrize("star", [False, True])
@pytest.mark.parametrize("pats", [(), ("h",), ("uu",), ("ud", "h"), ("uhd",)])
def test_every_leaf_keeps_its_avoiders_split_by_statistic(pats, star):
    # each leaf against its own trees, so an error that cancels between the
    # masks of different trees in an aggregated table still shows here
    for n in range(5):
        leaves = {}
        for edges, kept, *split in _grow(n, _norm_patterns(pats), star):
            base = NcTree(n + 1, _edge_set(edges))
            parts = _last_split(kept, *split)
            assert base not in leaves
            leaves[base] = kept
            union = 0
            for key, masks in parts.items():
                assert masks and not masks & union
                union |= masks
                for m in range(1 << n):
                    if masks >> m & 1:
                        u, _, d = classify(GncTree(base, jumps_from_mask(m)))[1]
                        assert key == u + (n + 1) * d
            assert union == kept
        for base in enumerate_nc_trees(n + 1):
            expected = 0
            for m in range(1 << n):
                tree = GncTree(base, jumps_from_mask(m))
                if star and tree.labels.count(1) > 1:
                    continue
                words = [path_word(tree, v) for v in range(n + 1)]
                if not any(p in w for p in pats for w in words):
                    expected |= 1 << m
            assert leaves.get(base, 0) == expected


def test_a_bare_string_is_not_a_pattern_set(eight_point_tree):
    for call in (
        lambda: census(3, "uu"),
        lambda: avoids(eight_point_tree, "uu"),
        lambda: list(enumerate_avoiders(3, "uu")),
    ):
        with pytest.raises(TypeError, match="parse_pattern_set"):
            call()
    assert census(3, ("uu",)).total == 79


def test_alternating_census_at_n8_drops_dead_branches():
    # at the default bound; fast only because branches with every mask
    # matched are dropped at once
    cen = census(8, ("uu", "dd", "h"))
    assert cen.total == formulas.alternating(8)
    assert cen.signed_by_ascents() == formulas.parity_signed(8)


def test_census_bound():
    with pytest.raises(BoundExceededError, match="n=9 exceeds bound 8"):
        census(9)
    assert census(2, bound=2).total == 12


def test_census_signed_by_ascents():
    assert census(1, ("uu", "dd", "h")).signed_by_ascents() == -1
    assert census(2, ("uu", "dd", "h")).signed_by_ascents() == 0


def test_stat_census_equality_and_repr():
    a = StatCensus(2, {(1, 0): 4})
    b = StatCensus(2, {(1, 0): 4, (0, 0): 0})
    assert a == b
    assert "total=4" in repr(a)
