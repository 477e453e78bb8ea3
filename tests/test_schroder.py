import pytest

from gnctrees.combinat import little_schroeder
from gnctrees.formulas import dd_h
from gnctrees.patterns import avoids
from gnctrees.schroder import (
    SchroderPath,
    coker_count,
    decode_path,
    encode_tree,
    encode_tree_literal,
    enumerate_coker,
    enumerate_schroder,
)
from gnctrees.trees import BoundExceededError, NcTree, enumerate_gnc, make_gnc, validate


def increasing_trees(n):
    return [t for t in enumerate_gnc(n) if n == 0 or avoids(t, ("h", "d"))]


def test_path_validation():
    SchroderPath.from_text("UFFUFDDUUDD")
    with pytest.raises(ValueError):
        SchroderPath.from_text("UDD")  # dips below axis
    with pytest.raises(ValueError):
        SchroderPath.from_text("UU")  # does not close
    with pytest.raises(ValueError):
        SchroderPath.from_text("FUD")  # flat at ground level
    with pytest.raises(ValueError):
        SchroderPath.from_text("UXD")


def test_path_length_accounting():
    p = SchroderPath.from_text("UFD")
    assert p.n == 2
    assert SchroderPath(()).n == 0
    assert str(p) == "UFD"


def test_enumerate_schroder_counts():
    assert [sum(1 for _ in enumerate_schroder(n)) for n in range(7)] == [
        little_schroeder(n) for n in range(7)
    ]
    three = list(enumerate_schroder(3))
    assert len({p.steps for p in three}) == 11
    assert SchroderPath.from_text("UFFD") in three


def test_enumerate_schroder_bound():
    with pytest.raises(BoundExceededError):
        list(enumerate_schroder(9))


def test_encode_single_ascent():
    tree = make_gnc(NcTree.of(2, [(0, 1)]), {1})
    assert encode_tree(tree).as_text() == "UD"
    assert decode_path(SchroderPath.from_text("UD")) == tree


def test_encode_eight_point_instance(eight_point_tree):
    assert encode_tree(eight_point_tree).as_text() == "UFFUFDDUUDD"
    assert decode_path(SchroderPath.from_text("UFFUFDDUUDD")) == eight_point_tree


def test_encode_hand_traced_pair():
    base = NcTree.of(4, [(0, 1), (1, 2), (0, 3)])
    with_flat = make_gnc(base, {1, 2})
    without_flat = make_gnc(base, {1, 2, 3})
    assert encode_tree(with_flat).as_text() == "UUDFD"
    assert encode_tree(without_flat).as_text() == "UUDDUD"
    assert decode_path(SchroderPath.from_text("UUDFD")) == with_flat


def test_encode_deep_tree_without_recursion():
    path = SchroderPath(("U",) * 1100 + ("D",) * 1100)
    tree = decode_path(path)
    assert encode_tree(tree).steps == path.steps
    assert encode_tree_literal(tree) == path.steps


def test_encode_rejects_levels_and_descents():
    level = make_gnc(NcTree.of(2, [(0, 1)]), set())
    # labels 1, 2, 3: the root edge 0-2 is an ascent, the edge 2-1 a descent
    descent = make_gnc(NcTree.of(3, [(0, 2), (1, 2)]), {1, 2})
    for tree in (level, descent):
        for encoder in (encode_tree, encode_tree_literal):
            with pytest.raises(ValueError, match="level or descent"):
                encoder(tree)


def test_round_trips_and_bijectivity():
    for n in range(6):
        trees_n = increasing_trees(n)
        assert len(trees_n) == little_schroeder(n)
        paths = [encode_tree(t) for t in trees_n]
        assert len({p.steps for p in paths}) == len(trees_n)
        assert {p.steps for p in paths} == {p.steps for p in enumerate_schroder(n)}
        for t, p in zip(trees_n, paths):
            assert decode_path(p) == t


def test_decoded_trees_are_valid_through_seven_edges():
    # decode_path builds its tree without make_gnc's checks
    for n in range(8):
        for p in enumerate_schroder(n):
            t = decode_path(p)
            assert validate(t) == []
            assert n == 0 or avoids(t, ("h", "d"))
            assert encode_tree(t).steps == p.steps


def test_flats_never_at_ground_heights_match_depths():
    for n in range(5):
        for t in increasing_trees(n):
            p = encode_tree(t)
            height = 0
            depths = t.profile.depths
            pos = 0
            for s in p.steps:
                if s == "U":
                    height += 1
                    pos += 1
                    assert height == depths[pos]
                elif s == "F":
                    pos += 1
                    assert height == depths[pos]
                    assert height >= 1
                else:
                    height -= 1


def test_literal_encoder_eight_point(eight_point_tree):
    lit = encode_tree_literal(eight_point_tree)
    fused = "".join("F" if tok == "HL" else "" if tok == "HR" else tok for tok in lit)
    assert fused == encode_tree(eight_point_tree).as_text()


def test_literal_encoder_collision_at_n3():
    base = NcTree.of(4, [(0, 1), (1, 2), (0, 3)])
    ta = make_gnc(base, {1, 2})
    tb = make_gnc(base, {1, 2, 3})
    assert encode_tree_literal(ta) == encode_tree_literal(tb) == ("U", "U", "D", "D", "U", "D")
    words = {}
    for t in increasing_trees(3):
        words.setdefault(encode_tree_literal(t), []).append(t)
    sizes = sorted(len(v) for v in words.values())
    assert len(words) == 10
    assert sizes == [1] * 9 + [2]
    # while the repaired encoder separates all eleven
    assert len({encode_tree(t).steps for t in increasing_trees(3)}) == 11


def test_coker_paths():
    assert list(enumerate_coker(0)) == [()]
    assert list(enumerate_coker(1)) == [(1, -1)]
    for n in range(6):
        paths = list(enumerate_coker(n))
        assert len(paths) == len(set(paths)) == dd_h(n)
        for p in paths:
            assert sum(abs(k) for k in p) == 2 * n
            height = 0
            for k in p:
                height += k
                assert height >= 0
            assert height == 0
    assert coker_count(3) == 29


def test_coker_bound():
    with pytest.raises(BoundExceededError) as listed:
        list(enumerate_coker(9))
    # the count keeps the enumeration's bound
    with pytest.raises(BoundExceededError) as counted:
        coker_count(9)
    assert str(counted.value) == str(listed.value)
    with pytest.raises(ValueError, match="n must be >= 0"):
        coker_count(-1)


@pytest.mark.parametrize("n", range(9))
def test_coker_count_counts_the_enumerated_paths(n):
    assert coker_count(n) == sum(1 for _ in enumerate_coker(n))
