import inspect
import itertools
import time

import pytest

from gnctrees.combinat import gnc_total, ternary
from gnctrees.patterns import avoids
from gnctrees.trees import (
    BoundExceededError,
    GncTree,
    NcTree,
    StatTriple,
    base_profile,
    classify,
    crossing,
    enumerate_gnc,
    enumerate_gnc_star,
    enumerate_nc_trees,
    jumps_from_mask,
    make_gnc,
    path_word,
    tree_from_json,
    tree_to_json,
    validate,
)


def test_crossing_examples():
    assert crossing((0, 2), (1, 3)) is True
    assert crossing((0, 3), (1, 2)) is False  # nested
    assert crossing((0, 1), (1, 2)) is False  # shared endpoint
    assert crossing((0, 1), (2, 3)) is False  # disjoint arcs


def test_crossing_exhaustive_four_case_oracle():
    # for sorted positions a < b < c < d the only crossing pairing is
    # (a, c) with (b, d); check every argument ordering agrees
    for quad in itertools.combinations(range(12), 4):
        a, b, c, d = quad
        cases = [
            ((a, b), (c, d), False),
            ((a, c), (b, d), True),
            ((a, d), (b, c), False),
        ]
        for e1, e2, expected in cases:
            for f1 in (e1, e1[::-1]):
                for f2 in (e2, e2[::-1]):
                    assert crossing(f1, f2) is expected
                    assert crossing(f2, f1) is expected


def test_enumerate_nc_trees_smallest():
    assert list(enumerate_nc_trees(1)) == [NcTree(1, frozenset())]
    three = [t.sorted_edges for t in enumerate_nc_trees(3)]
    assert three == [
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
    ]


def test_enumerate_nc_trees_counts_match_ternary():
    for p in range(1, 9):
        assert sum(1 for _ in enumerate_nc_trees(p)) == ternary(p - 1)
    assert sum(1 for _ in enumerate_nc_trees(9)) == ternary(8) == 43263


def test_enumerate_nc_trees_yields_valid_spanning_noncrossing():
    for p in range(1, 8):
        for t in enumerate_nc_trees(p):
            assert len(t.edges) == p - 1
            edges = sorted(t.edges)
            for e1, e2 in itertools.combinations(edges, 2):
                assert not crossing(e1, e2)
            base_profile(t)  # raises if not connected


def test_enumerate_nc_trees_canonical_order():
    for p in (4, 5, 6):
        seq = [t.sorted_edges for t in enumerate_nc_trees(p)]
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)


def test_enumerate_nc_trees_bound():
    with pytest.raises(BoundExceededError):
        list(enumerate_nc_trees(10))
    with pytest.raises(ValueError):
        list(enumerate_nc_trees(0))


def pruefer_decode(seq, p):
    """Independent oracle: standard decode of a length p-2 sequence."""
    degree = [1] * p
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    for v in seq:
        for leaf in range(p):
            if degree[leaf] == 1:
                edges.append((min(leaf, v), max(leaf, v)))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(p) if degree[v] == 1]
    edges.append((min(last), max(last)))
    return frozenset(edges)


def test_enumerate_nc_trees_matches_pruefer_filter_oracle():
    for p in range(3, 9):
        noncrossing = set()
        for seq in itertools.product(range(p), repeat=p - 2):
            edges = pruefer_decode(seq, p)
            if all(not crossing(e1, e2) for e1, e2 in itertools.combinations(edges, 2)):
                noncrossing.add(edges)
        generated = {t.edges for t in enumerate_nc_trees(p)}
        assert generated == noncrossing


def test_make_gnc_labels_two_points():
    base = NcTree.of(2, [(0, 1)])
    level = make_gnc(base, set())
    ascent = make_gnc(base, {1})
    assert level.labels == (1, 1)
    assert ascent.labels == (1, 2)
    assert classify(level)[1] == StatTriple(0, 1, 0)
    assert classify(ascent)[1] == StatTriple(1, 0, 0)


def test_make_gnc_eight_point_labels(eight_point_tree):
    assert eight_point_tree.labels == (1, 2, 2, 2, 3, 3, 4, 5)
    classes, stats = classify(eight_point_tree)
    assert stats == StatTriple(7, 0, 0)
    assert set(classes.values()) == {"u"}


def test_make_gnc_rejects_bad_jump():
    base = NcTree.of(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"^invalid tree: jump 3 outside 1\.\.2$"):
        make_gnc(base, {3})
    with pytest.raises(ValueError, match=r"^invalid tree: jump 0 outside 1\.\.2$"):
        make_gnc(base, {0})


@pytest.mark.parametrize(
    "edges, problem",
    [([(0, 2), (1, 3), (0, 1)], "cross"), ([(0, 1), (1, 2), (0, 2)], "not connected")],
)
def test_make_gnc_rejects_bad_base(edges, problem):
    base = NcTree.of(4, edges)
    with pytest.raises(ValueError) as exc:
        make_gnc(base, {1, 2})
    message = str(exc.value)
    assert message.startswith("invalid tree: ") and problem in message
    # every problem validate reports is named
    assert message == "invalid tree: " + "; ".join(validate(GncTree(base, frozenset({1, 2}))))


def test_classify_mixed_example():
    # chain 0 -> 2 -> 1 with labels (1, 2, 3): one ascent, one descent
    base = NcTree.of(3, [(0, 2), (1, 2)])
    tree = make_gnc(base, {1, 2})
    classes, stats = classify(tree)
    assert stats == StatTriple(1, 0, 1)
    assert classes[(0, 2)] == "u"
    assert classes[(2, 1)] == "d"


def test_path_word(eight_point_tree):
    assert path_word(eight_point_tree, 0) == ""
    assert path_word(eight_point_tree, 7) == "uu"
    base = NcTree.of(3, [(0, 2), (1, 2)])
    tree = make_gnc(base, {2})  # labels (1, 1, 2)
    assert path_word(tree, 1) == "ud"
    with pytest.raises(ValueError):
        path_word(tree, 5)


def test_enumerate_gnc_counts():
    assert sum(1 for _ in enumerate_gnc(0)) == 1
    assert sum(1 for _ in enumerate_gnc(2)) == 12
    for n in range(6):
        assert sum(1 for _ in enumerate_gnc(n)) == gnc_total(n)


def test_enumerate_gnc_no_duplicates():
    for n in range(6):
        seen = {(t.base.sorted_edges, tuple(sorted(t.jumps))) for t in enumerate_gnc(n)}
        assert len(seen) == gnc_total(n)


def test_enumerate_gnc_bound():
    with pytest.raises(BoundExceededError):
        list(enumerate_gnc(9))


def test_enumerate_gnc_takes_only_n_and_bound():
    assert list(inspect.signature(enumerate_gnc).parameters) == ["n", "bound"]
    with pytest.raises(TypeError):
        enumerate_gnc(4, 8, 2)


def test_enumerate_gnc_star():
    assert sum(1 for _ in enumerate_gnc_star(0)) == 1
    star1 = list(enumerate_gnc_star(1))
    assert len(star1) == 1 and star1[0].labels == (1, 2)
    assert sum(1 for _ in enumerate_gnc_star(2)) == 6
    # the jump-set characterization agrees with the label condition
    for n in range(6):
        by_filter = {
            (t.base.sorted_edges, tuple(sorted(t.jumps)))
            for t in enumerate_gnc(n)
            if t.labels.count(1) == 1 or n == 0
        }
        by_star = {
            (t.base.sorted_edges, tuple(sorted(t.jumps))) for t in enumerate_gnc_star(n)
        }
        assert by_star == by_filter


def test_stat_totals_sum_to_n():
    for n in range(7):
        for t in enumerate_gnc(n):
            _, st = classify(t)
            assert st.u + st.h + st.d == n


def test_ascent_free_means_all_levels():
    for n in range(1, 6):
        for t in enumerate_gnc(n):
            _, st = classify(t)
            if avoids(t, ("u",)):
                assert st == StatTriple(0, n, 0)
                assert set(t.labels) == {1}
            else:
                assert st.u > 0


def test_increasing_trees_preorder_visits_positions_in_order():
    # prerequisite of the path encoding: for {h, d}-avoiders every edge goes
    # up in position and preorder is 0, 1, .., n
    for n in range(1, 7):
        for t in enumerate_gnc(n):
            if not avoids(t, ("h", "d")):
                continue
            prof = t.profile
            assert all(prof.parents[v] < v for v in range(1, n + 1))
            assert prof.preorder == tuple(range(n + 1))


def test_validate_clean_trees():
    for n in range(4):
        for t in enumerate_gnc(n):
            assert validate(t) == []


def test_validate_reports_crossing():
    bad = GncTree(NcTree.of(4, [(0, 2), (1, 3), (0, 1)]), frozenset())
    problems = validate(bad)
    assert any("cross" in p for p in problems)


def test_validate_reports_disconnection():
    bad = GncTree(NcTree.of(4, [(0, 1), (0, 1), (2, 3)]), frozenset())
    problems = validate(bad)
    assert any("connected" in p for p in problems)
    assert any("edges" in p for p in problems)


def test_validate_reports_bad_jump():
    bad = GncTree(NcTree.of(2, [(0, 1)]), frozenset({5}))
    assert any("jump" in p for p in validate(bad))


LOOP_PROBLEMS = "edge (1,1) is a loop; edge set is not connected"


def test_validate_reports_a_loop_edge():
    # a loop crosses nothing; it is a problem of its own, not an exception
    bad = GncTree(NcTree.of(3, [(1, 1), (0, 1)]), frozenset())
    assert validate(bad) == LOOP_PROBLEMS.split("; ")
    assert crossing((1, 1), (0, 2)) is False


def test_make_gnc_and_tree_from_json_name_a_loop_with_every_other_problem():
    with pytest.raises(ValueError) as exc:
        make_gnc(NcTree.of(3, [(1, 1), (0, 1)]), set())
    assert str(exc.value) == "invalid tree: " + LOOP_PROBLEMS
    with pytest.raises(ValueError) as exc:
        tree_from_json({"n": 2, "edges": [[1, 1], [0, 1]], "jumps": []})
    assert str(exc.value) == "invalid tree: " + LOOP_PROBLEMS


def test_json_round_trip(eight_point_tree):
    data = tree_to_json(eight_point_tree)
    assert data["n"] == 7
    assert data["labels"] == [1, 2, 2, 2, 3, 3, 4, 5]
    assert tree_from_json(data) == eight_point_tree
    # labels are recomputed, not trusted
    data["labels"] = [9] * 8
    assert tree_from_json(data) == eight_point_tree


def test_tree_from_json_rejects_invalid_trees():
    with pytest.raises(ValueError, match="cross"):
        tree_from_json({"n": 3, "edges": [[0, 2], [1, 3], [0, 1]], "jumps": [1, 2, 3]})
    with pytest.raises(ValueError, match="not connected"):
        tree_from_json({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "jumps": []})


def test_tree_from_json_reports_a_bad_jump_with_every_other_problem():
    with pytest.raises(ValueError) as exc:
        tree_from_json({"n": 3, "edges": [[0, 2], [1, 3], [0, 1]], "jumps": [7]})
    message = str(exc.value)
    assert message.startswith("invalid tree: ")
    assert "cross" in message and "jump 7 outside 1..3" in message


def test_tree_from_json_names_an_out_of_range_root_jump_once():
    with pytest.raises(ValueError) as exc:
        tree_from_json({"n": 1, "edges": [[0, 1]], "jumps": [0]})
    assert str(exc.value) == "invalid tree: jump 0 outside 1..1"


def test_tree_from_json_rejects_negative_n():
    with pytest.raises(ValueError) as exc:
        tree_from_json({"n": -1, "edges": [], "jumps": []})
    assert str(exc.value) == "tree JSON: n must be a nonnegative integer"


def test_tree_from_json_parses_a_large_star_quickly():
    # every edge shares the root: a test of each pair of edges takes seconds here
    data = {"n": 4000, "edges": [[0, k] for k in range(1, 4001)], "jumps": []}
    start = time.perf_counter()
    tree = tree_from_json(data)
    assert time.perf_counter() - start < 0.5
    assert len(tree.base.edges) == 4000


def test_tree_from_json_checks_the_edge_count_first():
    # refused before anything is built per declared point
    with pytest.raises(ValueError, match="0 edges, expected 1000000000000"):
        tree_from_json({"n": 10**12, "edges": [], "jumps": []})
    with pytest.raises(ValueError, match="1 edges, expected 2"):
        tree_from_json({"n": 2, "edges": [[0, 1]], "jumps": []})


def test_tree_from_json_names_every_problem_beside_a_wrong_edge_count():
    with pytest.raises(ValueError) as exc:
        tree_from_json({"n": 2, "edges": [[1, 1]], "jumps": [9]})
    assert str(exc.value) == (
        "invalid tree: edge (1,1) is a loop; 1 edges, expected 2; edge set is not connected; jump 9 outside 1..2"
    )


def test_tree_from_json_names_a_repeated_edge():
    with pytest.raises(ValueError) as exc:
        tree_from_json({"n": 2, "edges": [[0, 1], [1, 0]], "jumps": []})
    assert str(exc.value) == "invalid tree: edge (0,1) is repeated; 1 edges, expected 2; edge set is not connected"
    # the distinct edges alone would make a valid tree
    with pytest.raises(ValueError) as exc:
        tree_from_json({"n": 2, "edges": [[0, 1], [1, 2], [1, 0]], "jumps": []})
    assert str(exc.value) == "invalid tree: edge (0,1) is repeated"


def test_tree_from_json_names_a_repeated_jump():
    # the distinct jumps {1, 2} alone would make a valid tree
    with pytest.raises(ValueError) as exc:
        tree_from_json({"n": 2, "edges": [[0, 1], [1, 2]], "jumps": [1, 1, 2]})
    assert str(exc.value) == "invalid tree: jump 1 is repeated"
    with pytest.raises(ValueError) as exc:
        tree_from_json({"n": 2, "edges": [[0, 1], [0, 1]], "jumps": [3, 3]})
    assert str(exc.value) == (
        "invalid tree: edge (0,1) is repeated; jump 3 is repeated; 1 edges, expected 2; "
        "edge set is not connected; jump 3 outside 1..2"
    )


def test_trees_are_immutable_values(eight_point_tree):
    tree = eight_point_tree
    base = tree.base
    assert tree.labels == (1, 2, 2, 2, 3, 3, 4, 5)
    for obj, name in ((base, "points"), (base, "profile"), (tree, "jumps"), (tree, "labels"), (tree, "extra")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, None)
    assert tree.labels == (1, 2, 2, 2, 3, 3, 4, 5)
    # named tuples: a tree equals, and hashes as, the bare tuple of its fields
    copy = GncTree(NcTree(base.points, base.edges), tree.jumps)
    assert copy == tree == (base, tree.jumps) and hash(copy) == hash(tree) == hash((base, tree.jumps))
    assert repr(NcTree.of(2, [(1, 0)])) == "NcTree(points=2, edges=frozenset({(0, 1)}))"
    assert repr(GncTree(NcTree(1, frozenset()), frozenset())) == (
        "GncTree(base=NcTree(points=1, edges=frozenset()), jumps=frozenset())"
    )


def test_jumps_from_mask():
    assert jumps_from_mask(0) == frozenset()
    assert jumps_from_mask(0b101) == frozenset({1, 3})
