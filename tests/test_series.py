import hashlib
from collections import Counter

import pytest

from gnctrees import series

from gnctrees.cli import MAX_ORDER, run_suites
from gnctrees.combinat import catalan, gnc_total, little_schroeder, ternary
from gnctrees.patterns import census
from gnctrees.series import (
    P_ONE,
    P_X,
    P_Y,
    P_Z,
    Ring,
    TriPoly,
    TriSeries,
    _certified,
    _digit_bits,
    _packed_ring,
    _tadic_solve,
    _unpack_digits,
    catalan_compose,
    coeff,
    eval_numeric,
    invert,
    packed_solve,
    render_series,
    series_terms,
    solve_master,
    solve_star,
    solve_star_pattern,
    solve_ternary_gf,
    solve_ud_du,
    solve_uu_dd,
    solve_uudd,
    tri_const,
    verify_identities,
)


def poly(**kw):
    mapping = {"one": (0, 0, 0), "x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
    return TriPoly({mapping[k]: v for k, v in kw.items()})


def t_series(*polys, order=None):
    return TriSeries(list(polys), order if order is not None else len(polys) - 1)


def test_tripoly_arithmetic():
    p = P_X + P_Y
    q = P_X - P_Y
    assert (p * q).terms == {(2, 0, 0): 1, (0, 2, 0): -1}
    assert (p * 0).is_zero()
    assert P_X.swap_xz() == P_Z
    assert poly(one=2).eval(0, 0, 0) == 2


def test_ring_ops():
    one_plus_t = t_series(P_ONE, P_ONE)
    one_minus_t = t_series(P_ONE, -P_ONE)
    prod = one_plus_t * one_minus_t
    assert prod.coeffs[0] == P_ONE and prod.coeffs[1].is_zero()
    # order-2 inputs give order-2 output even when degree could grow
    f = t_series(P_ONE, P_ONE, P_ONE)
    assert (f * f).order == 2
    # exponent bookkeeping: (x t) * (z t) = x z t^2
    xt = t_series(TriPoly(), P_X, TriPoly())
    zt = t_series(TriPoly(), P_Z, TriPoly())
    assert (xt * zt).coeffs[2].terms == {(1, 0, 1): 1}


def test_series_over_different_rings_do_not_combine():
    tri = tri_const(1, 3)
    point = series._at_point(tri, 1, 1, 1)
    other = series._at_point(tri, 2, 0, 1)
    for a, b in ((tri, point), (point, tri), (point, other), (other, point)):
        names = f"{a.ring.name} and {b.ring.name}"
        for op in (a.__add__, a.__sub__, a.__mul__):
            with pytest.raises(ValueError, match=f"^series over {names} do not combine$"):
                op(b)
    with pytest.raises(ValueError, match="^series over packed-3 and tri do not combine$"):
        tri_const(1, 3, _packed_ring(3)) + tri
    with pytest.raises(ValueError, match="^series over packed-3 and point-1,1,1 do not combine$"):
        tri_const(1, 3, _packed_ring(3)) * point
    # two series at the same point share a ring, though each built its own
    same = series._at_point(tri_const(2, 3), 1, 1, 1)
    assert same.ring is not point.ring
    assert (point - same).coeffs == (-1, 0, 0, 0)
    assert (point * same).coeffs == (2, 0, 0, 0)
    # values compare in any two rings
    assert point == other and point != same


def test_shift_truncate_scale():
    f = tri_const(1, 3)
    assert f.shift().coeffs[1] == P_ONE
    assert f.shift(5).is_zero()
    assert f.truncate(1).order == 1
    assert f.truncate(5).order == 5
    assert f.scale(P_X).coeffs[0] == P_X
    assert f.scale(3).coeffs[0] == poly(one=3)


def test_reading_outside_the_order_raises_index_error():
    f = tri_const(1, 3)
    lazy = (f * f).shift()
    for g in (f, lazy, lazy):  # lazy read before and after it is forced
        for n in (-1, g.order + 1):
            with pytest.raises(IndexError):
                g[n]
        assert g.coeffs[g.order] == g[g.order]


def test_a_shift_does_not_compute_the_coefficient_it_drops():
    calls = []

    def mul_sum(pairs):
        calls.append(None)
        return sum(p * q for p, q in pairs)

    ring = Ring("counted-ints", 0, 1, 2, 3, 1, mul_sum)
    order = 6
    f = TriSeries(range(1, order + 2), order, ring)
    g = TriSeries([1] * (order + 1), order, ring)
    # (f g)[t^order] is never read, so order products, not order + 1
    assert (f * g).shift().coeffs == (0, 1, 3, 6, 10, 15, 21)
    assert len(calls) == order


def test_invert_geometric():
    one_minus_t = TriSeries([P_ONE] + [-P_ONE] + [TriPoly()] * 9, 10)
    g = invert(one_minus_t)
    assert all(g.coeffs[n] == P_ONE for n in range(11))


def test_invert_multiplies_back_to_one():
    f = TriSeries([P_ONE, P_X + P_Y, P_Z * 2 - P_X, P_Y * 5], 3)
    g = invert(f)
    prod = f * g
    assert prod.coeffs[0] == P_ONE
    assert all(prod.coeffs[k].is_zero() for k in range(1, 4))


def test_invert_rejects_nonunit():
    with pytest.raises(ValueError):
        invert(tri_const(2, 3))
    with pytest.raises(ValueError):
        invert(tri_const(1, 3).shift())


def test_catalan_compose_catalan_numbers():
    t = tri_const(1, 20).shift()
    c = catalan_compose(t)
    for n in range(21):
        assert c.coeffs[n] == poly(one=catalan(n))


def test_catalan_compose_fixed_point_residual():
    # c = 1 + f c^2 for f = 2t(1 - t)
    f = TriSeries([TriPoly(), poly(one=2), poly(one=-2)] + [TriPoly()] * 10, 12)
    c = catalan_compose(f)
    residual = c - (tri_const(1, 12) + f * (c * c))
    assert residual.is_zero()


def test_catalan_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        catalan_compose(tri_const(1, 4))


def test_solve_ternary_gf():
    w = solve_ternary_gf(12)
    for n in range(13):
        assert w.coeffs[n].terms == {(0, n, 0): ternary(n)}


def test_solve_master_low_coefficients():
    t, u = solve_master(8)
    assert t.coeffs[1].terms == {(1, 0, 0): 1, (0, 1, 0): 1}
    assert t.coeffs[2].terms == {(2, 0, 0): 3, (1, 1, 0): 4, (1, 0, 1): 2, (0, 2, 0): 3}
    assert sum(t.coeffs[4].terms.values()) == 880
    assert eval_numeric(t, 1, 1, 1)[:7] == [gnc_total(n) for n in range(7)]
    assert u == t.swap_xz()


def test_solve_master_specializations():
    t, _ = solve_master(10)
    w = solve_ternary_gf(10)
    assert t.substitute(x=0) == w.substitute(x=0)
    assert eval_numeric(t, 0, 1, 0) == [ternary(n) for n in range(11)]
    assert eval_numeric(t, 1, 0, 0) == [little_schroeder(n) for n in range(11)]


def test_solve_master_homogeneous_nonnegative():
    t, u = solve_master(12)
    for f in (t, u):
        for n in range(13):
            for (a, b, c), v in f.coeffs[n].terms.items():
                assert a + b + c == n
                assert v > 0


def test_solve_star():
    s = solve_star(8)
    assert s.coeffs[1].terms == {(1, 0, 0): 1}
    assert s.coeffs[2].terms == {(2, 0, 0): 3, (1, 1, 0): 2, (1, 0, 1): 1}
    for n in range(5):
        assert s.coeffs[n].terms == census(n, (), star_only=True).as_terms()


def test_solve_uu_dd():
    a, b, c, d = solve_uu_dd(10)
    assert eval_numeric(a, 1, 1, 1)[2] == 11
    # independent oracle: iterate q = 1 - 3tq + 4tq^2 by convolution
    q = [1]
    for m in range(1, 11):
        sq = sum(q[i] * q[m - 1 - i] for i in range(m))
        q.append(-3 * q[m - 1] + 4 * sq)
    assert eval_numeric(c, 1, 0, 1) == q
    assert eval_numeric(a, 1, 0, 1)[:6] == [1, 1, 4, 20, 116, 740]
    assert b == c.swap_xz()
    assert d == a.swap_xz()


def test_solve_ud_du():
    e, f, g, h = solve_ud_du(10)
    assert eval_numeric(e, 1, 0, 1) == [little_schroeder(n) for n in range(11)]
    assert eval_numeric(g, 1, 0, 1)[:7] == [1, 1, 5, 27, 157, 957, 6025]
    assert eval_numeric(e, 1, 1, 1)[2] == 10
    assert f == g.swap_xz()
    assert h == e.swap_xz()


def test_solve_uudd():
    p, q = solve_uudd(10)
    assert eval_numeric(p, 1, 0, 1)[:7] == [1, 1, 4, 18, 88, 456, 2464]
    assert eval_numeric(p, -1, 0, 1)[:8] == [1, -1, 0, 2, 0, -8, 0, 40]
    assert q == p.swap_xz()
    for n in range(5):
        assert p.coeffs[n].terms == census(n, ("uu", "dd")).as_terms()


def test_solve_star_pattern():
    for sigma in ("uu", "dd", "ud", "du"):
        s = solve_star_pattern(6, sigma)
        assert s.coeffs[0] == P_ONE
        for n in range(5):
            assert s.coeffs[n].terms == census(n, (sigma,), star_only=True).as_terms(), (sigma, n)
    assert eval_numeric(solve_star_pattern(4, "uu"), 1, 1, 1)[1] == 1
    with pytest.raises(ValueError):
        solve_star_pattern(4, "hh")


def test_coeff_and_eval():
    t, _ = solve_master(4)
    assert coeff(t, 2, 1, 0, 1) == 2
    assert coeff(t, 2, 0, 0, 2) == 0
    with pytest.raises(ValueError):
        coeff(t, 9, 0, 0, 0)
    vals = eval_numeric(t, 1, 1, 1)
    assert vals == [1, 2, 12, 96, 880]
    assert all(isinstance(v, int) for v in vals)


def test_prefix_stability():
    t8, u8 = solve_master(8)
    t10, u10 = solve_master(10)
    assert t10.coeffs[:9] == t8.coeffs
    assert u10.coeffs[:9] == u8.coeffs
    a8 = solve_uu_dd(8)
    a10 = solve_uu_dd(10)
    for f8, f10 in zip(a8, a10):
        assert f10.coeffs[:9] == f8.coeffs


SOLVERS = {
    "ternary": lambda o: (solve_ternary_gf(o),),
    "master": solve_master,
    "star": lambda o: (solve_star(o),),
    "uu-dd": solve_uu_dd,
    "ud-du": solve_ud_du,
    "uudd": solve_uudd,
    **{f"star-{s}": (lambda o, s=s: (solve_star_pattern(o, s),)) for s in ("uu", "dd", "ud", "du")},
}


def test_solvers_prefix_stable_to_max_order():
    for name, solve in SOLVERS.items():
        full = solve(MAX_ORDER)
        for k in (0, 1, 2, 7, 13, MAX_ORDER - 1):
            assert [f.coeffs for f in solve(k)] == [f.coeffs[: k + 1] for f in full], (name, k)


def test_master_totals_to_max_order():
    totals = eval_numeric(solve_master(MAX_ORDER)[0], 1, 1, 1)
    assert totals == [gnc_total(n) for n in range(MAX_ORDER + 1)]


def test_tadic_solve_same_degree_dependency():
    # v1 reads v0 at the same degree; v0 reads v1 only one degree lower
    one = tri_const(1, 6)
    (v0, v1), certificate = _tadic_solve(6, 2, lambda v: (one + v[1].shift(), one + v[0]))
    assert eval_numeric(v0, 1, 1, 1) == [1, 2, 2, 2, 2, 2, 2]
    assert v1 == v0 + one
    assert certificate == (True, True)


def test_tadic_solve_rejects_non_contractive_step():
    one = tri_const(1, 5)
    with pytest.raises(ArithmeticError):
        _tadic_solve(5, 1, lambda v: (one + v[0].scale(P_X),))
    with pytest.raises(ArithmeticError):
        _tadic_solve(5, 2, lambda v: (one + v[1], one + v[0]))


@pytest.mark.parametrize("ring", [series.TRI, _packed_ring(5)], ids=["tri", "packed"])
def test_a_square_of_the_unknown_without_a_factor_t_reads_itself(ring):
    one = tri_const(1, 5, ring)
    with pytest.raises(ArithmeticError, match="reads itself"):
        _tadic_solve(5, 1, lambda v: (one + v[0] * v[0],), ring)
    # a plain product forces each factor before it pairs their memos
    with pytest.raises(ArithmeticError, match="reads itself"):
        _tadic_solve(5, 2, lambda v: (one + v[0] * v[1], one + v[1].shift()), ring)


def test_tadic_solve_certifies_its_result():
    # a step whose online call and second call, on the solution, disagree
    # must not pass
    one = tri_const(1, 4)
    calls = []

    def step(v):
        calls.append(v)
        f = v[0].shift()
        return (one + (f if len(calls) == 2 else f.scale(2)),)

    solution, certificate = _tadic_solve(4, 1, step)
    assert certificate == (False,)
    with pytest.raises(ArithmeticError, match="stabilize"):
        _certified(solution, certificate)


def test_partial_substitution():
    t, _ = solve_master(4)
    # setting y = 0 keeps exactly the level-free part of each coefficient
    t0 = t.substitute(y=0)
    for n in range(5):
        expected = {
            (a, 0, c): v
            for (a, b, c), v in census(n).as_terms().items()
            if b == 0
        }
        assert t0.coeffs[n].terms == expected
    # full substitution agrees with numeric evaluation, signs included
    sub = t.substitute(x=-1, y=0, z=1)
    assert [p.terms.get((0, 0, 0), 0) for p in sub.coeffs] == eval_numeric(t, -1, 0, 1)


def test_render_and_terms():
    t, _ = solve_master(2)
    text = render_series(t)
    assert "t^2: 3*x^2 + 4*x*y + 2*x*z + 3*y^2" in text
    assert "t^0: 1" in text
    terms = series_terms(t)
    assert {"n": 1, "x": 1, "y": 0, "z": 0, "coeff": 1} in terms


def test_verify_identities_all_pass():
    checks = verify_identities(8)
    assert checks
    failing = [c.name for c in checks if not c.ok]
    assert failing == []
    assert {c.category for c in checks} == {"defining", "derived"}


def test_derived_checks_evaluate_the_public_solvers(monkeypatch):
    # a wrong coefficient in a public solver's output must fail the derived
    # checks that read it; the defining checks read each solve's certificate
    real = series.solve_uu_dd

    def corrupted(order):
        a, b, c, d = real(order)
        coeffs = list(a.coeffs)
        coeffs[3] = coeffs[3] + P_X * P_Y * P_Z
        return TriSeries(coeffs, order), b, c, d

    monkeypatch.setattr(series, "solve_uu_dd", corrupted)
    try:
        checks = verify_identities(6)
    finally:
        series._solve.cache_clear()
    assert all(c.ok for c in checks if c.category == "defining")
    ok = {c.name: c.ok for c in checks}
    # the corruption shows at x = y = z = 1 but not at y = 0, so the checks
    # on substituted series read the solved series too
    assert ok["uu-proposition-at-ones"] is False
    assert ok["uu-dd-no-levels-ratio"] and ok["du-proposition-at-ones"]


def _image_differs(factory):
    """The step factory with each step's second call, for the image, adding
    x t to every right-hand side."""

    def faulty(order, *members, ring=series.TRI):
        step = factory(order, *members, ring=ring)
        calls = []

        def wrong(vals):
            calls.append(vals)
            out = step(vals)
            xt = series._xt(tri_const(1, order, ring))
            return tuple(f + xt for f in out) if len(calls) == 2 else out

        return wrong

    return faulty


@pytest.mark.parametrize("name", [s.name for s in series.SYSTEMS] + ["alt-pair-star"])
def test_defining_checks_read_each_systems_own_certificate(monkeypatch, name):
    # one system's step disagrees on the solution: its defining records read
    # false, every other system's, built on its solution or not, read true
    if name == "alt-pair-star":
        monkeypatch.setattr(series, "_star_step", _image_differs(series._star_step))
        members = (series._ALT_PAIR_STAR,)
    else:
        system = next(s for s in series.SYSTEMS if s.name == name)
        faulted = system._replace(step=_image_differs(system.step))
        monkeypatch.setattr(series, "SYSTEMS", tuple(faulted if s is system else s for s in series.SYSTEMS))
        members = system.members
    series._solve.cache_clear()
    try:
        failed = [c.name for c in series.defining_checks(6) if not c.ok]
        if name != "alt-pair-star":
            with pytest.raises(ArithmeticError, match="stabilize"):
                series._solved(name, 6, series.TRI)
    finally:
        series._solve.cache_clear()
    assert failed == [m.equation for m in members if m.equation]


@pytest.mark.parametrize("order", [2, 4, 12])
def test_solver_caches_hold_one_full_verify(order):
    solvers = [series._solve]
    for solve in solvers:
        solve.cache_clear()
    assert run_suites("all", 5, order).ok
    for solve in solvers:
        info = solve.cache_info()
        # a bounded cache, and no key solved twice: 11 TRI solves at the order
        # and 10 packed at order - 1, plus the oracle's 10 at order 5 below it
        assert info.maxsize is not None and info.misses == info.currsize <= info.maxsize
        assert info.currsize == (21 if order >= 5 else 31)


def test_each_step_is_evaluated_eagerly_once(monkeypatch):
    # one verify solves each system once per order, wherever the step is
    # read, so each step is called twice, online and then on the solution
    # for the certificate that its defining records read
    calls = Counter()

    def counting(factory):
        def make(order, *members, **kw):
            step = factory(order, *members, **kw)

            def counted(vals):
                calls[factory.__name__, members, order] += 1
                return step(vals)

            return counted

        return make

    expected = {(s.step.__name__, s.members, 6) for s in series.SYSTEMS}
    expected.add(("_star_step", (series._ALT_PAIR_STAR,), 6))
    wrapped = {s.step: counting(s.step) for s in series.SYSTEMS}
    for factory, wrapper in wrapped.items():
        monkeypatch.setattr(series, factory.__name__, wrapper)
    systems = tuple(s._replace(step=wrapped[s.step]) for s in series.SYSTEMS)
    monkeypatch.setattr(series, "SYSTEMS", systems)
    series._solve.cache_clear()
    try:
        assert all(c.ok for c in verify_identities(6))
    finally:
        series._solve.cache_clear()
    assert calls == Counter(dict.fromkeys(expected, 2))


def _fault_the_alt_pair_star(monkeypatch):
    """The online call of the uudd star step and its second call, for the
    image, disagree; caches cleared."""
    real = series._star_step

    def faulty(order, member, *, ring=series.TRI):
        step = real(order, member, ring=ring)
        if member != series._ALT_PAIR_STAR:
            return step
        calls = []

        def wrong(vals):
            calls.append(vals)
            (s,) = step(vals)
            return (s + tri_const(P_X, order).shift() if len(calls) == 2 else s,)

        return wrong

    monkeypatch.setattr(series, "_star_step", faulty)
    series._solve.cache_clear()


def test_alt_pair_star_fault_gives_a_false_record(monkeypatch):
    # its defining record reads false; verify_identities certifies the star
    # it reads, so it refuses the failed certificate
    _fault_the_alt_pair_star(monkeypatch)
    try:
        checks = {c.name: c.ok for c in series.defining_checks(6)}
        with pytest.raises(ArithmeticError, match="stabilize"):
            verify_identities(6)
    finally:
        series._solve.cache_clear()
    assert checks["alt-pair-star-equation"] is False
    assert checks["star-equation"] and checks["uu-star-equation"] and checks["alt-pair-simplified"]


def test_alt_pair_star_fault_refuses_the_identities_suite(monkeypatch):
    # as a master failure does: the suite ends in one failing record
    _fault_the_alt_pair_star(monkeypatch)
    try:
        report = run_suites("identities", 5, 6)
    finally:
        series._solve.cache_clear()
    assert [(c.check_id, c.passed) for c in report.checks] == [("identities:refused", False)]


def test_avoider_counts_refuses_a_str_as_census_does():
    # iterating "uu" would read the letter set {u}
    with pytest.raises(TypeError, match="parse_pattern_set"):
        series.avoider_counts("uu", 4)


def test_avoider_counts_refuses_a_word_outside_the_alphabet():
    with pytest.raises(ValueError, match="u, h, or d"):
        series.avoider_counts(("h", "q"), 3)


def test_avoider_counts_drops_the_words_that_filter_nothing():
    # h is a factor of uh, so the set is the level-free class
    counts = series.avoider_counts(("h", "uh"), 4)
    assert counts == [census(n, ("h", "uh")).total for n in range(5)] and counts[4] == 217


def test_each_system_solves_to_its_certified_solution():
    # the star solvers' words come from the member, not from a field of their own
    series._solve.cache_clear()
    for system in series.SYSTEMS:
        solved = series._solved(system.name, 6, series.TRI)
        assert all(isinstance(f, TriSeries) for f in solved)
        out = system.solve(6)
        assert len(out) == len(solved) and all(f is g for f, g in zip(out, solved)), system.name


@pytest.mark.parametrize("packed", [False, True], ids=["tri", "packed"])
def test_a_failed_certificate_raises_on_every_read(monkeypatch, packed):
    # the second call of the master step, for the image, disagrees with the
    # online call; the failed solve is cached with its certificate, so each
    # read raises again and the step runs twice in total
    order = 5
    ring = series._packed_ring(order) if packed else series.TRI
    calls = []

    def faulty(order, *members, ring=series.TRI):
        step = series._coupled_step(order, *members, ring=ring)

        def wrong(vals):
            calls.append(vals)
            t, u = step(vals)
            return (t + tri_const(1, order, ring).shift() if len(calls) == 2 else t), u

        return wrong

    systems = tuple(s._replace(step=faulty) if s.name == "master" else s for s in series.SYSTEMS)
    monkeypatch.setattr(series, "SYSTEMS", systems)
    series._solve.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="stabilize"):
                series._solved("master", order, ring)
    finally:
        series._solve.cache_clear()
    assert len(calls) == 2


def test_verify_identities_rejects_tiny_order():
    with pytest.raises(ValueError):
        verify_identities(1)


@pytest.mark.parametrize(
    "solve",
    [
        pytest.param(solve_ternary_gf, id="ternary"),
        pytest.param(solve_master, id="master"),
        pytest.param(solve_star, id="star"),
        pytest.param(solve_uu_dd, id="uu-dd"),
        pytest.param(solve_ud_du, id="ud-du"),
        pytest.param(solve_uudd, id="uudd"),
        pytest.param(lambda order: solve_star_pattern(order, "uu"), id="star-pattern"),
        pytest.param(lambda order: packed_solve("master", order), id="packed"),
        pytest.param(lambda order: series.avoider_counts(("h",), order), id="avoider-counts"),
        pytest.param(series.defining_checks, id="defining-checks"),
    ],
)
@pytest.mark.parametrize("order", [-1, -2])
def test_a_negative_order_is_refused_by_name(solve, order):
    with pytest.raises(ValueError, match=f"^order {order} < 0$"):
        solve(order)


def test_a_master_fault_fails_the_same_identities_at_every_point(monkeypatch):
    # T + x^3 t^3 is wrong in TRI and at each point where x is not 0, so the
    # identities that read T, across points too, fail; the defining checks
    # read each solve's certificate and stay green
    real = series.solve_master

    def faulted(order):
        t, u = real(order)
        return t + tri_const(P_X * P_X * P_X, order).shift(3), u

    monkeypatch.setattr(series, "solve_master", faulted)
    try:
        checks = verify_identities(6)
    finally:
        series._solve.cache_clear()
    assert all(c.ok for c in checks if c.category == "defining")
    assert sorted(c.name for c in checks if not c.ok) == [
        "d-avoider-catalan-form",
        "hd-avoider-schroeder",
        "level-avoider-cubic",
        "master-catalan-form",
        "master-nested-catalan-form",
        "master-raw-decomposition",
        "master-substituted-form",
        "master-swap-involution",
        "schroeder-quadratic",
        "ud-no-levels-schroeder",
    ]


@pytest.mark.parametrize("order", [0, 1, 2, 12, 20])
@pytest.mark.parametrize("system", series.SYSTEMS, ids=[s.name for s in series.SYSTEMS])
def test_packed_solve_equals_the_direct_solve(system, order):
    packed, direct = packed_solve(system.name, order), system.solve(order)
    assert len(packed) == len(direct) == len(system.members)
    for f, g in zip(packed, direct):
        assert f.order == g.order == order
        for n in range(order + 1):
            assert f.coeffs[n] == g.coeffs[n], (system.name, n)


def test_unpacking_rejects_values_that_no_count_polynomial_packs():
    order = 4
    ring, k = _packed_ring(order), _digit_bits(order)
    good = TriPoly({(2, 0, 0): 3, (1, 1, 0): (1 << k - 1) - 1, (0, 0, 2): 1})
    assert _unpack_digits(good.eval(ring.x, ring.y, ring.z), 2, order) == good
    with pytest.raises(ArithmeticError, match="guard bit"):  # y - x: a negative coefficient
        _unpack_digits(ring.y - ring.x, 1, order)
    with pytest.raises(ArithmeticError, match="guard bit"):  # a coefficient at 2^(k - 1)
        _unpack_digits((1 << k - 1) * ring.x * ring.z, 2, order)
    with pytest.raises(ArithmeticError, match="no degree-2 monomial owns"):  # x y^2 read as degree 2
        _unpack_digits(ring.x * ring.y * ring.y, 2, order)


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_a_digit_holds_every_tree_count_of_its_order(order):
    # [t^n] of a solved member counts trees with n <= order edges, so each of
    # its coefficients is at most gnc_total(order), below the guard bit
    ring, k, top = _packed_ring(order), _digit_bits(order), gnc_total(order)
    assert top < 1 << k - 1
    for a, b in ((order, 0), (0, order), (0, 0)):
        mono = TriPoly({(a, b, order - a - b): 1})
        at = mono.eval(ring.x, ring.y, ring.z)
        assert _unpack_digits(top * at, order, order) == mono * top
        with pytest.raises(ArithmeticError, match="guard bit"):
            _unpack_digits((1 << k - 1) * at, order, order)


def test_every_solved_member_is_pinned_at_order_20():
    # one digest over every member of every system, packed route, order 20:
    # the only pin on the star-<s> series, on ternary, and on order 20
    digest = hashlib.sha256()
    for system in series.SYSTEMS:
        for member, f in zip(system.members, packed_solve(system.name, 20)):
            digest.update(f"{member.name}\n{render_series(f)}\n".encode())
    assert digest.hexdigest() == "47456be6dcaff12c8e9d8249223c9ee5029992ceac34fca81e6d34bb54616754"


def test_kernel_work_stays_within_its_budget(monkeypatch):
    # deterministic counts of the one convolution kernel; the coupled steps
    # share their products, so a rise here is work the steps no longer share
    calls, products = Counter(), Counter()

    def counting(ring, real):
        def mul_sum(pairs):
            pairs = list(pairs)
            calls[ring] += 1
            products[ring] += sum(len(p._packed) * len(q._packed) for p, q in pairs) if ring == "tri" else len(pairs)
            return real(pairs)

        return mul_sum

    def counted(name, make_ring):
        def make(*args):
            ring = make_ring(*args)
            ring.mul_sum = counting(name, ring.mul_sum)
            return ring

        return make

    monkeypatch.setattr(series.TRI, "mul_sum", counting("tri", series.TRI.mul_sum))
    monkeypatch.setattr(series, "point_ring", counted("point", series.point_ring))
    series._solve.cache_clear()
    try:
        assert run_suites("all", 5, 12).ok
        series._solve.cache_clear()
        monkeypatch.setattr(series, "_packed_ring", counted("packed", series._packed_ring))
        for system in series.SYSTEMS:
            packed_solve(system.name, 16)
    finally:
        series._solve.cache_clear()
    assert calls["tri"] <= 1970 and products["tri"] <= 612084
    # in an int ring a pair is one int product; a square adds no call.  The
    # univariate identities run in point rings, not in TRI
    assert calls["point"] <= 611 and products["point"] <= 3191
    assert calls["packed"] <= 1460 and products["packed"] <= 11440
