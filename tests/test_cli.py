import ast
import hashlib
import io
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gnctrees import cli, combinat, formulas, patterns, schroder, series, trees, verify
from gnctrees.combinat import gnc_total
from gnctrees.cli import main
from gnctrees.trees import tree_to_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_VERIFY_ALL = ROOT / "tests" / "data" / "verify_all.json"
BENCH_PINS = ROOT / "bench" / "pinned.json"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_count_methods_agree(capsys):
    # the last two hold words that another avoided word already excludes
    classes = ["", "u", "h", "d", "h,d", "uu,h", "dd,h", "ud,h", "du,h", "uu,dd,h", "h,uh", "uu,dd,h,uud"]
    for avoid in classes:
        for n in range(6):
            values = {}
            for method in ("brute", "formula", "series"):
                rc, out, _ = run(
                    capsys, ["count", "--n", str(n), "--avoid", avoid, "--method", method]
                )
                assert rc == 0
                values[method] = int(out)
            assert len(set(values.values())) == 1, (avoid, n, values)


def test_count_published_values(capsys):
    rc, out, _ = run(capsys, ["count", "--n", "4", "--avoid", "h", "--method", "formula"])
    assert rc == 0 and out.strip() == "217"
    rc, out, _ = run(capsys, ["count", "--n", "3", "--avoid", "h,d", "--method", "series"])
    assert rc == 0 and out.strip() == "11"
    rc, out, _ = run(capsys, ["count", "--n", "2", "--avoid", "", "--method", "brute"])
    assert rc == 0 and out.strip() == "12"


def test_count_series_supports_uudd_pair(capsys):
    rc, out, _ = run(capsys, ["count", "--n", "5", "--avoid", "uu,dd", "--method", "series"])
    assert rc == 0
    rc2, out2, _ = run(capsys, ["count", "--n", "5", "--avoid", "uu,dd", "--method", "brute"])
    assert out == out2


def test_count_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "3", "--avoid", "uu,dd", "--method", "formula"])
    assert exc.value.code == 2
    assert "--avoid: no closed formula for avoid set 'uu,dd'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "3", "--avoid", "uu,du", "--method", "series"])
    assert exc.value.code == 2
    assert "--avoid: no solved series family covers avoid set 'uu,du'" in capsys.readouterr().err


def test_count_series_lists_the_solved_sets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "3", "--avoid", "uu,du", "--method", "series"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "avoid set 'uu,du'" in err
    listed = ast.literal_eval(err.split("plus one of ", 1)[1].strip())
    assert "uu,dd" in listed and "(none)" in listed
    for avoid in listed:
        avoid = "" if avoid == "(none)" else avoid
        rc, out, _ = run(capsys, ["count", "--n", "4", "--avoid", avoid, "--method", "series"])
        rc2, out2, _ = run(capsys, ["count", "--n", "4", "--avoid", avoid, "--method", "brute"])
        assert rc == rc2 == 0 and out == out2, avoid


def test_count_series_equals_brute_on_every_advertised_avoid_set(capsys):
    # the error message offers each solved long-word class with any subset of u, h, d
    with pytest.raises(SystemExit):
        main(["count", "--n", "3", "--avoid", "uu,du", "--method", "series"])
    listed = ast.literal_eval(capsys.readouterr().err.split("plus one of ", 1)[1].strip())
    classes = [[] if avoid == "(none)" else avoid.split(",") for avoid in listed]
    letters = [list(sub) for k in range(4) for sub in itertools.combinations("uhd", k)]
    spellings = [",".join(long + sub) for long in classes for sub in letters]
    assert len(spellings) == 48
    assert len({patterns._norm_patterns(s.split(",") if s else []) for s in spellings}) == 22
    for avoid in spellings:
        for n in range(6):
            values = [
                run(capsys, ["count", "--n", str(n), "--avoid", avoid, "--method", method])
                for method in ("series", "brute")
            ]
            assert values[0] == values[1] and values[0][0] == 0, (avoid, n, values)


def test_count_bound_error(capsys):
    # the ceiling needs no flag, and one past it suggests none
    rc, out, err = run(capsys, ["count", "--n", "8", "--method", "brute"])
    assert rc == 0 and int(out) == gnc_total(8) and err == ""
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "9", "--method", "brute"])
    assert exc.value.code == 2
    assert "max-n" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "census"])
def test_bound_error_speaks_in_edges(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "9"])
    assert exc.value.code == 2
    assert "error: --n 9 outside 0..8" in capsys.readouterr().err


def test_census_csv(capsys):
    rc, out, _ = run(capsys, ["census", "--n", "2"])
    assert rc == 0
    assert out.splitlines() == [
        "u,h,d,count",
        "0,2,0,3",
        "1,0,1,2",
        "1,1,0,4",
        "2,0,0,3",
    ]


def test_census_json_and_star(capsys):
    rc, out, _ = run(capsys, ["census", "--n", "1", "--star", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"count": 1, "d": 0, "h": 0, "u": 1}]
    assert payload["total"] == 1
    rc, out, _ = run(capsys, ["census", "--n", "0", "--format", "json"])
    assert json.loads(out)["rows"] == [{"count": 1, "d": 0, "h": 0, "u": 0}]


def test_series_text(capsys):
    rc, out, _ = run(capsys, ["series", "--family", "ternary", "--order", "5"])
    assert rc == 0
    assert "t^5: 273*y^5" in out
    rc, out, _ = run(capsys, ["series", "--family", "master", "--order", "2"])
    assert "t^2: 3*x^2 + 4*x*y + 2*x*z + 3*y^2" in out


def test_series_numeric(capsys):
    rc, out, _ = run(capsys, ["series", "--family", "ud-du", "--order", "6", "--at", "1,0,1"])
    assert rc == 0
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert lines["ud"] == "1, 1, 3, 11, 45, 197, 903"
    assert lines["du"] == "1, 1, 5, 27, 157, 957, 6025"
    rc, out, _ = run(capsys, ["series", "--family", "master", "--order", "5", "--at", "1,1,1"])
    assert "1, 2, 12, 96, 880, 8736" in out


def test_at_takes_a_negative_value_after_a_space(capsys):
    argv = ["series", "--family", "uudd", "--order", "5"]
    rc, out, _ = run(capsys, [*argv, "--at", "-1,0,1"])
    assert rc == 0
    assert out.splitlines()[0] == "uu-dd: 1, -1, 0, 2, 0, -8"
    assert run(capsys, [*argv, "--at=-1,0,1"]) == (0, out, "")
    # a trailing --at still lacks its value
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--at"])
    assert exc.value.code == 2
    assert "argument --at: expected one argument" in capsys.readouterr().err


def test_series_json(capsys):
    rc, out, _ = run(capsys, ["series", "--family", "star", "--order", "2", "--format", "json"])
    payload = json.loads(out)
    assert {"n": 1, "x": 1, "y": 0, "z": 0, "coeff": 1} in payload["star"]


SERIES_FAMILIES = [s for s in series.SYSTEMS if s.family]


def _direct_renderings(system, order):
    """The series outputs rendered from the direct trivariate solve."""
    members = [(m.name, f) for m, f in zip(system.members, system.solve(order))]
    point = (Fraction(1, 2), Fraction(-3), Fraction(1, 2))
    values = {name: [str(v) for v in series.eval_numeric(f, *point)] for name, f in members}
    return {
        "text": "\n\n".join(f"# {name}\n{series.render_series(f)}" for name, f in members) + "\n",
        "json": json.dumps({name: series.series_terms(f) for name, f in members}, indent=2, sort_keys=True) + "\n",
        "at-text": "\n".join(f"{name}: " + ", ".join(vs) for name, vs in values.items()) + "\n",
        "at-json": json.dumps(values, indent=2, sort_keys=True) + "\n",
    }


@pytest.mark.parametrize("order", [0, 7, 20])
@pytest.mark.parametrize("system", SERIES_FAMILIES, ids=[s.name for s in SERIES_FAMILIES])
def test_series_output_is_the_direct_solve_rendered(capsys, tmp_path, system, order):
    expected = _direct_renderings(system, order)
    argv = ["series", "--family", system.name, "--order", str(order)]
    forms = {
        "text": [],
        "json": ["--format", "json"],
        "at-text": ["--at", "1/2,-3,0.5"],
        "at-json": ["--at", "1/2,-3,0.5", "--format", "json"],
    }
    for form, extra in forms.items():
        assert run(capsys, [*argv, *extra]) == (0, expected[form], ""), form
    # each JSON document is the same in a file
    for form in ("json", "at-json"):
        target = tmp_path / f"{form}.json"
        assert main([*argv, *forms[form], "--output", str(target)]) == 0
        assert target.read_text() == expected[form], form


def _with_master_factory(monkeypatch, faulty):
    """series.SYSTEMS with the master system's step replaced, caches cleared."""
    systems = tuple(s._replace(step=faulty) if s.name == "master" else s for s in series.SYSTEMS)
    monkeypatch.setattr(series, "SYSTEMS", systems)
    series._solve.cache_clear()


def _adding_to_master(c, *, packed):
    """A master step that adds c x t to T in the packed rings only, or in TRI
    only, in both calls of the step alike, so that the certificate still passes."""

    def faulty(order, *members, ring=series.TRI):
        step = series._coupled_step(order, *members, ring=ring)
        if (ring == series.TRI) == packed:
            return step
        cxt = series._xt(series.tri_const(c, order, ring))

        def wrong(vals):
            t, u = step(vals)
            return t + cxt, u

        return wrong

    return faulty


def test_series_fault_in_the_packed_ring_fails_to_stabilize(capsys, monkeypatch):
    # the online call of the master step and its second call, for the image,
    # disagree in the packed ring only: `series` reports the failed
    # certificate, the direct route is sound
    def faulty(order, *members, ring=series.TRI):
        step = series._coupled_step(order, *members, ring=ring)
        calls = []

        def wrong(vals):
            calls.append(vals)
            t, u = step(vals)
            if ring != series.TRI and len(calls) == 2:
                t = t + series.tri_const(1, order, ring).shift()
            return t, u

        return wrong

    _with_master_factory(monkeypatch, faulty)
    try:
        rc, out, err = run(capsys, ["series", "--family", "master", "--order", "5"])
        totals = series.eval_numeric(series.solve_master(5)[0], 1, 1, 1)
    finally:
        series._solve.cache_clear()
    assert rc == 1 and out == ""
    assert err == "error: fixed-point iteration failed to stabilize\n"
    assert totals == [gnc_total(n) for n in range(6)]


def test_series_negative_coefficient_in_the_packed_ring_is_an_error(capsys, monkeypatch):
    # the master step subtracts 2 x t from T in the packed ring only, in both
    # of its calls alike, so the certificate passes; [t^1] of T is then -x + y,
    # which no digit can hold
    _with_master_factory(monkeypatch, _adding_to_master(-2, packed=True))
    try:
        rc, out, err = run(capsys, ["series", "--family", "master", "--order", "5"])
    finally:
        series._solve.cache_clear()
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("c, packed", [(-2, True), (2, False)], ids=["packed", "tri"])
def test_verify_prefix_stability_catches_a_fault_in_either_ring(capsys, monkeypatch, c, packed):
    # prefix stability compares the TRI solve with the packed one at order - 1:
    # -2 x t in the packed ring leaves TRI sound and makes the read-back
    # raise; +2 x t in TRI keeps that solve certified and homogeneous, but
    # different from the packed one
    _with_master_factory(monkeypatch, _adding_to_master(c, packed=packed))
    try:
        rc, out, _ = run(capsys, ["verify", "--suite", "equations", "--order", "6"])
    finally:
        series._solve.cache_clear()
    assert rc == 1
    passed = {chk["id"]: chk["pass"] for chk in json.loads(out)["checks"]}
    assert passed["equation:prefix-stability:master"] is False
    assert passed["equation:homogeneity:master"] is True


def _master_image_adding_t(order, *members, ring=series.TRI):
    """The master step, whose second call, for the image, adds t to T in TRI."""
    step = series._coupled_step(order, *members, ring=ring)
    calls = []

    def wrong(vals):
        calls.append(vals)
        t, u = step(vals)
        if ring == series.TRI and len(calls) == 2:
            t = t + series.tri_const(1, order, ring).shift()
        return t, u

    return wrong


def test_verify_reports_a_failed_certificate_and_runs_every_suite(capsys, monkeypatch):
    # each certified read of master's solve refuses: the suites that read it
    # keep their earlier records and end in <suite>:refused, and the report
    # is written whole
    _with_master_factory(monkeypatch, _master_image_adding_t)
    try:
        rc, out, err = run(capsys, ["verify", "--suite", "all", "--order", "6"])
        refused = run(capsys, ["count", "--n", "4", "--method", "series"])
    finally:
        series._solve.cache_clear()
    assert rc == 1 and err == ""
    report = json.loads(out)
    records = {c["id"]: c for c in report["checks"]}
    assert report["total"] == len(records) == 53 and report["ok"] is False
    assert [c["id"] for c in report["checks"] if not c["pass"]] == [
        "equation:master-simplified",
        "equations:refused",
        "identities:refused",
        "theorems:refused",
        "oracle:refused",
    ]
    assert records["equation:master-simplified-swap"]["pass"] is True
    assert sum(i.startswith("bijection:") for i in records) == 33
    assert records["oracle:refused"] == {
        "id": "oracle:refused",
        "params": {"max_n": 5, "order": 6},
        "source": "oracle",
        "expected": "the suite runs to its end",
        "observed": "fixed-point iteration failed to stabilize",
        "pass": False,
    }
    # the other commands still refuse the failed certificate
    assert refused == (1, "", "error: fixed-point iteration failed to stabilize\n")


def test_verify_equations_alone_ends_in_its_refused_record(capsys, monkeypatch):
    _with_master_factory(monkeypatch, _master_image_adding_t)
    try:
        rc, out, err = run(capsys, ["verify", "--suite", "equations"])
    finally:
        series._solve.cache_clear()
    assert rc == 1 and err == ""
    checks = json.loads(out)["checks"]
    assert [c["id"] for c in checks if not c["pass"]] == ["equation:master-simplified", "equations:refused"]
    assert checks[-1]["id"] == "equations:refused"


def test_verify_all_solves_each_system_once_per_ring(monkeypatch):
    # TRI at verify's order, the packed ring at order - 1, nothing else
    keys = set()
    real = series._solved

    def ledger(name, order, ring):
        keys.add((name, order, ring.name))
        return real(name, order, ring)

    monkeypatch.setattr(series, "_solved", ledger)
    assert cli.run_suites("all", 5, 12).ok
    assert keys == {(s.name, o, r) for s in series.SYSTEMS for o, r in ((12, "tri"), (11, "packed-11"))}


def test_series_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--family", "nope", "--order", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gnctrees series ")
    assert "error: --family 'nope' is not one of ternary, master, star, uu-dd, ud-du, uudd" in err
    with pytest.raises(SystemExit) as exc:
        main(["series", "--family", "master", "--order", "25"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["series", "--family", "master", "--order", "3", "--at", "1,2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "point",
    ["1e5", "1/0", "-3/00", "1" * 51 + ",0,0", "1/" + "7" * 50 + ",0,0", "0." + "1" * 50 + ",0,0", "1,2"],
)
def test_bad_point_is_a_usage_error_naming_the_flag(capsys, point):
    point = point if "," in point else f"{point},0,0"
    with pytest.raises(SystemExit) as exc:
        main(["series", "--family", "master", "--order", "2", f"--at={point}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gnctrees series ")
    assert "argument --at: " in err


def test_fifty_digit_point_is_exact(capsys):
    p, q = "9" * 25, "7" * 24 + "3"
    rc, out, _ = run(capsys, ["series", "--family", "master", "--order", "2", "--at", f"{p}/{q},0,-.5"])
    assert rc == 0
    x = Fraction(int(p), int(q))
    # [t^1] of master is x + y, and [t^2] is 3x^2 + 4xy + 2xz + 3y^2
    assert out.splitlines()[0] == f"master: 1, {x}, {3 * x * x - x}"
    rc, out, _ = run(capsys, ["series", "--family", "ternary", "--order", "1", "--at", "0,1" + "0" * 49 + ",0"])
    assert out == f"ternary: 1, {10**49}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["series", "--family", "master", "--order", "-1"], "--order"),
        (["count", "--n", "-1", "--method", "series"], "--n"),
        (["count", "--n", "21", "--method", "series"], "--n"),
        (["verify", "--suite", "identities", "--order", "1"], "--order"),
        (["verify", "--suite", "equations", "--order", "21"], "--order"),
        (["series", "--family", "master", "--order", "21"], "--order"),
    ],
)
def test_series_orders_bounded_at_the_boundary(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# The size flags of the brute-force and formula routes, each with its range:
# (argv before the flag, flag, lowest, ceiling).  The series route's flags are
# in test_series_orders_bounded_at_the_boundary.
CEILINGS = [
    (["bijection"], "--check", 0, 8),
    (["verify", "--suite", "bijection"], "--max-n", 0, 8),
    (["count"], "--n", 0, 8),
    (["census"], "--n", 0, 8),
    (["count", "--method", "formula", "--avoid", "du,h"], "--n", 0, 200),
    (["oeis", "--sequence", "gnc-h"], "--max-n", 0, 200),
]


@pytest.mark.parametrize(
    "argv, flag",
    [([*argv, flag, str(v)], flag) for argv, flag, lo, hi in CEILINGS for v in (hi + 1, lo - 1)],
)
def test_size_flags_bounded_at_the_boundary(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage line is the subcommand's, and the message names the flag
    assert err.startswith(f"usage: gnctrees {argv[0]} ")
    assert f"error: {flag} " in err


@pytest.mark.parametrize(
    "argv", [[*argv, flag, str(hi)] for argv, flag, _, hi in CEILINGS], ids=" ".join
)
def test_size_flags_pass_at_the_ceiling(capsys, argv):
    rc, out, _ = run(capsys, argv)
    assert rc == 0 and out


@pytest.mark.parametrize("command", ["count", "census"])
def test_max_n_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "2", "--max-n", "2"])
    assert exc.value.code == 2
    assert "--max-n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "census"])
def test_count_and_census_accept_the_lowest_sizes(capsys, command):
    rc, out, _ = run(capsys, [command, "--n", "0"])
    assert rc == 0 and out


def test_oeis_accepts_the_largest_index(capsys):
    rc, out, _ = run(capsys, ["oeis", "--sequence", "gnc-h", "--max-n", "200"])
    assert rc == 0 and out.splitlines()[-1].startswith("200 ")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "3", "--avoid", "x"],
        ["count", "--n", "3", "--avoid", "uu,hx", "--method", "formula"],
        ["census", "--n", "3", "--avoid", ",,"],
        ["census", "--n", "3", "--avoid", "uu,"],
    ],
)
def test_bad_avoid_is_a_usage_error_naming_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: gnctrees {argv[0]} ")
    assert "error: argument --avoid: " in err


@pytest.mark.parametrize("command", ["count", "census"])
def test_empty_avoid_means_no_filter(capsys, command):
    _, plain, _ = run(capsys, [command, "--n", "3"])
    rc, out, _ = run(capsys, [command, "--n", "3", "--avoid", ""])
    assert rc == 0 and out == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "3"],
        ["census", "--n", "3"],
        ["series", "--family", "master", "--order", "2"],
        ["bijection", "--check", "2"],
        ["verify", "--suite", "oracle", "--max-n", "2"],
        ["oeis", "--sequence", "gnc-h", "--max-n", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_jobs_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_series_max_order_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--family", "master", "--order", "3", "--max-order", "30"])
    assert exc.value.code == 2
    assert "--max-order" in capsys.readouterr().err


def test_verify_points_suite_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "points"])
    assert exc.value.code == 2
    assert "--suite" in capsys.readouterr().err


def test_closed_stdout_exits_without_traceback():
    argv = ["series", "--family", "uu-dd", "--order", "20", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gnctrees.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    # the output is far larger than a pipe buffer, so the writer meets the
    # closed pipe after the first line has been read
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_bijection_decode(capsys):
    rc, out, _ = run(capsys, ["bijection", "--decode", "UD"])
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"edges": [[0, 1]], "jumps": [1], "labels": [1, 2], "n": 1}


def test_bijection_encode(tmp_path, capsys, eight_point_tree):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(tree_to_json(eight_point_tree)))
    rc, out, _ = run(capsys, ["bijection", "--encode", str(tree_file)])
    assert rc == 0
    assert out.strip() == "UFFUFDDUUDD"
    rc, out, _ = run(capsys, ["bijection", "--encode", str(tree_file), "--format", "json"])
    assert json.loads(out) == list("UFFUFDDUUDD")


@pytest.mark.parametrize(
    "argv", [["--decode", "UD", "--format", "text"], ["--check", "1", "--format", "json"]]
)
def test_bijection_format_outside_encode_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["bijection", *argv])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_bijection_decode_json_list_form(capsys):
    rc, out, _ = run(capsys, ["bijection", "--decode", '["U", "F", "D"]'])
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and payload["jumps"] == [1]


def test_bijection_encode_rejects_level_tree(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({"n": 1, "edges": [[0, 1]], "jumps": []}))
    rc, _, err = run(capsys, ["bijection", "--encode", str(tree_file)])
    assert rc == 1
    assert "level" in err


def test_bijection_encode_rejects_crossing_tree(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({"n": 3, "edges": [[0, 2], [1, 3], [0, 1]], "jumps": [1, 2, 3]}))
    rc, out, err = run(capsys, ["bijection", "--encode", str(tree_file)])
    assert rc == 1 and out == ""
    assert "cross" in err


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_bijection_encode_unreadable_file_names_the_flag(tmp_path, capsys, target):
    path = tmp_path / "absent.json" if target == "missing" else tmp_path
    rc, out, err = run(capsys, ["bijection", "--encode", str(path)])
    assert rc == 1 and out == ""
    assert err.startswith(f"error: --encode {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, field",
    [
        ("[1, 2]", "object"),
        ("3", "object"),
        ('{"n": 1, "edges": [[0, 1]], "jumps": null}', "jumps"),
        ('{"n": 1, "edges": [["a", 1]], "jumps": [1]}', "edges"),
        ('{"n": 1, "jumps": [1]}', "edges"),
        ('{"n": -1, "edges": [], "jumps": []}', "n must be a nonnegative integer"),
    ],
)
def test_bijection_encode_rejects_malformed_tree_json(monkeypatch, capsys, text, field):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run(capsys, ["bijection", "--encode", "-"])
    assert rc == 1 and out == ""
    assert err.startswith("error: tree JSON: ") and err.count("\n") == 1
    assert field in err and "Traceback" not in err


def test_bijection_encode_reports_a_loop_edge_as_an_invalid_tree(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 2, "edges": [[1, 1], [0, 1]], "jumps": []}'))
    rc, out, err = run(capsys, ["bijection", "--encode", "-"])
    assert rc == 1 and out == ""
    assert err == "error: invalid tree: edge (1,1) is a loop; edge set is not connected\n"


def test_bijection_encode_names_a_repeated_edge(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 2, "edges": [[0, 1], [1, 0]], "jumps": []}'))
    rc, out, err = run(capsys, ["bijection", "--encode", "-"])
    assert rc == 1 and out == ""
    assert err.startswith("error: invalid tree: edge (0,1) is repeated; ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[" * 3000, '{"n":' * 3000, '{"n": 2, "edges": [[0, 1]'])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_bijection_encode_malformed_json_names_the_flag(tmp_path, monkeypatch, capsys, text, source):
    if source == "file":
        target = tmp_path / "tree.json"
        target.write_text(text)
    else:
        target = "-"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run(capsys, ["bijection", "--encode", str(target)])
    assert rc == 1 and out == ""
    assert err.startswith(f"error: --encode {target}: malformed JSON: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bijection_decode_malformed(capsys):
    for text in ("UDX", "FUD", '{"a":1}', '["U",', "[" * 3000):
        rc, out, err = run(capsys, ["bijection", "--decode", text])
        assert rc == 1 and out == "", text
        assert err.startswith("error: --decode: malformed path: ") and err.count("\n") == 1, text


def test_bijection_check(capsys):
    rc, out, _ = run(capsys, ["bijection", "--check", "3"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    ids = {c["id"] for c in payload["checks"]}
    assert f"bijection:injective:n=3" in ids


def test_verify_identities_suite(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "identities", "--order", "6"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["failed"] == 0
    assert all(c["id"].startswith("identity:") for c in payload["checks"])


def test_verify_equations_suite(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "equations", "--order", "6"])
    assert rc == 0
    payload = json.loads(out)
    ids = {c["id"] for c in payload["checks"]}
    assert "equation:prefix-stability:master" in ids
    assert "equation:homogeneity:uudd" in ids


def test_suite_choices_are_the_suite_table():
    # the parser names the suites without loading the module that runs them
    assert cli.SUITES == ("all", *verify.SUITE_TABLE)


def test_verify_runs_a_wrapper_installed_on_cli_run_suites(capsys, monkeypatch):
    # bench/tracer.py wraps cli.run_suites after import; verify must look it up when it runs
    calls = []
    real = cli.run_suites
    monkeypatch.setattr(cli, "run_suites", lambda *a: calls.append(a) or real(*a))
    rc, _, _ = run(capsys, ["verify", "--suite", "identities", "--order", "2"])
    assert rc == 0 and calls == [("identities", 5, 2)]


def test_main_runs_a_wrapper_installed_on_cli_cmd_oeis(capsys, monkeypatch):
    # bench/tracer.py wraps each cli.cmd_* after import; main must look it up when it runs
    calls = []
    real = cli.cmd_oeis
    monkeypatch.setattr(cli, "cmd_oeis", lambda args, parser: calls.append(args.sequence) or real(args, parser))
    rc, out, _ = run(capsys, ["oeis", "--sequence", "catalan", "--max-n", "3"])
    assert rc == 0 and calls == ["catalan"] and out == "0 1\n1 1\n2 2\n3 5\n"


def test_verify_all_is_each_suite_in_turn(capsys, monkeypatch):
    calls = []
    real = series.verify_identities
    monkeypatch.setattr(series, "verify_identities", lambda order: calls.append(order) or real(order))
    flags = ["--max-n", "3", "--order", "6"]
    rc, out, _ = run(capsys, ["verify", "--suite", "all", *flags])
    assert rc == 0 and calls == [6]
    parts = []
    for suite in ("equations", "identities", "theorems", "oracle", "bijection"):
        parts += json.loads(run(capsys, ["verify", "--suite", suite, *flags])[1])["checks"]
    assert json.loads(out)["checks"] == parts


def test_equations_suite_runs_no_identity_suite(capsys, monkeypatch):
    # the defining records read each solve's certificate, so `equations`
    # runs no derived identity, and `all` runs the identity suite once
    calls = []
    real = series.verify_identities
    monkeypatch.setattr(series, "verify_identities", lambda order: calls.append(order) or real(order))
    assert run(capsys, ["verify", "--suite", "equations", "--order", "6"])[0] == 0
    assert calls == []
    assert run(capsys, ["verify", "--suite", "all", "--max-n", "3", "--order", "6"])[0] == 0
    assert calls == [6]


def test_verify_all_matches_golden_file(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "all"])
    assert rc == 0
    assert out.encode() == GOLDEN_VERIFY_ALL.read_bytes()


def test_verify_theorems_at_an_order_below_max_n(capsys):
    # brute force reaches past the series order; the formula must cover both
    rc, out, _ = run(capsys, ["verify", "--suite", "theorems", "--order", "2", "--max-n", "4"])
    assert rc == 0 and json.loads(out)["failed"] == 0


def test_verify_oracle_at_an_order_below_max_n(capsys):
    # the oracle's series must reach max(--max-n, 5) coefficients, past the order
    rc, out, _ = run(capsys, ["verify", "--suite", "oracle", "--order", "2", "--max-n", "5"])
    assert rc == 0 and json.loads(out)["failed"] == 0


def test_verify_fault_injection(capsys, monkeypatch):
    # a corrupted formula constant must flip the exit status
    real = formulas.h_avoiding
    monkeypatch.setattr(formulas, "h_avoiding", lambda n: real(n) + (n == 3))
    rc, out, _ = run(capsys, ["verify", "--suite", "theorems", "--max-n", "3"])
    assert rc == 1
    payload = json.loads(out)
    assert payload["failed"] >= 1
    bad = {c["id"] for c in payload["checks"] if not c["pass"]}
    assert any("level-free" in b for b in bad)


def _failing(category):
    """A fault for a reader of series checks: one check, in the category, that fails."""
    return lambda real: lambda order: [series.IdentityCheck("fault", category, False)]


def _off_by_one(real):
    return lambda n: real(n) + 1


# one fault per suite: the module attribute replaced, the fault built from the
# real attribute, the record it fails, and that record's bad word (None for a
# record that compares values)
SUITE_FAULTS = {
    "equations": (series, "defining_checks", _failing("defining"), "equation:fault", "nonzero"),
    "identities": (series, "verify_identities", _failing("derived"), "identity:fault", "nonzero"),
    "theorems": (
        formulas,
        "h_avoiding",
        lambda real: lambda n: real(n) + (n == 3),
        "theorem:level-free:formula-vs-brute",
        None,
    ),
    "oracle": (combinat, "ternary", _off_by_one, "oracle:nc-tree-counts", "differ"),
    "bijection": (schroder, "coker_count", _off_by_one, "bijection:coker-counts", None),
}


@pytest.mark.parametrize("suite", SUITE_FAULTS)
def test_verify_fault_fails_its_record_with_the_bad_word(capsys, monkeypatch, suite):
    module, name, fault, faulted, bad_word = SUITE_FAULTS[suite]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    rc, out, _ = run(capsys, ["verify", "--suite", suite, "--max-n", "3", "--order", "4"])
    assert rc == 1
    record = {c["id"]: c for c in json.loads(out)["checks"]}[faulted]
    assert record["pass"] is False
    if bad_word is not None:
        assert record["observed"] == bad_word


def test_shard_merge_record_fails_when_one_avoider_is_misclassified(capsys, monkeypatch):
    # classify is read only by oracle:shard-merge-determinism, which classifies
    # each avoider once; moving one tree's ascent count must fail the record
    real = trees.classify
    moved = []

    def misclassify(tree):
        edges, st = real(tree)
        if not moved:
            moved.append(tree)
            st = trees.StatTriple(st.u + 1, st.h, st.d)
        return edges, st

    monkeypatch.setattr(trees, "classify", misclassify)
    rc, out, _ = run(capsys, ["verify", "--suite", "oracle", "--max-n", "4"])
    assert rc == 1 and moved
    record = {c["id"]: c for c in json.loads(out)["checks"]}["oracle:shard-merge-determinism"]
    assert record["pass"] is False
    assert record["observed"] == "different"


def test_verify_deterministic_output(tmp_path):
    f1 = tmp_path / "r1.json"
    f2 = tmp_path / "r2.json"
    assert main(["verify", "--suite", "oracle", "--max-n", "3", "--output", str(f1)]) == 0
    assert main(["verify", "--suite", "oracle", "--max-n", "3", "--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_oeis_bfile(capsys):
    rc, out, _ = run(capsys, ["oeis", "--sequence", "gnc-h", "--max-n", "6"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "0 1"
    assert lines[6] == "6 12985"
    rc, out, _ = run(capsys, ["oeis", "--sequence", "gnc-du-h", "--max-n", "6"])
    assert out.splitlines()[-1] == "6 6025"
    rc, out, _ = run(capsys, ["oeis", "--sequence", "gnc-total", "--max-n", "4"])
    assert out.splitlines()[-1] == "4 880"


def test_oeis_bfiles_match_benchmark_pins(capsys):
    # the SHA-256 of each b-file to n = 100, as pinned for the benchmark
    pins = {
        op: digest
        for op, digest in json.loads(BENCH_PINS.read_text()).items()
        if op.startswith("oeis ")
    }
    assert len(pins) == len(formulas.SEQUENCES) == 13
    for op, digest in sorted(pins.items()):
        rc, out, _ = run(capsys, op.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, op


def test_oeis_csv_and_errors(capsys, tmp_path):
    rc, out, _ = run(capsys, ["oeis", "--sequence", "little-schroeder", "--max-n", "3", "--format", "csv"])
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,3", "3,11"]
    with pytest.raises(SystemExit) as exc:
        main(["oeis", "--sequence", "nope", "--max-n", "3"])
    assert exc.value.code == 2
    target = tmp_path / "b.txt"
    assert main(["oeis", "--sequence", "gnc-d", "--max-n", "5", "--output", str(target)]) == 0
    assert target.read_text().endswith("5 3070\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "2"],
        ["census", "--n", "2"],
        ["series", "--family", "master", "--order", "2"],
        ["bijection", "--decode", "UD"],
        ["verify", "--suite", "bijection", "--max-n", "0"],
        ["oeis", "--sequence", "catalan", "--max-n", "3"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_is_an_error_naming_the_flag(tmp_path, capsys, argv, target):
    path = tmp_path / "absent" / "out.txt" if target == "missing" else tmp_path
    rc, out, err = run(capsys, [*argv, "--output", str(path)])
    assert rc == 1 and out == ""
    reason = "No such file or directory" if target == "missing" else "Is a directory"
    assert err == f"error: --output {path}: {reason}\n"
