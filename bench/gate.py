"""Correctness gate: an op passes only on exit 0 and exactly the expected stdout.

Every op's stdout must match its SHA-256 in pinned.json, pinned from the
commit that defined the benchmark.  Census and count results are also checked against a route that
does not enumerate trees: the closed form gnc_total for unfiltered runs, and
the solved generating series wherever a series family covers the avoid set
(then the whole joint (u, h, d) table must match, not just the total).
Verification reports must also say "ok": true.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import HELP_ARGV

PINNED = Path(__file__).resolve().parent / "pinned.json"

# Which solved series member counts the trees avoiding a set of long patterns,
# as (solver name, index into the tuple it returns).
_FAMILY = {
    frozenset(): ("solve_master", 0),
    frozenset({"uu"}): ("solve_uu_dd", 0),
    frozenset({"dd"}): ("solve_uu_dd", 2),
    frozenset({"ud"}): ("solve_ud_du", 0),
    frozenset({"du"}): ("solve_ud_du", 2),
    frozenset({"uu", "dd"}): ("solve_uudd", 0),
}
_EXPONENT = {"u": "x", "h": "y", "d": "z"}


def class_size(n: int, star: bool = False) -> int:
    """Trees with n edges (ternary(n) bases times 2^n jump sets); half for --star."""
    total = math.comb(3 * n, n) // (2 * n + 1) * 2**n
    return total // 2 if star and n else total


def _flag(argv: tuple[str, ...], name: str, default: str = "") -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _series_table(argv: tuple[str, ...]) -> dict[tuple[int, int, int], int] | None:
    """The (u, h, d) -> count table the series route predicts, or None."""
    from gnctrees import series

    n = int(_flag(argv, "--n"))
    avoid = [p for p in _flag(argv, "--avoid").split(",") if p]
    letters = {p for p in avoid if len(p) == 1}
    # a word using an avoided letter cannot occur, so it filters nothing
    longs = frozenset(p for p in avoid if len(p) > 1 and not set(p) & letters)
    if "--star" in argv:
        if longs:
            return None
        f = series.solve_star(n)
    elif longs in _FAMILY:
        solver, index = _FAMILY[longs]
        f = getattr(series, solver)(n)[index]
    else:
        return None
    table = {}
    for term in series.series_terms(f):
        if term["n"] == n and all(term[_EXPONENT[c]] == 0 for c in letters):
            table[(term["x"], term["y"], term["z"])] = term["coeff"]
    return table


def _parse_census(stdout: str) -> dict[tuple[int, int, int], int]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "u,h,d,count":
        raise ValueError("census CSV header missing")
    table = {}
    for line in lines[1:]:
        u, h, d, c = (int(v) for v in line.split(","))
        table[(u, h, d)] = c
    return table


def work_units(argv: tuple[str, ...], stdout: str) -> int:
    """The op's share of its workload's unit of work."""
    cmd = argv[0]
    if cmd == "verify":
        return json.loads(stdout)["total"]
    if cmd == "series":
        return sum(len(terms) for terms in json.loads(stdout).values())
    if cmd == "oeis":
        return sum(1 for line in stdout.splitlines() if line.strip())
    if cmd in ("census", "count"):
        return class_size(int(_flag(argv, "--n")), "--star" in argv)
    if cmd == "bijection":
        return class_size(int(_flag(argv, "--check")))
    raise ValueError(f"no unit of work for {cmd!r}")


class Gate:
    """Expected outputs for a fixed list of ops.

    All reference values are computed here, before any op runs, so checking
    an op calls no program code (and records no spans when tracing).
    """

    def __init__(self, ops: list[tuple[str, ...]]):
        from gnctrees import combinat

        self.pins: dict[str, str] = json.loads(PINNED.read_text())
        self.tables: dict[tuple[str, ...], dict] = {}
        self.totals: dict[tuple[str, ...], int] = {}
        for argv in ops:
            if argv[0] not in ("census", "count"):
                continue
            if not _flag(argv, "--avoid") and "--star" not in argv:
                self.totals[argv] = combinat.gnc_total(int(_flag(argv, "--n")))
            table = _series_table(argv)
            if table is not None:
                self.tables[argv] = table
                self.totals.setdefault(argv, sum(table.values()))

    def check(self, argv: tuple[str, ...], returncode: int, stdout: str) -> str | None:
        """None if the op's result is correct, else the reason it is not."""
        if returncode != 0:
            return f"exit status {returncode}"
        if argv == HELP_ARGV:
            return None if stdout.startswith("usage: gnctrees") else "no usage text"
        try:
            if argv[0] in ("verify", "bijection") and json.loads(stdout).get("ok") is not True:
                return 'report is not "ok": true'
            if argv in self.tables and argv[0] == "census":
                if _parse_census(stdout) != self.tables[argv]:
                    return "census table differs from the series route"
            if argv in self.totals:
                total = (
                    sum(_parse_census(stdout).values())
                    if argv[0] == "census"
                    else int(stdout.strip())
                )
                if total != self.totals[argv]:
                    return f"total {total} != {self.totals[argv]} from the independent route"
        except (ValueError, KeyError, AttributeError) as exc:
            return f"unparsable output: {exc}"
        pin = self.pins.get(" ".join(argv))
        if pin is None:
            return "no pinned output for this op"
        if hashlib.sha256(stdout.encode()).hexdigest() != pin:
            return "stdout differs from the pinned output"
        return None
