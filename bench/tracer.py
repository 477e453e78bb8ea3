"""Spans and counts per gnctrees layer, recorded from outside the program.

The tracer replaces every public function of the seven gnctrees modules with
a wrapper that records a span {name, start, end, parent, op}.  It patches the
defining module's attribute and every name another gnctrees module imported,
plus the evaluator references that formulas.SEQUENCES and
formulas.FORMULA_COUNTS hold.  A generator is timed per next().  Spans stay in
memory as flat arrays until the pass ends.

A span's self time is its duration minus its children's.  Metric names
ending in ``_s`` are self times unless they end in ``_total_s``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from array import array
from collections import Counter
from functools import wraps

from gate import class_size

MODULES = ("cli", "series", "patterns", "trees", "schroder", "formulas", "combinat")
# run_suites("all") runs these suites in this order.
SUITES = ("equations", "identities", "theorems", "oracle", "bijection")
SOLVERS = (
    "solve_ternary_gf",
    "solve_master",
    "solve_star",
    "solve_uu_dd",
    "solve_ud_du",
    "solve_uudd",
    "solve_star_pattern",
)
EVALUATORS = (
    "h_avoiding",
    "d_avoiding",
    "d_avoiding_by_ascents",
    "uu_h",
    "dd_h",
    "ud_h",
    "du_h",
    "alternating",
    "alternating_by_ascents",
    "parity_signed",
    "narayana_check",
)
VALUE_SPAN = "formulas.value"
# Self times of an op's spans must sum to its wall time within this share;
# the gap is the tracer's own work outside the op's root span.
SUM_TOLERANCE = 0.02

perf_ns = time.perf_counter_ns


def _traceable(obj: object, module: str) -> bool:
    is_fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
    return is_fn and getattr(obj, "__module__", None) == module


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._seen: set = set()
        self._caches: list = []

    # -- spans ---------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_ns()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        """Start an op with the program's caches empty, as in a cold process."""
        for cached in self._caches:
            cached.cache_clear()
        self._seen.clear()
        self.op_id = op_id
        self._root = self._open(self._nid("op"))

    def end_op(self) -> None:
        self._close(self._root)
        self.op_id = -1

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        nid = self._nid(name)
        calls = self.calls
        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if self.op_id < 0:
                    return fn(*args, **kwargs)
                calls[name] += 1
                return self._iterate(name, nid, fn(*args, **kwargs))

            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            calls[name] += 1
            token = on_call(args, kwargs) if on_call else None
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_return:
                on_return(token, result)
            return result

        return wrapper

    def _iterate(self, name: str, nid: int, it):
        try:
            while True:
                i = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.items[name] += 1
                yield item
        finally:
            it.close()

    def _split_suites(self, run_suites):
        """run_suites("all") as one span per suite, merged into the same report."""
        suite_ids = {s: self._nid(f"cli.verify.{s}") for s in SUITES}

        @wraps(run_suites)
        def split(suite, *args, **kwargs):
            if suite != "all":
                return run_suites(suite, *args, **kwargs)
            parts = []
            for s in SUITES:
                i = self._open(suite_ids[s])
                try:
                    parts.append(run_suites(s, *args, **kwargs))
                finally:
                    self._close(i)
            checks = [c for part in parts for c in part.checks]
            return dataclasses.replace(parts[0], suite=suite, checks=checks)

        return split

    # -- hooks that count work -----------------------------------------------

    def _solve_call(self, name):
        def on_call(args, kwargs):
            key = (name, args, tuple(sorted(kwargs.items())))
            if key in self._seen:
                self.counts["series.solve_reused"] += 1
            self._seen.add(key)

        return on_call

    def _census_hooks(self, census):
        sig = inspect.signature(census)

        def on_call(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = ("census", a["n"], tuple(sorted(set(a["patterns"]))), a["star_only"], a["bound"])
            first = key not in self._seen
            self._seen.add(key)
            return (a["n"], a["star_only"]) if first else None

        def on_return(token, result):
            if token is not None:
                self.counts["patterns.census_trees"] += class_size(*token)
                self.counts["patterns.census_kept"] += result.total

        return on_call, on_return

    def _count_terms(self, token, result):
        self.counts["series.terms"] += len(result)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch gnctrees in this process; call after any untraced use of it."""
        mods = {m: importlib.import_module(f"gnctrees.{m}") for m in MODULES}
        wrapped: dict[int, tuple[object, object]] = {}
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                    self._caches.append(obj)
                if attr.startswith("_") or not _traceable(obj, mod.__name__):
                    continue
                name = f"{m}.{attr}"
                if name == "cli.run_suites":
                    w = self.wrap(name, self._split_suites(obj))
                elif m == "series" and attr in SOLVERS:
                    w = self.wrap(name, obj, on_call=self._solve_call(name))
                elif name == "series.series_terms":
                    w = self.wrap(name, obj, on_return=self._count_terms)
                elif name == "patterns.census":
                    w = self.wrap(name, obj, *self._census_hooks(obj))
                else:
                    w = self.wrap(name, obj)
                wrapped[id(obj)] = (obj, w)
                setattr(mod, attr, w)
        package = importlib.import_module("gnctrees")
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        # the evaluators a b-file or a formula count reaches through a table
        def value(fn):
            hit = wrapped.get(id(fn))
            return self.wrap(VALUE_SPAN, hit[1] if hit and hit[0] is fn else fn)

        formulas = mods["formulas"]
        for key, seq in list(formulas.SEQUENCES.items()):
            formulas.SEQUENCES[key] = dataclasses.replace(seq, fn=value(seq.fn))
        for key, fn in list(formulas.FORMULA_COUNTS.items()):
            formulas.FORMULA_COUNTS[key] = value(fn)

    # -- analysis ------------------------------------------------------------

    def analyse(self, op_walls: list[float]) -> tuple[dict, list[str]]:
        """Per-name aggregates and the list of hygiene violations.

        Checks that every span ended, nests inside its parent within the same
        op, has non-negative self time, and that each op's self times sum to
        its measured wall time within SUM_TOLERANCE.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        problems: list[str] = []
        for i in range(n):
            p = self.parent[i]
            if self.end[i] == 0 or dur[i] < 0:
                problems.append(f"span {i} ({self.names[self.name[i]]}) never ended")
            if p >= 0:
                child[p] += dur[i]
                if (
                    self.op[p] != self.op[i]
                    or self.start[i] < self.start[p]
                    or self.end[i] > self.end[p]
                ):
                    problems.append(f"span {i} ({self.names[self.name[i]]}) escapes its parent")
        self_ns: Counter[str] = Counter()
        total_ns: Counter[str] = Counter()
        op_self = [0] * len(op_walls)
        for i in range(n):
            s = dur[i] - child[i]
            if s < 0:
                problems.append(f"span {i} ({self.names[self.name[i]]}) has negative self time")
            name = self.names[self.name[i]]
            self_ns[name] += s
            total_ns[name] += dur[i]
            op_self[self.op[i]] += s
        worst = 0.0
        for k, wall in enumerate(op_walls):
            err = abs(op_self[k] / 1e9 - wall) / wall
            worst = max(worst, err)
            if err > SUM_TOLERANCE:
                problems.append(f"op {k}: self times sum to {op_self[k] / 1e9:.4f} s, wall {wall:.4f} s")
        agg = {"self_ns": self_ns, "total_ns": total_ns, "spans": n, "sum_error": worst}
        return agg, problems

    def spans(self) -> list[list[int]]:
        """Every span as [name id, start ns, end ns, parent index, op id]."""
        t0 = self.start[0] if len(self.start) else 0
        return [
            [self.name[i], self.start[i] - t0, self.end[i] - t0, self.parent[i], self.op[i]]
            for i in range(len(self.start))
        ]



def layer_metrics(tracer: Tracer, agg: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    self_s = {k: v / 1e9 for k, v in agg["self_ns"].items()}
    # inclusive times; read only for spans that never nest in a span of their name
    total_s = {k: v / 1e9 for k, v in agg["total_ns"].items()}
    calls, items, counts = tracer.calls, tracer.items, tracer.counts

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for m in MODULES:
        out[f"{m}.self_s"] = (sum((v for k, v in self_s.items() if k.startswith(m + ".")), 0.0), "s")
    for suite in SUITES:
        out[f"cli.verify.{suite}_s"] = (s(f"cli.verify.{suite}"), "s")
        out[f"cli.verify.{suite}_total_s"] = (total_s.get(f"cli.verify.{suite}", 0.0), "s")

    solve_s = sum(s(f"series.{f}") for f in SOLVERS)
    solve_calls = sum(calls[f"series.{f}"] for f in SOLVERS)
    out["series.solve_s"] = (solve_s, "s")
    for f in SOLVERS:
        out[f"series.{f}_s"] = (s(f"series.{f}"), "s")
    out["series.solve_calls"] = (solve_calls, "count")
    out["series.solve_reuse_ratio"] = (per(counts["series.solve_reused"], solve_calls), "ratio")
    out["series.verify_identities_s"] = (s("series.verify_identities"), "s")
    out["series.verify_identities_calls"] = (calls["series.verify_identities"], "count")
    out["series.terms"] = (counts["series.terms"], "count")
    out["series.us_per_term"] = (per(solve_s * 1e6, counts["series.terms"]), "us")
    out["series.eval_numeric_s"] = (s("series.eval_numeric"), "s")
    render = ("series.render_series", "series.series_terms", "series.render_poly")
    out["series.render_s"] = (sum(s(k) for k in render), "s")

    trees_seen = counts["patterns.census_trees"]
    out["patterns.census_s"] = (s("patterns.census"), "s")
    out["patterns.census_calls"] = (calls["patterns.census"], "count")
    out["patterns.census_trees"] = (trees_seen, "count")
    out["patterns.census_us_per_tree"] = (
        per(total_s.get("patterns.census", 0.0) * 1e6, trees_seen),
        "us",
    )
    out["patterns.census_yield"] = (per(counts["patterns.census_kept"], trees_seen), "ratio")
    out["patterns.avoids_s"] = (s("patterns.avoids"), "s")
    out["patterns.avoids_calls"] = (calls["patterns.avoids"], "count")

    nc_items = items["trees.enumerate_nc_trees"]
    out["trees.enumerate_nc_trees_s"] = (s("trees.enumerate_nc_trees"), "s")
    out["trees.enumerate_nc_trees_items"] = (nc_items, "count")
    out["trees.us_per_nc_tree"] = (per(s("trees.enumerate_nc_trees") * 1e6, nc_items), "us")
    out["trees.enumerate_gnc_s"] = (s("trees.enumerate_gnc"), "s")
    out["trees.enumerate_gnc_items"] = (items["trees.enumerate_gnc"], "count")

    out["schroder.encode_tree_s"] = (s("schroder.encode_tree"), "s")
    out["schroder.encode_tree_calls"] = (calls["schroder.encode_tree"], "count")
    out["schroder.coker_count_s"] = (s("schroder.coker_count"), "s")
    out["schroder.enumerate_coker_s"] = (s("schroder.enumerate_coker"), "s")

    for f in EVALUATORS:
        out[f"formulas.{f}_s"] = (s(f"formulas.{f}"), "s")
        out[f"formulas.{f}_calls"] = (calls[f"formulas.{f}"], "count")
    values = calls[VALUE_SPAN]
    out["formulas.values"] = (values, "count")
    out["formulas.us_per_value"] = (per(total_s.get(VALUE_SPAN, 0.0) * 1e6, values), "us")

    for f in ("binomial", "catalan", "ternary", "little_schroeder"):
        out[f"combinat.{f}_calls"] = (calls[f"combinat.{f}"], "count")
    out["combinat.binomial_s"] = (s("combinat.binomial"), "s")
    out["trace.spans"] = (agg["spans"], "count")
    return out
