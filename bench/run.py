"""gnctrees benchmark: named workloads of cold `gnctrees` CLI invocations.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A closed loop with one client: each op is a fresh `python -m gnctrees.cli`
process, started only after the previous one has exited, so at most one
gnctrees process runs at a time.  Ops come from bench/workloads.py and the
seed; every op's stdout passes the gate in bench/gate.py or counts as failed.

--trace 0 measures the end-to-end metrics with tracing off: `setup_s` (a cold
`--help`, median of SETUP_SAMPLES), then whole passes over the ops until
--seconds have gone by: `wall_s` and `work_per_s` are medians over passes,
`peak_rss_mb` the median of each pass's largest child.  Times are reference
seconds (see bench/proc.py): wall times scaled by the speed of a fixed loop
timed between the ops, so that host speed drift cancels; the raw wall times
are printed too.  --trace 1 runs one untraced pass, then replays the
same ops in this process with every gnctrees layer wrapped (bench/tracer.py)
and reports the per-layer metrics, in plain wall seconds; the spans go to
bench/out/.

The last line of stdout is the JSON result; the lines before it print every
metric by name and unit, the diagnostics and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from gate import Gate, work_units  # noqa: E402
from proc import ROOT, SRC, Runner, child_env  # noqa: E402
from workloads import HELP_ARGV, UNITS, generate  # noqa: E402

OUT = BENCH / "out"
SETUP_SAMPLES = 9
# A traced run lists the time metrics of a layer predicted flat on its
# workload (bench/layers.json) that exceed this share of the traced pass.
FLAT_SHARE = 0.01
# A run stops starting passes once this much time has gone, whatever
# --seconds says, so that it ends within its 180 s limit.
RUN_BUDGET_S = 120.0


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten samples beyond it (n={n})"
    pct = 100 * (n - 10) // n
    q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"p{pct} {q:.4f} (n={n})"


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gnctrees").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


class Tally:
    """Ops attempted and failed in one run, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, argv: tuple[str, ...], reason: str | None, stderr: str = "") -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if stderr.strip():
                reason += f" ({stderr.strip().splitlines()[-1]})"
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(argv)}: {reason}")


def cold_pass(ops, gate: Gate, runner: Runner, tally: Tally) -> dict:
    runs, scale = runner.run_block(ops)
    raw = sum(r.seconds for r in runs)
    work = 0
    for r in runs:
        reason = gate.check(r.argv, r.returncode, r.stdout)
        tally.record(r.argv, reason, r.stderr)
        work += work_units(r.argv, r.stdout) if reason is None else 0
    return {
        "wall_s": raw * scale,
        "raw_wall_s": raw,
        "peak_rss_mb": max(r.maxrss_mb for r in runs),
        "cpu_s": sum(r.cpu_s for r in runs),
        "work": work,
        "op_s": [r.seconds for r in runs],
    }


def measure(workload: str, seed: int, seconds: int, gate: Gate, tally: Tally) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    runner = Runner(child_env())
    ops = generate(workload, seed)
    help_runs, scale = runner.run_block([HELP_ARGV] * (SETUP_SAMPLES + 1))
    for r in help_runs:
        tally.record(HELP_ARGV, gate.check(HELP_ARGV, r.returncode, r.stdout))
    help_runs = help_runs[1:]  # the first one may compile bytecode
    setup = [r.seconds * scale for r in help_runs]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(cold_pass(ops, gate, runner, tally))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + elapsed / len(passes) > RUN_BUDGET_S:
            break
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in passes]), "MB"),
        "work_per_s": (statistics.median([p["work"] / p["wall_s"] for p in passes]), "1/s"),
    }
    diagnostics = {
        "work_unit": UNITS[workload],
        "passes": len(passes),
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "raw_wall_s_samples": [p["raw_wall_s"] for p in passes],
        "setup_s_samples": setup,
        "raw_setup_s_samples": [r.seconds for r in help_runs],
        "reference_s_quartiles": statistics.quantiles(runner.references, n=4),
        "cpu_s_per_pass": statistics.median([p["cpu_s"] for p in passes]),
        "op_s_first_pass": dict(zip((" ".join(a) for a in ops), passes[0]["op_s"])),
    }
    return {"metrics": metrics, "diagnostics": diagnostics}


def traced(workload: str, seed: int, gate: Gate, tally: Tally) -> dict:
    """One untraced cold pass, then the same ops traced in this process."""
    import tracer as spans

    ops = generate(workload, seed)
    untraced = cold_pass(ops, gate, Runner(child_env()), tally)
    from gnctrees import cli

    tracer = spans.Tracer()
    tracer.install()
    op_walls = []
    start = time.perf_counter()
    for k, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        tracer.begin_op(k)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing op fails like a cold process that dies
            err.write(traceback.format_exc())
            rc = 1
        finally:
            tracer.end_op()
        op_walls.append(time.perf_counter() - t0)
        tally.record(argv, gate.check(argv, rc, out.getvalue()), err.getvalue())
    traced_wall = time.perf_counter() - start
    agg, problems = tracer.analyse(op_walls)
    metrics = spans.layer_metrics(tracer, agg)
    metrics["trace.overhead_s"] = (traced_wall - untraced["raw_wall_s"], "s")
    flat = flat_violations(workload, metrics, traced_wall)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{workload}-seed{seed}-spans.json.gz"
    with gzip.open(spans_file, "wt", compresslevel=1) as fh:
        json.dump(
            {
                "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "names": tracer.names,
                "ops": [" ".join(a) for a in ops],
                "op_wall_s": op_walls,
                "spans": tracer.spans(),
            },
            fh,
        )
    diagnostics = {
        "untraced_wall_s": untraced["raw_wall_s"],
        "traced_wall_s": traced_wall,
        "self_time_sum_error_max": agg["sum_error"],
        "span_problems": problems[:10],
        "span_problem_count": len(problems),
        "flat_layer_violations": flat,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return {"metrics": metrics, "diagnostics": diagnostics, "hygiene_ok": not problems}


def flat_violations(workload: str, metrics: dict, wall: float) -> list[str]:
    """Time metrics above FLAT_SHARE of the pass, on a workload predicted flat."""
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    out = []
    for layer in layers:
        if workload not in layer["flat_on"]:
            continue
        for name, (value, unit) in metrics.items():
            if name.startswith(layer["prefix"]) and unit == "s" and value > FLAT_SHARE * wall:
                out.append(f"{name} = {value:.4f} s")
    return out


def report(workload: str, seed: int, trace_on: int, res: dict, tally: Tally, env: dict) -> None:
    print(f"== workload {workload}  seed {seed}  trace {trace_on}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':40s} {ratio:14.6g} ratio  ({tally.failed}/{tally.attempted} ops)")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    for key, value in res["diagnostics"].items():
        print(f"  # {key}: {json.dumps(value)}")
    print("  # env: " + json.dumps(env))


def run_workload(workload: str, seed: int, seconds: int, trace_on: int) -> tuple[dict, Tally]:
    env = environment()
    env["loadavg_start"] = loadavg()
    tally = Tally()
    gate = Gate(generate(workload, seed))
    if trace_on:
        res = traced(workload, seed, gate, tally)
    else:
        res = measure(workload, seed, seconds, gate, tally)
    env["loadavg_end"] = loadavg()
    res["ok"] = tally.failed == 0 and res.get("hygiene_ok", True)
    report(workload, seed, trace_on, res, tally, env)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace_on,
        "env": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        "diagnostics": res["diagnostics"],
    }
    (OUT / f"{workload}-seed{seed}-trace{trace_on}.json").write_text(json.dumps(record, indent=1))
    return res, tally


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gnctrees" / "cli.py").is_file():
        print(f"error: no gnctrees program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workloads = names if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        res, tally = run_workload(workload, args.seed, args.seconds, args.trace)
        if sorted(res["metrics"]) != sorted(expected):
            print(f"error: {workload} metrics differ from BENCHMARK.json", file=sys.stderr)
            return 2
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name in expected:
            value, unit = res["metrics"][name]
            metrics[prefix + name] = {"value": value, "unit": unit}
        correct &= res["ok"]
        attempted += tally.attempted
        failed += tally.failed
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
