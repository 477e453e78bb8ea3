"""Run cold `python -m gnctrees.cli` processes and measure them.

On a shared host the speed drifts by tens of percent over seconds to minutes
as other tenants come and go, and repetition does not average that out.  A
fixed pure-Python loop, timed before, between and after the ops, measures the
speed they ran at.  Runner scales a block of ops' wall times to the speed
at which that loop takes REFERENCE_S: "reference seconds", which match wall
seconds on a host running at that speed.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# No op of any workload takes a tenth of this; a hung op is killed and
# counted as failed so that a run still ends within its time limit.
OP_TIMEOUT_S = 120.0

# Any constant works; this one keeps reference seconds near wall seconds on
# the 2-core x86-64 VM with Python 3.11 where the benchmark was defined.
REFERENCE_S = 0.05
_REFERENCE_LOOPS = 500_000


@dataclass(frozen=True)
class ColdRun:
    argv: tuple[str, ...]
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float
    cpu_s: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_cold(argv: tuple[str, ...], env: dict[str, str]) -> ColdRun:
    """Start the CLI, wait for it to exit, and read its own rusage.

    The child is reaped with os.wait4, so the peak RSS and CPU time are this
    child's alone, not the running maximum over all children.
    """
    err: list[bytes] = []
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "gnctrees.cli", *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ColdRun(
        argv=argv,
        seconds=seconds,
        returncode=proc.returncode,
        stdout=out.decode("utf-8", "replace"),
        stderr=b"".join(err).decode("utf-8", "replace"),
        maxrss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def reference_seconds() -> float:
    """Wall time of the fixed reference loop, in this process."""
    start = time.perf_counter()
    acc = 0
    for i in range(_REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class Runner:
    """Runs ops one at a time, timing the reference loop between them."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.references = [reference_seconds()]

    def run_block(self, ops: list[tuple[str, ...]]) -> tuple[list[ColdRun], float]:
        """Run the ops in order; return their results and the block's scale.

        The scale turns the block's wall seconds into reference seconds.  It
        uses the mean of every reference timing around and between the ops,
        not one per op: a single timing is as noisy as the drift it corrects.
        """
        refs = [self.references[-1]]
        runs = []
        for argv in ops:
            runs.append(run_cold(argv, self.env))
            refs.append(reference_seconds())
        self.references.extend(refs[1:])
        return runs, REFERENCE_S / statistics.mean(refs)
