"""Pin the expected stdout of every op a seed can generate, by SHA-256.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/pin.py

It rewrites bench/pinned.json.  The pins in the repository come from the
commit that defined the benchmark; re-pin only in a change that redefines
the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import hashlib
import json
import sys

from proc import ROOT, child_env, run_cold
from workloads import every_op

PINNED = ROOT / "bench" / "pinned.json"


def main() -> int:
    env = child_env()
    pins = {}
    for argv in every_op():
        res = run_cold(argv, env)
        if res.returncode != 0:
            print(f"{' '.join(argv)}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
            return 1
        pins[" ".join(argv)] = hashlib.sha256(res.stdout.encode()).hexdigest()
        print(f"{res.seconds:7.2f} s  {' '.join(argv)}", file=sys.stderr)
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
