"""The benchmark's workloads: seeded lists of `gnctrees` CLI invocations.

Each workload turns a seed into an ordered list of argv lists.  The program
only ever sees these argv lists; the seed picks the pattern words of
``brute-census`` and the op order of every workload.  No op passes ``--jobs``
or ``verify --max-n``: those flags may be renamed or removed, so every op
leaves them at their defaults.
"""

from __future__ import annotations

import itertools
import random

LETTERS = "uhd"

SERIES_FAMILIES = ("master", "uu-dd", "ud-du", "uudd", "star")
SERIES_ORDER = "16"

# Every sequence in formulas.SEQUENCES when the benchmark was defined.
SEQUENCES = (
    "gnc-total",
    "ternary",
    "catalan",
    "little-schroeder",
    "gnc-h",
    "gnc-d",
    "gnc-hd",
    "gnc-uu-h",
    "gnc-dd-h",
    "gnc-ud-h",
    "gnc-du-h",
    "gnc-alternating",
    "gnc-alternating-signed",
)
BFILE_MAX_N = "100"

# What one pass of each workload completes, for work_per_s.
UNITS = {
    "reproduce": "checks/s",
    "series-deep": "terms/s",
    "brute-census": "trees/s",
    "bfiles": "values/s",
}

HELP_ARGV = ("--help",)


def _words(length: int) -> list[str]:
    return ["".join(w) for w in itertools.product(LETTERS, repeat=length)]


def _census_ops(letter: str, word2: str, word3: str, star_letter: str) -> list[tuple[str, ...]]:
    return [
        ("census", "--n", "7"),
        ("census", "--n", "7", "--avoid", f"{letter},{word2}"),
        ("count", "--n", "7", "--avoid", word3, "--method", "brute"),
        ("census", "--n", "7", "--star", "--avoid", star_letter),
        ("bijection", "--check", "6"),
    ]


def generate(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The ops of one pass of the workload, in the order the seed picks."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reproduce":
        ops = [("verify", "--suite", "all")]
    elif workload == "series-deep":
        ops = [
            ("series", "--family", f, "--order", SERIES_ORDER, "--format", "json")
            for f in SERIES_FAMILIES
        ]
    elif workload == "brute-census":
        ops = _census_ops(
            rng.choice(LETTERS),
            rng.choice(_words(2)),
            rng.choice(_words(3)),
            rng.choice(LETTERS),
        )
    elif workload == "bfiles":
        ops = [("oeis", "--sequence", s, "--max-n", BFILE_MAX_N) for s in SEQUENCES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def every_op() -> list[tuple[str, ...]]:
    """Every op any seed can generate, for pinning expected outputs."""
    ops = [("verify", "--suite", "all")]
    ops += generate("series-deep", 0)
    ops += generate("bfiles", 0)
    seen = set()
    for letter, w2, w3, star in itertools.product(LETTERS, _words(2), _words(3), LETTERS):
        for op in _census_ops(letter, w2, w3, star):
            if op not in seen:
                seen.add(op)
                ops.append(op)
    return ops
