"""Exact enumeration and verification toolkit for generalized non-crossing
trees, their pattern-avoidance classes, the generating functions that count
them, and the little Schroeder path bijection.

Importing the package loads no submodule: each name below is imported from
its submodule on first use (PEP 562), so a `gnctrees` command pays only for
the modules it runs."""

import importlib

# The submodule that defines each name the package exports.
_EXPORTS = {
    "combinat": (
        "binomial",
        "catalan",
        "gnc_total",
        "little_schroeder",
        "ternary",
        "ternary_power_coeff",
    ),
    "trees": (
        "BoundExceededError",
        "GncTree",
        "NcTree",
        "StatTriple",
        "classify",
        "crossing",
        "enumerate_gnc",
        "enumerate_gnc_star",
        "enumerate_nc_trees",
        "make_gnc",
        "path_word",
        "tree_from_json",
        "tree_to_json",
        "validate",
    ),
    "patterns": (
        "StatCensus",
        "avoids",
        "census",
        "count_occurrences",
        "parse_pattern",
        "parse_pattern_set",
    ),
    "series": (
        "TriPoly",
        "TriSeries",
        "catalan_compose",
        "eval_numeric",
        "invert",
        "solve_master",
        "solve_star",
        "solve_star_pattern",
        "solve_ternary_gf",
        "solve_ud_du",
        "solve_uu_dd",
        "solve_uudd",
        "verify_identities",
    ),
    "formulas": (
        "SEQUENCES",
        "alternating",
        "alternating_by_ascents",
        "d_avoiding",
        "d_avoiding_by_ascents",
        "dd_h",
        "du_h",
        "h_avoiding",
        "narayana_check",
        "parity_signed",
        "ud_h",
        "uu_h",
    ),
    "schroder": (
        "SchroderPath",
        "coker_count",
        "decode_path",
        "encode_tree",
        "encode_tree_literal",
        "enumerate_coker",
        "enumerate_schroder",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
