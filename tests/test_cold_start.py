"""The package loads its submodules on first use, and each command loads
only the modules it runs."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import gnctrees

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package exports, by the submodule that owns it.
EXPORTED = {
    "combinat": "binomial catalan gnc_total little_schroeder ternary ternary_power_coeff",
    "trees": "BoundExceededError GncTree NcTree StatTriple classify crossing enumerate_gnc "
    "enumerate_gnc_star enumerate_nc_trees make_gnc path_word tree_from_json tree_to_json validate",
    "patterns": "StatCensus avoids census count_occurrences occurrence_census parse_pattern "
    "parse_pattern_set",
    "series": "TriPoly TriSeries catalan_compose eval_numeric invert solve_master solve_star "
    "solve_star_pattern solve_ternary_gf solve_ud_du solve_uu_dd solve_uudd verify_identities",
    "formulas": "SEQUENCES alternating alternating_by_ascents d_avoiding d_avoiding_by_ascents dd_h "
    "du_h h_avoiding narayana_check parity_signed ud_h uu_h",
    "schroder": "SchroderPath coker_count decode_path encode_tree encode_tree_literal "
    "enumerate_coker enumerate_schroder",
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_exported_name_is_the_submodule_attribute(module, name):
    owner = importlib.import_module(f"gnctrees.{module}")
    assert getattr(gnctrees, name) is getattr(owner, name)
    assert name in dir(gnctrees)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        gnctrees.cli_main  # noqa: B018


def _loaded_after(argv):
    """The gnctrees modules a fresh process holds after cli.main(argv)."""
    code = (
        "import sys\n"
        "from gnctrees import cli\n"
        "try:\n"
        f"    cli.main({argv!r})\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('gnctrees'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv, needed, absent",
    [
        (["oeis", "--sequence", "catalan", "--max-n", "5"], {"formulas"}, {"trees", "patterns", "series", "schroder"}),
        (["series", "--family", "master", "--order", "3"], {"series"}, {"trees", "patterns", "formulas", "schroder"}),
    ],
    ids=["oeis", "series"],
)
def test_command_loads_only_its_modules(argv, needed, absent):
    loaded = _loaded_after(argv)
    assert {f"gnctrees.{m}" for m in needed} <= loaded
    assert not {f"gnctrees.{m}" for m in absent} & loaded


def test_help_loads_only_the_package_and_cli():
    assert _loaded_after(["--help"]) == {"gnctrees", "gnctrees.cli"}
