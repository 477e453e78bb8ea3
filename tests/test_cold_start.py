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
    "patterns": "StatCensus avoids census count_occurrences parse_pattern parse_pattern_set",
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


def _modules_after(argv=None):
    """The modules a fresh process holds after cli.main(argv); with no argv,
    those of a bare `python -c pass` in the same environment."""
    code = "import sys\n"
    if argv is not None:
        code += (
            "from gnctrees import cli\n"
            "try:\n"
            f"    cli.main({argv!r})\n"
            "except SystemExit:\n"
            "    pass\n"
        )
    code += "print(' '.join(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def bare():
    return _modules_after()


@pytest.mark.parametrize(
    "argv, needed, absent",
    [
        (
            ["oeis", "--sequence", "catalan", "--max-n", "5"],
            {"gnctrees.formulas"},
            {"gnctrees.trees", "gnctrees.patterns", "gnctrees.series", "gnctrees.schroder", "gnctrees.verify"},
        ),
        (
            ["series", "--family", "master", "--order", "3", "--format", "json"],
            {"gnctrees.series"},
            {"gnctrees.trees", "gnctrees.patterns", "gnctrees.formulas", "gnctrees.schroder", "gnctrees.verify"}
            | {"dataclasses"},
        ),
        # trees are named tuples: counting loads no dataclasses, nor the inspect it needs
        (["census", "--n", "2"], {"gnctrees.patterns", "gnctrees.trees"}, {"json", "dataclasses", "inspect"}),
        (["count", "--n", "2"], {"gnctrees.patterns", "gnctrees.trees"}, {"json", "dataclasses", "inspect"}),
        (["verify", "--suite", "identities", "--order", "2"], {"gnctrees.verify"}, set()),
        # the suites share no series run, so a suite that reads no series loads none
        (["verify", "--suite", "bijection", "--max-n", "2"], {"gnctrees.verify", "gnctrees.schroder"}, {"gnctrees.series"}),
    ],
    ids=["oeis", "series", "census", "count", "verify", "verify-bijection"],
)
def test_command_loads_only_its_modules(bare, argv, needed, absent):
    added = _modules_after(argv) - bare
    assert needed <= added
    assert not absent & added


def test_help_loads_only_the_package_and_cli(bare):
    added = _modules_after(["--help"]) - bare
    assert {m for m in added if m.startswith("gnctrees")} == {"gnctrees", "gnctrees.cli"}
    # what only check records, reports and JSON output need
    assert not {"dataclasses", "json", "inspect"} & added


def test_a_command_error_run_as_a_module_is_one_error_line(tmp_path):
    # `python -m gnctrees.cli` runs cli as __main__, command bodies included;
    # a failed --output is the CommandError that main reports
    target = tmp_path / "missing" / "out.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "gnctrees.cli", "oeis", "--sequence", "catalan", "--max-n", "3", "--output", str(target)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --output") and proc.stderr.count("\n") == 1
