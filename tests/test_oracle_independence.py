"""The survivor enumeration in ``oracles`` stays independent of the kernel it
checks: the module names nothing of the alternating-sum machinery."""

import ast
import pathlib

import orbitconst

ORACLES = pathlib.Path(orbitconst.__file__).parent / "oracles.py"
KERNEL = {"_plan", "_subset_sum", "_sum_from", "_open", "_walk", "_factors",
          "_pooled_sum", "alternating_sum"}


def _names(tree):
    """Every name a module imports, reads or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)


def test_oracles_name_nothing_of_the_kernel():
    tree = ast.parse(ORACLES.read_text(), str(ORACLES))
    assert set(_names(tree)) & KERNEL == set()
