"""The survivor enumeration in ``oracles`` stays independent of the kernel it
checks: the module names nothing of the alternating-sum machinery, nor the
per-form records a run holds for it, and classifies the roots itself."""

import ast
import pathlib

import orbitconst
from orbitconst import GroupCase, oracles
from orbitconst.constants import _constant, worker_pool

ORACLES = pathlib.Path(orbitconst.__file__).parent / "oracles.py"
KERNEL = {"_plan", "_Plan", "kernel", "_order", "_blocks", "_subset_sum",
          "_open", "_walk", "_factors", "alternating_sum", "_sum_key",
          "_in_run", "_form_data", "_FormData"}


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


def test_surviving_terms_classify_the_roots_in_a_warm_run(monkeypatch):
    # the pruned walk's subsets are counted from its own levi_data call, so
    # a record the run already holds for the form must not stand in for it
    calls = []
    classify = oracles.levi_data

    def counted(*args):
        calls.append(args)
        return classify(*args)

    case = GroupCase.sp(3)
    with worker_pool():
        _constant(case, 2, None, "v2", 1 << 24, 1)
        monkeypatch.setattr(oracles, "levi_data", counted)
        survivors = oracles.surviving_terms(case, 2)
    assert len(calls) == 1 and survivors
