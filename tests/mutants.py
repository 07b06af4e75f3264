"""Mutation checks for the kernel's tests.

    python tests/mutants.py

Each mutant below makes one exact text substitution in a temporary copy of
``src/`` (with ``tests/`` and ``pyproject.toml`` beside it, so pytest imports
the copy) and runs only the tests named for it.  A mutant is killed when one
of them fails and survives when all pass.  First the named tests run once on
an unmutated copy: a test that fails there would kill every mutant, so the
script stops.  An anchor that no longer occurs exactly once in its file is
an error, not a skip.  Prints one line per mutant and exits 1 if any mutant
survives or any anchor is wrong.

Standard library only; pytest does not collect this file, since its name
has no ``test_`` prefix.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str      # relative to src/orbitconst
    anchor: str    # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]


KERNEL = "tests/test_constants.py::test_kernel_matches_naive_reference"

MUTANTS = (
    Mutant("shift masked from the packed root", "constants.py",
           "shifts = tuple(((key + last) & digits) - (key & digits)",
           "shifts = tuple((last & digits)", (KERNEL,)),
    Mutant("shifted half added, not subtracted", "constants.py",
           "part += signed * (here - there)",
           "part += signed * (here + there)", (KERNEL,)),
    Mutant("nonzero terms counted once per state", "constants.py",
           "nonzero += count * ((here != 0) + (there != 0))",
           "nonzero += count", (KERNEL,)),
    Mutant("pairs evaluated afresh, with no value memo", "constants.py",
           "f0 = values.get(sub)", "f0 = values.clear()",
           ("tests/test_constants.py::"
            "test_the_leaf_evaluates_each_digit_string_once",)),
    Mutant("root order without its zero-share tie", "rootorder.py",
           "if len(tied) > 1 and zeroing:", "if False:",
           ("tests/test_constants.py::"
            "test_the_root_order_finishes_zeroing_factors_first",)),
    Mutant("one _open memo shared by all positions", "constants.py",
           "memos = [{} for _ in splits]", "memos = [{}] * len(splits)",
           ("tests/test_constants.py::"
            "test_each_position_memoizes_its_own_factors_for_one_walk",)),
    Mutant("a float literal", "constants.py",
           "return 2 * math.lcm(", "return 2.0 * math.lcm(",
           ("tests/test_stdlib_only.py::test_no_module_uses_a_float",)),
    Mutant("no sign flip on the added root", "constants.py",
           "((-signed, count) if old is None",
           "((signed, count) if old is None", (KERNEL,)),
    Mutant("class scale not multiplied in", "constants.py",
           "opened.append((members, pos, scale * factor))",
           "opened.append((members, pos, scale))", (KERNEL,)),
    Mutant("digit width too narrow", "constants.py",
           "width = (2 * bound + 1).bit_length()",
           "width = bound.bit_length()", (KERNEL,)),
    Mutant("root order's zero-share tie turned to the fewest zeros",
           "rootorder.py", "taken = max(tied, key=lambda ts: sum(",
           "taken = min(tied, key=lambda ts: sum(",
           ("tests/test_constants.py::"
            "test_the_root_order_finishes_zeroing_factors_first",)),
    Mutant("a second executor in _subset_sum", "constants.py",
           "parts = list(run.get(processes).map(",
           "parts = list(ProcessPoolExecutor(processes).map(",
           ("tests/test_stdlib_only.py::"
            "test_the_executor_is_constructed_in_one_place",)),
    Mutant("workers dropped from the sum key", "constants.py",
           'return ("sum", *prepared[:3], workers), prepared',
           'return ("sum", *prepared[:3]), prepared',
           ("tests/test_constants.py::"
            "test_a_run_walks_a_sum_again_at_another_worker_count",)),
    Mutant("sum key cut to (base, deltas)", "constants.py",
           'return ("sum", *prepared[:3], workers), prepared',
           'return ("sum", *prepared[:2]), prepared',
           ("tests/test_verify.py::"
            "test_a_batch_keys_each_sum_on_what_fixes_it",)),
)


def _copy(into: Path) -> None:
    """Copy what pytest needs to run the tests against ``into/src``."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _passes(where: Path, tests) -> bool:
    """Whether every named test passes in the copy at ``where``."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=where, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, check=False)
    return done.returncode == 0


def _mutated(mutant: Mutant) -> str:
    """The mutant's file, substituted; an error unless the anchor occurs
    exactly once."""
    text = (ROOT / "src" / "orbitconst" / mutant.path).read_text()
    found = text.count(mutant.anchor)
    if found != 1:
        raise SystemExit(f"error: {mutant.name}: anchor occurs {found} times "
                         f"in {mutant.path}: {mutant.anchor!r}")
    return text.replace(mutant.anchor, mutant.replacement)


def main() -> int:
    texts = [_mutated(m) for m in MUTANTS]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        if not _passes(clean, sorted({t for m in MUTANTS for t in m.tests})):
            raise SystemExit("error: the named tests fail without a mutant")
        survivors = []
        for n, (mutant, text) in enumerate(zip(MUTANTS, texts)):
            where = Path(tmp) / f"mutant{n}"
            _copy(where)
            (where / "src" / "orbitconst" / mutant.path).write_text(text)
            killed = not _passes(where, mutant.tests)
            print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name}",
                  flush=True)
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
