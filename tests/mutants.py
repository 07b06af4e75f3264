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
SPLIT = ("tests/test_constants.py::"
         "test_a_split_adds_its_root_as_the_built_dict_would")
SET_UP = ("tests/test_constants.py::"
          "test_the_integer_set_up_matches_the_fraction_formulas")
GOLDEN = "tests/test_golden.py::test_cli_output_matches_golden"
DEAL = ("tests/test_constants.py::"
        "test_the_deal_is_round_robin_by_position_one_task_per_chunk")

MUTANTS = (
    Mutant("shift masked from the packed root", "kernel.py",
           "shifts = tuple(((key + last) & digits) - (key & digits)",
           "shifts = tuple((last & digits)", (KERNEL,)),
    Mutant("shifted half added, not subtracted", "kernel.py",
           "part += signed * (here - there)",
           "part += signed * (here + there)", (KERNEL,)),
    Mutant("nonzero terms counted once per state", "kernel.py",
           "nonzero += count * ((here != 0) + (there != 0))",
           "nonzero += count", (KERNEL,)),
    Mutant("pairs evaluated afresh, with no value memo", "kernel.py",
           "f0 = values.get(sub)", "f0 = values.clear()",
           ("tests/test_constants.py::"
            "test_the_leaf_evaluates_each_digit_string_once",)),
    Mutant("root order without its kept share", "kernel.py",
           "p *= kept  # kept share", "p *= pairs  # kept share",
           ("tests/test_constants.py::"
            "test_the_root_order_finishes_zeroing_factors_first",)),
    Mutant("one _open memo shared by all positions", "kernel.py",
           "memos = [{} for _ in splits]", "memos = [{}] * len(splits)",
           ("tests/test_constants.py::"
            "test_each_position_memoizes_its_own_factors_for_one_walk",)),
    Mutant("a float literal", "constants.py",
           "scale = 2 * den", "scale = 2.0 * den",
           ("tests/test_stdlib_only.py::test_no_module_uses_a_float",)),
    Mutant("no sign flip on the added root", "kernel.py",
           "out[new] = ((-signed, count) if old is None",
           "out[new] = ((signed, count) if old is None", (KERNEL,)),
    Mutant("no sign flip on the root a split adds", "kernel.py",
           "members[new] = ((-signed, count) if old is None",
           "members[new] = ((signed, count) if old is None", (KERNEL, SPLIT)),
    Mutant("the root a split adds overwriting the state it meets",
           "kernel.py", "old = members.get(new)", "old = None",
           (KERNEL, SPLIT)),
    Mutant("class scale not multiplied in", "kernel.py",
           "classes[key & cut] = {} if factor else False\n"
           "            if factor:\n"
           "                opened.append((members, pos, scale * factor))",
           "classes[key & cut] = {} if factor else False\n"
           "            if factor:\n"
           "                opened.append((members, pos, scale))", (KERNEL,)),
    Mutant("class scale not multiplied in where a split adds its root",
           "kernel.py",
           "classes[new & cut] = {} if factor else False\n"
           "            if factor:\n"
           "                opened.append((members, pos, scale * factor))",
           "classes[new & cut] = {} if factor else False\n"
           "            if factor:\n"
           "                opened.append((members, pos, scale))",
           (KERNEL, SPLIT)),
    Mutant("digit width too narrow", "kernel.py",
           "width = (2 * bound + 1).bit_length()",
           "width = bound.bit_length()", (KERNEL,)),
    Mutant("root order keeping the zero share, not 1 minus it",
           "kernel.py", "pending.append((pairs - zeros, pairs, i, j))",
           "pending.append((zeros, pairs, i, j))",
           ("tests/test_constants.py::"
            "test_the_root_order_finishes_zeroing_factors_first",)),
    Mutant("root order without its growth", "kernel.py",
           "p *= n + k  # growth", "p *= n  # growth",
           ("tests/test_constants.py::"
            "test_the_root_order_finishes_zeroing_factors_first",)),
    Mutant("a second executor in _deal", "constants.py",
           "zip(chunks, run.get(_processes(workers)).map(",
           "zip(chunks, ProcessPoolExecutor(_processes(workers)).map(",
           ("tests/test_stdlib_only.py::"
            "test_the_executor_is_constructed_in_one_place",)),
    Mutant("overlapping chunks in _deal", "constants.py",
           "chunks = [units[c::size] for c in range(size)]",
           "chunks = [units[0::size] for c in range(size)]", (DEAL,)),
    Mutant("two chunks walked in the calling process", "constants.py",
           "if size <= 1:", "if size <= 2:", (DEAL,)),
    Mutant("workers dropped from the sum key", "constants.py",
           'return ("sum", base, deltas, packed, workers), prepared',
           'return ("sum", base, deltas, packed), prepared',
           ("tests/test_constants.py::"
            "test_a_run_walks_a_sum_again_at_another_worker_count",)),
    Mutant("sum key cut to (base, deltas)", "constants.py",
           'return ("sum", base, deltas, packed, workers), prepared',
           'return ("sum", base, deltas), prepared',
           ("tests/test_verify.py::"
            "test_a_batch_keys_each_sum_on_what_fixes_it",)),
    Mutant("sum keyed on its own copy of the deltas", "constants.py",
           '_in_run(("deltas", deltas), lambda: deltas)', "deltas",
           ("tests/test_verify.py::"
            "test_a_runs_sum_keys_hold_one_deltas_tuple_per_value",)),
    Mutant("the batch walks sums the memo holds", "constants.py",
           "if key not in run.memo:", "if True:",
           ("tests/test_verify.py::test_a_batch_walks_no_sum_the_run_holds",)),
    Mutant("the batch writes no total", "constants.py",
           "run.memo.update(zip(chunk, sums))", "pass",
           ("tests/test_verify.py::"
            "test_a_batch_keys_each_sum_on_what_fixes_it",)),
    Mutant("a zero-scale class kept", "kernel.py",
           "classes[key & cut] = {} if factor else False\n"
           "            if factor:\n",
           "classes[key & cut] = {} if factor else False\n"
           "            if True:\n", (KERNEL,)),
    Mutant("a zero-scale class kept where a split adds its root",
           "kernel.py",
           "classes[new & cut] = {} if factor else False\n"
           "            if factor:\n",
           "classes[new & cut] = {} if factor else False\n"
           "            if True:\n", (KERNEL, SPLIT)),
    Mutant("a memo kept across walks", "kernel.py",
           "memos = [{} for _ in splits]",
           'memos = _walk.__dict__.setdefault("memos", [{} for _ in range(64)])',
           ("tests/test_constants.py::"
            "test_each_position_memoizes_its_own_factors_for_one_walk",)),
    Mutant("leaf memos kept across walks", "kernel.py",
           "blocks = [(digits, shift, tests, {}, {}) for",
           "blocks = [(digits, shift, tests,"
           " *_walk.__dict__.setdefault(digits, ({}, {}))) for", (KERNEL,)),
    Mutant("one pair of leaf memos shared by all blocks", "kernel.py",
           "blocks = [(digits, shift, tests, {}, {}) for",
           "blocks = [(digits, shift, tests, *shared)"
           " for shared in [({}, {})] for", (KERNEL,)),
    Mutant("auto_sign_relation without the flipped-root parity",
           "constants.py",
           "return (-1) ** (flipped + one.levi.big_n + two.levi.big_n)",
           "return (-1) ** (one.levi.big_n + two.levi.big_n)",
           ("tests/test_constants.py::test_auto_sign_relation_examples",)),
    Mutant("no pruning in surviving_terms", "oracles.py",
           "        if left_out:\n", "        if True:\n",
           ("tests/test_oracles.py::"
            "test_surviving_terms_equal_the_naive_enumeration",)),
    Mutant("surviving_terms reading the run's record", "oracles.py",
           "    levi = levi_data(rs, form.h)\n    pool =",
           '    levi = __import__("orbitconst.constants").constants'
           "._form_data(case, form).levi\n    pool =",
           ("tests/test_oracle_independence.py::"
            "test_surviving_terms_classify_the_roots_in_a_warm_run",)),
    Mutant("criterion 1 agreeing always", "verify.py",
           'row["agree"] = c_brute == c_closed', 'row["agree"] = True',
           ("tests/test_verify.py::test_criterion_1_names_a_disagreement",)),
    Mutant("criterion 2's P1 failure dropped", "verify.py",
           'bad.append(("P1", p))', "pass",
           ("tests/test_verify.py::"
            "test_criterion_2_names_the_polynomial_that_fails",)),
    Mutant("criterion 2's P2 failure dropped", "verify.py",
           'bad.append(("P2", q))', "pass",
           ("tests/test_verify.py::"
            "test_criterion_2_names_the_polynomial_that_fails",)),
    Mutant("criterion 3 passing always", "verify.py",
           "return [] if len(values) == 1 else [",
           "return [] if True else [",
           ("tests/test_verify.py::"
            "test_criterion_3_names_a_lambda_dependent_form",)),
    Mutant("criterion 4's orthogonality failure dropped", "verify.py",
           'return [(str(case), form.index, "orthogonality")]', "return []",
           ("tests/test_verify.py::"
            "test_criterion_4_reports_orthogonality_over_the_term_cap",)),
    Mutant("criterion 4's mismatch failure dropped", "verify.py",
           "return [] if orig == v2 else [", "return [] if True else [",
           ("tests/test_verify.py::"
            "test_criterion_4_names_a_form_whose_sums_disagree",)),
    Mutant("criterion 5's failure dropped", "verify.py",
           "bad.append((str(case), [str(x) for x in lam], str(lhs)))", "pass",
           ("tests/test_verify.py::test_criterion_5_names_a_nonzero_sum",)),
    Mutant("criterion 6's failure dropped", "verify.py",
           "if sign != expected or sign * c1 != c2:", "if False:",
           ("tests/test_verify.py::"
            "test_criterion_6_checks_the_flip_pairs_and_their_signs",)),
    Mutant("criterion 7's oracle failure dropped", "verify.py",
           "                case, form, survivors=survivors):\n"
           "            return [(",
           "                case, form, survivors=survivors):\n"
           "            return [] and [(",
           ("tests/test_verify.py::"
            "test_criterion_7_names_an_oracle_mismatch",)),
    Mutant("criterion 7's count failure dropped", "verify.py",
           'bad.append((str(case), form.index, "count"))', "pass",
           ("tests/test_verify.py::"
            "test_criterion_7_names_a_survivor_count_off_the_closed_form",)),
    Mutant("criterion 7's value failure dropped", "verify.py",
           'bad.append((str(case), form.index, "value not +-1"))', "pass",
           ("tests/test_verify.py::"
            "test_criterion_7_names_a_survivor_off_the_shuffle",)),
    Mutant("criterion 7's #A failure dropped", "verify.py",
           'bad.append((str(case), form.index, "#A != pq/2"))', "pass",
           ("tests/test_verify.py::"
            "test_criterion_7_names_a_survivor_off_the_shuffle",)),
    Mutant("criterion 8's failure dropped", "verify.py",
           "bad.append((str(case), count, expect))", "pass",
           ("tests/test_verify.py::test_criterion_8_names_a_wrong_form_count",)),
    Mutant("rho_n(l) shift scaled by den, not scale", "constants.py",
           "r.numerator * (scale // r.denominator)",
           "r.numerator * (den // r.denominator)", (SET_UP,)),
    Mutant("pairings over a wrong denominator", "rootsys.py",
           "out.append(Fraction(sum(map(operator.mul, v, r)), den))",
           "out.append(Fraction(sum(map(operator.mul, v, r)), 2 * den))",
           ("tests/test_weylpoly.py::test_value_one_at_rho_prime",)),
    Mutant("the run computing a key again on every hit", "constants.py",
           "if value is _MISSING:", "if True:",
           ("tests/test_constants.py::"
            "test_a_run_computes_each_key_once_whatever_its_value",)),
    Mutant("root order's zero share over len(left) + len(right)",
           "kernel.py", "len(left) * len(right)", "len(left) + len(right)",
           ("tests/test_constants.py::"
            "test_the_zero_share_is_over_the_pairs_of_values",)),
    Mutant("su tableau with q + p one-box rows", "orbits.py",
           '[(1, "-")] * (q - p)', '[(1, "-")] * (q + p)',
           (GOLDEN + "[real-forms-su-2-3]",)),
    Mutant("so* tableau parity turned", "orbits.py",
           "if n % 2 == 0:\n        return SignedTableau(",
           "if n % 2 != 0:\n        return SignedTableau(",
           (GOLDEN + "[real-forms-so-star-3]",)),
    Mutant("type-D last simple root 2 e_(m-1) + e_m", "orbits.py",
           "simples.append(_e2(m, m - 2, 1, m - 1, 1))",
           "simples.append(_e2(m, m - 2, 2, m - 1, 1))",
           (GOLDEN + "[real-forms-so-even-2-2]",)),
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
