"""The mutation harness ``tests/mutants.py`` still fits the code: each
mutant's anchor occurs exactly once in its file and each test it names is
defined, so a refactor that moves either fails here, not at the next run of
the harness.  Nothing is mutated and no process is started."""

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_anchor_occurs_once_in_its_file():
    found = {m.name: (ROOT / "src" / "orbitconst" / m.path).read_text()
             .count(m.anchor) for m in MUTANTS}
    assert len(found) == len(MUTANTS)
    assert found == dict.fromkeys(found, 1)


def test_each_test_a_mutant_names_is_defined():
    # a parametrized test is named with its case, as pytest prints it
    missing = [test for m in MUTANTS for test in m.tests
               if not re.search(
                   rf"^def {test.split('::')[1].split('[')[0]}\(",
                   (ROOT / test.split("::")[0]).read_text(), re.MULTILINE)]
    assert missing == []
