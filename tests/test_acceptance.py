"""Acceptance suite: one test per criterion, full stated parameter ranges.

Each test prints a single pass/fail line.  Every check is exact (integer or
rational equality); there are no numeric tolerances anywhere.

``verify.criterion_4`` is red by design: its orthogonality claim is not
mathematically true for the second (outer-flipped) real form of the odd/even
orthogonal families once p reaches 3 (first failing case rank 5).  Its test
pins that exact verdict, form by form, together with the obstruction behind
it, and checks that the original and rewritten sums agree on all 123 forms:
directly on the 118 orthogonal ones, and on the five witnesses over the
flip-transported positive system of Delta(l & p).
"""

import json
from dataclasses import replace

from orbitconst import verify
from orbitconst.closedform import constant_closed_form
from orbitconst.constants import (DEFAULT_TERM_CAP, alternating_sum,
                                  default_lambda, levi_data, levi_k_poly,
                                  rho_n_orthogonal)
from orbitconst.orbits import real_forms
from orbitconst.rootsys import (build_root_system, flip, half_sum, negate,
                                pair)
from orbitconst.weylpoly import eval_dim_poly


def _report(result):
    status = "PASS" if result["passed"] else "FAIL"
    print(f"criterion {result['id']} ({result['name']}): {status}")


def test_criterion_1_table_reproduction():
    result = verify.criterion_1()
    _report(result)
    assert result["details"]["skipped"] == []
    assert result["passed"], result["details"]["disagreements"]


def test_criterion_2_dimension_polynomial_values():
    result = verify.criterion_2()
    _report(result)
    assert result["passed"], result["details"]


def test_criterion_3_lambda_independence():
    result = verify.criterion_3()
    _report(result)
    assert result["passed"], result["details"]


def _is_witness(case, form):
    """The forms whose rho_n(l) is not orthogonal: form II with p >= 3."""
    return (case.family in ("so-odd", "so-even") and form.kind == 2
            and case.p >= 3)


def _quotient(rs, levi, lam, variant):
    """LHS / P_{L&K}(lam) for the given Levi data, without caching."""
    lhs, _, _ = alternating_sum(rs, levi, lam, variant)
    return lhs / eval_dim_poly(levi_k_poly(rs, levi), lam)


def test_criterion_4_formula_equivalence_and_orthogonality():
    result = verify.criterion_4()
    _report(result)
    failures = result["details"]["failures"]

    # the orthogonality verdict, form by form
    cases = verify.acceptance_cases()
    forms = {case: real_forms(case) for case in cases}
    expected = {(str(case), form.index, "orthogonality")
                for case in cases for form in forms[case]
                if _is_witness(case, form)}
    assert len(expected) == 5
    assert not result["passed"]
    assert len(failures) == len(set(failures))
    assert set(failures) == expected
    assert all(reason == "orthogonality" for _, _, reason in failures)

    # orig == v2 on the other 118 forms: criterion 4 reports a mismatch as an
    # (orig, v2) entry, and silently skips a form over the term cap
    assert sum(map(len, forms.values())) - len(expected) == 118
    for case in cases:
        rs = build_root_system(case)
        for form in forms[case]:
            levi = levi_data(rs, form.h)
            size = len(levi.delta_n_plus_l) + len(levi.delta_p1)
            assert 1 << size <= DEFAULT_TERM_CAP, (str(case), form.index)

    # orig == v2 at the five witnesses, over the transported pool
    for case in cases:
        witness = [f for f in forms[case] if _is_witness(case, f)]
        if not witness:
            continue
        form2, = witness
        form1 = next(f for f in forms[case] if f.kind == 1)
        rs = build_root_system(case)
        levi1 = levi_data(rs, form1.h)
        levi2 = levi_data(rs, form2.h)
        tag = (str(case), form2.index)

        # the obstruction the README names: e_2 + e_3 is a compact Levi root
        # pairing to 2 with rho_n(l)
        e23 = (0, 1, 1) + (0,) * (case.rank - 3)
        assert e23 in levi2.delta_lk_plus, tag
        assert pair(levi2.rho_n_l, e23) == 2, tag

        # flipping coordinate p-1 carries form I to form II; the image of
        # form I's pool picks other signs for exactly two of form II's pool
        # roots
        assert flip(form1.h, case.p - 1) == form2.h, tag
        pool = tuple(flip(a, case.p - 1) for a in levi1.delta_n_plus_l)
        assert len(pool) == len(levi2.delta_n_plus_l), tag
        assert all(a in levi2.delta_n_plus_l or negate(a) in levi2.delta_n_plus_l
                   for a in pool), tag
        assert len(set(pool) - set(levi2.delta_n_plus_l)) == 2, tag
        moved = replace(levi2, delta_n_plus_l=pool,
                        rho_n_l=half_sum(pool, case.rank))
        assert rho_n_orthogonal(moved), tag

        lam = default_lambda(case, form2)
        values = [_quotient(rs, levi2, lam, "orig"),
                  _quotient(rs, moved, lam, "orig"),
                  _quotient(rs, moved, lam, "v2"),
                  constant_closed_form(case, form2)]
        assert all(v.denominator == 1 for v in values[:3]), (tag, values)
        assert len(set(values)) == 1, (tag, values)


def test_criterion_5_vanishing_sum():
    result = verify.criterion_5()
    _report(result)
    assert result["passed"], result["details"]


def test_criterion_6_sign_relations():
    result = verify.criterion_6()
    _report(result)
    assert result["passed"], result["details"]


def test_criterion_7_oracle_agreement():
    result = verify.criterion_7()
    _report(result)
    assert result["passed"], result["details"]


def test_criterion_8_structural_counts():
    result = verify.criterion_8()
    _report(result)
    assert result["passed"], result["details"]


def test_criterion_9_determinism_across_workers():
    result = verify.criterion_9()
    _report(result)
    assert result["passed"], result["details"]


def test_verify_report_is_json_serializable():
    report = verify.run_all(max_rank=3)
    blob = json.dumps(report, sort_keys=True)
    assert json.loads(blob)["passed"] is True
