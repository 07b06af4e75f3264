import re

import pytest

from orbitconst import (GroupCase, SignedTableau, auto_sign_relation,
                        constant_brute_force_orig, constant_closed_form,
                        default_lambda, dominant_h, get_form,
                        h_from_partition, h_from_signed_tableau, is_very_even,
                        lambda_candidates, orbit_partition, real_forms,
                        surviving_terms, validate_partition, weighted_dynkin)


def test_validate_partition():
    assert validate_partition("A", [2, 2, 1], 5)
    assert not validate_partition("C", [3, 1], 4)
    assert validate_partition("B", [3, 2, 2, 1, 1], 9)
    assert not validate_partition("B", [3, 2, 1, 1], 7)   # even part odd mult
    assert validate_partition("C", [2, 2], 4)
    assert not validate_partition("A", [2, 2, 1], 6)      # wrong size
    assert not validate_partition("A", [1, 2, 2], 5)      # not sorted


def test_very_even_flag():
    assert is_very_even("D", [4, 4, 2, 2])
    assert not is_very_even("D", [3, 2, 2, 1])
    assert not is_very_even("B", [2, 2])


def test_h_from_partition_examples():
    assert h_from_partition("A", [2, 2, 1]) == (1, 1, 0, -1, -1)
    assert h_from_partition("C", [2, 2]) == (1, 1)
    # blocks {2,0,-2},{1,-1},{1,-1},{0},{0} sorted, middle zero dropped
    assert h_from_partition("B", [3, 2, 2, 1, 1]) == (2, 1, 1, 0)
    with pytest.raises(ValueError):
        h_from_partition("C", [3, 1])


@pytest.mark.parametrize("lie_type, parts", [("B", (2,)), ("C", (3,))])
def test_h_from_partition_refuses_a_size_of_the_wrong_parity(lie_type, parts):
    parity = "odd" if lie_type == "B" else "even"
    with pytest.raises(ValueError, match=f"^type {lie_type} partition must "
                                         f"have {parity} size$"):
        h_from_partition(lie_type, parts)


def test_weighted_dynkin_examples():
    assert weighted_dynkin(GroupCase.sp(4), (1, 1, 1, 1)) == (0, 0, 0, 2)
    assert weighted_dynkin(GroupCase.su(2, 3), (1, 1, 0, -1, -1)) == (0, 1, 1, 0)
    assert weighted_dynkin(GroupCase.so_even(2, 2), (0, 0, 0, 0)) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        weighted_dynkin(GroupCase.sp(2), (0, 1))   # not dominant


def test_weighted_dynkin_names_both_lengths():
    case = GroupCase.su(1, 1)
    with pytest.raises(ValueError, match=re.escape(
            f"h has length 3 but {case} has rank 2")):
        weighted_dynkin(case, (1, 0, -1))


def test_real_form_lists():
    forms = real_forms(GroupCase.su(2, 3))
    assert [f.h for f in forms] == [(-1, -1, 1, 1, 0),
                                    (1, -1, 1, 0, -1),
                                    (1, 1, 0, -1, -1)]
    forms = real_forms(GroupCase.so_odd(2, 2))
    assert [f.h for f in forms] == [(2, 1, 1, 0), (2, -1, 1, 0), (1, 0, 2, 1)]
    forms = real_forms(GroupCase.sp(2))
    assert [f.h for f in forms] == [(-1, -1), (1, -1), (1, 1)]
    forms = real_forms(GroupCase.so_star(3))
    assert [f.h for f in forms] == [(0, -1, -1), (1, 1, 0)]
    # so-odd keeps its second form even at p=1 (outer flip of the first)
    forms = real_forms(GroupCase.so_odd(1, 2))
    assert [f.h for f in forms] == [(2, 0, 0), (-2, 0, 0), (0, 2, 0)]


def test_get_form_validates_the_index():
    case = GroupCase.su(1, 2)
    for bad in (True, 1.0, "1", None):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            get_form(case, bad)
    for bad in (0, 3):
        with pytest.raises(ValueError, match=f"form {bad} does not exist"):
            get_form(case, bad)
    assert get_form(case, 2).kind == 1


@pytest.mark.parametrize("entry", [
    lambda case, form: constant_brute_force_orig(case, form),
    lambda case, form: constant_closed_form(case, form),
    lambda case, form: default_lambda(case, form),
    lambda case, form: lambda_candidates(case, form),
    lambda case, form: surviving_terms(case, form),
    lambda case, form: auto_sign_relation(case, 0, form, 1),
    lambda case, form: auto_sign_relation(case, 0, 1, form),
], ids=["brute_force_orig", "closed_form", "default_lambda",
        "lambda_candidates", "surviving_terms", "auto_sign_form1",
        "auto_sign_form2"])
def test_a_form_of_another_case_is_rejected(entry):
    # both pairs once returned a number: 0 from the brute force for the
    # first, 3 from the closed form for the second
    for case, other, index in ((GroupCase.so_odd(2, 2), GroupCase.sp(4), 2),
                               (GroupCase.su(3, 3), GroupCase.su(2, 3), 3)):
        foreign = real_forms(other)[index - 1]
        with pytest.raises(ValueError, match=(
                f"form {index} of {re.escape(str(other))} is not a real form "
                f"of {re.escape(str(case))}")):
            entry(case, foreign)
        assert get_form(other, foreign) is foreign


def test_real_form_counts():
    assert len(real_forms(GroupCase.su(3, 4))) == 4
    assert len(real_forms(GroupCase.sp(5))) == 6
    assert len(real_forms(GroupCase.so_odd(2, 1))) == 2    # q = p-1: no third
    assert len(real_forms(GroupCase.so_odd(2, 2))) == 3
    assert len(real_forms(GroupCase.so_even(1, 3))) == 2   # p = 1: I and III
    assert len(real_forms(GroupCase.so_even(2, 3))) == 3
    assert len(real_forms(GroupCase.so_even(2, 2))) == 4   # q = p: adds IV
    assert len(real_forms(GroupCase.so_star(6))) == 4
    assert len(real_forms(GroupCase.so_star(5))) == 3


def test_real_form_counts_rank_up_to_10():
    for p in range(1, 10):
        for q in range(p, 11 - p):
            assert len(real_forms(GroupCase.su(p, q))) == p + 1
            assert len(real_forms(GroupCase.so_even(p, q))) == (
                2 if p == 1 else 4 if q == p else 3)
        for q in range(p - 1, 11 - p):
            assert len(real_forms(GroupCase.so_odd(p, q))) == (
                3 if q > p - 1 else 2)
    for n in range(1, 11):
        assert len(real_forms(GroupCase.sp(n))) == n + 1
        want = n // 2 + 1 if n % 2 == 0 else (n + 1) // 2
        assert len(real_forms(GroupCase.so_star(n))) == want


def test_h_entries_bounded():
    for case in (GroupCase.su(3, 3), GroupCase.sp(6), GroupCase.so_odd(3, 4),
                 GroupCase.so_even(3, 4), GroupCase.so_star(6),
                 GroupCase.so_star(5)):
        for form in real_forms(case):
            assert all(-2 <= x <= 2 for x in form.h)
            assert len(form.h) == case.rank


def test_orbit_partition_consistent_with_forms():
    # dominant h of the complex orbit = dominant rearrangement of each real
    # form's h (exact multiset for type A, absolute values otherwise)
    cases = [GroupCase.su(p, q) for p in range(1, 6) for q in range(p, 11 - p)]
    cases += [GroupCase.so_odd(p, q) for p in range(1, 6)
              for q in range(p - 1, 11 - p)]
    cases += [GroupCase.so_even(p, q) for p in range(1, 6)
              for q in range(p, 11 - p)]
    cases += [GroupCase.sp(n) for n in range(1, 11)]
    cases += [GroupCase.so_star(n) for n in range(1, 11)]
    for case in cases:
        parts = orbit_partition(case)
        want_size = {"A": case.rank, "B": 2 * case.rank + 1}.get(
            case.lie_type, 2 * case.rank)
        assert validate_partition(case.lie_type, parts, want_size)
        dom = dominant_h(case)
        for form in real_forms(case):
            if case.lie_type == "A":
                assert tuple(sorted(form.h, reverse=True)) == dom
            else:
                assert tuple(sorted(map(abs, form.h), reverse=True)) == dom


def test_signed_tableau_refuses_an_empty_row():
    with pytest.raises(ValueError, match="^row lengths must be positive$"):
        SignedTableau(((0, "+"),))


def test_signed_tableau_validation():
    with pytest.raises(ValueError):
        SignedTableau(((2, "+"), (3, "-")))    # lengths increase
    with pytest.raises(ValueError):
        SignedTableau(((2, "x"),))
    tab = SignedTableau(((3, "+"), (2, "-"), (1, "-")))
    assert tab.ascii_rows() == ["+-+", "-+", "-"]


def test_h_from_signed_tableau_type_b():
    # first real form of so(4,5): +-+ over a +-/-+ pair over two minus boxes
    tab = SignedTableau(((3, "+"), (2, "+"), (2, "-"), (1, "-"), (1, "-")))
    assert h_from_signed_tableau("B", tab, 2, 2) == (2, 1, 1, 0)
    # the -+- variant gives the third real form
    tab = SignedTableau(((3, "-"), (2, "+"), (2, "-"), (1, "+"), (1, "-")))
    assert h_from_signed_tableau("B", tab, 2, 2) == (1, 0, 2, 1)


def test_h_from_signed_tableau_type_d_degenerate():
    tab = SignedTableau(((3, "+"), (1, "-")))
    assert h_from_signed_tableau("D", tab, 1, 1) == (2, 0)
    assert h_from_signed_tableau("D", tab, 1, 1) == real_forms(
        GroupCase.so_even(1, 1))[0].h


def test_h_from_signed_tableau_rejects_bad_signature():
    tab = SignedTableau(((3, "+"), (1, "-")))
    with pytest.raises(ValueError):
        h_from_signed_tableau("B", tab, 1, 1)
    with pytest.raises(ValueError):
        h_from_signed_tableau("A", tab, 1, 1)


def test_tableaux_agree_with_real_forms_up_to_rank_8():
    # the tableau recipe reproduces h for the block-dominant forms (I, III);
    # the II/IV variants share their partner's tableau, whose h is the
    # partner's
    for builder in (GroupCase.so_odd, GroupCase.so_even):
        for p in range(1, 5):
            for q in range(max(p - 1, 0), 8):
                try:
                    case = builder(p, q)
                except ValueError:
                    continue
                if case.rank > 8:
                    continue
                forms = real_forms(case)
                by_kind = {f.kind: f for f in forms}
                for form in forms:
                    got = h_from_signed_tableau(case.lie_type, form.tableau,
                                                p, q)
                    partner = by_kind[form.kind - 1] if form.kind in (2, 4) \
                        else form
                    assert got == partner.h, (str(case), form.label)
