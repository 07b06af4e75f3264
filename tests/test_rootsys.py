from fractions import Fraction

import pytest

from orbitconst import (GroupCase, build_root_system, half_sum,
                        make_dim_poly, negate, pair, type_a_positive_roots,
                        type_b_positive_roots, type_c_positive_roots,
                        type_d_positive_roots)
from orbitconst.rootsys import pairings


def test_an_unknown_family_is_refused():
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        GroupCase("bogus")


def test_case_validation():
    with pytest.raises(ValueError):
        GroupCase.su(0, 3)
    with pytest.raises(ValueError):
        GroupCase.su(3, 2)
    with pytest.raises(ValueError):
        GroupCase.so_odd(2, 0)   # q >= p-1 fails
    with pytest.raises(ValueError):
        GroupCase.sp(0)
    with pytest.raises(ValueError):
        GroupCase("sp", p=1, q=1)
    assert GroupCase.so_odd(1, 0).rank == 1
    assert GroupCase.su(2, 3).rank == 5


def test_case_rejects_parameters_that_are_not_int():
    makers = (lambda v: GroupCase.su(v, 3), lambda v: GroupCase.su(1, v),
              lambda v: GroupCase.so_odd(v, 2), lambda v: GroupCase.so_even(1, v),
              GroupCase.sp, GroupCase.so_star)
    for bad in (True, False, 2.0, Fraction(2), "2"):
        for make in makers:
            with pytest.raises(TypeError):
                make(bad)


def test_sp2_positive_and_compact():
    rs = build_root_system(GroupCase.sp(2))
    assert set(rs.positive) == {(1, -1), (1, 1), (2, 0), (0, 2)}
    assert set(rs.compact_positive) == {(1, -1)}


def test_su11_positive_and_compact():
    rs = build_root_system(GroupCase.su(1, 1))
    assert rs.positive == ((1, -1),)
    assert rs.compact_positive == ()


def test_so_odd_11_classification():
    # block split (1 | 1): the short root e_2 is the only compact one
    rs = build_root_system(GroupCase.so_odd(1, 1))
    assert set(rs.compact_positive) == {(0, 1)}
    assert set(rs.noncompact_positive) == {(1, -1), (1, 1), (1, 0)}


def test_root_counts_match_classical_formulas():
    for p in range(1, 10):
        for q in range(p, 11 - p):
            m = p + q
            assert len(build_root_system(GroupCase.su(p, q)).positive) == m * (m - 1) // 2
            assert len(build_root_system(GroupCase.so_odd(p, q)).positive) == m * m
            assert len(build_root_system(GroupCase.so_even(p, q)).positive) == m * (m - 1)
    for n in range(1, 11):
        assert len(build_root_system(GroupCase.sp(n)).positive) == n * n
        assert len(build_root_system(GroupCase.so_star(n)).positive) == n * (n - 1)


def test_classification_is_a_partition_and_negation_stable():
    for case in (GroupCase.su(2, 3), GroupCase.sp(3), GroupCase.so_odd(2, 3),
                 GroupCase.so_even(2, 3), GroupCase.so_star(4)):
        rs = build_root_system(case)
        assert set(rs.compact_positive) | set(rs.noncompact_positive) == set(rs.positive)
        assert not set(rs.compact_positive) & set(rs.noncompact_positive)
        compact = rs.compact_set()
        for r in rs.positive:
            assert (r in compact) == (negate(r) in compact)


def test_compact_system_is_rho_regular():
    # every P_K denominator <rho_c, alpha> is strictly positive
    cases = [GroupCase.su(p, q) for p in range(1, 6) for q in range(p, 11 - p)]
    cases += [GroupCase.so_odd(p, q) for p in range(1, 6)
              for q in range(p - 1, 11 - p)]
    cases += [GroupCase.so_even(p, q) for p in range(1, 6)
              for q in range(p, 11 - p)]
    cases += [GroupCase.sp(n) for n in range(1, 11)]
    cases += [GroupCase.so_star(n) for n in range(1, 11)]
    for case in cases:
        rs = build_root_system(case)
        pk = make_dim_poly(rs.compact_positive, case.rank)
        assert all(d > 0 for d in pk.denominators)
        assert len(pk.denominators) == len(rs.compact_positive)


def test_pair_examples():
    assert pair((1, 1, 0, -1, -1), (0, 1, -1, 0, 0)) == 1
    assert pair((2, 1, 1, 0), (1, 1, 0, 0)) == 3
    rs = build_root_system(GroupCase.sp(2))
    rho_c = make_dim_poly(rs.compact_positive, 2).rho_prime
    assert rho_c == (Fraction(1, 2), Fraction(-1, 2))
    assert pair(rho_c, (1, -1)) == 1
    with pytest.raises(ValueError):
        pair((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        pairings((1, 2), [(1, 2), (1, 2, 3)])


def test_pair_equals_the_fraction_sum_for_every_rational_input():
    weights = [(Fraction(1, 2), Fraction(-7, 3), 4), ("3/4", 2, "-1/6"),
               (0.5, True, Fraction(5, 8)), (), (Fraction(9, 2),) * 3]
    for w in weights:
        for r in ((1, -1, 0), (2, 0, 0), (0, 1, 1), (Fraction(1, 2), 1, 3)):
            r = r[:len(w)]
            got = pair(w, r)
            assert type(got) is Fraction
            assert got == sum((Fraction(a) * b for a, b in zip(w, r)),
                              Fraction(0)), (w, r)
        roots = [r[:len(w)] for r in ((1, -1, 0), (2, 0, 0), (0, 1, 1))]
        assert pairings(w, roots) == tuple(pair(w, r) for r in roots)


def test_half_sum_examples():
    assert half_sum([(1, 1)], 2) == (Fraction(1, 2), Fraction(1, 2))
    assert half_sum([], 3) == (0, 0, 0)
    # noncompact positives vanishing on h=(1,-1) for sp(4): just e1+e2
    rs = build_root_system(GroupCase.sp(2))
    vanishing = [a for a in rs.noncompact_positive
                 if a[0] * 1 + a[1] * -1 == 0]
    assert vanishing == [(1, 1)]
    assert half_sum(vanishing, 2) == (Fraction(1, 2), Fraction(1, 2))


def test_su_pairing_translation_invariance():
    # adding a multiple of the all-ones vector never changes pairings with
    # type A roots
    lam = (Fraction(5), Fraction(2), Fraction(-1), Fraction(0))
    shifted = tuple(x + 7 for x in lam)
    for root in type_a_positive_roots(4):
        assert pair(lam, root) == pair(shifted, root)


def test_builders_are_sorted_and_sized():
    assert len(type_b_positive_roots(3)) == 9
    assert len(type_c_positive_roots(3)) == 9
    assert len(type_d_positive_roots(3)) == 6
    for builder in (type_a_positive_roots, type_b_positive_roots,
                    type_c_positive_roots, type_d_positive_roots):
        roots = builder(4)
        assert roots == sorted(roots)
