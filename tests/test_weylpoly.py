import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from orbitconst import (GroupCase, build_root_system, eval_dim_poly,
                        half_sum, levi_data, make_dim_poly, pair, real_forms,
                        type_a_positive_roots, type_b_positive_roots,
                        type_d_positive_roots)
from orbitconst.verify import acceptance_cases


def _random_weight(rng, rank):
    return tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
                 for _ in range(rank))


def test_empty_poly_is_one():
    poly = make_dim_poly([], 3)
    assert eval_dim_poly(poly, (1, 2, 3)) == 1


def test_single_factor_sp2():
    rs = build_root_system(GroupCase.sp(2))
    poly = make_dim_poly(rs.compact_positive, 2)
    assert eval_dim_poly(poly, (2, 1)) == 1
    assert eval_dim_poly(poly, (5, 2)) == 3
    assert eval_dim_poly(poly, poly.rho_prime) == 1


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        make_dim_poly([(1, -1), (-1, 1)], 2)


@pytest.mark.parametrize("root", [(1, 1, 1), (0, 0, 0)])
def test_a_root_that_packs_into_no_factor_is_rejected(root):
    # (1, 1, 1) has a nonzero denominator 3/2, so only the packing sees it
    with pytest.raises(ValueError, match=re.escape(f"root {root} has")):
        make_dim_poly([(1, 0, -1), root], 3)


@pytest.mark.parametrize("root, rank", [((1, 0, -1), 2), ((1, -1), 3)])
def test_a_root_of_another_length_than_the_rank_is_rejected(root, rank):
    # a longer root made half_sum raise IndexError, and a shorter one made
    # pairings raise a length mismatch that named no root
    with pytest.raises(ValueError, match=re.escape(
            f"root {root} has length {len(root)}, not rank {rank}")):
        make_dim_poly([root], rank)


def test_value_one_at_rho_prime():
    for roots, rank in ((type_b_positive_roots(3), 3),
                        (type_d_positive_roots(4), 4),
                        (type_a_positive_roots(4), 4)):
        poly = make_dim_poly(roots, rank)
        assert eval_dim_poly(poly, poly.rho_prime) == 1


def test_closed_values_small():
    # so(2p) at (p-1/2, ..., 1/2) gives 2^(p-1); so(2q+1) at (q, ..., 1)
    # gives 2^q
    poly = make_dim_poly(type_d_positive_roots(3), 3)
    lam = (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    assert eval_dim_poly(poly, lam) == 4
    poly = make_dim_poly(type_b_positive_roots(2), 2)
    assert eval_dim_poly(poly, (2, 1)) == 4


def test_closed_values_up_to_8():
    for p in range(1, 9):
        poly = make_dim_poly(type_d_positive_roots(p), p)
        lam = tuple(Fraction(2 * (p - i) - 1, 2) for i in range(p))
        assert eval_dim_poly(poly, lam) == 2 ** (p - 1)
    for q in range(1, 9):
        poly = make_dim_poly(type_b_positive_roots(q), q)
        mu = tuple(Fraction(q - i) for i in range(q))
        assert eval_dim_poly(poly, mu) == 2 ** q


def test_type_a_factor_is_skew_under_swaps():
    rng = random.Random(1)
    poly = make_dim_poly(type_a_positive_roots(4), 4)
    for _ in range(50):
        lam = _random_weight(rng, 4)
        i, j = rng.sample(range(4), 2)
        swapped = list(lam)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert eval_dim_poly(poly, swapped) == -eval_dim_poly(poly, lam)


def test_type_b_factor_negates_under_sign_change():
    rng = random.Random(2)
    poly = make_dim_poly(type_b_positive_roots(3), 3)
    for _ in range(50):
        lam = _random_weight(rng, 3)
        i = rng.randrange(3)
        flipped = list(lam)
        flipped[i] = -flipped[i]
        assert eval_dim_poly(poly, flipped) == -eval_dim_poly(poly, lam)


def test_type_d_factor_invariant_under_sign_change():
    rng = random.Random(3)
    poly = make_dim_poly(type_d_positive_roots(3), 3)
    for _ in range(50):
        lam = _random_weight(rng, 3)
        i = rng.randrange(3)
        flipped = list(lam)
        flipped[i] = -flipped[i]
        assert eval_dim_poly(poly, flipped) == eval_dim_poly(poly, lam)


def test_homogeneity():
    rng = random.Random(4)
    for roots, rank in ((type_b_positive_roots(2), 2),
                        (type_d_positive_roots(3), 3)):
        poly = make_dim_poly(roots, rank)
        for _ in range(20):
            lam = _random_weight(rng, rank)
            c = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
            scaled = tuple(c * x for x in lam)
            assert eval_dim_poly(poly, scaled) == c ** len(roots) * eval_dim_poly(poly, lam)


def test_length_mismatch():
    poly = make_dim_poly(type_b_positive_roots(2), 2)
    with pytest.raises(ValueError):
        eval_dim_poly(poly, (1, 2, 3))


_COMPACT_SYSTEMS = [rs for rs in map(build_root_system, acceptance_cases())
                    if rs.compact_positive]


@st.composite
def _reflections(draw):
    """The root system of an acceptance case, one of its compact positive
    roots and a weight with entries in (1/2)Z."""
    rs = draw(st.sampled_from(_COMPACT_SYSTEMS))
    alpha = draw(st.sampled_from(rs.compact_positive))
    rank = rs.case.rank
    lam = tuple(Fraction(k, 2) for k in draw(st.lists(
        st.integers(-12, 12), min_size=rank, max_size=rank)))
    return rs, alpha, lam


@settings(deadline=None)
@given(_reflections())
def test_compact_poly_is_skew_under_compact_reflections(data):
    # P_K(s_alpha lambda) = -P_K(lambda) for every compact positive alpha:
    # P_K is W_K-skew
    rs, alpha, lam = data
    poly = make_dim_poly(rs.compact_positive, rs.case.rank)
    coeff = 2 * pair(lam, alpha) / pair(alpha, alpha)
    reflected = tuple(x - coeff * a for x, a in zip(lam, alpha))
    assert eval_dim_poly(poly, reflected) == -eval_dim_poly(poly, lam)


# every acceptance case's compact positive roots and each form's compact
# Levi roots, with their rank, each list once
_ROOT_LISTS = list(dict.fromkeys(
    (roots, rs.case.rank) for rs in map(build_root_system, acceptance_cases())
    for roots in [rs.compact_positive] + [
        levi_data(rs, form.h).delta_lk_plus for form in real_forms(rs.case)]))


_ENTRIES = sum(rank for _, rank in _ROOT_LISTS)


# no shrinking: it takes minutes on lists this long, and any failing example
# is a witness
@settings(deadline=None, max_examples=20,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.lists(st.integers(-12, 12), min_size=_ENTRIES, max_size=_ENTRIES),
       st.lists(st.integers(-99, 99), min_size=len(_ROOT_LISTS),
                max_size=len(_ROOT_LISTS)))
def test_eval_equals_the_product_of_pairings(entries, walls):
    # the definition, one pairing and one division per root, at weights in
    # (1/2)Z; where its wall is not negative, a list's weight is moved onto
    # the wall of one of its roots, so that factor is 0
    entries = iter(entries)
    for (roots, rank), wall in zip(_ROOT_LISTS, walls):
        w = [Fraction(next(entries), 2) for _ in range(rank)]
        if roots and wall >= 0:
            alpha = roots[wall % len(roots)]
            *rest, last = [i for i, c in enumerate(alpha) if c]
            w[last] = -sum(alpha[i] * w[i] for i in rest) / alpha[last]
            assert pair(w, alpha) == 0
        rho = half_sum(roots, rank)
        expected = math.prod((pair(w, a) / pair(rho, a) for a in roots),
                             start=Fraction(1))
        assert eval_dim_poly(make_dim_poly(roots, rank), w) == expected
