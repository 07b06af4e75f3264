import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitconst import (GroupCase, build_root_system, eval_dim_poly,
                        make_dim_poly, pair, type_a_positive_roots,
                        type_b_positive_roots, type_d_positive_roots)
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
