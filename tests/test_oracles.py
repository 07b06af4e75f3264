import math
import re
from fractions import Fraction

import pytest

from orbitconst import (GroupCase, alternating_sum, build_root_system,
                        check_oracle_against_brute_force,
                        constant_closed_form, default_lambda, get_form,
                        levi_data, oracle_total_matches, real_forms,
                        shuffle_terms_so_star, shuffle_terms_sp, shuffles,
                        su_predicted_c, surviving_terms)
from orbitconst import oracles
from orbitconst.constants import DEFAULT_TERM_CAP, _prepare_enumeration
from orbitconst.oracles import SurvivingTerm, predicted_terms
from orbitconst.verify import acceptance_cases


def test_shuffles_enumeration():
    assert list(shuffles(0, 0)) == [((), ())]
    pairs = list(shuffles(2, 1))
    assert len(pairs) == math.comb(3, 2)
    assert (((1, 2), (3,)) in pairs and ((1, 3), (2,)) in pairs
            and ((2, 3), (1,)) in pairs)


def test_shuffle_terms_sp_small():
    # n=2, p=2: a single trivial shuffle with empty A
    terms = shuffle_terms_sp(2, 2)
    assert terms == [(frozenset(), (2, 1))]
    # parity-zero case has no terms at all
    assert shuffle_terms_sp(2, 1) == []
    # n=3, p=1: the odd-p middle coordinate n-r-s appears
    terms = shuffle_terms_sp(3, 1)
    assert len(terms) == 1
    a_set, lam = terms[0]
    assert lam == (2, 3, 1)
    assert a_set == {(1, 0, 1)}
    # n=4, p=2: one term per (1,1)-shuffle
    assert len(shuffle_terms_sp(4, 2)) == math.comb(2, 1)


def test_shuffle_terms_sp_cardinality():
    # every predicted A has p*q/2 elements
    for n in range(1, 7):
        for p in range(n + 1):
            for a_set, _ in shuffle_terms_sp(n, p):
                assert 2 * len(a_set) == p * (n - p)


def test_shuffle_terms_so_star_small():
    assert shuffle_terms_so_star(2, 0) == [(frozenset(), frozenset(), (2, 1))]
    # n=3, p=0: fixed C below the zero coordinate
    terms = shuffle_terms_so_star(3, 0)
    assert len(terms) == 1
    a_set, c_set, lam = terms[0]
    assert a_set == frozenset()
    assert c_set == {(-1, -1, 0)}
    assert lam == (2, 3, 1)
    assert len(shuffle_terms_so_star(4, 2)) == math.comb(2, 1)
    with pytest.raises(ValueError):
        shuffle_terms_so_star(4, 1)


def test_surviving_terms_sp_match_and_signs():
    for n in range(1, 6):
        for form in real_forms(GroupCase.sp(n)):
            p, q = form.kind, n - form.kind
            survivors = surviving_terms(GroupCase.sp(n), form)
            assert check_oracle_against_brute_force(GroupCase.sp(n), form)
            for term in survivors:
                assert abs(term.value) == 1
                assert term.value == (-1) ** (p * q // 2)
                assert 2 * len(term.a_set) == p * q


def test_surviving_terms_so_star_match():
    for n in range(1, 6):
        case = GroupCase.so_star(n)
        for form in real_forms(case):
            assert check_oracle_against_brute_force(case, form)
            for term in surviving_terms(case, form):
                assert abs(term.value) == 1


def test_su_survivors_share_one_c():
    case = GroupCase.su(2, 4)
    form = get_form(case, 2)              # k = 1
    survivors = surviving_terms(case, form)
    assert len(survivors) == math.comb(2, 1)
    shared = su_predicted_c(2, 4, 1)
    assert all(frozenset(t.c_set) == shared for t in survivors)
    assert check_oracle_against_brute_force(case, form)


def test_su_oracle_check_fails_on_a_wrong_survivor_count():
    # C(2, k) survivors are predicted; none is the wrong count
    assert check_oracle_against_brute_force(GroupCase.su(2, 2), 1,
                                            survivors=[]) is False


def test_su_survivor_count_q_equal_p():
    case = GroupCase.su(2, 2)
    form = get_form(case, 2)
    survivors = surviving_terms(case, form)
    assert len(survivors) == 2
    assert all(t.c_set == () for t in survivors)


def test_so_odd_form1_unique_survivor():
    case = GroupCase.so_odd(2, 2)
    survivors = surviving_terms(case, 1)
    assert len(survivors) == 1
    term = survivors[0]
    assert term.a_set == ()
    # C = {e_i - e_j | 2 <= i <= p, 2p <= j <= p+q}
    assert set(term.c_set) == {(0, 1, 0, -1)}
    assert check_oracle_against_brute_force(case, 1)


def test_so_odd_form3_no_survivors():
    for p, q in ((1, 1), (2, 2), (2, 3)):
        case = GroupCase.so_odd(p, q)
        assert surviving_terms(case, 3) == []
        assert check_oracle_against_brute_force(case, 3)


def test_so_even_form1_and_form3_unique_survivor():
    for p, q in ((1, 1), (2, 2), (2, 3)):
        case = GroupCase.so_even(p, q)
        for form in real_forms(case):
            if form.kind in (1, 3):
                assert len(surviving_terms(case, form)) == 1
                assert check_oracle_against_brute_force(case, form)


@pytest.mark.parametrize("case, index", [
    (GroupCase.so_odd(2, 2), 2), (GroupCase.so_even(2, 2), 4),
    (GroupCase.sp(2), 1)])
def test_predicted_unique_term_refuses_a_form_it_does_not_describe(case,
                                                                   index):
    with pytest.raises(ValueError, match=re.escape(
            f"no term characterization for {case} form {index}")):
        oracles.predicted_unique_term(case, index)


def test_oracle_totals_reproduce_constants():
    for n in range(1, 9):
        for case in (GroupCase.sp(n), GroupCase.so_star(n)):
            for form in real_forms(case):
                c = constant_closed_form(case, form)
                assert oracle_total_matches(case, form, c), (str(case), form.label)
    for case in acceptance_cases():
        if case.family not in ("so-odd", "so-even"):
            continue
        rs = build_root_system(case)
        for form in real_forms(case):
            if form.kind in (1, 3):
                c = constant_closed_form(case, form)
                assert oracle_total_matches(case, form, c), (str(case), form.label)
                # the kernel's nonzero count is the predicted survivor count
                levi = levi_data(rs, form.h)
                nonzero = alternating_sum(rs, levi, default_lambda(case, form),
                                          "v2")[1]
                assert nonzero == len(predicted_terms(case, form)), (
                    str(case), form.label)


def test_predictions_do_not_read_default_lambda(monkeypatch):
    # a prediction built from lambda_0 would agree with a wrong lambda_0
    def refuse(*args):
        raise AssertionError("a prediction read default_lambda")

    monkeypatch.setattr(oracles, "default_lambda", refuse)
    checked = 0
    for case in acceptance_cases():
        for form in real_forms(case):
            if case.family in ("sp", "so-star") or (
                    case.family in ("so-odd", "so-even") and form.kind in (1, 3)):
                predicted_terms(case, form)
                checked += 1
    assert checked == 81


def test_surviving_terms_orig_variant():
    # with the rho_n shift both candidate terms of sp(4) k=1 vanish
    assert surviving_terms(GroupCase.sp(2), 2, variant="orig") == []
    # a single-term case: the orig weight is lambda0 - rho_n(l)
    case = GroupCase.so_odd(1, 2)
    terms = surviving_terms(case, 1, variant="orig")
    assert len(terms) == 1
    assert terms[0].weight == default_lambda(case, 1)   # rho_n(l) = 0 here


def test_surviving_term_weights_are_shifted_lambda():
    # v2 convention: weight = lambda0 - sum(A) - sum(C)
    case = GroupCase.sp(4)
    form = get_form(case, 3)
    lam0 = default_lambda(case, form)
    for term in surviving_terms(case, form):
        shift = [Fraction(0)] * 4
        for root in term.a_set + term.c_set:
            shift = [s + c for s, c in zip(shift, root)]
        assert tuple(l - s for l, s in zip(lam0, shift)) == term.weight


def _naive_surviving_terms(case, form, variant):
    """The reference: every subset's weight rebuilt from scratch, in
    ascending bit order, with every compact factor tested at the leaf."""
    rs = build_root_system(case)
    lam = default_lambda(case, form)
    levi = levi_data(rs, form.h)
    pool = levi.delta_n_plus_l + levi.delta_p1
    n_a, m = len(levi.delta_n_plus_l), len(pool)
    base, deltas, packed, pk_denominator, scale = _prepare_enumeration(
        rs, levi, lam, variant, DEFAULT_TERM_CAP)
    out = []
    for bits in range(1 << m):
        chosen = [t for t in range(m) if (bits >> t) & 1]
        vec = [b + sum(deltas[t][k] for t in chosen)
               for k, b in enumerate(base)]
        prod = math.prod(ci * vec[i] + cj * vec[j] for i, ci, j, cj in packed)
        if prod:
            out.append(SurvivingTerm(
                tuple(pool[t] for t in chosen if t < n_a),
                tuple(pool[t] for t in chosen if t >= n_a),
                tuple(Fraction(v, scale) for v in vec),
                Fraction(prod) / pk_denominator))
    return out


def test_surviving_terms_equal_the_naive_enumeration():
    # the pruned walk names the same survivors in the same order
    checked = 0
    for case in acceptance_cases():
        rs = build_root_system(case)
        for form in real_forms(case):
            levi = levi_data(rs, form.h)
            if len(levi.delta_n_plus_l) + len(levi.delta_p1) > 12:
                continue
            for variant in ("v2", "orig"):
                assert (surviving_terms(case, form, variant)
                        == _naive_surviving_terms(case, form, variant)), (
                    str(case), form.label, variant)
                checked += 1
    assert checked == 230
