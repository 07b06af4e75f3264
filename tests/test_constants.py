import json
import math
import multiprocessing
import operator
import pathlib
import re
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitconst import (Evaluation, GroupCase, LambdaDegenerateError,
                        NonIntegerQuotientError, OrthogonalityError,
                        TermCapExceeded, alternating_sum, auto_sign_relation,
                        brute_force_sum, build_root_system, closed_form_expr,
                        constant_brute_force_orig, constant_brute_force_v2,
                        constant_closed_form, default_lambda, eval_dim_poly,
                        flip, get_form, lambda_candidates, levi_data,
                        levi_k_poly, make_dim_poly, real_forms,
                        rho_n_orthogonal)
from orbitconst import constants, kernel, oracles, verify
from orbitconst.constants import (DEFAULT_TERM_CAP, _constant, _form_data,
                                  _in_run, _prepare_enumeration, _subset_sum,
                                  worker_pool)
from orbitconst.kernel import _blocks, _open, _order, _plan, _walk
from orbitconst.verify import acceptance_cases
from orbitconst.weylpoly import _pack_roots


def _levi(case, index):
    rs = build_root_system(case)
    return levi_data(rs, get_form(case, index).h)


def test_levi_data_sp2_k1():
    levi = _levi(GroupCase.sp(2), 2)       # h = (1, -1)
    assert levi.delta_n_plus_l == ((1, 1),)
    assert levi.delta_p1 == ()
    assert levi.big_n == 2
    assert levi.rho_n_l == (Fraction(1, 2), Fraction(1, 2))


def test_levi_data_su22_k1():
    levi = _levi(GroupCase.su(2, 2), 2)    # h = (1, -1, 1, -1)
    assert set(levi.delta_n_plus_l) == {(1, 0, -1, 0), (0, 1, 0, -1)}
    assert levi.delta_p1 == ()


def test_levi_data_so_odd_p1_form1():
    levi = _levi(GroupCase.so_odd(1, 3), 1)  # h = (2 | 0,0,0)
    assert levi.delta_n_plus_l == ()
    assert levi.delta_p1 == ()


def test_levi_data_rejects_h_of_another_rank():
    # form 2 of SU(1,2) has an h of length 3; SU(1,1) has rank 2
    case = GroupCase.su(1, 1)
    foreign = get_form(GroupCase.su(1, 2), 2)
    with pytest.raises(ValueError, match="h has length 3 but SU\\(1,1\\) "
                                         "has rank 2"):
        levi_data(build_root_system(case), foreign.h)


def test_delta_p1_includes_negative_roots():
    # third so-odd form: e_{p+1} - e_i lies in Delta(p_1) with negative sign
    case = GroupCase.so_odd(2, 2)
    levi = _levi(case, 3)                  # h = (1, 0, 2, 1)
    assert (-1, 0, 1, 0) in levi.delta_p1


def test_big_n_closed_counts():
    # sp: N = C(p,2) + p q + p
    for n in range(1, 6):
        for k in range(n + 1):
            levi = _levi(GroupCase.sp(n), k + 1)
            assert levi.big_n == k * (k - 1) // 2 + k * (n - k) + k
    # so-star even: N = C(p,2) + p q
    for k in (0, 2, 4):
        levi = _levi(GroupCase.so_star(4), k // 2 + 1)
        assert levi.big_n == k * (k - 1) // 2 + k * (4 - k)


def test_big_n_parities():
    # fixed parities of N per family and form kind
    for p in range(1, 5):
        for q in range(max(p - 1, 0), 6):
            case = GroupCase.so_odd(p, q)
            for form in real_forms(case):
                n_val = _levi(case, form.index).big_n
                if form.kind == 1:
                    assert n_val % 2 == p % 2
                elif form.kind == 2:
                    assert n_val % 2 == 0
    for p in range(1, 5):
        for q in range(p, 6):
            case = GroupCase.so_even(p, q)
            for form in real_forms(case):
                n_val = _levi(case, form.index).big_n
                if form.kind == 1:
                    assert n_val % 2 == (p - 1) % 2
                elif form.kind == 2:
                    assert n_val % 2 == 0
                elif form.kind == 3:
                    assert n_val % 2 == p % 2
    for n in range(1, 8, 2):
        case = GroupCase.so_star(n)
        for form in real_forms(case):
            assert _levi(case, form.index).big_n % 2 == (form.kind // 2) % 2


def test_rho_n_orthogonality_status():
    # holds on every form the closed-form computations evaluate directly,
    # and fails for the II-variant once p >= 3 with rho_n(l) taken from the
    # fixed positive system (the flip-transported one is orthogonal)
    for case in (GroupCase.so_odd(2, 3), GroupCase.so_even(2, 2),
                 GroupCase.sp(4), GroupCase.su(2, 3), GroupCase.so_star(5)):
        for form in real_forms(case):
            assert rho_n_orthogonal(levi_data(build_root_system(case), form.h))
    bad = levi_data(build_root_system(GroupCase.so_odd(3, 2)),
                    get_form(GroupCase.so_odd(3, 2), 2).h)
    assert not rho_n_orthogonal(bad)


def test_brute_force_su11():
    case = GroupCase.su(1, 1)
    assert constant_brute_force_orig(case, 1) == 1
    assert constant_brute_force_orig(case, 2) == -1


def test_brute_force_sp2():
    case = GroupCase.sp(2)
    assert constant_brute_force_orig(case, 3, lam=(2, 1)) == -1
    # parity-zero form: the lhs itself vanishes at lambda_0 = (2, 2)
    assert brute_force_sum(case, 2, lam=(2, 2), variant="v2") == 0
    assert constant_brute_force_v2(case, 2) == 0


def test_brute_force_so_odd_11_form1():
    assert constant_brute_force_v2(GroupCase.so_odd(1, 1), 1) == -1


def test_single_term_case_degenerates_to_pk_ratio():
    # whenever both pools are empty the sum has one term
    case = GroupCase.so_odd(1, 2)
    rs = build_root_system(case)
    form = get_form(case, 1)
    levi = levi_data(rs, form.h)
    assert levi.delta_n_plus_l == () and levi.delta_p1 == ()
    lam = default_lambda(case, form)
    pk = make_dim_poly(rs.compact_positive, case.rank)
    plk = eval_dim_poly(levi_k_poly(rs, levi), lam)
    expect = (-1) ** levi.big_n * eval_dim_poly(pk, lam) / plk
    assert constant_brute_force_orig(case, form) == expect


def test_default_lambda_examples():
    assert default_lambda(GroupCase.sp(3), 2) == (3, 3, 2)
    assert default_lambda(GroupCase.so_odd(1, 3), 1) == (Fraction(1, 2), 3, 2, 1)
    assert default_lambda(GroupCase.so_even(1, 3), 1) == (
        Fraction(1, 2), Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    assert default_lambda(GroupCase.so_odd(1, 0), 1) == (Fraction(1, 2),)
    assert default_lambda(GroupCase.so_star(3), 1) == (1, 2, 1)
    assert default_lambda(GroupCase.so_star(5), 2) == (5, 4, 3, 4, 3)


def test_default_lambda_never_degenerate():
    # the CLI evaluates at lambda_0 alone, with no fallback: every acceptance
    # form (123) and the 39 forms of the rank 9-10 cases beyond the range
    for case in (*acceptance_cases(), GroupCase.sp(10), GroupCase.so_star(9),
                 GroupCase.so_star(10), GroupCase.su(4, 6), GroupCase.su(5, 5),
                 GroupCase.so_even(4, 5), GroupCase.so_odd(4, 5)):
        rs = build_root_system(case)
        for form in real_forms(case):
            levi = levi_data(rs, form.h)
            lam = default_lambda(case, form)
            assert len(lam) == case.rank
            assert eval_dim_poly(levi_k_poly(rs, levi), lam) != 0


def test_lambda_candidates_distinct_and_regular():
    case = GroupCase.so_even(2, 3)
    rs = build_root_system(case)
    for form in real_forms(case):
        lams = lambda_candidates(case, form, count=3, seed=5)
        assert len(set(lams)) == 3
        levi = levi_data(rs, form.h)
        plk = levi_k_poly(rs, levi)
        assert all(eval_dim_poly(plk, lam) != 0 for lam in lams)


def test_lambda_candidates_refuse_a_degenerate_lambda_0(monkeypatch):
    # P_{L&K} vanishes everywhere: lambda_0 is refused before any shift
    case = GroupCase.so_even(2, 3)
    seen = []
    monkeypatch.setattr(constants, "eval_dim_poly",
                        lambda poly, lam: seen.append(lam) or 0)
    with pytest.raises(LambdaDegenerateError, match=(
            rf"^lambda_0 is degenerate for {re.escape(str(case))}$")):
        lambda_candidates(case, 1)
    assert seen == [default_lambda(case, 1)]


def test_lambda_candidates_give_up_after_500_degenerate_shifts(monkeypatch):
    # P_{L&K} vanishes everywhere but at lambda_0: no shift is ever accepted
    case = GroupCase.so_even(2, 3)
    lam0 = default_lambda(case, 1)
    seen = []
    monkeypatch.setattr(constants, "eval_dim_poly",
                        lambda poly, lam: seen.append(lam) or int(lam == lam0))
    with pytest.raises(LambdaDegenerateError, match=(
            rf"^could not find 2 non-degenerate lambdas for "
            rf"{re.escape(str(case))}$")):
        lambda_candidates(case, 1, count=2)
    assert seen[0] == lam0 and lam0 not in seen[1:]
    assert 1 < len(seen) <= 1 + 500


def test_lambda_independence_small():
    for case, idx in ((GroupCase.sp(4), 3), (GroupCase.so_odd(2, 2), 1),
                      (GroupCase.su(2, 3), 2), (GroupCase.so_even(2, 2), 3)):
        values = {constant_brute_force_orig(case, idx, lam=lam)
                  for lam in lambda_candidates(case, idx, count=3, seed=9)}
        assert len(values) == 1


def test_closed_form_values():
    assert constant_closed_form(GroupCase.su(2, 3), 2) == 2
    assert constant_closed_form(GroupCase.so_star(3), 2) == -1
    assert constant_closed_form(GroupCase.so_star(4), 2) == -2
    assert constant_closed_form(GroupCase.so_odd(2, 2), 3) == 0
    # sp(10): k = 0..5 -> 1, -1, -2, 2, 1, -1
    assert [constant_closed_form(GroupCase.sp(5), i) for i in range(1, 7)] == \
        [1, -1, -2, 2, 1, -1]
    with pytest.raises(ValueError):
        constant_closed_form(GroupCase.sp(2), 4)


_TEXT = re.compile(r"\(-1\)\^(\d+)\*(?:C\((\d+),(\d+)\)|2\^(\d+))")
_LATEX = re.compile(
    r"\(-1\)\^\{(\d+)\} \\cdot (?:\\binom\{(\d+)\}\{(\d+)\}|2\^\{(\d+)\})")


def _evaluate(pattern, expr):
    """Value of a rendered closed form: 0, (-1)^e*C(a,b) or (-1)^e*2^k."""
    if expr == "0":
        return 0
    sign, a, b, k = pattern.fullmatch(expr).groups()
    magnitude = math.comb(int(a), int(b)) if k is None else 2 ** int(k)
    return (-1) ** int(sign) * magnitude


def test_rendered_closed_forms_evaluate_to_the_constant():
    forms = [(case, form) for case in acceptance_cases()
             for form in real_forms(case)]
    assert len(forms) == 123
    for case, form in forms:
        c = constant_closed_form(case, form)
        assert _evaluate(_TEXT, closed_form_expr(case, form)) == c
        assert _evaluate(_LATEX, closed_form_expr(case, form, latex=True)) == c


def test_closed_form_matches_brute_on_spread():
    for case in (GroupCase.su(2, 3), GroupCase.sp(4), GroupCase.so_odd(2, 3),
                 GroupCase.so_even(2, 3), GroupCase.so_even(2, 2),
                 GroupCase.so_star(5)):
        for form in real_forms(case):
            assert constant_brute_force_orig(case, form) == \
                constant_closed_form(case, form), (str(case), form.label)


def test_closed_form_matches_brute_at_p4():
    # rank-8 cases beyond the acceptance sweep; p = 4 exercises the closed
    # forms at the next parity point.  Every form of SO_e(8,7), SO_e(8,9) and
    # SO_e(8,8), from 2^15 to 2^22 subsets.
    for case in (GroupCase.so_odd(4, 3), GroupCase.so_odd(4, 4),
                 GroupCase.so_even(4, 4)):
        for form in real_forms(case):
            assert constant_brute_force_orig(case, form) == \
                constant_closed_form(case, form), (str(case), form.index)
    case = GroupCase.so_even(4, 4)
    for idx in (1, 3):
        assert constant_closed_form(case, idx) == 64
    case = GroupCase.so_odd(4, 3)
    assert constant_closed_form(case, 1) == 64
    assert constant_closed_form(case, 2) == -64
    assert auto_sign_relation(case, 3, 1, 2) == -1
    case = GroupCase.sp(8)
    assert constant_brute_force_orig(case, 5) == \
        constant_closed_form(case, 5) == 6


def _forms(cases):
    return st.sampled_from([(case, form) for case in cases
                            for form in real_forms(case)])


# half the draws from SO_e(8,8), the next parity point past the sweep
@settings(max_examples=30, deadline=None)
@given(st.one_of(_forms(acceptance_cases()), _forms([GroupCase.so_even(4, 4)])),
       st.integers(0, 2 ** 16), st.integers(0, 2))
def test_closed_form_matches_brute_at_random_lambda(case_form, seed, which):
    case, form = case_form
    lam = lambda_candidates(case, form, count=3, seed=seed)[which]
    assert constant_brute_force_orig(case, form, lam=lam) == \
        constant_closed_form(case, form)


def test_closed_form_matches_brute_beyond_the_acceptance_range():
    # the cheap part of the range past rank 6: all 42 forms at lambda_0.
    # Sp(20,R) form 6 runs over 2^25 subsets, above the default cap.
    for case in (GroupCase.sp(8), GroupCase.sp(10), GroupCase.so_star(8),
                 GroupCase.so_star(10), GroupCase.su(4, 6), GroupCase.su(5, 5)):
        for form in real_forms(case):
            assert constant_brute_force_orig(case, form, term_cap=1 << 25) == \
                constant_closed_form(case, form), (str(case), form.index)


def test_formula_equivalence_where_orthogonal():
    for case in (GroupCase.so_odd(2, 2), GroupCase.so_even(2, 2),
                 GroupCase.sp(3), GroupCase.su(2, 2)):
        for form in real_forms(case):
            assert constant_brute_force_orig(case, form) == \
                constant_brute_force_v2(case, form)


def test_v2_requires_orthogonality():
    case = GroupCase.so_odd(3, 2)
    with pytest.raises(OrthogonalityError):
        constant_brute_force_v2(case, 2)
    # the original formula still works and the automorphism relation holds
    c1 = constant_brute_force_orig(case, 1)
    c2 = constant_brute_force_orig(case, 2)
    assert c2 == -c1 == constant_closed_form(case, 2)


def test_term_cap():
    case = GroupCase.so_odd(2, 2)
    with pytest.raises(TermCapExceeded) as info:
        constant_brute_force_orig(case, 1, term_cap=4)
    assert info.value.required > 4


def test_the_cap_is_refused_before_p_k_is_built(monkeypatch):
    # the kernel and the pruned walk both take the refusal from the set-up
    case = GroupCase.so_odd(2, 2)
    rs = build_root_system(case)
    levi = levi_data(rs, get_form(case, 1).h)
    m = len(levi.delta_n_plus_l) + len(levi.delta_p1)

    def no_p_k(*args):
        raise AssertionError("P_K was built")

    monkeypatch.setattr(constants, "make_dim_poly", no_p_k)
    for call in (lambda: _prepare_enumeration(
                     rs, levi, default_lambda(case, 1), "orig", 4),
                 lambda: alternating_sum(rs, levi, default_lambda(case, 1),
                                         term_cap=4),
                 lambda: oracles.surviving_terms(case, 1, "orig", term_cap=4)):
        with pytest.raises(TermCapExceeded) as info:
            call()
        assert (info.value.required, info.value.cap) == (1 << m, 4)
        assert str(info.value) == f"enumeration needs {1 << m} subsets, cap is 4"


def test_an_unknown_variant_is_refused_before_the_cap():
    # a misspelled variant is a usage error at any cap, never a sum over it
    case = GroupCase.so_even(3, 5)           # SO_e(6,10): form 3 is over cap 1
    rs = build_root_system(case)
    levi = levi_data(rs, get_form(case, 3).h)
    lam = default_lambda(case, 3)
    for cap in (1, DEFAULT_TERM_CAP):
        with pytest.raises(ValueError, match="^unknown variant 'V2'$"):
            alternating_sum(rs, levi, lam, variant="V2", term_cap=cap)
        with pytest.raises(ValueError, match="^unknown variant 'bogus'$"):
            oracles.surviving_terms(case, 3, variant="bogus", term_cap=cap)


def _fraction_enumeration(rs, levi, lam, variant):
    """``_prepare_enumeration``'s five values by the Fraction formulas: lam
    and rho_n(l) scaled entry by entry, by twice the lcm of lam's
    denominators."""
    scale = 2 * math.lcm(*(Fraction(x).denominator for x in lam), 1)
    base = [int(scale * Fraction(x)) for x in lam]
    if variant == "orig":
        base = [b - int(scale * r) for b, r in zip(base, levi.rho_n_l)]
        deltas = [tuple(scale * c for c in a) for a in levi.delta_n_plus_l]
    else:
        deltas = [tuple(-scale * c for c in a) for a in levi.delta_n_plus_l]
    deltas += [tuple(-scale * c for c in a) for a in levi.delta_p1]
    pk = make_dim_poly(rs.compact_positive, rs.case.rank)
    return (tuple(base), tuple(deltas), pk.factors,
            Fraction(scale) ** len(pk.factors) * pk.norm, scale)


_ENTRIES = st.one_of(st.integers(-9, 9),
                     st.fractions(-9, 9, max_denominator=6))


@settings(max_examples=200, deadline=None)
@given(_forms([case for case in acceptance_cases() if case.rank <= 5]),
       st.data())
def test_the_integer_set_up_matches_the_fraction_formulas(case_form, draw):
    case, form = case_form
    lam = tuple(draw.draw(st.lists(_ENTRIES, min_size=case.rank,
                                   max_size=case.rank)))
    rs = build_root_system(case)
    levi = levi_data(rs, form.h)
    for variant in ("orig", "v2"):
        got = _prepare_enumeration(rs, levi, lam, variant, DEFAULT_TERM_CAP)
        assert got[4] == 2 * math.lcm(*(Fraction(x).denominator for x in lam))
        assert got == _fraction_enumeration(rs, levi, lam, variant)
        assert {type(x) for x in got[0]} <= {int}
        assert type(got[3]) is Fraction


def test_lambda_degenerate_error():
    case = GroupCase.sp(2)
    with pytest.raises(LambdaDegenerateError):
        constant_brute_force_orig(case, 1, lam=(1, 1))   # P_LK vanishes


def _naive_sum(base, deltas, packed):
    """Reference kernel: rebuild the vector of every subset and multiply."""
    total = nonzero = 0
    for bits in range(1 << len(deltas)):
        vec = list(base)
        for t, delta in enumerate(deltas):
            if bits >> t & 1:
                vec = [v + d for v, d in zip(vec, delta)]
        prod = math.prod(ci * vec[i] + cj * vec[j] for i, ci, j, cj in packed)
        if prod:
            nonzero += 1
            total += -prod if bits.bit_count() & 1 else prod
    return total, nonzero


_COEFF = st.sampled_from((-2, -1, 1, 2))


@st.composite
def _sums(draw):
    """Small kernel inputs; coordinates from ``touched`` on are untouched."""
    rank = draw(st.integers(1, 4))
    touched = draw(st.integers(1, rank))
    base = draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank))
    deltas = []
    for _ in range(draw(st.integers(0, 10))):
        delta = [0] * rank
        for i in draw(st.sets(st.integers(0, touched - 1), min_size=1,
                              max_size=2)):
            delta[i] = draw(_COEFF)
        deltas.append(tuple(delta))
    packed = []
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, rank - 1))
        j = draw(st.sampled_from([i] + [x for x in range(rank) if x != i]))
        packed.append((i, draw(_COEFF), j, draw(_COEFF) if j != i else 0))
    return tuple(base), tuple(deltas), tuple(packed)


@settings(max_examples=300, deadline=None)
@given(_sums(), st.integers(0, 10), st.integers(1, 3))
# the hand split walks every root, so the chunks' classes open with every
# finished factor (v_0); the last root zeroes v_0 + v_1 in one state
@example(((1, 0), ((1, 0), (0, -1)), ((0, 1, 0, 0), (0, 1, 1, 1))), 2, 2)
# only the last root zeroes v_0, and only where the first root is absent
@example(((1,), ((1,), (-1,)), ((0, 1, 0, 0),)), 0, 1)
# -v_1 - v_2 is final after the first root, and zero where that root is
# absent, but its coordinates finish only at the second; -v_0 finishes at
# the first root and is zero where that root is present
@example(((-1, -1, 1), ((1, 0, 1), (0, -1, 1)),
          ((2, -1, 1, -1), (0, -1, 0, 0))), 1, 2)
# no roots: the leaf reads the base alone, v_0 * (v_0 + v_1) = 2
@example(((2, -1), (), ((0, 1, 0, 0), (0, 1, 1, 1))), 0, 1)
# one root: both halves are nonzero, 3 - 1
@example(((3,), ((-2,),), ((0, 1, 0, 0),)), 0, 1)
# the last root, -e_0 + e_1, moves v_0's block and v_1's: masked to v_1's
# digits its packed int reads 0, the +1 less the borrow of the -1 below
@example(((3, 1, 1), ((0, 1, -1), (-1, 1, 0)),
          ((0, 1, 0, 0), (1, 1, 1, 0), (2, 1, 2, 0))), 0, 1)
# the frontier stops at the last root's position, in 4 classes dealt to 2
# chunks, and each chunk reads the last root in its leaf
@example(((1, 1, 1), ((1, 0, 0), (0, 1, 0), (0, 1, -1)),
          ((0, 1, 0, 0), (1, 1, 1, 0), (1, 1, 2, -1))), 2, 2)
# two leaf blocks, v_0 and 2 v_1, whose digits both read 0 at the base
# plus the last root (-1 - 1 = -2, the bound): a value memo shared by the
# blocks gives 2 v_1 = -4 there the value -2 of v_0's block
@example(((-1, -1), ((-1, -1),), ((0, 1, 0, 0), (1, 2, 1, 0))), 0, 1)
def test_kernel_matches_naive_reference(data, depth, chunks):
    base, deltas, packed = data
    expected = _naive_sum(base, deltas, packed)
    assert _subset_sum(base, deltas, packed) == expected
    # the pooled path's split, without processes: walk ``depth`` roots, deal
    # the frontier classes round-robin and finish each chunk on its own
    plan = _plan(base, deltas, packed)
    if plan is None:
        assert expected == (0, 0)
        return
    depth = min(depth, len(deltas))
    total, nonzero, frontier = _walk(plan, _start(plan), depth)
    if depth == len(deltas):
        assert frontier == []
    assert all(pos == depth for _, pos, _ in frontier)
    dealt = [frontier[w::chunks] for w in range(chunks)]
    keys = [key for chunk in dealt for states, _, _ in chunk for key in states]
    assert len(keys) == len(set(keys))
    parts = [_walk(plan, chunk)[:2] for chunk in dealt]
    assert (total + sum(t for t, _ in parts),
            nonzero + sum(n for _, n in parts)) == expected


def _added(states, step):
    """``states`` plus root ``step``, built as one dict: each state as it
    is, then each plus the step with the opposite sign, merged where the
    sum meets a state."""
    out = dict(states)
    for key, (signed, count) in states.items():
        old = out.get(key + step)
        out[key + step] = ((-signed, count) if old is None
                           else (old[0] - signed, old[1] + count))
    return out


@settings(max_examples=200, deadline=None)
@given(_sums(), st.data())
def test_a_split_adds_its_root_as_the_built_dict_would(data, draw):
    # at a split ``_open`` adds the root itself and builds no dict; it must
    # deal the classes that dealing the built dict deals, in the same order,
    # each with the same states in the same order and the same scale
    plan = _plan(*data)
    assume(plan is not None and any(plan.splits))
    pos = draw.draw(st.sampled_from(
        [p for p, split in enumerate(plan.splits) if split]))
    states = {plan.base: (1, 1)}
    for step in plan.steps[:pos - 1]:
        states = _added(states, step)
    scale, step = draw.draw(st.integers(1, 3)), plan.steps[pos - 1]

    def dealt(classes):
        return [(list(members.items()), at, factor)
                for members, at, factor in classes]

    assert dealt(_open(plan, states, pos, scale, {}, step)) == dealt(
        _open(plan, _added(states, step), pos, scale, {}))


def _permuted(data, coords, roots):
    """The same sum with coordinate k read from ``coords[k]`` and root r
    from ``roots[r]``: base, deltas and packed factors moved together."""
    base, deltas, packed = data
    where = {c: k for k, c in enumerate(coords)}
    return (tuple(base[c] for c in coords),
            tuple(tuple(deltas[t][c] for c in coords) for t in roots),
            tuple((where[i], ci, where[j], cj) for i, ci, j, cj in packed))


@st.composite
def _permuted_sums(draw):
    data = draw(_sums())
    base, deltas, _ = data
    return data, _permuted(data, draw(st.permutations(range(len(base)))),
                           draw(st.permutations(range(len(deltas)))))


@settings(max_examples=200, deadline=None)
@given(_permuted_sums())
def test_the_sum_does_not_depend_on_the_order_of_coordinates_or_roots(pair):
    # permuting moves the plan's ties, and with them the walk order
    data, permuted = pair
    expected = _naive_sum(*data)
    assert _subset_sum(*data) == _subset_sum(*permuted) == expected


def test_an_acceptance_sum_walked_in_another_order_is_unchanged():
    # SO_e(6,7) form 3 at lambda_0, 2^13 subsets, coordinates and roots
    # reversed: the plan takes its roots in another order
    case = GroupCase.so_odd(3, 3)
    rs = build_root_system(case)
    form = get_form(case, 3)
    data = _prepare_enumeration(rs, levi_data(rs, form.h),
                                default_lambda(case, form), "orig",
                                DEFAULT_TERM_CAP)[:3]
    rank, m = len(data[0]), len(data[1])
    permuted = _permuted(data, range(rank)[::-1], range(m)[::-1])
    assert [m - 1 - t for t in _order(*permuted)] != _order(*data)
    assert _subset_sum(*data) == _subset_sum(*permuted) == _naive_sum(*data)


# (group, p, q, form): the forms of the heavy benchmarks, summed at lambda_0
# by heavy-wall and at lambda_candidates(count=2, seed=0)[1] by heavy-generic
HEAVY = (("so_odd", 3, 4, 3), ("so_odd", 3, 5, 1), ("so_even", 3, 5, 3))


def _sum_heavy(generic):
    """Evaluate each heavy form at heavy-generic's lambda, or at lambda_0,
    and check it against the closed form."""
    for group, p, q, index in HEAVY:
        case = getattr(GroupCase, group)(p, q)
        lam = (lambda_candidates(case, index, count=2, seed=0)[1]
               if generic else None)
        assert _constant(case, index, lam, "orig", DEFAULT_TERM_CAP,
                         1).constant == constant_closed_form(case, index)


def test_the_root_order_finishes_zeroing_factors_first(monkeypatch):
    # the order changes no total, only the work: at lambda_0 taking the
    # group of least predicted kept-state factor, the walk opens 1,181
    # classes on these sums, besides the 3 start classes ``_subset_sum``
    # opens; with the kept share dropped it opens 2,228, with the growth
    # dropped 2,655, and fewest remaining roots first opened 1,555
    opened = []

    def counted(*args):
        classes = _open(*args)
        opened.append(len(classes))
        return classes

    monkeypatch.setattr(kernel, "_open", counted)
    _sum_heavy(generic=False)
    assert sum(opened) == 1181


@settings(max_examples=300, deadline=None)
@given(_sums())
# one step takes every root on coordinate 0 and so also finishes coordinate
# 1, whose one root is not the order's first
@example(((0, 0), ((-2, 0), (-2, 0), (-2, -2), (-2, 0)), ((0, -2, 0, 0),) * 5))
def test_the_root_order_takes_whole_coordinates(data):
    # a permutation, the same one each time, that splits into consecutive
    # steps, each the whole remaining root set of one coordinate, lowest
    # first; ``ends`` holds the positions where such a split can end a step
    base, deltas, packed = data
    order = _order(base, deltas, packed)
    assert sorted(order) == list(range(len(deltas)))
    assert _order(base, deltas, packed) == order
    ends = {0}
    for at in range(len(order)):
        if at in ends:
            for i in range(len(base)):
                step = sorted(t for t in order[at:] if deltas[t][i])
                if step and order[at:at + len(step)] == step:
                    ends.add(at + len(step))
    assert len(order) in ends


def test_the_zero_share_is_over_the_pairs_of_values():
    # found by search.  v_1 runs over {-2, -1, 0} and v_2 over {-1, 0}, each
    # zero on one value.  Roots 0 and 2 (v_1's) grow v_1 and v_2 by 3 * 2
    # and keep 2/3 * 1/2 of the states; root 0 (v_2's) grows them by 2 * 2
    # and keeps 1/2; root 1 (v_0's) grows v_0 by 2 and finishes no factor.
    # All three factors read 2, and the tie takes roots 0 and 2.  Over
    # len(left) + len(right) values the shares read 1/4 and 1/3, so roots 0
    # and 2 read 6 * 3/4 * 2/3 = 3, root 0 reads 8/3, and root 1 goes first.
    base, deltas = (0, -1, -1), ((0, 1, 1), (-1, 0, 0), (0, -1, 0))
    packed = ((2, 1, 2, 0), (1, 1, 1, 0), (0, 1, 2, 1))
    assert _order(base, deltas, packed) == [0, 2, 1]


def test_the_leaf_evaluates_each_digit_string_once(monkeypatch):
    # at heavy-generic's lambda 53% of the terms are nonzero, and the leaf
    # reads each state's blocks at the state and at the state plus the last
    # root: filled from the values on each digit string, its pairs take
    # 6,504 evaluations on these sums, and pairs evaluated afresh take 9,919
    calls = []
    factors = kernel._factors

    def counted(*args):
        calls.append(args)
        return factors(*args)

    monkeypatch.setattr(kernel, "_factors", counted)
    _sum_heavy(generic=True)
    assert len(calls) == 6504


def test_each_position_memoizes_its_own_factors_for_one_walk():
    # found by search.  Both sums walk (-2, 0, 2), then (-2, 2, 0): after one
    # root coordinate 2 is final but no factor finishes, so position 1
    # memoizes the empty product 1 on the digits 0; after two roots the
    # factor on v_0 finishes, and in the first sum v_0 = -5, the bound, has
    # the digit 0.  A memo shared by the positions reads 1 for 2 v_0 = -10.
    # The second sum's digit 4 is v_0 = 0, where the first's was v_0 = -1,
    # so a memo kept from the first sum's walk misses the second's zeros.
    deltas = ((0, -2, 0), (-2, 0, 2), (-2, 2, 0))
    for base, packed in (((-1, 0, 3), ((0, 2, 0, 0), (1, -1, 0, -2))),
                         ((0, 0, -1), ((0, 1, 0, 0),))):
        assert _subset_sum(base, deltas, packed) == \
            _naive_sum(base, deltas, packed)


def _start(plan):
    """The one class the walk opens with: the base state, scaled by the
    factors no root changes."""
    return _open(plan, {plan.base: (1, 1)}, 0, 1, {})


def test_a_root_on_one_coordinate_is_packed_onto_that_coordinate():
    # (i, ci, i, 0): the factor is ci * v_i + 0 * v_i, with no sentinel
    assert _pack_roots([(0, 2, 0), (1, 0, -1), (0, 0, 1)]) == (
        (1, 2, 1, 0), (0, 1, 2, -1), (2, 1, 2, 0))


def test_plan_is_none_for_a_zero_factor_the_roots_leave_unchanged():
    # v_0 - v_1 is 0 at the base; the one root e_0 + e_1 touches both its
    # coordinates but leaves it 0, so every term is 0
    base, deltas, packed = (1, 1), ((1, 1),), ((0, 1, 1, -1),)
    assert _plan(base, deltas, packed) is None
    assert _subset_sum(base, deltas, packed) == \
        _naive_sum(base, deltas, packed) == (0, 0)


def test_plan_tests_each_factor_once_where_it_finishes():
    for case in acceptance_cases():
        rs = build_root_system(case)
        for form in real_forms(case):
            levi = levi_data(rs, form.h)
            for variant in ("orig", "v2")[:1 + rho_n_orthogonal(levi)]:
                base, deltas, packed, *_ = _prepare_enumeration(
                    rs, levi, default_lambda(case, form), variant,
                    DEFAULT_TERM_CAP)
                plan = _plan(base, deltas, packed)
                if plan is None:
                    continue
                m, mask = len(deltas), plan.mask
                width = mask.bit_length()
                live = [(m, t) for _, tests in plan.blocks for t in tests]
                placed = [(pos, t) for pos, (_, tests) in enumerate(
                    plan.finish) for t in tests] + live
                assert sorted((si // width, ci, sj // width, cj)
                              for _, (si, ci, sj, cj, _) in placed) == sorted(
                    packed), (str(case), form.index)
                for pos, (si, _, sj, _, _) in placed:
                    reads = mask << si | mask << sj
                    if pos < m:
                        assert reads & plan.cut[pos] == reads
                    if pos > 0:
                        assert reads & ~plan.cut[pos - 1]
                assert all(plan.splits[pos] for pos in range(1, m)
                           if plan.finish[pos][1])
                # each position's memo key is exactly what its tests read
                for digits, tests in plan.finish:
                    reads = 0
                    for si, _, sj, _, _ in tests:
                        reads |= mask << si | mask << sj
                    assert digits == reads


def _sum_of_4096():
    """The packed sum of SO_e(6,7) form 1 at lambda_0, over 2^12 subsets."""
    case = GroupCase.so_odd(3, 3)
    rs = build_root_system(case)
    form = get_form(case, 1)
    base, deltas, packed, *_ = _prepare_enumeration(
        rs, levi_data(rs, form.h), default_lambda(case, form), "orig",
        DEFAULT_TERM_CAP)
    assert len(deltas) == 12
    return base, deltas, packed


def test_pooled_kernel_matches_naive_reference():
    base, deltas, packed = _sum_of_4096()
    assert _subset_sum(base, deltas, packed, workers=2) == \
        _naive_sum(base, deltas, packed)


def test_one_prefix_class_is_summed_without_a_pool(monkeypatch):
    case = GroupCase.so_odd(2, 4)            # SO_e(4,9): form 3 has 2^14 subsets
    rs = build_root_system(case)
    form = get_form(case, 3)
    base, deltas, packed, *_ = _prepare_enumeration(
        rs, levi_data(rs, form.h), default_lambda(case, form), "v2",
        DEFAULT_TERM_CAP)
    assert len(deltas) == 14
    plan = _plan(base, deltas, packed)
    assert len(_walk(plan, _start(plan), 4)[2]) == 1
    expected = _subset_sum(base, deltas, packed)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(constants, "ProcessPoolExecutor", no_pool)
    assert _subset_sum(base, deltas, packed, workers=2) == expected


def test_blocks_share_no_coordinate():
    # the compact factors of SO_e(6,10) (K = SO(6) x SO(10)) fall into two
    # blocks, those of Sp(12,R) (K = U(6)) into one
    for case, count in ((GroupCase.so_even(3, 5), 2), (GroupCase.sp(6), 1)):
        rs = build_root_system(case)
        tests = [(8 * i, ci, 8 * j, cj, 0)
                 for i, ci, j, cj in _pack_roots(rs.compact_positive)]
        blocks = _blocks(tests, 0xFF)
        assert len(blocks) == count, str(case)
        assert sorted(t for _, block in blocks for t in block) == sorted(tests)
        for n, (digits, block) in enumerate(blocks):
            for si, _, sj, _, _ in block:
                reads = 0xFF << si | 0xFF << sj
                assert reads & digits == reads
            assert all(digits & other == 0 for other, _ in blocks[n + 1:])


def _unmerged(plan):
    """Whether each of the plan's two leaf blocks is one component or
    neutral, so no third component was merged into the second."""
    return all(len(_blocks(tests, plan.mask)) <= 1
               for _, tests in plan.blocks)


def test_the_leaf_blocks_need_no_merge(monkeypatch):
    # each live factor reads a coordinate of the last root, and every pool
    # root reads at most two: the seed-0 sweep's plans, and those of the
    # larger pools of SO_e(8,10) I and III, Sp(16,R) and SO*(16), planned
    # without a walk, each have at most two leaf components
    plans = []

    def recorded(*args):
        plan = kernel._plan(*args)
        plans.append(plan)
        return plan

    monkeypatch.setattr(constants, "_plan", recorded)
    verify.run_all(workers=1, skip_determinism=True)
    assert len(plans) > 300
    for case, forms in ((GroupCase.so_even(4, 5), (1, 3)),
                        (GroupCase.sp(8), None), (GroupCase.so_star(8), None)):
        rs = build_root_system(case)
        for form in forms or [f.index for f in real_forms(case)]:
            levi = levi_data(rs, get_form(case, form).h)
            for lam in (default_lambda(case, form),
                        lambda_candidates(case, form, count=2, seed=0)[1]):
                base, deltas, packed, *_ = _prepare_enumeration(
                    rs, levi, lam, "orig", 1 << 26)
                plans.append(_plan(base, deltas, packed))
    assert [p for p in plans if p is not None and not _unmerged(p)] == []


def test_a_last_root_on_three_coordinates_merges_two_blocks():
    # v_1, 2 v_2, and v_0 with v_0 +- v_3 are three components that only
    # the last root, e_0 + e_1 - e_2, finishes: the third joins the second
    base, deltas = (3, 1, 2, 0), ((0, 0, 0, 1), (1, 1, -1, 0), (0, 0, 0, -2))
    packed = ((0, 1, 0, 0), (1, 1, 1, 0), (2, 2, 2, 0), (0, 1, 3, 1),
              (0, 1, 3, -1))
    plan = _plan(base, deltas, packed)
    assert sorted(len(_blocks(tests, plan.mask))
                  for _, tests in plan.blocks) == [1, 2]
    assert _subset_sum(base, deltas, packed) == \
        _naive_sum(base, deltas, packed) == (-16, 8)


def test_a_sum_with_no_roots_reads_its_base_alone():
    # SU(2,2) forms 1 and 3 have empty pools at lambda_0: the leaf reads
    # the base, with no shifted half, and c = 1
    case = GroupCase.su(2, 2)
    for index in (1, 3):
        data = _form_data(case, index)
        assert _prepare_enumeration(
            data.rs, data.levi, default_lambda(case, index), "orig",
            DEFAULT_TERM_CAP)[1] == ()
        assert _constant(case, index, None, "orig", DEFAULT_TERM_CAP,
                         1).constant == constant_closed_form(case, index) == 1


def test_one_cpu_sums_without_a_pool(monkeypatch):
    base, deltas, packed = _sum_of_4096()
    expected = _subset_sum(base, deltas, packed)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0})
    monkeypatch.setattr(constants, "ProcessPoolExecutor", no_pool)
    assert _subset_sum(base, deltas, packed, workers=2) == expected


def test_a_sum_pools_only_on_the_cpus_this_process_may_run_on(monkeypatch):
    # two CPUs on the machine, one of them this process's: a pool of two
    # would share one CPU
    base, deltas, packed = _sum_of_4096()
    expected = _subset_sum(base, deltas, packed)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0})
    monkeypatch.setattr(constants.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(constants, "ProcessPoolExecutor", no_pool)
    assert constants._processes(2) == 1
    assert _subset_sum(base, deltas, packed, workers=2) == expected
    # where the CPUs a process may run on are not known, all of them count
    monkeypatch.delattr(constants.os, "sched_getaffinity")
    assert constants._processes(8) == 2
    monkeypatch.setattr(constants.os, "cpu_count", lambda: None)
    assert constants._processes(8) == 1


def test_the_split_follows_workers_and_the_processes_the_cpus(monkeypatch):
    base, deltas, packed = _sum_of_4096()
    expected = _subset_sum(base, deltas, packed)
    started, mapped = [], []

    class Recording(constants.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

        def map(self, fn, plans, chunks):
            mapped.append(len(chunks))
            return super().map(fn, plans, chunks)

    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0, 1})
    monkeypatch.setattr(constants, "ProcessPoolExecutor", Recording)
    assert _subset_sum(base, deltas, packed, workers=8) == expected
    assert started == [2] and mapped == [8]


def test_the_deal_is_round_robin_by_position_one_task_per_chunk(monkeypatch):
    # units go by position into min(workers, units) chunks, each walked with
    # the shared value as one task on the run's executor of _processes(
    # workers) processes; at most one chunk is walked here, with no pool
    started, mapped = [], []

    class Recording(constants.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

        def map(self, fn, shared, chunks):
            mapped.append(len(chunks))
            return super().map(fn, shared, chunks)

    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0, 1})
    monkeypatch.setattr(constants, "ProcessPoolExecutor", Recording)
    deal = constants._deal
    with worker_pool() as run:
        assert deal(operator.add, ["s"], [], 2) == [([], ["s"])]
        assert deal(operator.add, ["s"], [5], 3) == [([5], ["s", 5])]
        assert deal(operator.add, ["s"], [1, 2], 1) == [([1, 2], ["s", 1, 2])]
        assert run.executor is None
        assert deal(operator.add, ["s"], [0, 1, 2, 3, 4], 2) == [
            ([0, 2, 4], ["s", 0, 2, 4]), ([1, 3], ["s", 1, 3])]
        assert deal(operator.add, [], [0, 1, 2, 3, 4], 3) == [
            ([0, 3], [0, 3]), ([1, 4], [1, 4]), ([2], [2])]
    assert started == [2] and mapped == [2, 3]
    assert multiprocessing.active_children() == []


def _open_run_here(_):
    run = constants._open_run.get()
    return None if run is None else (type(run).__name__, len(run.memo))


def test_pooled_work_unpickles_in_a_spawned_worker():
    # a spawned worker imports the package afresh and unpickles what the
    # pool hands it: the kernel's plan and walk with a sum's frontier
    # classes, and the batch's walk with its sum keys
    base, deltas, packed = _sum_of_4096()
    plan = _plan(base, deltas, packed)
    total, nonzero, frontier = _walk(plan, _start(plan), 4)
    case = GroupCase.su(2, 3)
    keys = []
    for form in real_forms(case):
        data = _form_data(case, form)
        keys.append(constants._sum_key(
            data.rs, data.levi, default_lambda(case, form), "orig",
            DEFAULT_TERM_CAP, 1)[0])
    with ProcessPoolExecutor(
            2, mp_context=multiprocessing.get_context("spawn")) as pool:
        parts = list(pool.map(_walk, [plan] * 2,
                              [frontier[c::2] for c in range(2)]))
        sums = list(pool.map(constants._walk_sums, [None] * 2,
                             [keys[c::2] for c in range(2)]))
    assert multiprocessing.active_children() == []
    assert (total + sum(part[0] for part in parts),
            nonzero + sum(part[1] for part in parts)) == _subset_sum(
                base, deltas, packed)
    assert sums == [constants._walk_sums(None, keys[c::2]) for c in range(2)]
    assert len(keys) > 2 and all(lhs for chunk in sums for lhs, _ in chunk)


def test_pool_workers_run_outside_any_run():
    # each worker is forked inside the block; it must not see a stale copy
    # of the run, with its memo and the parent's executor
    with worker_pool() as run:
        run.memo["probe"] = 1
        assert list(run.get(2).map(_open_run_here, range(2))) == [None, None]
        assert _open_run_here(0) == ("_Run", 1)


def test_worker_split_is_exact():
    case = GroupCase.so_odd(2, 3)
    form = get_form(case, 1)
    lam = default_lambda(case, form)
    one = constant_brute_force_orig(case, form, lam=lam, workers=1)
    four = constant_brute_force_orig(case, form, lam=lam, workers=4)
    assert one == four == constant_closed_form(case, form)


KERNEL_COUNTS = pathlib.Path(__file__).parent / "kernel_counts.json"


def test_kernel_counts_are_pinned_per_form():
    # (subsets, nonzero) of every acceptance form at lambda_0, orig always
    # and v2 where rho_n(l) is orthogonal: a kernel change that moves one
    # form's count shows here even where the totals still agree
    counts = {}
    for case in acceptance_cases():
        rs = build_root_system(case)
        for form in real_forms(case):
            levi = levi_data(rs, form.h)
            lam = default_lambda(case, form)
            for variant in ("orig", "v2")[:1 + rho_n_orthogonal(levi)]:
                _, nonzero, subsets = alternating_sum(rs, levi, lam, variant)
                counts[f"{case} {form.index} {variant}"] = [subsets, nonzero]
    assert counts == json.loads(KERNEL_COUNTS.read_text())


@pytest.mark.parametrize("value, error", [
    (0, ValueError), (-2, ValueError), (True, TypeError), (2.0, TypeError),
    (2.5, TypeError), ("2", TypeError), (None, TypeError)])
def test_workers_are_validated_where_they_enter(value, error):
    # the worker count, lambda_candidates' count and both term caps take the
    # same checks, each naming its argument
    case = GroupCase.sp(2)
    rs = build_root_system(case)
    levi = levi_data(rs, get_form(case, 1).h)
    lam = default_lambda(case, 1)
    witness = ".*" + re.escape(repr(value))
    with pytest.raises(error, match="workers" + witness):
        alternating_sum(rs, levi, lam, workers=value)
    with pytest.raises(error, match="term_cap" + witness):
        alternating_sum(rs, levi, lam, term_cap=value)
    with pytest.raises(error, match="term_cap" + witness):
        oracles.surviving_terms(case, 1, term_cap=value)
    with pytest.raises(error, match="count" + witness):
        lambda_candidates(case, 1, count=value)


@pytest.mark.parametrize("seed", [None, 2.5, "0", True])
def test_lambda_candidates_take_only_an_int_seed(seed):
    # None would seed from the OS, so criteria 3 and 5 would not repeat
    with pytest.raises(TypeError, match="seed.*" + re.escape(repr(seed))):
        lambda_candidates(GroupCase.so_even(2, 3), 1, seed=seed)


def test_zero_and_negative_seeds_repeat():
    case = GroupCase.so_even(2, 3)
    for seed in (0, -7):
        assert lambda_candidates(case, 1, seed=seed) == \
            lambda_candidates(case, 1, seed=seed)


def test_a_non_integer_quotient_names_the_case_and_form():
    case = GroupCase.sp(2)
    form = get_form(case, 1)
    ev = Evaluation(case, form, default_lambda(case, form), Fraction(1),
                    Fraction(2), 1, 2)
    with pytest.raises(NonIntegerQuotientError, match=re.escape(
            "LHS / P_LK = 1/2 is not an integer for Sp(4,R) form 1")):
        ev.constant


def _is_shut_down(executor) -> bool:
    try:
        executor.submit(pow, 2, 10)
    except RuntimeError:
        return True
    return False


def test_worker_pool_is_reentrant_and_keeps_one_executor():
    with worker_pool() as pool:
        with worker_pool():
            first = pool.get(2)
        assert pool.get(2) is first          # the inner exit kept it
        assert pool.get(3) is first          # another size shares it
    assert pool.executor is None and _is_shut_down(first)


def test_worker_pool_shuts_down_on_an_exception():
    with pytest.raises(RuntimeError, match="on purpose"):
        with worker_pool() as pool:
            executor = pool.get(2)
            assert executor.submit(pow, 2, 10).result(timeout=60) == 1024
            assert multiprocessing.active_children()
            raise RuntimeError("on purpose")
    assert pool.executor is None and _is_shut_down(executor)
    assert multiprocessing.active_children() == []


def _count_builds(monkeypatch):
    """Calls of the three set-up builders ``constants`` reads, by name."""
    calls = {"build_root_system": 0, "levi_data": 0, "make_dim_poly": 0}
    for name in calls:
        def counted(*args, _build=getattr(constants, name), _name=name):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(constants, name, counted)
    return calls


def test_a_run_sets_up_each_form_once(monkeypatch):
    case = GroupCase.sp(3)
    lams = lambda_candidates(case, 2, count=3)
    calls = _count_builds(monkeypatch)
    with worker_pool():
        values = {_constant(case, 2, lam, variant, DEFAULT_TERM_CAP,
                            1).constant
                  for lam in lams for variant in ("orig", "v2")}
    assert values == {constant_closed_form(case, 2)}
    # one root system and Levi, one P_{L&K} and one P_K
    assert calls == {"build_root_system": 1, "levi_data": 1,
                     "make_dim_poly": 2}


@pytest.mark.parametrize("value", [0, None, (0, 0), 5])
def test_a_run_computes_each_key_once_whatever_its_value(value):
    # a falsy value is memoized like any other; outside a run nothing is
    calls = []

    def compute():
        calls.append(value)
        return value

    for _ in range(2):
        assert _in_run(("probe",), compute) == value
    assert len(calls) == 2
    with worker_pool():
        for _ in range(3):
            assert _in_run(("probe",), compute) == value
    assert len(calls) == 3


def test_nothing_is_set_up_for_longer_than_a_run(monkeypatch):
    case = GroupCase.sp(3)
    calls = _count_builds(monkeypatch)
    for _ in range(2):
        _constant(case, 2, None, "orig", DEFAULT_TERM_CAP, 1)
    assert calls == {"build_root_system": 2, "levi_data": 2,
                     "make_dim_poly": 4}
    for _ in range(2):
        with worker_pool():
            _constant(case, 2, None, "orig", DEFAULT_TERM_CAP, 1)
    assert calls == {"build_root_system": 4, "levi_data": 4,
                     "make_dim_poly": 8}


def test_a_run_walks_a_sum_again_at_another_worker_count(monkeypatch):
    # criterion 9 compares one run's reports at several worker counts: a sum
    # memoized without its worker count would serve the first count's total
    # to the rest, and the check would compare the memo with itself
    walks, started = [], []
    walk, executor = constants._subset_sum, constants.ProcessPoolExecutor

    def walked(*args):
        walks.append(args[-1])
        return walk(*args)

    def counted(*args, **kwargs):
        started.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0, 1})
    monkeypatch.setattr(constants, "_subset_sum", walked)
    monkeypatch.setattr(constants, "ProcessPoolExecutor", counted)
    case = GroupCase.so_odd(3, 3)  # form 1 sums over 2^12 subsets
    with worker_pool():
        one = constant_brute_force_orig(case, 1, workers=1)
        assert walks == [1] and started == []
        two = constant_brute_force_orig(case, 1, workers=2)
        assert walks == [1, 2] and len(started) == 1
    assert one == two == constant_closed_form(case, 1)


def test_each_form_of_a_case_has_its_own_record():
    case = GroupCase.so_even(2, 2)
    with worker_pool():
        records = [_form_data(case, index) for index in (1, 2)]
        assert _form_data(case, get_form(case, 1)) is records[0]
    assert records[0] != records[1]
    for index, record in zip((1, 2), records):
        rs = build_root_system(case)
        form = get_form(case, index)
        levi = levi_data(rs, form.h)
        assert record == (rs, form, levi, levi_k_poly(rs, levi))


def test_auto_sign_relation_examples():
    case = GroupCase.so_odd(2, 2)
    assert auto_sign_relation(case, 1, 1, 2) == -1
    case = GroupCase.so_even(2, 3)
    assert auto_sign_relation(case, 1, 1, 2) == 1
    case = GroupCase.so_even(2, 2)
    forms = real_forms(case)
    assert auto_sign_relation(case, 3, forms[2], forms[3]) == 1


def _flip_pairs():
    """The pairs of criterion 6 as (case, form I or III, its flip, coordinate)."""
    for case in acceptance_cases():
        kinds = {f.kind: f for f in real_forms(case)}
        if case.family in ("so-odd", "so-even") and 2 in kinds:
            yield case, kinds[1], kinds[2], case.p - 1
        if case.family == "so-even" and 4 in kinds:
            yield case, kinds[3], kinds[4], case.rank - 1


def test_flipped_forms_transport_the_kernel_counts_and_constants():
    # the flip carries the terms of form I (III) at lambda_0 one to one onto
    # those of form II (IV) at the flipped lambda_0, with the same P_K value
    pairs = list(_flip_pairs())
    assert sorted((case.family, f2.kind) for case, _, f2, _ in pairs) == (
        [("so-even", 2)] * 5 + [("so-even", 4)] * 2 + [("so-odd", 2)] * 12)
    for case, form1, form2, coord in pairs:
        rs = build_root_system(case)
        lam = default_lambda(case, form1)
        moved = flip(lam, coord)
        _, nonzero1, _ = alternating_sum(rs, levi_data(rs, form1.h), lam)
        _, nonzero2, _ = alternating_sum(rs, levi_data(rs, form2.h), moved)
        tag = (str(case), form2.index)
        assert nonzero1 == nonzero2, tag
        c1 = constant_brute_force_orig(case, form1, lam=lam)
        c2 = constant_brute_force_orig(case, form2, lam=moved)
        assert c2 == auto_sign_relation(case, coord, form1, form2) * c1, tag


def test_flipped_forms_transport_the_terms_one_to_one():
    # with F the pool-A roots of form I (III) that the flip makes negative,
    # the term (A, C, weight, value) of form I maps to the term
    # (flip(A - F) | -flip(F - A), flip(C), flip(weight), value) of form II
    # (IV), and every term of form II is the image of exactly one
    for case, form1, form2, coord in _flip_pairs():
        rs = build_root_system(case)
        positive = set(rs.positive)
        outward = {a for a in levi_data(rs, form1.h).delta_n_plus_l
                   if flip(a, coord) not in positive}

        def image(term):
            kept = {flip(a, coord) for a in set(term.a_set) - outward}
            gained = {tuple(-x for x in flip(a, coord))
                      for a in outward - set(term.a_set)}
            return (frozenset(kept | gained),
                    frozenset(flip(c, coord) for c in term.c_set),
                    flip(term.weight, coord), term.value)

        terms1 = oracles.surviving_terms(case, form1, variant="orig")
        terms2 = oracles.surviving_terms(case, form2, variant="orig")
        images = {image(t) for t in terms1}
        tag = (str(case), form2.index)
        assert len(images) == len(terms1) == len(terms2), tag
        assert images == {(frozenset(t.a_set), frozenset(t.c_set), t.weight,
                           t.value) for t in terms2}, tag


def test_auto_sign_relation_checks_hypotheses():
    # one witness per hypothesis, each the first check that fails
    for case, coord, reason in (
            (GroupCase.su(2, 2), 0, "preserve the root system"),
            (GroupCase.sp(2), 0, "commute with the Cartan involution"),
            (GroupCase.so_odd(2, 2), 2, "preserve the compact positive system"),
            (GroupCase.so_even(2, 2), 3, "map h1 to h2")):
        with pytest.raises(ValueError, match=f"coordinate {coord} does not "
                                             f"{reason}$"):
            auto_sign_relation(case, coord, 1, 2)


@pytest.mark.parametrize("coord, error", [
    (-3, ValueError), (-1, ValueError), (4, ValueError), (True, TypeError),
    (1.0, TypeError), ("1", TypeError)])
def test_auto_sign_relation_validates_the_coordinate(coord, error):
    # SO_e(4,5) has rank 4; -3 would otherwise index coordinate 1
    with pytest.raises(error, match=re.escape(repr(coord)) + ".*rank 4"):
        auto_sign_relation(GroupCase.so_odd(2, 2), coord, 1, 2)


def test_paired_forms_are_flips_of_their_partners():
    for case in acceptance_cases():
        if case.family not in ("so-odd", "so-even"):
            continue
        forms = {f.kind: f for f in real_forms(case)}
        for src, dst, coord in ((1, 2, case.p - 1), (3, 4, case.rank - 1)):
            if dst not in forms:
                continue
            tag = (str(case), dst)
            assert forms[dst].h == flip(forms[src].h, coord), tag
            assert flip(forms[dst].h, coord) == forms[src].h, tag
            lam = default_lambda(case, forms[dst])
            assert lam == flip(default_lambda(case, forms[src]), coord), tag
            assert flip(lam, coord) == default_lambda(case, forms[src]), tag
