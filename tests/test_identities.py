"""Exact identities behind the alternating sum, on all 123 acceptance forms.

* A certified polynomial identity: brute force equals the closed form at
  random lambda far from lambda_0 (Schwartz-Zippel).
* The degree count: each of the m pool roots lowers the degree of P_K by
  one, and what is left is the degree of P_{L&K}.
* The v2 shift: the rewritten sum at lambda is the original sum at
  lambda - rho_n(l), whether or not rho_n(l) is orthogonal.
"""

import random
from fractions import Fraction

from orbitconst import (alternating_sum, build_root_system,
                        constant_brute_force_orig, constant_closed_form,
                        default_lambda, eval_dim_poly, levi_data, levi_k_poly,
                        real_forms, rho_n_orthogonal)
from orbitconst.constants import (DEFAULT_TERM_CAP, _prepare_enumeration,
                                  _subset_sum)
from orbitconst.verify import acceptance_cases

SPREAD = 1 << 20


def _forms():
    for case in acceptance_cases():
        rs = build_root_system(case)
        for form in real_forms(case):
            yield case, form, rs, levi_data(rs, form.h)


def test_brute_force_equals_the_closed_form_at_random_lambda():
    """Two draws lambda = lambda_0 + U[0, 2^20) per coordinate, per form.

    D = LHS - c * P_{L&K} is a polynomial of degree at most d = |Delta_c^+|
    (P_K has degree d, and each pool root's difference lowers it), and so is
    D(lambda_0 + x) in x.  By the Schwartz-Zippel lemma (Schwartz, J. ACM
    27(4), 1980; Zippel, EUROSAM 1979), a nonzero D vanishes at a uniform
    point of [0, 2^20)^rank with probability at most d / 2^20 per draw,
    about 2^-15 in this range, so agreement at two independent draws leaves
    a chance of at most about 2^-30 that the identity fails as polynomials.
    A draw where P_{L&K} = 0 cannot be divided by and is drawn again; such
    a point is a root of P_{L&K}, whose probability has the same bound.
    """
    rng = random.Random(20)
    for case, form, rs, levi in _forms():
        plk = levi_k_poly(rs, levi)
        lam0 = default_lambda(case, form)
        expected = constant_closed_form(case, form)
        draws = 0
        while draws < 2:
            lam = tuple(x + rng.randrange(SPREAD) for x in lam0)
            if eval_dim_poly(plk, lam) == 0:
                continue
            draws += 1
            assert constant_brute_force_orig(case, form, lam) == expected, \
                (str(case), form.index, lam)


def test_degree_count():
    # |Delta_c^+| - m = |Delta^+(l & k)|, m the pool size
    forms = list(_forms())
    assert len(forms) == 123
    for case, form, rs, levi in forms:
        m = len(levi.delta_n_plus_l) + len(levi.delta_p1)
        assert len(rs.compact_positive) - m == len(levi.delta_lk_plus), \
            (str(case), form.index)


def _raw_v2(rs, levi, lam):
    """The v2 sum at ``lam``, also where ``alternating_sum`` refuses it."""
    base, deltas, packed, pk_denominator, _ = _prepare_enumeration(
        rs, levi, lam, "v2", DEFAULT_TERM_CAP)
    total, _ = _subset_sum(base, deltas, packed)
    sign = (-1) ** (levi.big_n + len(levi.delta_n_plus_l))
    return Fraction(sign * total) / pk_denominator


def test_v2_sum_is_the_orig_sum_shifted_by_rho_n():
    # passing to the complement of A turns one sum into the other:
    # v2(lambda) = orig(lambda - rho_n(l)) = c * P_{L&K}(lambda - rho_n(l)),
    # which is c * P_{L&K}(lambda) for every lambda exactly when rho_n(l) is
    # orthogonal to Delta^+(l & k); at the five criterion-4 witnesses it is
    # not, and the v2 sum misses c * P_{L&K}(lambda_0)
    witnesses = 0
    for case, form, rs, levi in _forms():
        tag = (str(case), form.index)
        lam = default_lambda(case, form)
        shifted = tuple(x - r for x, r in zip(lam, levi.rho_n_l))
        v2 = _raw_v2(rs, levi, lam)
        c, plk = constant_closed_form(case, form), levi_k_poly(rs, levi)
        assert v2 == alternating_sum(rs, levi, shifted, "orig")[0], tag
        assert v2 == c * eval_dim_poly(plk, shifted), tag
        if rho_n_orthogonal(levi):
            assert v2 == alternating_sum(rs, levi, lam, "v2")[0], tag
        else:
            witnesses += 1
            assert v2 != c * eval_dim_poly(plk, lam), tag
    assert witnesses == 5
