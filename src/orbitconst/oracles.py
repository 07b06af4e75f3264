"""Combinatorial characterizations of the nonzero terms, as a second check.

``surviving_terms`` names every subset pair (A, C) that contributes a
nonzero Weyl-polynomial value.  It walks the pool roots depth first, root
m-1 first and root 0 last, so the survivors come out in ascending order of
their subset bit mask, and tests each compact factor once, as soon as the
last root that moves one of its coordinates is decided; a zero there prunes
only subsets whose term is zero.  It shares only the scaled set-up with the
alternating-sum kernel, never its walk, and the test suite checks it
against the naive enumeration of all 2^m subsets.

For each family there is an independent combinatorial description of
exactly those pairs: shuffle-indexed sets for sp and so-star, a unique pair
for the first and third so-odd/so-even forms, and a shared C with a
shuffle-indexed A for su.  Everything here is evaluated at the fixed point
lambda_0 in the rho_n-free (v2) convention the characterizations use.
Every predicted Lambda comes from its own formula; no prediction reads
``default_lambda``, so a wrong lambda_0 cannot make a prediction agree with
the enumeration it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .constants import (DEFAULT_TERM_CAP, _check_positive,
                        _prepare_enumeration, default_lambda,
                        levi_data, levi_k_poly)
from .orbits import RealForm, get_form
from .rootsys import GroupCase, Root, Weight, _e2, build_root_system
from .weylpoly import eval_dim_poly, make_dim_poly


@dataclass(frozen=True)
class SurvivingTerm:
    """One nonzero summand: the subsets, the shifted weight, and P_K there."""

    a_set: tuple[Root, ...]
    c_set: tuple[Root, ...]
    weight: Weight
    value: Fraction


def surviving_terms(case: GroupCase, form: RealForm | int,
                    variant: str = "v2",
                    term_cap: int = DEFAULT_TERM_CAP) -> list[SurvivingTerm]:
    """All (A, C) pairs whose term at lambda_0 is nonzero, with weights and
    values, in ascending order of the subset bit mask over the pool.

    A depth-first walk decides pool root m-1 first and root 0 last, and
    leaves a root out before it adds it, which visits the subsets in
    ascending bit order.  One weight vector is updated in place as roots are
    added and taken out.  Coordinate i is final once no undecided root moves
    it, that is once root ``first[i]`` (the lowest pool index that moves it)
    is decided.  A compact factor on (i, j) is therefore tested exactly when
    root min(first[i], first[j]) is decided, or before the walk starts if no
    root moves it.  Its value there is its value at every leaf below, so a
    zero abandons a branch with no survivor in it, and every leaf that is
    reached has had every factor tested and carries their product.
    """
    _check_positive("term_cap", term_cap)
    rs = build_root_system(case)
    form = get_form(case, form)
    lam = default_lambda(case, form)
    levi = levi_data(rs, form.h)
    pool = levi.delta_n_plus_l + levi.delta_p1
    n_a = len(levi.delta_n_plus_l)
    m = len(pool)
    base, deltas, packed, pk_denominator, scale = _prepare_enumeration(
        rs, levi, lam, variant, term_cap)
    moves = [[(k, d) for k, d in enumerate(delta) if d] for delta in deltas]
    first = [m] * len(base)
    for t in reversed(range(m)):
        for k, _ in moves[t]:
            first[k] = t
    tests = [[] for _ in range(m + 1)]
    for i, ci, j, cj in packed:
        tests[min(first[i], first[j])].append((i, ci, j, cj))
    vec = list(base)
    out = []

    def tested(prod: int, t: int) -> int:
        for i, ci, j, cj in tests[t]:
            f = ci * vec[i] + cj * vec[j]
            if f == 0:
                return 0
            prod *= f
        return prod

    def walk(t: int, bits: int, prod: int) -> None:
        if t == 0:
            a_set = tuple(pool[s] for s in range(n_a) if (bits >> s) & 1)
            c_set = tuple(pool[s] for s in range(n_a, m) if (bits >> s) & 1)
            weight = tuple(Fraction(v, scale) for v in vec)
            out.append(SurvivingTerm(a_set, c_set, weight,
                                     Fraction(prod) / pk_denominator))
            return
        t -= 1
        left_out = tested(prod, t)
        if left_out:
            walk(t, bits, left_out)
        for k, d in moves[t]:
            vec[k] += d
        added = tested(prod, t)
        if added:
            walk(t, bits | 1 << t, added)
        for k, d in moves[t]:
            vec[k] -= d

    prod = tested(1, m)
    if prod:
        walk(m, 0, prod)
    return out


def shuffles(r: int, s: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (r,s)-shuffles: increasing sequences partitioning 1..r+s."""
    universe = range(1, r + s + 1)
    for iseq in combinations(universe, r):
        jseq = tuple(v for v in universe if v not in iseq)
        yield iseq, jseq


def _shuffle_term(n: int, p: int, start: int, iseq: tuple[int, ...],
                  jseq: tuple[int, ...]) -> tuple[set[Root], list[int]]:
    """A and Lambda of the term that the shuffle (iseq, jseq) indexes.

    The first block is coordinates 0..p-1 and the second runs from ``start``
    to n-1: ``start`` is p for sp and for so-star with n even, and p + 1 for
    so-star with n odd, whose coordinate p carries the fixed C.  Coordinates
    outside the two shuffled halves are left 0 in Lambda for the caller.
    """
    a_roots = set()
    lam = [0] * n
    for u, i in enumerate(iseq, 1):
        lam[u - 1] = n + 1 - i
        lam[p - u] = i
        for v, j in enumerate(jseq, 1):
            a_roots.add(_e2(n, p - u, 1, n - v, 1))
            a_roots.add(_e2(n, p - u, 1, start + v - 1, 1) if i < j
                        else _e2(n, u - 1, 1, n - v, 1))
    for v, j in enumerate(jseq, 1):
        lam[start + v - 1] = n + 1 - j
        lam[n - v] = j
    return a_roots, lam


def shuffle_terms_sp(n: int, k: int) -> list[tuple[frozenset[Root], tuple[int, ...]]]:
    """Predicted (A, Lambda) pairs for sp(2n, R) with form parameter k.

    Empty when n is even and k is odd (the parity-zero case).
    """
    p, q = k, n - k
    if n % 2 == 0 and p % 2 == 1:
        return []
    r, s = p // 2, q // 2
    out = []
    for iseq, jseq in shuffles(r, s):
        a_roots, lam = _shuffle_term(n, p, p, iseq, jseq)
        if p % 2 == 1:  # then q is even: n even with p odd returned above
            a_roots.update(_e2(n, r, 1, p + j - 1, 1) for j in range(s + 1, q + 1))
            lam[p - r - 1] = n - r - s
        elif q % 2 == 1:
            a_roots.update(_e2(n, i - 1, 1, p + s, 1) for i in range(r + 1, p + 1))
            lam[n - s - 1] = n - r - s
        out.append((frozenset(a_roots), tuple(lam)))
    return out


def shuffle_terms_so_star(n: int, k: int) -> list[
        tuple[frozenset[Root], frozenset[Root], tuple[int, ...]]]:
    """Predicted (A, C, Lambda) for so*(2n) with (even) form parameter k.

    For n even these are sp's terms with an empty C.
    """
    if k % 2 != 0:
        raise ValueError("so-star form parameter must be even")
    if n % 2 == 0:
        return [(a, frozenset(), lam) for a, lam in shuffle_terms_sp(n, k)]
    p, q = k, n - 1 - k
    r, s = p // 2, q // 2
    c_roots = frozenset(
        [_e2(n, i - 1, 1, p, 1) for i in range(r + 1, p + 1)]
        + [_e2(n, p, -1, p + j, -1) for j in range(1, s + 1)])
    out = []
    for iseq, jseq in shuffles(r, s):
        a_roots, lam = _shuffle_term(n, p, p + 1, iseq, jseq)
        lam[p] = r + s + 1
        out.append((frozenset(a_roots), c_roots, tuple(lam)))
    return out


def su_predicted_c(p: int, q: int, k: int) -> frozenset[Root]:
    """The single C all su survivors share (empty when q = p)."""
    rank = p + q
    return frozenset(_e2(rank, i - 1, 1, j - 1, -1)
                     for i in range(1, k + 1)
                     for j in range(2 * p - k + 1, p + q - k + 1))


def predicted_unique_term(case: GroupCase, form: RealForm | int) -> list[
        tuple[frozenset[Root], frozenset[Root], Weight]]:
    """Survivor list for the so-odd/so-even forms with a full description.

    Covers so-odd forms 1 and 3 and so-even forms 1 and 3.  The third so-odd
    form has no survivors at all.  Each Lambda comes from its own formula,
    at the boundaries too, and never from ``default_lambda``, so the
    prediction is independent of the pipeline it checks.
    """
    form = get_form(case, form)
    p, q = case.p, case.q
    rank = case.rank
    H = Fraction(1, 2)
    if case.family == "so-odd" and form.kind == 1:
        c_set = frozenset(_e2(rank, i - 1, 1, j - 1, -1)
                          for i in range(2, p + 1)
                          for j in range(2 * p, p + q + 1))
        lam = ([H] + [p - H - t for t in range(p - 1)]
               + [-1 - t for t in range(p - 1)]
               + [q - t for t in range(q - p + 1)])
        return [(frozenset(), c_set, tuple(Fraction(x) for x in lam))]
    if case.family == "so-odd" and form.kind == 3:
        return []
    if case.family == "so-even" and form.kind == 1:
        c_set = frozenset(_e2(rank, i - 1, 1, j - 1, -1)
                          for i in range(2, p + 1)
                          for j in range(2 * p, p + q))
        lam = ([H] + [p - H - t for t in range(p - 1)]
               + [-Fraction(3, 2) - t for t in range(p - 1)]
               + [q - H - t for t in range(q - p)] + [H])
        return [(frozenset(), c_set, tuple(Fraction(x) for x in lam))]
    if case.family == "so-even" and form.kind == 3:
        a_set = frozenset(_e2(rank, p - 1, 1, j - 1, -1)
                          for j in range(2 * p + 1, p + q + 1))
        c_set = frozenset(
            [_e2(rank, i - 1, 1, j - 1, -1)
             for i in range(1, p) for j in range(2 * p + 1, p + q + 1)]
            + [_e2(rank, j - 1, 1, p - 1, s)
               for j in range(p + 2, 2 * p + 1) for s in (1, -1)]
            + [_e2(rank, p, 1, i - 1, -1) for i in range(1, p)])
        lam = ([p - H - t for t in range(p - 1)] + [H] + [-H]
               + [-Fraction(3, 2) - t for t in range(p - 1)]
               + [q - H - t for t in range(q - p)])
        return [(a_set, c_set, tuple(Fraction(x) for x in lam))]
    raise ValueError(f"no term characterization for {case} form {form.index}")


def predicted_terms(case: GroupCase, form: RealForm | int) -> list[
        tuple[frozenset[Root], frozenset[Root], Weight]]:
    """The predicted survivors (A, C, Lambda) at lambda_0, one per term.

    Shuffle-indexed for sp and so-star, the unique pair of
    ``predicted_unique_term`` for the other non-su forms it covers (a
    ValueError for the rest).  su has no term-by-term prediction: its
    survivors share one C, which ``check_oracle_against_brute_force`` checks.
    """
    form = get_form(case, form)
    if case.family == "sp":
        terms = [(a, frozenset(), lam)
                 for a, lam in shuffle_terms_sp(case.n, form.kind)]
    elif case.family == "so-star":
        terms = shuffle_terms_so_star(case.n, form.kind)
    else:
        return predicted_unique_term(case, form)
    return [(a, c, tuple(Fraction(x) for x in lam)) for a, c, lam in terms]


def check_oracle_against_brute_force(
        case: GroupCase, form: RealForm | int,
        survivors: Sequence[SurvivingTerm] | None = None) -> bool:
    """Whether the enumerated survivors at lambda_0 match the combinatorial
    prediction.

    ``survivors`` are those of ``surviving_terms(case, form)``; they are
    enumerated here, under the default term cap, when not given.
    """
    form = get_form(case, form)
    if survivors is None:
        survivors = surviving_terms(case, form)
    if case.family == "su":
        p, q, k = case.p, case.q, form.kind
        if len(survivors) != math.comb(p, k):
            return False
        shared = su_predicted_c(p, q, k)
        return all(frozenset(t.c_set) == shared for t in survivors)
    found = {(frozenset(t.a_set), frozenset(t.c_set), t.weight)
             for t in survivors}
    return found == set(predicted_terms(case, form))


def oracle_total_matches(case: GroupCase, form: RealForm | int,
                         c_closed: int) -> bool:
    """Predicted signed total equals c * P_{L&K}(lambda_0)."""
    rs = build_root_system(case)
    form = get_form(case, form)
    levi = levi_data(rs, form.h)
    lam0 = default_lambda(case, form)
    pk = make_dim_poly(rs.compact_positive, case.rank)
    plk = eval_dim_poly(levi_k_poly(rs, levi), lam0)
    total = Fraction(0)
    for a_set, c_set, lam in predicted_terms(case, form):
        sign = (-1) ** (len(a_set) + len(c_set))
        total += sign * eval_dim_poly(pk, lam)
    global_sign = (-1) ** (levi.big_n + len(levi.delta_n_plus_l))
    return global_sign * total == c_closed * plk
