"""Levi data of real forms and the brute-force constants.

The constant c attached to a real form with neutral element h is defined by
the alternating sum

    (-1)^N sum_{A, C} (-1)^(#A + #C) P_K(lambda - rho_n(l) + 2 rho(A) - 2 rho(C))
        = c * P_{L&K}(lambda),

where A runs over subsets of the noncompact positive roots vanishing on h,
C over subsets of the noncompact roots taking the value 1 on h, N counts the
positive roots strictly positive on h, and rho_n(l) is HALF the sum of the
A-pool (the convention under which passing to the complement of A is an
identity).  When rho_n(l) is orthogonal to the compact roots of the Levi, the
equivalent second form drops the rho_n shift:

    (-1)^(N + #pool_A) sum_{A, C} (-1)^(#A + #C) P_K(lambda - 2 rho(A) - 2 rho(C))
        = c * P_{L&K}(lambda).

Evaluation is exact: weights are scaled to integer vectors, each subset term
is an integer product, and the single division at the end is checked to be an
exact integer.  ``kernel`` plans and walks the sum over subsets.
The closed forms the constants are checked against are in ``closedform``.
Worker processes get work by one rule, ``_deal``'s: ``_subset_sum`` walks a
sum's first roots here and deals the classes reached, scales included, so
each state is walked once; ``_prewalk`` deals, for a batch of evaluations
(``verify``'s criteria 3 and 4), the whole sums whose ``_sum_key`` the run's
memo does not hold, each walked serially, into the memo under that key,
where ``alternating_sum`` reads them.  Only this module reads or writes the
run's memo.  Every part is an exact integer, so results are bit-identical for
any worker count.  A ``worker_pool()`` block is one run: it holds the one
executor its pooled work shares, which the outermost block shuts down, and
one memo that goes with it: its evaluations and sums, each sum's deltas
once, each form's record (root system, Levi data, P_{L&K}) and each case's
P_K.  A forked worker is in no run.  A sum outside any block opens one, and
outside one nothing is memoized.
"""

from __future__ import annotations

import operator
import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .kernel import _open, _plan, _walk
from .orbits import RealForm, flip_source, get_form
from .rootsys import (GroupCase, Root, RootSystem, Weight, _integral,
                      build_root_system, flip, half_sum, pairings)
from .weylpoly import DimPoly, eval_dim_poly, make_dim_poly

DEFAULT_TERM_CAP = 1 << 24


class TermCapExceeded(Exception):
    """The combined subset count is above the configured cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(f"enumeration needs {required} subsets, cap is {cap}")
        self.required = required
        self.cap = cap


class LambdaDegenerateError(Exception):
    """P_{L&K}(lambda) = 0, so the defining equation cannot be divided."""


class OrthogonalityError(Exception):
    """rho_n(l) is not orthogonal to the Levi's compact roots."""


class NonIntegerQuotientError(Exception):
    """The quotient LHS / P_{L&K}(lambda) is not an integer (defect signal)."""


@dataclass(frozen=True)
class LeviData:
    """Root data of the theta-stable Levi attached to h.

    ``delta_n_plus_l``: noncompact positive roots vanishing on h.
    ``delta_p1``: noncompact roots (both signs) taking the value 1 on h.
    ``delta_lk_plus``: compact positive roots vanishing on h.
    ``rho_n_l``: half the sum of ``delta_n_plus_l``.
    ``big_n``: number of positive roots strictly positive on h.
    """

    delta_n_plus_l: tuple[Root, ...]
    delta_p1: tuple[Root, ...]
    delta_lk_plus: tuple[Root, ...]
    rho_n_l: Weight
    big_n: int


@dataclass(frozen=True)
class Evaluation:
    """Both sides of the defining equation for one form at ``lam``.

    ``lhs``: the alternating sum.  ``plk``: P_{L&K}(lam).  ``nonzero`` and
    ``subsets``: the nonzero terms and all terms of the sum.
    """

    case: GroupCase
    form: RealForm
    lam: Weight
    lhs: Fraction
    plk: Fraction
    nonzero: int
    subsets: int

    @property
    def constant(self) -> int:
        """The exact integer c = LHS / P_{L&K}(lam)."""
        where = f"{self.case} form {self.form.index}"
        if self.plk == 0:
            raise LambdaDegenerateError(
                f"P_LK vanishes at lambda={self.lam} for {where}")
        c = self.lhs / self.plk
        if c.denominator != 1:
            raise NonIntegerQuotientError(
                f"LHS / P_LK = {c} is not an integer for {where}")
        return int(c)


def levi_data(rs: RootSystem, h: Sequence[int]) -> LeviData:
    """Classify every root of ``rs`` against h, which must have its rank."""
    if len(h) != rs.case.rank:
        raise ValueError(f"h has length {len(h)} but {rs.case} has rank "
                         f"{rs.case.rank}")
    compact = rs.compact_set()
    on_h = {a: sum(map(operator.mul, a, h)) for a in rs.all_roots()}
    delta_n = tuple(a for a in rs.noncompact_positive if on_h[a] == 0)
    delta_p1 = tuple(sorted(
        a for a in on_h if a not in compact and on_h[a] == 1))
    delta_lk = tuple(a for a in rs.compact_positive if on_h[a] == 0)
    big_n = sum(1 for a in rs.positive if on_h[a] > 0)
    return LeviData(delta_n, delta_p1, delta_lk,
                    half_sum(delta_n, rs.case.rank), big_n)


def rho_n_orthogonal(levi: LeviData) -> bool:
    """Whether rho_n(l) pairs to zero with every compact Levi root."""
    return not any(pairings(levi.rho_n_l, levi.delta_lk_plus))


class _Run:
    """One run: the executor its pooled work shares, and the memo ``_in_run``
    fills, which a batch of sums may also fill ahead of their evaluations."""

    def __init__(self):
        self.executor = None
        self.memo = {}

    def get(self, size: int) -> ProcessPoolExecutor:
        """The executor, started with ``size`` processes by the run's first
        pooled work; all later work of the run shares it."""
        if self.executor is None:
            self.executor = ProcessPoolExecutor(max_workers=size)
        return self.executor


_open_run: ContextVar[_Run | None] = ContextVar("run", default=None)
if hasattr(os, "register_at_fork"):  # a pool worker starts in no run
    os.register_at_fork(after_in_child=lambda: _open_run.set(None))


@contextmanager
def worker_pool() -> Iterator[_Run]:
    """A block that is one run (``_Run``); each CLI command is one.
    Entering a block while one is open in the same thread joins it; the
    outermost block shuts the executor down when it exits, also on an
    exception, and drops the memo with the run."""
    run = _open_run.get()
    if run is not None:
        yield run
        return
    run = _Run()
    token = _open_run.set(run)
    try:
        yield run
    finally:
        _open_run.reset(token)
        executor, run.executor = run.executor, None
        if executor is not None:
            executor.shutdown(cancel_futures=True)


_MISSING = object()  # no memoized value is this object


def _in_run(key, compute):
    """``compute()``, memoized on ``key`` in the open run; outside any
    ``worker_pool()`` block it is called afresh, so nothing is kept."""
    run = _open_run.get()
    if run is None:
        return compute()
    value = run.memo.get(key, _MISSING)
    if value is _MISSING:
        value = run.memo[key] = compute()
    return value


class _FormData(NamedTuple):
    """What a form's evaluations derive from (case, form) alone."""

    rs: RootSystem
    form: RealForm
    levi: LeviData
    plk: DimPoly


def _form_data(case: GroupCase, form: RealForm | int) -> _FormData:
    """The form's record, built once per run; its root system once per case."""
    form = get_form(case, form)

    def build():
        rs = _in_run(("rs", case), lambda: build_root_system(case))
        levi = levi_data(rs, form.h)
        return _FormData(rs, form, levi, levi_k_poly(rs, levi))

    return _in_run(("form", case, form), build)


def _processes(workers):
    """The processes pooled work at ``workers`` is dealt to: at most the
    CPUs this process may run on."""
    return min(workers, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _deal(walk, shared, units: list, workers: int) -> list:
    """(chunk, ``walk(shared, chunk)``) for ``units`` dealt round-robin by
    position into min(workers, units) chunks: the one map of the run's
    executor, one task per chunk.  A lone chunk is walked here, no pool."""
    size = min(workers, len(units))
    if size <= 1:
        return [(units, walk(shared, units))]
    chunks = [units[c::size] for c in range(size)]
    with worker_pool() as run:
        return list(zip(chunks, run.get(_processes(workers)).map(
            walk, [shared] * size, chunks)))


def _subset_sum(base: Sequence[int], deltas: Sequence[Sequence[int]],
                packed: Sequence[tuple[int, int, int, int]],
                workers: int = 1) -> tuple[int, int]:
    """Sum over subsets S of the pool of (-1)^#S times the product of the
    packed factors at base + sum(deltas[S]), and the number of nonzero terms.

    The one place a sum is split.  A sum of at least 2^12 subsets is split
    when ``_processes(workers)`` is more than one: it walks min(m,
    workers.bit_length() + 2) of its m roots here and ``_deal``s the
    frontier classes, scales included, whole, so every state is walked once.
    Any other sum is walked here.
    """
    plan = _plan(base, deltas, packed)
    if plan is None:
        return 0, 0
    m = len(deltas)
    processes = _processes(workers) if m >= 12 else 1
    depth = min(m, workers.bit_length() + 2) if processes > 1 else m
    total, nonzero, frontier = _walk(
        plan, _open(plan, {plan.base: (1, 1)}, 0, 1, {}), depth)
    for _, (part, count, _) in _deal(_walk, plan, frontier, workers):
        total, nonzero = total + part, nonzero + count
    return total, nonzero


def _walk_sums(_, keys: list) -> list[tuple[int, int]]:
    """Each sum of ``keys`` (``_sum_key``'s), walked serially: a batch's
    ``_deal`` walk, at module level so a worker can unpickle it."""
    return [_subset_sum(*key[1:4]) for key in keys]


def _prepare_enumeration(rs: RootSystem, levi: LeviData, lam: Weight,
                         variant: str, term_cap: int):
    """Scaled base vector, per-root deltas, packed P_K numerator, P_K's
    denominator and the scale, twice the lcm of lam's denominators, which
    scales lam and rho_n(l), a half sum of roots, to integers; first
    ``ValueError`` for an unknown ``variant``, then ``TermCapExceeded`` if
    the pool's 2^m subsets are over ``term_cap``."""
    if variant not in ("orig", "v2"):
        raise ValueError(f"unknown variant {variant!r}")
    count = 1 << (len(levi.delta_n_plus_l) + len(levi.delta_p1))
    if count > term_cap:
        raise TermCapExceeded(count, term_cap)
    v, den = _integral(lam)
    scale = 2 * den
    base = [2 * x for x in v]
    if variant == "orig":
        base = [b - r.numerator * (scale // r.denominator)
                for b, r in zip(base, levi.rho_n_l)]
        deltas = [tuple(scale * c for c in a) for a in levi.delta_n_plus_l]
    else:
        deltas = [tuple(-scale * c for c in a) for a in levi.delta_n_plus_l]
    deltas += [tuple(-scale * c for c in a) for a in levi.delta_p1]
    pk = _in_run(("P_K", rs.case),
                 lambda: make_dim_poly(rs.compact_positive, rs.case.rank))
    pk_denominator = scale ** len(pk.factors) * pk.norm
    return tuple(base), tuple(deltas), pk.factors, pk_denominator, scale


def _check_positive(name: str, value) -> None:
    """Raise unless ``value`` is an int (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _sum_key(rs, levi, lam, variant, term_cap, workers):
    """The run's key for a sum's (total, nonzero), ("sum", base, deltas,
    packed, workers), on the run's one copy of the deltas, and
    ``_prepare_enumeration``'s five values.  Refuses a ``workers`` or
    ``term_cap`` that is not an int of at least 1, then v2 unless rho_n(l)
    is orthogonal to the compact Levi roots, then as ``_prepare_enumeration``
    does."""
    _check_positive("workers", workers)
    _check_positive("term_cap", term_cap)
    if variant == "v2" and not rho_n_orthogonal(levi):
        raise OrthogonalityError(
            "rho_n(l) is not orthogonal to the compact Levi roots")
    base, deltas, packed, *_ = prepared = _prepare_enumeration(
        rs, levi, lam, variant, term_cap)
    deltas = _in_run(("deltas", deltas), lambda: deltas)
    return ("sum", base, deltas, packed, workers), prepared


def _prewalk(evaluations, term_cap, workers) -> None:
    """Walk, as one batch, the sums of ``evaluations`` ((case, form, lam,
    variant) each) that the open run does not hold.

    A sum whose ``_sum_key`` the run's memo holds is left out, whichever
    evaluation walked it, and so is one that key refuses
    (``TermCapExceeded``, or v2's ``OrthogonalityError``), so its evaluation
    raises as it would have.  The other keys are ``_deal``t, in the order
    collected, to ``_walk_sums``, which walks each sum serially, and each
    total goes into the memo under its key, where ``alternating_sum`` reads
    it.  Outside a run, or at one process, nothing is walked here.
    """
    _check_positive("workers", workers)
    run = _open_run.get()
    if run is None or _processes(workers) == 1:
        return
    keys = {}  # an ordered set
    for case, form, lam, variant in evaluations:
        data = _form_data(case, form)
        try:
            key, _ = _sum_key(data.rs, data.levi, lam, variant, term_cap,
                              workers)
        except (OrthogonalityError, TermCapExceeded):
            continue
        if key not in run.memo:
            keys[key] = None
    for chunk, sums in _deal(_walk_sums, None, list(keys), workers):
        run.memo.update(zip(chunk, sums))


def alternating_sum(rs: RootSystem, levi: LeviData, lam: Weight,
                    variant: str = "orig", term_cap: int = DEFAULT_TERM_CAP,
                    workers: int = 1) -> tuple[Fraction, int, int]:
    """Left-hand side of the defining equation at ``lam``: (LHS value,
    number of nonzero terms, total term count).  Refuses as ``_sum_key``
    does.  The sum is memoized in the run under that key, where a batch may
    have put it; else ``workers`` splits it as ``_subset_sum`` decides."""
    key, (base, deltas, packed, pk_denominator, _) = _sum_key(
        rs, levi, lam, variant, term_cap, workers)
    total, nonzero = _in_run(
        key, lambda: _subset_sum(base, deltas, packed, workers))
    exponent = levi.big_n + (len(levi.delta_n_plus_l) if variant == "v2" else 0)
    signed = -total if exponent % 2 else total
    return Fraction(signed) / pk_denominator, nonzero, 1 << len(deltas)


def levi_k_poly(rs: RootSystem, levi: LeviData) -> DimPoly:
    """Weyl dimension polynomial of the compact part of the Levi."""
    return make_dim_poly(levi.delta_lk_plus, rs.case.rank)


def _as_weight(lam: Sequence) -> Weight:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in lam)


def _constant(case: GroupCase, form: RealForm | int, lam: Sequence | None,
              variant: str, term_cap: int, workers: int) -> Evaluation:
    """The one evaluation pipeline: the form's record, P_{L&K}(lam) and the
    alternating sum, at lambda_0 when ``lam`` is None."""
    data = _form_data(case, form)
    lam = (_as_weight(lam) if lam is not None
           else default_lambda(case, data.form))
    plk = eval_dim_poly(data.plk, lam)
    lhs, nonzero, subsets = alternating_sum(data.rs, data.levi, lam, variant,
                                            term_cap, workers)
    return Evaluation(case, data.form, lam, lhs, plk, nonzero, subsets)


def constant_brute_force_orig(case: GroupCase, form: RealForm | int,
                              lam: Sequence | None = None,
                              term_cap: int = DEFAULT_TERM_CAP,
                              workers: int = 1) -> int:
    """c from the defining alternating sum, original form."""
    return _constant(case, form, lam, "orig", term_cap, workers).constant


def constant_brute_force_v2(case: GroupCase, form: RealForm | int,
                            lam: Sequence | None = None,
                            term_cap: int = DEFAULT_TERM_CAP,
                            workers: int = 1) -> int:
    """c from the rewritten sum (requires rho_n(l) orthogonality)."""
    return _constant(case, form, lam, "v2", term_cap, workers).constant


def brute_force_sum(case: GroupCase, form: RealForm | int,
                    lam: Sequence | None = None, variant: str = "orig",
                    term_cap: int = DEFAULT_TERM_CAP,
                    workers: int = 1) -> Fraction:
    """Raw LHS of the defining equation (not divided by P_{L&K})."""
    return _constant(case, form, lam, variant, term_cap, workers).lhs


# ---------------------------------------------------------------------------
# evaluation points


def default_lambda(case: GroupCase, form: RealForm | int) -> Weight:
    """The fixed evaluation point lambda_0 of the family and form.

    Each family and form has one formula, valid at the boundaries too
    (p = 1, q = p - 1, k = 0 or n - 1), where its empty ranges drop out.
    sp and so-star with n even share theirs.  The II-variant forms (so-odd
    form 2, so-even forms 2 and 4) take the lambda_0 of their
    ``flip_source`` form, flipped as the form's h is.
    """
    p, q, n, k = case.p, case.q, case.n, get_form(case, form).kind
    H = Fraction(1, 2)
    if case.family == "su":
        left = [q - i for i in range(k)] + [p - i for i in range(p - k)]
        right = ([p - k - i for i in range(p - k)]
                 + [q - k - i for i in range(q - p)]
                 + [k - i for i in range(k)])
        return _as_weight(left + right)
    if case.family == "sp" or (case.family == "so-star" and n % 2 == 0):
        return _as_weight([n - i for i in range(k)] + [n - i for i in range(n - k)])
    if case.family == "so-star":
        return _as_weight([n - i for i in range(k)] + [k + 1]
                          + [n - 1 - i for i in range(n - 1 - k)])
    # so-odd and so-even
    if (source := flip_source(case, k)) is not None:
        return flip(default_lambda(case, source[0]), source[1])
    if case.family == "so-odd" and k == 1:
        return _as_weight([H] + [q + H - i for i in range(p - 1)]
                          + [-1 - i for i in range(p - 1)]
                          + [q - p + 1 - i for i in range(q - p + 1)])
    if case.family == "so-odd":  # third real form, q >= p >= 1
        return _as_weight([q - 1 - H - i for i in range(p - 1)] + [q - p + H]
                          + [p - 1] + [-i for i in range(p - 1)]
                          + [q - p - i for i in range(q - p)])
    if k == 1:  # so-even from here
        return _as_weight([H] + [q - H - i for i in range(p - 1)]
                          + [-1 - H - i for i in range(p - 1)]
                          + [q - p + H - i for i in range(q - p + 1)])
    return _as_weight([q - 1 - H - i for i in range(p - 1)] + [q - p + H]
                      + [p - 1 - H] + [H - i for i in range(p - 1)]
                      + [q - p - H - i for i in range(q - p)])


def lambda_candidates(case: GroupCase, form: RealForm | int, count: int = 3,
                      seed: int = 0) -> list[Weight]:
    """lambda_0 plus pseudo-random regular shifts with P_{L&K} nonzero.

    Shifts are nonnegative integer combinations of the partial-sum weights
    (1,..,1,0,..,0); candidates with P_{L&K}(lambda) = 0 are rejected.
    ``seed`` must be an int, so the shifts are reproducible.
    """
    _check_positive("count", count)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {seed!r}")
    plk = _form_data(case, form).plk
    lam0 = default_lambda(case, form)
    if eval_dim_poly(plk, lam0) == 0:
        raise LambdaDegenerateError(f"lambda_0 is degenerate for {case}")
    chosen = [lam0]
    rng = random.Random(seed)
    attempts = 0
    while len(chosen) < count:
        attempts += 1
        if attempts > 500:
            raise LambdaDegenerateError(
                f"could not find {count} non-degenerate lambdas for {case}")
        # draws[i] times (1,..,1,0,..,0), with i + 1 ones, summed over i
        draws = [rng.randint(0, 3) for _ in range(case.rank)]
        lam = tuple(x + sum(draws[j:]) for j, x in enumerate(lam0))
        if lam not in chosen and eval_dim_poly(plk, lam) != 0:
            chosen.append(lam)
    return chosen


# ---------------------------------------------------------------------------
# automorphism sign relation


def auto_sign_relation(case: GroupCase, coord: int,
                       form1: RealForm | int, form2: RealForm | int) -> int:
    """Sign s with c(form2) = s * c(form1) under ``flip`` at ``coord`` (0-based).

    The flip must permute the roots, respect the compact/noncompact split,
    preserve the compact positive system, and carry h1 to h2.
    """
    if isinstance(coord, bool) or not isinstance(coord, int):
        raise TypeError(f"coordinate {coord!r} of rank {case.rank} is not an int")
    if not 0 <= coord < case.rank:
        raise ValueError(f"coordinate {coord} is outside 0..{case.rank - 1} "
                         f"(rank {case.rank})")
    one, two = _form_data(case, form1), _form_data(case, form2)
    rs = one.rs
    compact = rs.compact_set()
    images = {r: flip(r, coord) for r in rs.all_roots()}
    what = f"flipping coordinate {coord} does not"
    if any(img not in images for img in images.values()):
        raise ValueError(f"{what} preserve the root system")
    if any((r in compact) != (img in compact) for r, img in images.items()):
        raise ValueError(f"{what} commute with the Cartan involution")
    if {images[r] for r in rs.compact_positive} != set(rs.compact_positive):
        raise ValueError(f"{what} preserve the compact positive system")
    if flip(one.form.h, coord) != two.form.h:
        raise ValueError(f"{what} map h1 to h2")
    positive = set(rs.positive)
    flipped = sum(images[a] not in positive for a in one.levi.delta_n_plus_l)
    return (-1) ** (flipped + one.levi.big_n + two.levi.big_n)
