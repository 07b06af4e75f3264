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
exact integer.  The sum over subsets is a dynamic program over partial sums
(``_walk``): subsets with equal partial weight vectors merge into signed and
unsigned counts, and states split into independent classes once a coordinate
is final.  The root that finishes it is added as the states are dealt
(``_open``), so that position's dict is never built and a class is never
filled with states its zero scale drops.  Each P_K factor
``weylpoly.make_dim_poly`` packs is tested in one place: where it finishes
early, once per distinct digits at that position as a class opens, else per
block of factors that share no coordinate, which the leaf reads at each
state and at the state plus the last root, so the last position's dict is
not built either; each memo lasts one walk (``_Plan``).
Roots are walked in the order ``rootorder._order`` reads from the sum.
The closed forms the constants are checked against are in ``closedform``.
Worker processes get work in two deals: ``_subset_sum`` walks a sum's first
roots here and deals the classes reached, scales included, so each state is
walked once; ``verify`` maps ``_subset_sum`` over a criterion's whole sums,
each walked serially, into the run's memo under ``_sum_key``'s key, where
``alternating_sum`` reads them.  Every part is an exact integer, so results
are bit-identical for any worker count.  A ``worker_pool()`` block is one
run: it holds the one executor its pooled work shares, which the outermost
block shuts down, and one memo that goes with it: its evaluations and sums,
each sum's deltas once, each form's record (root system, Levi data,
P_{L&K}) and each case's P_K.  A forked worker is in no run.  A sum outside
any block opens one, and outside one nothing is memoized.
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

from .orbits import RealForm, flip_source, get_form
from .rootorder import _order
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


# ---------------------------------------------------------------------------
# scaled-integer enumeration core


class _Plan(NamedTuple):
    """A fixed walk over the pool roots, with weight vectors packed into ints.

    Coordinate i of a vector v is the digit v_i + bound at bit offset
    width * i, so adding root ``steps[pos]`` is one int addition.  After
    ``pos`` roots, ``cut[pos]`` masks the digits no later root changes, and
    where ``splits[pos]`` the states are split into classes by those digits.
    ``finish[pos]`` is (digits, tests), shaped as a block: the factors whose
    coordinates are all final after ``pos`` roots (and not after fewer), for
    pos < m, and the digits they read; ``finish[m]`` is empty.  ``_open``
    tests them once per distinct digits, not once per class, and drops a
    class they zero before filling it.  ``blocks`` groups the factors that
    only the last root finishes, with ``_blocks``, into blocks that share no
    coordinate, and ``shifts[b]`` is the last root on block b's digits, so
    ``_walk``'s leaf reads a block at k and at k plus the last root.

    A factor test (si, ci, sj, cj, target) gives the compact factor
    ci * v_i + cj * v_j of a key as ci * digit(si) + cj * digit(sj) - target,
    where digit(s) = (key >> s) & mask; a factor on one coordinate has cj = 0.
    """

    base: int
    steps: tuple[int, ...]
    cut: tuple[int, ...]
    splits: tuple[bool, ...]
    finish: tuple[tuple, ...]
    blocks: tuple[tuple[int, tuple], ...]
    shifts: tuple[int, ...]
    mask: int


def _plan(base: Sequence[int], deltas: Sequence[Sequence[int]],
          packed: Sequence[tuple[int, int, int, int]]) -> _Plan | None:
    """The walk for one sum, or None when a factor no root changes is zero.

    That check covers every factor the roots leave unchanged, whether or not
    they touch its coordinates: a zero such factor makes every term 0, which
    ``finish`` and ``blocks`` would find only after walking the whole sum.
    Roots are taken in ``_order``, which reads the base as well as the
    roots: where factors finish first decides how many classes are dropped
    early, and that depends on lambda.
    """
    rank, m = len(base), len(deltas)
    bound = max((abs(b) + sum(abs(d[i]) for d in deltas)
                 for i, b in enumerate(base)), default=0)
    width = (2 * bound + 1).bit_length()
    mask = (1 << width) - 1
    order = _order(base, deltas, packed)
    # done[i]: the number of roots after which coordinate i no longer changes
    done = [1 + max((pos for pos, t in enumerate(order) if deltas[t][i]),
                    default=-1) for i in range(rank)]
    splits = tuple(0 < pos < m and pos in done for pos in range(m + 1))
    finish = [[] for _ in range(m + 1)]
    live = []
    for (i, ci, j, cj) in packed:
        if ci * base[i] + cj * base[j] == 0 and not any(
                ci * d[i] + cj * d[j] for d in deltas):
            return None
        test = (width * i, ci, width * j, cj, (ci + cj) * bound)
        finished = max(done[i], done[j])
        (finish[finished] if finished < m else live).append(test)
    cut = tuple(sum(mask << (width * i) for i in range(rank) if done[i] <= pos)
                for pos in range(m + 1))
    key = sum((b + bound) << (width * i) for i, b in enumerate(base))
    steps = tuple(sum(d << (width * i) for i, d in enumerate(deltas[t]))
                  for t in order)
    finish = tuple((sum({mask << s for t in tests for s in (t[0], t[2])}),
                    tuple(tests)) for tests in finish)
    blocks = _blocks(live, mask)
    # the last root on each block's digits; ``last & digits`` is wrong where
    # the root has a negative entry, which borrows from the digits above it
    last = steps[-1] if steps else 0
    shifts = tuple(((key + last) & digits) - (key & digits)
                   for digits, _ in blocks)
    return _Plan(key, steps, cut, splits, finish, blocks, shifts, mask)


def _blocks(tests: Sequence[tuple], mask: int) -> tuple[tuple[int, tuple], ...]:
    """Group factor tests into blocks that share no coordinate.

    Returns (digit mask, tests) pairs: a block's factors read only the digits
    under its mask.
    """
    blocks = []
    for test in tests:
        digits, members = mask << test[0] | mask << test[2], (test,)
        for block in [b for b in blocks if b[0] & digits]:
            blocks.remove(block)
            digits, members = digits | block[0], block[1] + members
        blocks.append((digits, members))
    return tuple(blocks)


def _open(plan: _Plan, states: dict, pos: int, scale: int, memo: dict,
          step: int | None = None) -> list[tuple[dict, int, int]]:
    """Split ``states``, plus root ``step`` if given, into classes by the
    digits finished after ``pos`` roots.

    ``states`` maps a packed partial sum to (signed, unsigned) subset counts.
    With a ``step`` (root ``pos - 1``), each state is dealt as it is and
    then plus the step, with the opposite sign, merged where the sum meets
    a state, so the position's dict is never built.  A class's scale is
    ``scale`` times the factors ``finish[pos]`` on its digits, taken from
    ``memo`` (position ``pos``'s, keyed on those digits) when its first
    state arrives; a class whose scale is 0 is dropped before it is filled.
    Returns (states, pos, scale) classes: states of different classes never
    merge again.
    """
    cut, mask = plan.cut[pos], plan.mask
    digits, tests = plan.finish[pos]
    classes: dict[int, dict | bool] = {}  # False marks a dropped class
    opened = []
    # the states as they are: distinct keys, so no merge
    for key, value in states.items():
        members = classes.get(key & cut)
        if members is None:
            sub = key & digits
            factor = memo.get(sub)
            if factor is None:
                factor = memo[sub] = _factors(tests, sub, mask)
            members = classes[key & cut] = {} if factor else False
            if factor:
                opened.append((members, pos, scale * factor))
        if members is not False:
            members[key] = value
    if step is None:
        return opened
    # the states plus the step, merged where they meet a state above
    for key, (signed, count) in states.items():
        new = key + step
        members = classes.get(new & cut)
        if members is None:
            sub = new & digits
            factor = memo.get(sub)
            if factor is None:
                factor = memo[sub] = _factors(tests, sub, mask)
            members = classes[new & cut] = {} if factor else False
            if factor:
                opened.append((members, pos, scale * factor))
        if members is not False:
            old = members.get(new)
            members[new] = ((-signed, count) if old is None
                            else (old[0] - signed, old[1] + count))
    return opened


def _factors(tests: tuple, key: int, mask: int) -> int:
    """Product of the factor tests at ``key``; 0 at the first zero factor."""
    out = 1
    for si, ci, sj, cj, target in tests:
        out *= ci * ((key >> si) & mask) + cj * ((key >> sj) & mask) - target
        if not out:
            return 0
    return out


def _walk(plan: _Plan, stack: list,
          stop: int | None = None) -> tuple[int, int, list]:
    """Walk the classes on ``stack`` to root ``stop``, by default the last,
    splitting them where digits finish, with one ``_open`` memo per position
    for this call.

    Where the root just added splits the states, ``_open`` adds it as it
    deals them, so no dict of that position is built.  A walk to the last
    root stops one root short: the leaf reads each state k at k and at k
    plus the last root, whose subsets have the opposite sign, so a class
    adds its scale times the sum of its states' signed * (F(k) - F(k +
    last)), F the product of the blocks, and the last position's dict is
    never built.  Each block memoizes, for this call, its value on its
    digits, so each digit string is evaluated once, and the pair of values
    at a state's digits, so a state reads both in one lookup.
    A zero product is not a nonzero term.  With no roots the leaf reads the
    base alone.  Returns (total, nonzero-term count, frontier): the frontier
    holds the classes that stop short of the last root.
    """
    steps, splits, mask = plan.steps, plan.splits, plan.mask
    m = len(steps)
    stop = m if stop is None else stop
    fold = int(0 < stop == m)  # 1 where the leaf reads the last root
    blocks = [(digits, shift, tests, {}, {}) for (digits, tests), shift
              in zip(plan.blocks, plan.shifts)]
    memos = [{} for _ in splits]
    total = nonzero = 0
    frontier = []
    while stack:
        states, pos, scale = stack.pop()
        while pos < stop - fold:
            # add root ``pos`` to every subset, in ``_open`` at a split
            step = steps[pos]
            pos += 1
            if splits[pos]:
                stack += _open(plan, states, pos, scale, memos[pos], step)
                break
            out = dict(states)
            get = out.get
            for key, (signed, count) in states.items():
                new = key + step
                old = get(new)
                out[new] = ((-signed, count) if old is None
                            else (old[0] - signed, old[1] + count))
            states = out
        else:
            if stop < m:
                frontier.append((states, pos, scale))
                continue
            part = 0
            for key, (signed, count) in states.items():
                here, there = 1, fold  # F(k), and F(k + last) if any
                for digits, shift, tests, pairs, values in blocks:
                    sub = key & digits
                    pair = pairs.get(sub)
                    if pair is None:
                        f0 = values.get(sub)
                        if f0 is None:
                            f0 = values[sub] = _factors(tests, sub, mask)
                        moved = sub + shift
                        f1 = values.get(moved)
                        if f1 is None:
                            f1 = values[moved] = _factors(tests, moved, mask)
                        pair = pairs[sub] = (f0, f1)
                    here *= pair[0]
                    there *= pair[1]
                    if not (here or there):
                        break
                else:
                    nonzero += count * ((here != 0) + (there != 0))
                    part += signed * (here - there)
            total += part * scale
    return total, nonzero, frontier


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


def _subset_sum(base: Sequence[int], deltas: Sequence[Sequence[int]],
                packed: Sequence[tuple[int, int, int, int]],
                workers: int = 1) -> tuple[int, int]:
    """Sum over subsets S of the pool of (-1)^#S times the product of the
    packed factors at base + sum(deltas[S]), and the number of nonzero terms.

    The one place a sum is split.  A sum of at least 2^12 subsets is dealt
    when ``_processes(workers)`` is more than one: it walks min(m,
    workers.bit_length() + 2) of its m roots here and deals the frontier
    classes, scales included, whole and round-robin into min(workers,
    classes) chunks to the run's executor, so every state is walked once.
    Any other sum, and a frontier of one class, is walked here.
    """
    plan = _plan(base, deltas, packed)
    if plan is None:
        return 0, 0
    m = len(deltas)
    processes = _processes(workers) if m >= 12 else 1
    depth = min(m, workers.bit_length() + 2) if processes > 1 else m
    total, nonzero, frontier = _walk(
        plan, _open(plan, {plan.base: (1, 1)}, 0, 1, {}), depth)
    size = min(workers, len(frontier))
    if size <= 1:
        parts = [_walk(plan, frontier)]
    else:
        with worker_pool() as run:
            parts = list(run.get(processes).map(
                _walk, [plan] * size,
                [frontier[w::size] for w in range(size)]))
    return (total + sum(t for t, _, _ in parts),
            nonzero + sum(n for _, n, _ in parts))


def _scale_for(lam: Weight) -> int:
    """Twice the lcm of lam's denominators: it scales lam and rho_n(l), a
    half sum of roots, to integers."""
    return 2 * _integral(lam)[1]


def _prepare_enumeration(rs: RootSystem, levi: LeviData, lam: Weight,
                         variant: str, term_cap: int):
    """Scaled base vector, per-root deltas and packed P_K numerator; first
    ``ValueError`` for an unknown ``variant``, then ``TermCapExceeded`` if
    the pool's 2^m subsets are over ``term_cap``."""
    if variant not in ("orig", "v2"):
        raise ValueError(f"unknown variant {variant!r}")
    count = 1 << (len(levi.delta_n_plus_l) + len(levi.delta_p1))
    if count > term_cap:
        raise TermCapExceeded(count, term_cap)
    v, den = _integral(lam)
    scale = 2 * den  # _scale_for(lam), which oracles divides by
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
    return tuple(base), tuple(deltas), pk.factors, pk_denominator


def _check_positive(name: str, value) -> None:
    """Raise unless ``value`` is an int (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _sum_key(rs, levi, lam, variant, term_cap, workers):
    """The run's key for a sum's (total, nonzero), ("sum", base, deltas,
    packed, workers), on the run's one copy of the deltas, and
    ``_prepare_enumeration``'s four values.  Refuses a ``workers`` or
    ``term_cap`` that is not an int of at least 1, then v2 unless rho_n(l)
    is orthogonal to the compact Levi roots, then as ``_prepare_enumeration``
    does."""
    _check_positive("workers", workers)
    _check_positive("term_cap", term_cap)
    if variant == "v2" and not rho_n_orthogonal(levi):
        raise OrthogonalityError(
            "rho_n(l) is not orthogonal to the compact Levi roots")
    base, deltas, packed, _ = prepared = _prepare_enumeration(
        rs, levi, lam, variant, term_cap)
    deltas = _in_run(("deltas", deltas), lambda: deltas)
    return ("sum", base, deltas, packed, workers), prepared


def alternating_sum(rs: RootSystem, levi: LeviData, lam: Weight,
                    variant: str = "orig", term_cap: int = DEFAULT_TERM_CAP,
                    workers: int = 1) -> tuple[Fraction, int, int]:
    """Left-hand side of the defining equation at ``lam``: (LHS value,
    number of nonzero terms, total term count).  Refuses as ``_sum_key``
    does.  The sum is memoized in the run under that key, where a batch may
    have put it; else ``workers`` splits it as ``_subset_sum`` decides."""
    key, (base, deltas, packed, pk_denominator) = _sum_key(
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
