"""The subset-sum kernel: the sum over subsets S of a pool of roots of
(-1)^#S times the packed factors' product at base + sum(deltas[S]).

The sum is a dynamic program over partial sums (``_walk``): subsets with
equal partial weight vectors merge into signed and unsigned counts, and
states split into independent classes once a coordinate is final.  The root
that finishes it is added as the states are dealt (``_open``), so that
position's dict is never built and a class is never filled with states its
zero scale drops.  Each P_K factor ``weylpoly.make_dim_poly`` packs is
tested in one place: where it finishes early, once per distinct digits at
that position as a class opens, else per block of factors that share no
coordinate, which the leaf reads at each state and at the state plus the
last root, so the last position's dict is not built either; each memo lasts
one walk (``_Plan``).

Roots are walked in the order ``_order`` reads from the sum.  The order
changes no total or nonzero count, only the work: it decides where
coordinates finish, so where classes split, how early the classes that
finished factors zero are dropped, and how many states the unfinished
coordinates hold meanwhile.  Each step predicts how it grows the states and
what share of them the factors it finishes keep, and takes the step that
keeps the fewest.  It reads lambda (the sum's base) as well as the roots.

It imports nothing of the package; ``constants._subset_sum`` walks each sum.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


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


def _order(base: Sequence[int], deltas: Sequence[Sequence[int]],
           packed: Sequence[tuple[int, int, int, int]]) -> list[int]:
    """The pool roots in walk order.

    Each step takes every remaining root on one group of coordinates, the
    coordinates that share the same remaining roots, so the group finishes.
    It takes the group with the smallest predicted kept-state factor, the
    product of
      - growth: (n + k + 1) / (n + 1) for each coordinate the step's roots
        touch, where n roots on it are taken before the step and k by it,
        as a coordinate takes about one more value per root on it; and
      - kept share: 1 minus the zero share of each factor the step
        finishes, as the classes on which it is zero are dropped.
    A tie goes to the group seen first, by its first remaining root, then
    its first coordinate.  A factor (i, ci, j, cj) finishes once no
    remaining root touches i or j.  Its zero share is the fraction of the
    pairs (v_i, v_j), or of the v_i alone when cj = 0, on which
    ci * v_i + cj * v_j = 0, where v_i runs over base_i plus each subset
    sum of the deltas on i.  Factors are compared exactly, as integer
    ratios.  Shares read the base, so the same roots may walk in one order
    at lambda_0 and in another at a generic lambda.
    """
    values = [{b} for b in base]
    # on[i]: the remaining roots on coordinate i, as a bit mask of indices
    on = [0] * len(base)
    for t, d in enumerate(deltas):
        for i, x in enumerate(d):
            if x:
                values[i] |= {v + x for v in values[i]}
                on[i] |= 1 << t
    pending = []  # (pairs - zeros, pairs, i, j) of each touched zeroing factor
    for i, ci, j, cj in packed:
        if not (on[i] or on[j]):
            continue  # final before any root, so no step finishes it
        left, right = {-ci * a for a in values[i]}, {cj * b for b in values[j]}
        if zeros := len(left & right):
            pairs = len(left) * len(right)
            pending.append((pairs - zeros, pairs, i, j))
    live = [i for i, roots in enumerate(on) if roots]
    taken = [1] * len(base)  # roots taken on each coordinate, plus 1
    order = []
    while live:
        # (remaining roots, taken) of each live coordinate, and (remaining
        # roots on its coordinates, kept, pairs) of each pending factor
        cells = [(on[i], taken[i]) for i in live]
        ends = [(on[i] | on[j], kept, pairs) for kept, pairs, i, j in pending]
        # the group of least factor top / bottom; a tie goes to the group
        # seen first, by its first remaining root, then its first coordinate
        group, top, bottom = 0, 1, 0  # 1 / 0 is above every factor
        for roots in dict.fromkeys(roots for roots, _ in cells):
            p = q = 1  # this group's factor, p / q
            for mask, n in cells:
                if k := (mask & roots).bit_count():
                    p *= n + k  # growth
                    q *= n
            for finished, kept, pairs in ends:
                if not finished & ~roots:
                    p *= kept  # kept share
                    q *= pairs
            if p * bottom < top * q or (p * bottom == top * q
                                        and roots & -roots < group & -group):
                group, top, bottom = roots, p, q
        for i in live:
            taken[i] += (on[i] & group).bit_count()
            on[i] &= ~group
        live = [i for i in live if on[i]]
        pending = [f for f in pending if on[f[2]] | on[f[3]]]
        while group:  # its roots, lowest first
            order.append((group & -group).bit_length() - 1)
            group &= group - 1
    return order


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
