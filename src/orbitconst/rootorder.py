"""The order in which the subset-sum walk adds a sum's pool roots.

The order changes no total or nonzero count, only the work: it decides
where coordinates finish, so where classes split, how early the classes
that finished factors zero are dropped, and how many states the unfinished
coordinates hold meanwhile.  Each step predicts how it grows the states
and what share of them the factors it finishes keep, and takes the step
that keeps the fewest.  It reads lambda (the sum's base) as well as the
roots.
"""

from __future__ import annotations

from typing import Sequence


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
