"""The order in which the subset-sum walk adds a sum's pool roots.

The order changes no total or nonzero count, only the work: it decides
where coordinates finish, so where classes split, and how early the classes
that finished factors zero are dropped.  It reads lambda (the sum's base)
as well as the roots.
"""

from __future__ import annotations

import math
from typing import Sequence


def _order(base: Sequence[int], deltas: Sequence[Sequence[int]],
           packed: Sequence[tuple[int, int, int, int]]) -> list[int]:
    """The pool roots in walk order.

    Repeatedly take every remaining root that touches a coordinate with the
    fewest remaining roots, so coordinates finish, and classes split, early.
    Among tied coordinates take the one whose roots finish the factors with
    the largest total zero share, so classes are dropped early; further ties
    go to the coordinate seen first.  A factor (i, ci, j, cj) finishes once
    no remaining root touches i or j.  Its zero share is the fraction of the
    pairs (v_i, v_j), or of the v_i alone when cj = 0, on which
    ci * v_i + cj * v_j = 0, where v_i runs over base_i plus each subset sum
    of the deltas on i; shares are compared exactly, over one denominator.
    They read the base, so the same roots may walk in one order at lambda_0
    and in another at a generic lambda.
    """
    values = [{b} for b in base]
    for d in deltas:
        for i, x in enumerate(d):
            if x:
                values[i] |= {v + x for v in values[i]}
    counts = []  # (zeros, pairs, coordinates) of each factor some values zero
    for i, ci, j, cj in packed:
        left, right = {-ci * a for a in values[i]}, {cj * b for b in values[j]}
        if left & right:
            counts.append((len(left & right), len(left) * len(right), {i, j}))
    common = math.lcm(*(pairs for _, pairs, _ in counts))
    # (zero share times ``common``, coordinates) of those factors
    zeroing = [(common // pairs * zeros, reads)
               for zeros, pairs, reads in counts]
    remaining, order = list(range(len(deltas))), []
    while remaining:
        touching = {}
        for t in remaining:
            for i, d in enumerate(deltas[t]):
                if d:
                    touching.setdefault(i, []).append(t)
        fewest = min(map(len, touching.values()))
        # tied coordinates with the same roots finish together when taken
        tied = {}
        for i, ts in touching.items():
            if len(ts) == fewest:
                tied.setdefault(frozenset(ts), set()).add(i)
        taken = next(iter(tied))
        if len(tied) > 1 and zeroing:
            pending = [(share, unfinished) for share, reads in zeroing
                       if (unfinished := reads & touching.keys())]
            taken = max(tied, key=lambda ts: sum(
                share for share, unfinished in pending
                if unfinished <= tied[ts]))
        order += [t for t in remaining if t in taken]
        remaining = [t for t in remaining if t not in taken]
    return order
