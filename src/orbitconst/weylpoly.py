"""Exact pointwise evaluation of Weyl dimension polynomials.

A dimension polynomial is the product of <lambda, alpha> / <rho', alpha> over
a fixed list of roots, with rho' half the sum of that list.  Its roots are
packed once, and the kernel in ``constants`` reads the same factors.  A value
is one integer product at the weight scaled to integers, then one division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rootsys import Root, Weight, _integral, half_sum, pairings


@dataclass(frozen=True)
class DimPoly:
    """Weyl dimension polynomial for a positive system of roots.

    ``factors`` are the roots, packed by ``_pack_roots``; ``norm`` is the
    product of the ``denominators`` <rho', alpha>, each nonzero.  Evaluation
    at rho' gives exactly 1; the empty root list is the constant 1.
    """

    factors: tuple[tuple[int, int, int, int], ...]
    rank: int
    rho_prime: Weight
    denominators: tuple[Fraction, ...]
    norm: Fraction


def _pack_roots(roots: Sequence[Root]) -> tuple[tuple[int, int, int, int], ...]:
    """Compress roots to (i, ci, j, cj), so <w, alpha> = ci * w_i + cj * w_j;
    a root on one coordinate i is (i, ci, i, 0), and any other is refused."""
    packed = []
    for r in roots:
        support = [(i, c) for i, c in enumerate(r) if c]
        if not 1 <= len(support) <= 2:
            raise ValueError(f"root {r} has {len(support)} nonzero entries")
        (i, ci), *rest = support
        j, cj = rest[0] if rest else (i, 0)
        packed.append((i, ci, j, cj))
    return tuple(packed)


def make_dim_poly(roots: Sequence[Root], rank: int) -> DimPoly:
    """Build the dimension polynomial of ``roots``.  Raises ValueError for a
    root whose length is not ``rank`` or that packs into no factor, or when
    some <rho', alpha> vanishes, which signals that the roots are not a
    valid positive system."""
    roots = tuple(roots)
    for r in roots:
        if len(r) != rank:
            raise ValueError(f"root {r} has length {len(r)}, not rank {rank}")
    factors = _pack_roots(roots)
    rho = half_sum(roots, rank)
    denoms = pairings(rho, roots)
    if any(d == 0 for d in denoms):
        raise ValueError("zero denominator: not a valid positive system")
    return DimPoly(factors, rank, rho, denoms, Fraction(math.prod(denoms)))


def eval_dim_poly(poly: DimPoly, w: Sequence) -> Fraction:
    """Product of <w, alpha> / <rho', alpha>, as an exact rational."""
    if len(w) != poly.rank:
        raise ValueError(f"weight has length {len(w)}, expected {poly.rank}")
    v, den = _integral(w)
    num = math.prod(ci * v[i] + cj * v[j] for i, ci, j, cj in poly.factors)
    return Fraction(num, den ** len(poly.factors)) / poly.norm
