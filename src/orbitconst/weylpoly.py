"""Exact pointwise evaluation of Weyl dimension polynomials.

A dimension polynomial is the product of <lambda, alpha> / <rho', alpha> over
a fixed list of roots, with rho' half the sum of that list.  Evaluation is
always pointwise over exact rationals; there is no symbolic expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rootsys import Root, Weight, half_sum, pair


@dataclass(frozen=True)
class DimPoly:
    """Weyl dimension polynomial for a positive system of roots.

    Every denominator <rho', alpha> is nonzero and evaluation at rho' gives
    exactly 1.  The empty root list is the constant polynomial 1.
    """

    roots: tuple[Root, ...]
    rank: int
    rho_prime: Weight
    denominators: tuple[Fraction, ...]


def make_dim_poly(roots: Sequence[Root], rank: int) -> DimPoly:
    """Build the dimension polynomial of ``roots``.

    Raises ValueError when some <rho', alpha> vanishes, which signals that the
    root list is not a valid positive system for this construction.
    """
    roots = tuple(roots)
    rho = half_sum(roots, rank)
    denoms = tuple(pair(rho, a) for a in roots)
    if any(d == 0 for d in denoms):
        raise ValueError("zero denominator: not a valid positive system")
    return DimPoly(roots, rank, rho, denoms)


def eval_dim_poly(poly: DimPoly, w: Sequence) -> Fraction:
    """Product of <w, alpha> / <rho', alpha>, as an exact rational."""
    if len(w) != poly.rank:
        raise ValueError(f"weight has length {len(w)}, expected {poly.rank}")
    value = Fraction(1)
    for a, d in zip(poly.roots, poly.denominators):
        num = pair(w, a)
        if num == 0:
            return Fraction(0)
        value *= num / d
    return value
