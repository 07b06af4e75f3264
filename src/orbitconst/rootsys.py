"""Root systems in epsilon-coordinates for five classical equal-rank families.

Roots are integer coefficient vectors of length ``rank`` with at most two
nonzero entries; weights are tuples of rationals (half-integers occur).  The
bilinear form is the plain Euclidean dot product: the Killing-form
proportionality constant cancels in every Weyl-polynomial ratio, so any
positive multiple produces identical constants.

Positive systems are the fixed standard ones:

* type A on m coordinates: ``e_i - e_j`` for ``i < j``
* type B: ``e_i +- e_j`` for ``i < j`` and ``e_k``
* type C: ``e_i +- e_j`` for ``i < j`` and ``2 e_k``
* type D: ``e_i +- e_j`` for ``i < j``

All containers are immutable; everything here is safe to share across
processes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Root = tuple[int, ...]
Weight = tuple[Fraction, ...]

FAMILIES = ("su", "sp", "so-odd", "so-even", "so-star")

_LIE_TYPE = {"su": "A", "so-odd": "B", "sp": "C", "so-even": "D", "so-star": "D"}


@dataclass(frozen=True)
class GroupCase:
    """One of the five real-group families, with validated integer parameters.

    ``su``, ``so-odd`` and ``so-even`` take ``(p, q)``; ``sp`` and ``so-star``
    take ``n``.
    """

    family: str
    p: int | None = None
    q: int | None = None
    n: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("p", "q", "n"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)):
                raise TypeError(f"{self.family} parameter {name} must be an "
                                f"int, got {value!r}")
        if self.family in ("su", "so-odd", "so-even"):
            if self.p is None or self.q is None or self.n is not None:
                raise ValueError(f"{self.family} takes parameters p and q")
            p, q = self.p, self.q
            if self.family == "so-odd":
                if not (p >= 1 and q >= p - 1):
                    raise ValueError(
                        f"so-odd requires q >= p-1 >= 0, got p={p}, q={q}")
            elif not (1 <= p <= q):
                raise ValueError(
                    f"{self.family} requires q >= p >= 1, got p={p}, q={q}")
        else:
            if self.n is None or self.p is not None or self.q is not None:
                raise ValueError(f"{self.family} takes parameter n")
            if self.n < 1:
                raise ValueError(f"{self.family} requires n >= 1, got n={self.n}")

    @classmethod
    def su(cls, p: int, q: int) -> "GroupCase":
        return cls("su", p=p, q=q)

    @classmethod
    def sp(cls, n: int) -> "GroupCase":
        return cls("sp", n=n)

    @classmethod
    def so_odd(cls, p: int, q: int) -> "GroupCase":
        return cls("so-odd", p=p, q=q)

    @classmethod
    def so_even(cls, p: int, q: int) -> "GroupCase":
        return cls("so-even", p=p, q=q)

    @classmethod
    def so_star(cls, n: int) -> "GroupCase":
        return cls("so-star", n=n)

    @property
    def rank(self) -> int:
        if self.family in ("sp", "so-star"):
            return self.n  # type: ignore[return-value]
        return self.p + self.q  # type: ignore[operator]

    @property
    def lie_type(self) -> str:
        return _LIE_TYPE[self.family]

    def params(self) -> dict[str, int]:
        if self.family in ("sp", "so-star"):
            return {"n": self.n}  # type: ignore[dict-item]
        return {"p": self.p, "q": self.q}  # type: ignore[dict-item]

    def __str__(self) -> str:
        p, q, n = self.p, self.q, self.n
        if self.family == "su":
            return f"SU({p},{q})"
        if self.family == "sp":
            return f"Sp({2 * n},R)"
        if self.family == "so-odd":
            return f"SO_e({2 * p},{2 * q + 1})"
        if self.family == "so-even":
            return f"SO_e({2 * p},{2 * q})"
        return f"SO*({2 * n})"


@dataclass(frozen=True)
class RootSystem:
    """Fixed positive system of a case, split into compact and noncompact parts.

    P_K is ``weylpoly.make_dim_poly(compact_positive, rank)``.
    """

    case: GroupCase
    positive: tuple[Root, ...]
    compact_positive: tuple[Root, ...]
    noncompact_positive: tuple[Root, ...]

    def all_roots(self) -> tuple[Root, ...]:
        return self.positive + tuple(negate(r) for r in self.positive)

    def compact_set(self) -> frozenset[Root]:
        """Compact roots of both signs, for membership tests."""
        return frozenset(self.compact_positive).union(
            negate(r) for r in self.compact_positive)


def _e(rank: int, i: int, c: int = 1) -> Root:
    v = [0] * rank
    v[i] = c
    return tuple(v)


def _e2(rank: int, i: int, ci: int, j: int, cj: int) -> Root:
    v = [0] * rank
    v[i] = ci
    v[j] = cj
    return tuple(v)


def negate(r: Root) -> Root:
    return tuple(-c for c in r)


def flip(vec: Sequence, i: int) -> tuple:
    """``vec`` with coordinate ``i`` negated: the outer automorphism that
    pairs so-odd and so-even forms, at the coordinate ``flip_source`` names."""
    out = list(vec)
    out[i] = -out[i]
    return tuple(out)


def type_a_positive_roots(m: int) -> list[Root]:
    """e_i - e_j for i < j, in lexicographic order."""
    return sorted(_e2(m, i, 1, j, -1) for i in range(m) for j in range(i + 1, m))


def type_b_positive_roots(m: int) -> list[Root]:
    return sorted(type_d_positive_roots(m) + [_e(m, i) for i in range(m)])


def type_c_positive_roots(m: int) -> list[Root]:
    return sorted(type_d_positive_roots(m) + [_e(m, i, 2) for i in range(m)])


def type_d_positive_roots(m: int) -> list[Root]:
    return sorted(_e2(m, i, 1, j, s) for i in range(m) for j in range(i + 1, m)
                  for s in (1, -1))


def pair(w: Sequence, r: Sequence) -> Fraction:
    """Euclidean pairing <w, r>; realizes the <lambda, alpha> of all formulas.

    The products are summed as integers over the common denominator of w,
    and one Fraction is built at the end.
    """
    return pairings(w, (r,))[0]


def pairings(w: Sequence, roots: Iterable[Sequence]) -> tuple[Fraction, ...]:
    """``pair(w, r)`` for each r in ``roots``, with w made integral once."""
    v, den = _integral(w)
    out = []
    for r in roots:
        if len(v) != len(r):
            raise ValueError(f"length mismatch: {len(v)} vs {len(r)}")
        out.append(Fraction(sum(map(operator.mul, v, r)), den))
    return tuple(out)


def _integral(w: Sequence) -> tuple[list[int], int]:
    """(den * w, den) with den the lcm of the denominators of w's entries."""
    ratios = [(a if isinstance(a, (int, Fraction)) else Fraction(a))
              .as_integer_ratio() for a in w]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def half_sum(roots: Iterable[Sequence[int]], rank: int) -> Weight:
    """Half the sum of ``roots``; the empty set gives the zero weight."""
    acc = [0] * rank
    for r in roots:
        for i, c in enumerate(r):
            acc[i] += c
    return tuple(Fraction(c, 2) for c in acc)


def _support(root: Root) -> list[int]:
    return [i for i, c in enumerate(root) if c]


def _is_compact(case: GroupCase, root: Root) -> bool:
    sup = _support(root)
    if case.family in ("su", "so-odd", "so-even"):
        p = case.p
        if len(sup) == 1:
            # short roots of so-odd: e_i lies in k only for i > p, because
            # the D_p factor of K has no short roots
            return sup[0] >= p
        # same-block roots live in k, cross-block roots in p
        return all(i < p for i in sup) or all(i >= p for i in sup)
    # sp / so-star: K = U(n); e_i - e_j compact, e_i + e_j and 2 e_k not
    return len(sup) == 2 and root[sup[0]] + root[sup[1]] == 0


def build_root_system(case: GroupCase) -> RootSystem:
    """Standard positive system of ``case`` with its compact/noncompact split."""
    m = case.rank
    builders = {"A": type_a_positive_roots, "B": type_b_positive_roots,
                "C": type_c_positive_roots, "D": type_d_positive_roots}
    positive = builders[case.lie_type](m)
    compact = tuple(r for r in positive if _is_compact(case, r))
    noncompact = tuple(r for r in positive if not _is_compact(case, r))
    return RootSystem(case, tuple(positive), compact, noncompact)
