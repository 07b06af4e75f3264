"""Partition-labelled nilpotent orbits, their real forms, and signed tableaux.

Complex nilpotent orbits of the classical algebras are labelled by partitions
(Jordan block sizes) subject to a per-type multiplicity rule.  Each real form
is encoded by the neutral element ``h`` of its sl2-triple, written in the same
epsilon-coordinates as the root systems.  The per-family lists of real forms
and their canonical ordering are the ones used by the closed-form constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rootsys import GroupCase, Root, _e, _e2, flip


@dataclass(frozen=True)
class SignedTableau:
    """Rows of (length, starting sign); signs alternate along each row."""

    rows: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        lengths = [n for n, _ in self.rows]
        if any(n < 1 for n in lengths):
            raise ValueError("row lengths must be positive")
        if lengths != sorted(lengths, reverse=True):
            raise ValueError("row lengths must be non-increasing")
        if any(s not in "+-" for _, s in self.rows):
            raise ValueError("signs must be '+' or '-'")

    def ascii_rows(self) -> list[str]:
        out = []
        for length, start in self.rows:
            other = "-" if start == "+" else "+"
            out.append("".join(start if i % 2 == 0 else other
                               for i in range(length)))
        return out


@dataclass(frozen=True)
class RealForm:
    """A real form of the case's complex orbit.

    ``case`` is the case whose orbit it is; ``index`` is the 1-based position
    in the canonical list; ``kind`` is the per-family identity the closed
    forms are keyed on (the integer k for su and sp, the even integer p for
    so-star, the form number 1..4 for so-odd and so-even).  ``h`` is the
    neutral sl2-triple element.
    """

    case: GroupCase
    index: int
    label: str
    kind: int
    h: tuple[int, ...]
    exists_condition: str
    tableau: SignedTableau


def validate_partition(lie_type: str, parts: Sequence[int], total: int) -> bool:
    """Check the per-type partition rule.

    A: any partition of n.  B and D: even parts occur with even multiplicity.
    C: odd parts occur with even multiplicity.
    """
    parts = list(parts)
    if any(d < 1 for d in parts) or list(parts) != sorted(parts, reverse=True):
        return False
    if sum(parts) != total:
        return False
    if lie_type == "A":
        return True
    bad_parity = 0 if lie_type in ("B", "D") else 1
    for d in set(parts):
        if d % 2 == bad_parity and parts.count(d) % 2 != 0:
            return False
    return True


def is_very_even(lie_type: str, parts: Sequence[int]) -> bool:
    """Type-D partitions with all parts even label two orbits, not one."""
    return lie_type == "D" and all(d % 2 == 0 for d in parts)


def orbit_partition(case: GroupCase) -> tuple[int, ...]:
    """Partition of the complex orbit whose real forms carry the constants."""
    p, q, n = case.p, case.q, case.n
    if case.family == "su":
        return tuple([2] * p + [1] * (q - p))
    if case.family == "sp":
        return tuple([2] * n)
    if case.family == "so-odd":
        return tuple([3] + [2] * (2 * p - 2) + [1] * (2 * (q - p + 1)))
    if case.family == "so-even":
        return tuple([3] + [2] * (2 * p - 2) + [1] * (2 * (q - p) + 1))
    if n % 2 == 0:
        return tuple([2] * n)
    return tuple([2] * (n - 1) + [1, 1])


def h_from_partition(lie_type: str, parts: Sequence[int]) -> tuple[int, ...]:
    """Dominant h of the complex orbit labelled by ``parts``.

    Each part d contributes the eigenvalue block d-1, d-3, ..., -(d-1); the
    values are sorted non-increasingly and the first ``rank`` entries kept
    (for type B this drops the forced middle zero).
    """
    total = sum(parts)
    if lie_type == "A":
        rank = total
    elif lie_type == "B":
        if total % 2 == 0:
            raise ValueError("type B partition must have odd size")
        rank = (total - 1) // 2
    else:
        if total % 2 != 0:
            raise ValueError(f"type {lie_type} partition must have even size")
        rank = total // 2
    if not validate_partition(lie_type, parts, total):
        raise ValueError(f"invalid type {lie_type} partition {list(parts)}")
    values: list[int] = []
    for d in parts:
        values.extend(range(d - 1, -d, -2))
    values.sort(reverse=True)
    return tuple(values[:rank])


def _simple_roots(case: GroupCase) -> list[Root]:
    m, t = case.rank, case.lie_type
    simples = [_e2(m, i, 1, i + 1, -1) for i in range(m - 1)]
    if t == "B":
        simples.append(_e(m, m - 1))
    elif t == "C":
        simples.append(_e(m, m - 1, 2))
    elif t == "D" and m >= 2:
        simples.append(_e2(m, m - 2, 1, m - 1, 1))
    return simples


def weighted_dynkin(case: GroupCase, h: Sequence[int]) -> tuple[int, ...]:
    """Labels alpha_i(h) on the simple roots of the fixed positive system."""
    if len(h) != case.rank:
        raise ValueError(f"h has length {len(h)} but {case} has rank "
                         f"{case.rank}")
    labels = tuple(sum(c * x for c, x in zip(a, h)) for a in _simple_roots(case))
    if any(v < 0 for v in labels):
        raise ValueError(f"h={tuple(h)} is not dominant for {case}")
    return labels


def h_from_signed_tableau(lie_type: str, tableau: SignedTableau,
                          p: int, q: int) -> tuple[int, ...]:
    """h of the real form a B/D signed tableau encodes (dominant per block).

    Boxes of a length-d row carry eigenvalues d-1, d-3, ..., -(d-1); '+' boxes
    contribute to the first block of coordinates and '-' boxes to the second.
    """
    if lie_type not in ("B", "D"):
        raise ValueError("signed-tableau recipe applies to types B and D")
    plus: list[int] = []
    minus: list[int] = []
    for signs in tableau.ascii_rows():
        d = len(signs)
        for sign, value in zip(signs, range(d - 1, -d, -2)):
            (plus if sign == "+" else minus).append(value)
    want_minus = 2 * q + 1 if lie_type == "B" else 2 * q
    if len(plus) != 2 * p or len(minus) != want_minus:
        raise ValueError(
            f"tableau signature ({len(plus)},{len(minus)}) does not match "
            f"(2p,{'2q+1' if lie_type == 'B' else '2q'}) for p={p}, q={q}")
    plus.sort(reverse=True)
    minus.sort(reverse=True)
    return tuple(plus[:p] + minus[:q])


def _pair_rows(n_plus: int, n_minus: int):
    return [(2, "+")] * n_plus + [(2, "-")] * n_minus


def _tableau_su(p: int, q: int, k: int) -> SignedTableau:
    return SignedTableau(tuple(_pair_rows(k, p - k) + [(1, "-")] * (q - p)))


def _tableau_sp(n: int, k: int) -> SignedTableau:
    return SignedTableau(tuple(_pair_rows(k, n - k)))


def _tableau_so_star(n: int, p: int) -> SignedTableau:
    if n % 2 == 0:
        return SignedTableau(tuple(_pair_rows(p, n - p)))
    return SignedTableau(tuple(_pair_rows(p, n - 1 - p) + [(1, "+"), (1, "-")]))


def _tableau_bd(family: str, p: int, q: int, form: int) -> SignedTableau:
    # forms 1 and 2 share a tableau, as do forms 3 and 4; the II-variants
    # differ from their partner by the outer coordinate flip only.
    ones = 2 * (q - p + 1) if family == "so-odd" else 2 * (q - p) + 1
    if form in (1, 2):
        rows = [(3, "+")] + _pair_rows(p - 1, p - 1) + [(1, "-")] * ones
    else:
        rows = [(3, "-")] + _pair_rows(p - 1, p - 1) + [(1, "+")]
        rows += [(1, "-")] * (ones - 1)
    return SignedTableau(tuple(rows))


def flip_source(case: GroupCase, kind: int) -> tuple[int, int] | None:
    """(kind, coordinate) of the form whose flip is form ``kind``, or None:
    so-odd and so-even form II flips form I at coordinate p-1, form IV flips
    form III at the last coordinate."""
    if case.family not in ("so-odd", "so-even") or kind not in (2, 4):
        return None
    return (1, case.p - 1) if kind == 2 else (3, case.rank - 1)


def real_forms(case: GroupCase) -> tuple[RealForm, ...]:
    """Real forms of the case's orbit, in canonical order."""
    p, q, n = case.p, case.q, case.n
    forms: list[RealForm] = []

    def add(label, kind, h, cond, tab):
        forms.append(RealForm(case, len(forms) + 1, label, kind, tuple(h),
                              cond, tab))

    if case.family == "su":
        for k in range(p + 1):
            h = [1] * k + [-1] * (p - k) + [1] * (p - k) + [0] * (q - p) + [-1] * k
            add(f"k={k}", k, h, "always", _tableau_su(p, q, k))
    elif case.family == "sp":
        for k in range(n + 1):
            add(f"k={k}", k, [1] * k + [-1] * (n - k), "always", _tableau_sp(n, k))
    elif case.family == "so-star":
        for k in range(0, n + 1, 2):
            if n % 2 == 0:
                h = [1] * k + [-1] * (n - k)
            else:
                h = [1] * k + [0] + [-1] * (n - 1 - k)
            add(f"p={k}", k, h, "always", _tableau_so_star(n, k))
    else:  # so-odd and so-even; forms II and IV are flips of I and III
        odd = case.family == "so-odd"
        h = {1: [2] + [1] * (p - 1) + [1] * (p - 1) + [0] * (q - p + 1),
             3: [1] * (p - 1) + [0] + [2] + [1] * (p - 1) + [0] * (q - p)}
        for kind, label, cond, exists in (
                (1, "I", "always", True),
                (2, "II", "always" if odd else "p >= 2", odd or p >= 2),
                (3, "III", "q >= p" if odd else "always", not odd or q >= p),
                (4, "IV", "q == p >= 2", not odd and q == p >= 2)):
            if (source := flip_source(case, kind)) is not None:
                h[kind] = flip(h[source[0]], source[1])
            if exists:
                add(label, kind, h[kind], cond,
                    _tableau_bd(case.family, p, q, kind))
    return tuple(forms)


def get_form(case: GroupCase, index: RealForm | int) -> RealForm:
    """Real form by 1-based canonical index, or a RealForm of ``case`` as is."""
    if isinstance(index, RealForm):
        if index.case != case:
            raise ValueError(f"form {index.index} of {index.case} is not a "
                             f"real form of {case}")
        return index
    if isinstance(index, bool) or not isinstance(index, int):
        raise TypeError(f"form index must be an int, got {index!r}")
    forms = real_forms(case)
    if not 1 <= index <= len(forms):
        raise ValueError(
            f"{case} has {len(forms)} real forms; form {index} does not exist")
    return forms[index - 1]


def dominant_h(case: GroupCase) -> tuple[int, ...]:
    """Dominant h of the complex orbit (equals h_from_partition of it)."""
    return h_from_partition(case.lie_type, orbit_partition(case))
