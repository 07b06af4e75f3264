"""The closed forms of the constant c, one spec per family and form.

``_closed_form_spec`` states each closed form once; ``constant_closed_form``
evaluates it and ``closed_form_expr`` renders it as text or LaTeX.  The
brute-force constants in ``constants`` are checked against these values.
"""

from __future__ import annotations

import math

from .orbits import RealForm, get_form
from .rootsys import GroupCase


def _closed_form_spec(case: GroupCase, form: RealForm | int):
    """The closed form c = (-1)^e * magnitude as (e, magnitude), or None for 0.

    The magnitude is a pair (a, b) for the binomial C(a, b), or an int k for
    2^k.  Both renderings below read this one spec.
    """
    p, q, n, k = case.p, case.q, case.n, get_form(case, form).kind
    if case.family == "su":
        return k * (p + q - k), (p, k)
    if case.family in ("sp", "so-star"):
        if n % 2 == 0 and k % 2 == 1:
            return None
        r, s = k // 2, (n - k) // 2
        return (k + 1) // 2, (r + s, r)
    if case.family == "so-odd":
        if k == 3:
            return None
        return (p + 1) // 2 + (1 if k == 2 else 0), 2 * p - 2
    # so-even
    if k in (1, 2):
        return p // 2, 2 * p - 2
    return (p + 1) // 2, (2 * p - 1 if (k == 3 and q > p) else 2 * p - 2)


def constant_closed_form(case: GroupCase, form: RealForm | int) -> int:
    """Exact closed-form value of the constant for this real form."""
    spec = _closed_form_spec(case, form)
    if spec is None:
        return 0
    sign, magnitude = spec
    if isinstance(magnitude, tuple):
        return (-1) ** sign * math.comb(*magnitude)
    return (-1) ** sign * 2 ** magnitude


def closed_form_expr(case: GroupCase, form: RealForm | int,
                     latex: bool = False) -> str:
    """Human-readable instantiated closed form, for table output."""
    spec = _closed_form_spec(case, form)
    if spec is None:
        return "0"
    sign, magnitude = spec
    if latex:
        value = (r"\binom{%d}{%d}" % magnitude if isinstance(magnitude, tuple)
                 else f"2^{{{magnitude}}}")
        return rf"(-1)^{{{sign}}} \cdot {value}"
    value = ("C(%d,%d)" % magnitude if isinstance(magnitude, tuple)
             else f"2^{magnitude}")
    return f"(-1)^{sign}*{value}"
