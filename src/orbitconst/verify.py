"""Acceptance checks: every verification the package promises, runnable as one suite.

Each criterion function returns a dict with at least ``name``, ``passed`` and
``details``.  Every criterion that runs over cases takes them from
``acceptance_cases``, the one place that names the parameter ranges and
checks and applies the ``max_rank`` filter, and picks among them by family
and form kind.  Criteria 3, 4, 5 and 7 run one check per form through
``_over_forms``, which lists a form over the term cap under ``skipped``.
``run_all`` executes them in order and assembles a machine-readable report;
the CLI ``verify`` command serializes it.
Evaluations go through ``cached_constant``, unmemoized.  The run, the open
``constants.worker_pool()`` block, memoizes what they read: each form's
record, each case's P_K and each sum, so the criteria of one run walk a sum
once and each run walks its own.

Criteria 3 and 4 first collect the evaluations they will make and hand them
to ``constants._prewalk``, which walks, as one pooled batch, the sums among
them that the run does not hold; each evaluation still goes through
``cached_constant`` and reads its sum from the run.  Criterion 1 stays one
evaluation at a time: its sums at lambda_0 are few and pruned, and the batch
leaves out every sum the run already holds.  Which sums the run holds, under
which key, and how they are dealt, ``constants`` alone decides.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import constants, oracles
from .closedform import constant_closed_form
from .constants import (DEFAULT_TERM_CAP, OrthogonalityError,
                        TermCapExceeded, auto_sign_relation, default_lambda,
                        lambda_candidates)
from .orbits import flip_source, real_forms
from .rootsys import GroupCase, type_b_positive_roots, type_d_positive_roots
from .weylpoly import eval_dim_poly, make_dim_poly


def cached_constant(case, form, lam, variant, term_cap, workers):
    """``constants._constant``: the open run memoizes the form's record and
    the sum it reads, not the evaluation.  The name marks the layer
    ``bench/tracing.py`` times."""
    return constants._constant(case, form, lam, variant, term_cap, workers)


def acceptance_cases(max_rank: int | None = None) -> list[GroupCase]:
    """The parameter sweep of the table-reproduction criterion."""
    if max_rank is not None:
        constants._check_positive("max_rank", max_rank)
    cases: list[GroupCase] = []
    for p in range(1, 6):
        for q in range(p, 7 - p):
            cases.append(GroupCase.su(p, q))
    cases += [GroupCase.sp(n) for n in range(1, 7)]
    for p in range(1, 4):
        for q in range(max(p - 1, 0), 5):
            cases.append(GroupCase.so_odd(p, q))
    for p in range(1, 4):
        for q in range(p, 5):
            cases.append(GroupCase.so_even(p, q))
    cases += [GroupCase.so_star(n) for n in range(1, 7)]
    return [c for c in cases if max_rank is None or c.rank <= max_rank]


def _fmt_h(h) -> str:
    return "(" + ",".join(str(x) for x in h) + ")"


def table_reproduction_rows(max_rank=None, term_cap=DEFAULT_TERM_CAP,
                            workers=1) -> list[dict]:
    """Brute-force vs closed-form for every form of every in-range case."""
    rows = []
    for case in acceptance_cases(max_rank):
        for form in real_forms(case):
            row = {"case": str(case), "family": case.family,
                   "params": case.params(), "index": form.index,
                   "label": form.label, "h": _fmt_h(form.h)}
            c_closed = constant_closed_form(case, form)
            row["cClosed"] = c_closed
            try:
                c_brute = cached_constant(case, form, default_lambda(case, form),
                                          "orig", term_cap, workers).constant
            except TermCapExceeded as exc:
                row["skipped"] = f"term cap: needs {exc.required} subsets"
                rows.append(row)
                continue
            row["cBrute"] = c_brute
            row["agree"] = c_brute == c_closed
            rows.append(row)
    return rows


def criterion_1(*, max_rank=None, term_cap=DEFAULT_TERM_CAP, workers=1) -> dict:
    rows = table_reproduction_rows(max_rank, term_cap, workers)
    checked = [r for r in rows if "agree" in r]
    bad = [r for r in checked if not r["agree"]]
    skipped = [r for r in rows if "skipped" in r]
    return {"id": 1, "name": "table reproduction (brute force == closed form)",
            "passed": not bad, "details": {
                "forms": len(rows), "checked": len(checked),
                "skipped": [r["case"] + " form " + str(r["index"])
                            for r in skipped],
                "disagreements": [
                    {k: r[k] for k in ("case", "index", "cBrute", "cClosed")}
                    for r in bad]}}


def criterion_2() -> dict:
    """Closed evaluations of the two auxiliary Weyl polynomials."""
    bad = []
    for p in range(1, 9):
        poly = make_dim_poly(type_d_positive_roots(p), p)
        lam = tuple(Fraction(2 * (p - i) - 1, 2) for i in range(p))
        if eval_dim_poly(poly, lam) != 2 ** (p - 1):
            bad.append(("P1", p))
    for q in range(1, 9):
        poly = make_dim_poly(type_b_positive_roots(q), q)
        mu = tuple(Fraction(q - i) for i in range(q))
        if eval_dim_poly(poly, mu) != 2 ** q:
            bad.append(("P2", q))
    return {"id": 2, "name": "auxiliary Weyl polynomial values 2^(p-1) and 2^q",
            "passed": not bad, "details": {"failures": bad}}


def _forms(cases, keep=lambda case, form: True) -> list:
    """The (case, form) pairs of ``cases`` that ``keep``, in order."""
    return [(case, form) for case in cases for form in real_forms(case)
            if keep(case, form)]


def _over_forms(check, forms) -> dict:
    """``check(case, form)``'s failures over the (case, form) pairs
    ``forms``; a form over the term cap is listed under ``skipped``, which
    appears only when some form is."""
    failures, skipped = [], []
    for case, form in forms:
        try:
            failures += check(case, form)
        except TermCapExceeded:
            skipped.append(f"{case} form {form.index}")
    return {"failures": failures, **({"skipped": skipped} if skipped else {})}


def criterion_3(*, max_rank=None, term_cap=DEFAULT_TERM_CAP, workers=1,
                seed=0) -> dict:
    """Three distinct evaluation points give one and the same integer."""
    lams = {(case, form): lambda_candidates(case, form, count=3, seed=seed)
            for case, form in _forms(acceptance_cases(max_rank))}
    constants._prewalk([(case, form, lam, "orig")
                        for (case, form), some in lams.items()
                        for lam in some], term_cap, workers)

    def check(case, form):
        values = {cached_constant(case, form, lam, "orig", term_cap,
                                  workers).constant
                  for lam in lams[case, form]}
        return [] if len(values) == 1 else [
            (str(case), form.index, sorted(values))]

    details = _over_forms(check, lams)
    return {"id": 3, "name": "lambda-independence of the brute-force constant",
            "passed": not details["failures"], "details": details}


def criterion_4(*, max_rank=None, term_cap=DEFAULT_TERM_CAP, workers=1) -> dict:
    """Original and rewritten sums agree; orthogonality holds throughout.

    v2 goes first: its ``OrthogonalityError`` precedes the term-cap check.
    Only the v2 sums are batched: orig at lambda_0 is criterion 1's.
    """
    lams = {pair: default_lambda(*pair)
            for pair in _forms(acceptance_cases(max_rank))}
    constants._prewalk([(case, form, lam, "v2")
                        for (case, form), lam in lams.items()],
                       term_cap, workers)

    def check(case, form):
        lam = lams[case, form]
        try:
            v2 = cached_constant(case, form, lam, "v2", term_cap,
                                 workers).constant
        except OrthogonalityError:
            return [(str(case), form.index, "orthogonality")]
        orig = cached_constant(case, form, lam, "orig", term_cap,
                               workers).constant
        return [] if orig == v2 else [(str(case), form.index, (orig, v2))]

    details = _over_forms(check, lams)
    return {"id": 4, "name": "formula equivalence and rho_n orthogonality",
            "passed": not details["failures"], "details": details}


def criterion_5(*, max_rank=None, term_cap=DEFAULT_TERM_CAP, workers=1,
                seed=0) -> dict:
    """The raw alternating sum vanishes identically for the third so-odd form."""
    def check(case, form):
        bad = []
        for lam in lambda_candidates(case, form, count=3, seed=seed):
            lhs = cached_constant(case, form, lam, "orig", term_cap,
                                  workers).lhs
            if lhs != 0:
                bad.append((str(case), [str(x) for x in lam], str(lhs)))
        return bad

    details = _over_forms(check, _forms(
        [c for c in acceptance_cases(max_rank) if c.family == "so-odd"],
        lambda case, form: form.kind == 3))
    return {"id": 5, "name": "vanishing sum for the third so-odd form",
            "passed": not details["failures"], "details": details}


def criterion_6(*, max_rank=None) -> dict:
    """Automorphism sign relations between the forms ``flip_source`` pairs:
    so-odd forms I and II with sign -1, and every so-even pair (I and II,
    III and IV, where both exist) with sign +1.
    """
    bad = []
    for case in acceptance_cases(max_rank):
        kinds = {f.kind: f for f in real_forms(case)}
        for f2 in kinds.values():
            if (source := flip_source(case, f2.kind)) is None:
                continue
            f1, coord = kinds[source[0]], source[1]
            expected = -1 if case.family == "so-odd" else +1
            sign = auto_sign_relation(case, coord, f1, f2)
            c1 = constant_closed_form(case, f1)
            c2 = constant_closed_form(case, f2)
            if sign != expected or sign * c1 != c2:
                bad.append((str(case), f1.index, f2.index, sign, expected,
                            c1, c2))
    return {"id": 6, "name": "automorphism sign relations between paired forms",
            "passed": not bad, "details": {"failures": bad}}


def criterion_7(*, max_rank=None, term_cap=DEFAULT_TERM_CAP) -> dict:
    """Survivor enumeration matches the combinatorial term characterizations.

    Every sp, so-star and su form is checked, and the first form of every
    so-odd and so-even case; sp and so-star come first, interleaved by n.
    """
    shuffled = ("sp", "so-star")

    def check(case, form):
        survivors = oracles.surviving_terms(case, form, term_cap=term_cap)
        if not oracles.check_oracle_against_brute_force(
                case, form, survivors=survivors):
            return [(str(case), form.index,
                     "set mismatch" if case.family in shuffled else
                     "su oracle" if case.family == "su"
                     else "unique survivor")]
        if case.family not in shuffled:
            return []
        bad = []
        if len(survivors) != abs(constant_closed_form(case, form)):
            bad.append((str(case), form.index, "count"))
        if any(abs(t.value) != 1 for t in survivors):
            bad.append((str(case), form.index, "value not +-1"))
        if case.family == "sp":
            pq = form.kind * (case.n - form.kind)
            if any(len(t.a_set) * 2 != pq for t in survivors):
                bad.append((str(case), form.index, "#A != pq/2"))
        return bad

    details = _over_forms(check, _forms(
        sorted(acceptance_cases(max_rank),
               key=lambda c: (c.family not in shuffled, c.n or 0)),
        lambda case, form: case.family in shuffled + ("su",)
        or form.index == 1))
    return {"id": 7, "name": "oracle agreement for surviving terms",
            "passed": not details["failures"], "details": details}


def criterion_8(*, max_rank=None) -> dict:
    """Real-form counts per family.

    so-even actually has 2 forms when p = 1 (and 3 or 4 only for p >= 2);
    the source states the counts that way in its case analysis.
    """
    bad = []
    for case in acceptance_cases(max_rank):
        count = len(real_forms(case))
        p, q, n = case.p, case.q, case.n
        if case.family == "su":
            expect = p + 1
        elif case.family == "sp":
            expect = n + 1
        elif case.family == "so-odd":
            expect = 3 if q > p - 1 else 2
        elif case.family == "so-even":
            expect = 2 if p == 1 else (4 if q == p else 3)
        else:
            expect = n // 2 + 1 if n % 2 == 0 else (n + 1) // 2
        if count != expect:
            bad.append((str(case), count, expect))
    return {"id": 8, "name": "real-form counts per family",
            "passed": not bad, "details": {"failures": bad}}


def criterion_9(*, max_rank=None, term_cap=DEFAULT_TERM_CAP) -> dict:
    """Byte-identical reports for 1, 4 and 8 workers."""
    blobs = []
    with constants.worker_pool():
        for workers in (1, 4, 8):
            rows = table_reproduction_rows(max_rank, term_cap, workers)
            blobs.append(json.dumps({"rows": rows}, sort_keys=True,
                                    separators=(",", ":")).encode())
    passed = blobs[0] == blobs[1] == blobs[2]
    return {"id": 9, "name": "deterministic reports across worker counts",
            "passed": passed,
            "details": {"bytes": len(blobs[0]), "identical": passed}}


def run_all(max_rank=None, term_cap=DEFAULT_TERM_CAP, workers=1, seed=0,
            skip_determinism=False) -> dict:
    """Run every criterion; returns the full report dict.

    The run is one ``worker_pool()`` block: the criteria's pooled sums share
    one executor and their evaluations' reads one memo, which ends with it.
    """
    scope = {"max_rank": max_rank, "term_cap": term_cap}
    summed = {**scope, "workers": workers}
    with constants.worker_pool():
        criteria = [
            criterion_1(**summed),
            criterion_2(),
            criterion_3(**summed, seed=seed),
            criterion_4(**summed),
            criterion_5(**summed, seed=seed),
            criterion_6(max_rank=max_rank),
            criterion_7(**scope),
            criterion_8(max_rank=max_rank),
        ]
        if not skip_determinism:
            criteria.append(criterion_9(**scope))
    report = {
        "config": {"maxRank": max_rank, "termCap": term_cap, "seed": seed,
                   "workers": workers},
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
    }
    return report
