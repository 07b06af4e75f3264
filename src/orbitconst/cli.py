"""Command-line surface: list real forms, compute constants, verify, tabulate.

Commands
    real-forms   list a case's real forms with h-vectors and signed tableaux
    constant     closed form, plus the brute force unless ``--method closed``
    verify       run the full acceptance suite, JSON summary, exit code
    table        emit the per-family constants table (text/csv/json/latex)

Exit status: 0 on success / agreement, 1 on mathematical disagreement or
failed verification, 2 on usage or capacity errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .closedform import closed_form_expr, constant_closed_form
from .constants import (DEFAULT_TERM_CAP, LambdaDegenerateError,
                        NonIntegerQuotientError, TermCapExceeded, _constant,
                        _form_data, worker_pool)
from .orbits import (dominant_h, get_form, orbit_partition, real_forms,
                     weighted_dynkin)
from .rootsys import GroupCase
from .verify import run_all

FORMATS = ("text", "json", "csv", "latex")


def _case_from_args(args) -> GroupCase:
    if args.group is None:
        raise ValueError("--group is required")
    # GroupCase rejects a missing parameter and one the family does not take
    return GroupCase(args.group, p=args.p, q=args.q, n=args.n)


def _fmt_h(case: GroupCase, h) -> str:
    vals = [str(x) for x in h]
    if case.family in ("su", "so-odd", "so-even"):
        p = case.p
        return "(" + ",".join(vals[:p]) + " | " + ",".join(vals[p:]) + ")"
    return "(" + ",".join(vals) + ")"


def _partition_str(parts) -> str:
    out = []
    for d in sorted(set(parts), reverse=True):
        m = list(parts).count(d)
        out.append(f"{d}^{m}" if m > 1 else str(d))
    return "[" + ",".join(out) + "]"


def _json_weight(w) -> list[str]:
    return [str(Fraction(x)) for x in w]


def _case_json(case: GroupCase) -> dict:
    return {"family": case.family, "params": case.params()}


def _emit_rows(fmt: str, header: list[str], rows: list[list[str]]) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
        return
    if fmt == "latex":
        cols = "l" * len(header)
        print(r"\begin{tabular}{%s}" % cols)
        print(r"\hline")
        print(" & ".join(header) + r" \\")
        print(r"\hline")
        for row in rows:
            print(" & ".join(str(x) for x in row) + r" \\")
        print(r"\hline")
        print(r"\end{tabular}")
        return
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
              else len(str(h)) for i, h in enumerate(header)]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))


def cmd_real_forms(args) -> int:
    case = _case_from_args(args)
    forms = real_forms(case)
    if args.format == "json":
        doc = {"case": _case_json(case),
               "orbit": _partition_str(orbit_partition(case)),
               "weightedDynkin": list(weighted_dynkin(case, dominant_h(case))),
               "forms": [{"index": f.index, "label": f.label,
                          "h": _json_weight(f.h),
                          "existsWhen": f.exists_condition,
                          "tableau": f.tableau.ascii_rows()} for f in forms]}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.format in ("csv", "latex"):
        header = ["group", "index", "label", "h", "existsWhen"]
        rows = [[str(case), f.index, f.label, _fmt_h(case, f.h),
                 f.exists_condition] for f in forms]
        _emit_rows(args.format, header, rows)
        return 0
    dynkin = weighted_dynkin(case, dominant_h(case))
    print(f"{case}   complex orbit {_partition_str(orbit_partition(case))}   "
          f"weighted Dynkin {tuple(dynkin)}")
    for f in forms:
        print(f"  form {f.index}  [{f.label}]  h = {_fmt_h(case, f.h)}   "
              f"exists: {f.exists_condition}")
        for row in f.tableau.ascii_rows():
            print(f"      {row}")
    return 0


def _forms_from_arg(case: GroupCase, value: str):
    if value == "all":
        return real_forms(case)
    try:
        index = int(value)
    except ValueError:
        raise ValueError(f"--form must be a 1-based index or 'all', "
                         f"got {value!r}") from None
    return (get_form(case, index),)


def cmd_constant(args) -> int:
    case = _case_from_args(args)
    forms = _forms_from_arg(case, args.form)
    brute = args.method == "both"
    # the sum at lambda_0, which is regular on every form; were it not,
    # Evaluation.constant raises LambdaDegenerateError naming the form
    results = [(f, constant_closed_form(case, f),
                _constant(case, f, None, "orig", args.term_cap,
                          args.workers) if brute else None)
               for f in forms]
    agree = [ev is None or ev.constant == c for _, c, ev in results]
    if args.format == "json":
        doc = {"case": _case_json(case), "forms": []}
        for (f, c, ev), ok in zip(results, agree):
            entry = {"index": f.index, "label": f.label,
                     "h": _json_weight(f.h), "N": _big_n(case, f),
                     "cClosed": c}
            if ev is not None:
                entry["cBrute"] = ev.constant
                entry["agree"] = ok
                entry["lambdaUsed"] = [_json_weight(ev.lam)]
                entry["termCount"] = ev.subsets
                entry["survivingTermCount"] = ev.nonzero
            doc["forms"].append(entry)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        header = ["group", "index", "label", "h", "cClosed"]
        if brute:
            header += ["cBrute", "agree"]
        rows = []
        for (f, c, ev), ok in zip(results, agree):
            row = [str(case), f.index, f.label, _fmt_h(case, f.h), c]
            if ev is not None:
                row += [ev.constant, "yes" if ok else "NO"]
            rows.append(row)
        _emit_rows(args.format, header, rows)
    return 0 if all(agree) else 1


def _big_n(case, form) -> int:
    return _form_data(case, form).levi.big_n


def _table_cases(args) -> list[GroupCase]:
    if args.group is not None:
        return [_case_from_args(args)]
    for flag in ("p", "q", "n"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} needs --group")
    return [GroupCase.su(1, 1), GroupCase.so_odd(1, 1), GroupCase.sp(1),
            GroupCase.so_even(1, 1), GroupCase.so_star(1)]


def cmd_table(args) -> int:
    cases = _table_cases(args)
    if args.format == "json":
        doc = {"cases": []}
        for case in cases:
            entry = {"case": _case_json(case),
                     "orbit": _partition_str(orbit_partition(case)),
                     "forms": [{"index": f.index, "label": f.label,
                                "h": _json_weight(f.h),
                                "N": _big_n(case, f),
                                "formula": closed_form_expr(case, f),
                                "cClosed": constant_closed_form(case, f)}
                               for f in real_forms(case)]}
            doc["cases"].append(entry)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    header = ["group", "orbit", "index", "label", "h", "formula", "constant"]
    rows = []
    latex = args.format == "latex"
    for case in cases:
        for f in real_forms(case):
            rows.append([str(case), _partition_str(orbit_partition(case)),
                         f.index, f.label,
                         (f"${_fmt_h(case, f.h)}$" if latex
                          else _fmt_h(case, f.h)),
                         (f"${closed_form_expr(case, f, latex=True)}$" if latex
                          else closed_form_expr(case, f)),
                         constant_closed_form(case, f)])
    _emit_rows(args.format, header, rows)
    return 0


def cmd_verify(args) -> int:
    report = run_all(max_rank=args.max_rank, term_cap=args.term_cap,
                     workers=args.workers, seed=args.seed)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for c in report["criteria"]:
            status = "PASS" if c["passed"] else "FAIL"
            print(f"criterion {c['id']:>2}  {status}  {c['name']}")
            if not c["passed"]:
                print(f"    details: {c['details']}")
        print("verification " + ("PASSED" if report["passed"] else "FAILED"))
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitconst",
        description="Integer constants attached to real forms of classical "
                    "nilpotent orbits, by exact brute force and closed form.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_case_flags(p):
        p.add_argument("--group", choices=("su", "sp", "so-odd", "so-even",
                                           "so-star"))
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--n", type=int)

    def add_sum_flags(p):
        p.add_argument("--term-cap", type=int, default=DEFAULT_TERM_CAP)
        p.add_argument("--workers", type=int, default=1)

    p_forms = sub.add_parser("real-forms", help="list real forms of a case")
    add_case_flags(p_forms)
    p_forms.set_defaults(func=cmd_real_forms)

    p_const = sub.add_parser("constant", help="compute constants for a case")
    add_case_flags(p_const)
    add_sum_flags(p_const)
    p_const.add_argument("--form", default="all",
                         help="1-based form index, or 'all'")
    p_const.add_argument("--method", choices=("closed", "both"),
                         default="both")
    p_const.set_defaults(func=cmd_constant)

    p_table = sub.add_parser("table", help="emit the constants table")
    add_case_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    add_sum_flags(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-rank", type=int, default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)
    for p in (p_forms, p_const, p_table):
        p.add_argument("--format", choices=FORMATS, default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("workers", "term_cap", "max_rank"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            parser.error(f"--{flag.replace('_', '-')} must be at least 1, "
                         f"got {value}")
    try:
        # each command is one run: it shares one memo and at most one
        # executor, which is shut down on every path out
        with worker_pool():
            return args.func(args)
    except (ValueError, TermCapExceeded, LambdaDegenerateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonIntegerQuotientError as exc:
        print(f"error: non-integer quotient: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
