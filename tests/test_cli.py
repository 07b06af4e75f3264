import csv
import io
import json
import multiprocessing

import pytest

from orbitconst import (GroupCase, NonIntegerQuotientError, build_root_system,
                        get_form, levi_data, real_forms)
from orbitconst import cli, constants
from orbitconst.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_real_forms_sp(capsys):
    code, out, _ = run(capsys, "real-forms", "--group", "sp", "--n", "2")
    assert code == 0
    assert "(-1,-1)" in out and "(1,-1)" in out and "(1,1)" in out
    assert out.count("form ") == 3


def test_real_forms_so_odd_two_forms(capsys):
    code, out, _ = run(capsys, "real-forms", "--group", "so-odd",
                       "--p", "2", "--q", "1")
    assert code == 0
    assert out.count("form ") == 2


def test_real_forms_bad_params(capsys):
    code, _, err = run(capsys, "real-forms", "--group", "su", "--p", "0",
                       "--q", "3")
    assert code == 2
    assert "error" in err


def test_real_forms_json_tableau(capsys):
    code, out, _ = run(capsys, "real-forms", "--group", "so-odd",
                       "--p", "2", "--q", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["weightedDynkin"] == [1, 0, 1, 0]
    first = doc["forms"][0]
    assert first["h"] == ["2", "1", "1", "0"]
    assert first["tableau"][0] == "+-+"


def test_real_forms_csv(capsys):
    code, out, _ = run(capsys, "real-forms", "--group", "sp", "--n", "2",
                       "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["group", "index", "label", "h", "existsWhen"],
        ["Sp(4,R)", "1", "k=0", "(-1,-1)", "always"],
        ["Sp(4,R)", "2", "k=1", "(1,-1)", "always"],
        ["Sp(4,R)", "3", "k=2", "(1,1)", "always"]]


def test_real_forms_latex(capsys):
    code, out, _ = run(capsys, "real-forms", "--group", "sp", "--n", "2",
                       "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == r"\begin{tabular}{lllll}"
    assert lines[2] == r"group & index & label & h & existsWhen \\"
    assert lines[4] == r"Sp(4,R) & 1 & k=0 & (-1,-1) & always \\"
    assert lines[-1] == r"\end{tabular}"
    assert len(lines) == 4 + 3 + 2


@pytest.mark.parametrize("command", ["real-forms", "constant"])
def test_a_case_command_without_group_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--n", "2")
    assert code == 2 and out == ""
    assert err == "error: --group is required\n"


def test_a_non_integer_quotient_exits_1(capsys, monkeypatch):
    import orbitconst.cli as cli

    def broken(*args):
        raise NonIntegerQuotientError("LHS / P_LK = 1/2 is not an integer")

    monkeypatch.setattr(cli, "_constant", broken)
    code, _, err = run(capsys, "constant", "--group", "sp", "--n", "2",
                       "--form", "1")
    assert code == 1
    assert err == ("error: non-integer quotient: "
                   "LHS / P_LK = 1/2 is not an integer\n")


def test_constant_su_both(capsys):
    code, out, _ = run(capsys, "constant", "--group", "su", "--p", "2",
                       "--q", "3", "--form", "2", "--method", "both",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    form = doc["forms"][0]
    assert form["cClosed"] == 2 and form["cBrute"] == 2 and form["agree"]
    assert all("/" not in x or len(x.split("/")) == 2
               for x in form["lambdaUsed"][0])


def test_constant_so_odd_third_form_zero(capsys):
    code, out, _ = run(capsys, "constant", "--group", "so-odd", "--p", "2",
                       "--q", "2", "--form", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["forms"][0]["cClosed"] == 0
    assert doc["forms"][0]["cBrute"] == 0


def test_constant_so_star_closed(capsys):
    code, out, _ = run(capsys, "constant", "--group", "so-star", "--n", "4",
                       "--form", "2", "--method", "closed", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["forms"][0]["cClosed"] == -2
    assert "cBrute" not in doc["forms"][0]


def test_constant_nonexistent_form(capsys):
    code, _, err = run(capsys, "constant", "--group", "sp", "--n", "2",
                       "--form", "9")
    assert code == 2 and "error" in err


def test_constant_out_of_range_form_is_get_forms_error(capsys):
    code, out, err = run(capsys, "constant", "--group", "su", "--p", "1",
                         "--q", "1", "--form", "5")
    assert (code, out) == (2, "")
    with pytest.raises(ValueError) as info:
        get_form(GroupCase.su(1, 1), 5)
    assert err == f"error: {info.value}\n"


def test_constant_form_must_be_an_index_or_all(capsys):
    code, out, err = run(capsys, "constant", "--group", "sp", "--n", "2",
                         "--form", "abc")
    assert (code, out) == (2, "")
    assert err == "error: --form must be a 1-based index or 'all', got 'abc'\n"


@pytest.mark.parametrize("argv, message", [
    (["real-forms", "--group", "su", "--p", "1", "--q", "1", "--n", "9"],
     "su takes parameters p and q"),
    (["real-forms", "--group", "su", "--p", "1"], "su takes parameters p and q"),
    (["constant", "--group", "sp", "--n", "2", "--p", "7", "--method",
      "closed"], "sp takes parameter n"),
    (["constant", "--group", "so-odd", "--p", "2", "--q", "2", "--n", "1"],
     "so-odd takes parameters p and q"),
    (["table", "--group", "so-star", "--n", "3", "--q", "1"],
     "so-star takes parameter n"),
    (["table", "--group", "so-star"], "so-star takes parameter n"),
    (["table", "--n", "3", "--format", "csv"], "--n needs --group"),
])
def test_case_flags_the_family_does_not_take(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


class _ReadRecorder:
    """A parsed namespace that records which attributes a command reads."""

    def __init__(self, namespace):
        self._namespace = namespace
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._namespace, name)


@pytest.mark.parametrize("argv", [
    ["real-forms", "--group", "sp", "--n", "2"],
    ["constant", "--group", "sp", "--n", "2"],
    ["table", "--group", "sp", "--n", "2"],
    ["verify", "--max-rank", "1"],
])
def test_every_flag_is_read_by_its_command(capsys, argv):
    # a flag its command never reads is a setting that does nothing
    args = build_parser().parse_args(argv)
    recorder = _ReadRecorder(args)
    args.func(recorder)
    capsys.readouterr()
    assert set(vars(args)) - {"command", "func"} - recorder.read == set()


def test_constant_term_cap_exit(capsys):
    code, _, err = run(capsys, "constant", "--group", "so-odd", "--p", "3",
                       "--q", "4", "--form", "3", "--term-cap", "16")
    assert code == 2
    assert "subsets" in err


def test_table_sp5_csv(capsys):
    code, out, _ = run(capsys, "table", "--group", "sp", "--n", "5",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "group"
    assert len(rows) == 1 + 6
    constants = [int(r[-1]) for r in rows[1:]]
    assert constants == [1, -1, -2, 2, 1, -1]


def test_table_all_families_json(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert {c["case"]["family"] for c in doc["cases"]} == \
        {"su", "sp", "so-odd", "so-even", "so-star"}
    for entry in doc["cases"]:
        for form in entry["forms"]:
            assert set(form) >= {"index", "label", "h", "N", "cClosed",
                                 "formula"}


def _count_set_up(monkeypatch):
    """Calls of the root-system and Levi builders ``constants`` reads."""
    calls = {"build_root_system": 0, "levi_data": 0}
    for name in calls:
        def counted(*args, _build=getattr(constants, name), _name=name):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(constants, name, counted)
    return calls


def test_a_command_sets_up_each_form_once(capsys, monkeypatch):
    # each command is one run, so N is read from the form record its sums
    # built, not from a second one built after the run
    calls = _count_set_up(monkeypatch)
    code, _, _ = run(capsys, "constant", "--group", "so-even", "--p", "3",
                     "--q", "3", "--format", "json")
    assert code == 0
    assert calls == {"build_root_system": 1, "levi_data": 4}
    calls = _count_set_up(monkeypatch)
    code, _, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    # one root system per default case, one Levi per form of them
    assert calls == {"build_root_system": 5, "levi_data": 10}


@pytest.mark.parametrize("fails", [False, True])
def test_a_command_starts_one_executor_and_shuts_it_down(capsys, monkeypatch,
                                                         fails):
    # SO_e(4,8) form 3 sums over 2^12 subsets, so two workers deal it
    started = []

    class Recording(constants.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    def broken(case, form):
        raise ValueError("on purpose")

    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0, 1})
    monkeypatch.setattr(constants, "ProcessPoolExecutor", Recording)
    if fails:
        monkeypatch.setattr(cli, "_big_n", broken)
    code, out, err = run(capsys, "constant", "--group", "so-even", "--p", "2",
                         "--q", "4", "--form", "3", "--workers", "2",
                         "--format", "json")
    assert started == [2]
    assert multiprocessing.active_children() == []
    if fails:
        assert (code, out, err) == (2, "", "error: on purpose\n")
    else:
        assert code == 0 and json.loads(out)["forms"][0]["agree"] is True


@pytest.mark.parametrize("command", ["table", "constant"])
def test_n_counts_the_positive_roots_positive_on_h(capsys, command):
    cases = {("so-even", "--p", "2", "--q", "3"): GroupCase.so_even(2, 3),
             ("so-odd", "--p", "2", "--q", "2"): GroupCase.so_odd(2, 2),
             ("su", "--p", "2", "--q", "3"): GroupCase.su(2, 3),
             ("sp", "--n", "3"): GroupCase.sp(3),
             ("so-star", "--n", "4"): GroupCase.so_star(4)}
    for argv, case in cases.items():
        code, out, _ = run(capsys, command, "--group", *argv, "--format",
                           "json")
        assert code == 0
        doc = json.loads(out)
        forms = (doc["cases"][0] if command == "table" else doc)["forms"]
        rs = build_root_system(case)
        assert [f["N"] for f in forms] == [
            levi_data(rs, get_form(case, f["index"]).h).big_n for f in forms]
        assert len(forms) == len(real_forms(case))


def test_table_latex(capsys):
    code, out, _ = run(capsys, "table", "--group", "so-even", "--p", "2",
                       "--q", "2", "--format", "latex")
    assert code == 0
    assert out.startswith(r"\begin{tabular}")
    assert r"\binom" in out or "2^" in out
    assert out.count(r"\\") >= 5


def test_table_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--group", "sp", "--n", "4",
                      "--format", "json")
    _, second, _ = run(capsys, "table", "--group", "sp", "--n", "4",
                       "--format", "json")
    assert first == second


def test_constant_method_brute(capsys):
    # flags that changed no output are usage errors; the default method still
    # runs the brute force
    sp2 = ["--group", "sp", "--n", "2"]
    for argv in (["constant", *sp2, "--method", "brute"],
                 ["constant", *sp2, "--seed", "1"],
                 ["table", *sp2, "--term-cap", "5"],
                 ["table", *sp2, "--workers", "2"],
                 ["table", *sp2, "--seed", "1"],
                 ["verify", "--max-rank", "1", "--format", "csv"],
                 ["verify", "--max-rank", "1", "--format", "latex"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert (f"invalid choice: '{argv[-1]}'" in err
                if argv[-2] in ("--method", "--format")
                else "unrecognized arguments" in err)
    code, out, _ = run(capsys, "constant", "--group", "sp", "--n", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all("cBrute" in f for f in doc["forms"])


def test_constant_disagreement_exits_1(capsys, monkeypatch):
    import orbitconst.cli as cli
    monkeypatch.setattr(cli, "constant_closed_form", lambda case, form: 999)
    code, out, _ = run(capsys, "constant", "--group", "sp", "--n", "2",
                       "--form", "1")
    assert code == 1
    assert "NO" in out


def test_verify_small_budget(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["id"] for c in doc["criteria"]] == list(range(1, 10))


def test_verify_exits_1_on_a_constant_disagreement(capsys, monkeypatch):
    import orbitconst.verify as verify
    monkeypatch.setattr(verify, "constant_closed_form", lambda case, form: 999)
    code, out, _ = run(capsys, "verify", "--max-rank", "2")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_flags_below_one_are_usage_errors(capsys, value):
    # rejected while parsing, before any sum or process pool starts; a verify
    # run with no term or no case would otherwise pass having checked nothing
    constant = ["constant", "--group", "sp", "--n", "2"]
    verify = ["verify", "--max-rank", "1"]
    for argv, flag in ((constant, "--workers"), (verify, "--workers"),
                       (constant, "--term-cap"), (verify, "--term-cap"),
                       (["verify"], "--max-rank")):
        with pytest.raises(SystemExit) as info:
            main([*argv, flag, value])
        assert info.value.code == 2
        assert f"{flag} must be at least 1, got {value}" in \
            capsys.readouterr().err
