"""The memo a run keeps for its criteria (form records and sums, not
evaluations), the forms they skip over the term cap, what criterion 7
enumerates, the one executor a run shares, the batch that deals criteria 3
and 4's sums whole into the run's memo and leaves out every sum the run
holds, and that each check of a criterion can fail, naming its witness."""

import collections
import dataclasses
import multiprocessing
from fractions import Fraction

import pytest

from orbitconst import constants, oracles, verify
from orbitconst.constants import DEFAULT_TERM_CAP, default_lambda, levi_data
from orbitconst.orbits import get_form, real_forms
from orbitconst.rootsys import GroupCase, build_root_system

CAP = 16


def _over_cap(max_rank, wanted=lambda case, form: True):
    """Forms whose sum runs over more than CAP subsets, by their pool sizes."""
    out = []
    for case in verify.acceptance_cases(max_rank):
        rs = build_root_system(case)
        for form in filter(lambda f: wanted(case, f), real_forms(case)):
            levi = levi_data(rs, form.h)
            if 1 << (len(levi.delta_n_plus_l) + len(levi.delta_p1)) > CAP:
                out.append(f"{case} form {form.index}")
    return out


def test_term_cap_is_honoured_after_a_full_cap_run():
    expected = _over_cap(4)
    assert len(expected) == 4

    def skipped(**cap):
        return verify.criterion_1(max_rank=4, **cap)["details"]["skipped"]

    # one run, so the warm pass reads what the earlier passes memoized
    with constants.worker_pool():
        cold = skipped(term_cap=CAP)
        skipped()
        warm = skipped(term_cap=CAP)
    assert cold == warm == expected


def test_each_run_walks_afresh_and_shares_its_sums_within_itself(
        monkeypatch):
    walks, evaluations = [], []
    walk, evaluate = constants._subset_sum, verify.cached_constant

    def walked(*args):
        walks.append(args)
        return walk(*args)

    def evaluated(*args):
        evaluations.append(args)
        return evaluate(*args)

    monkeypatch.setattr(constants, "_subset_sum", walked)
    monkeypatch.setattr(verify, "cached_constant", evaluated)
    counts = []
    for _ in range(2):
        walks.clear()
        evaluations.clear()
        verify.run_all(max_rank=3, skip_determinism=True)
        counts.append((len(evaluations), len(walks)))
    # the second run walks as much as the first: nothing is kept between;
    # within a run, evaluations that name one sum read a single walk of it
    assert counts[0] == counts[1]
    evaluated_once, walked_once = counts[0]
    assert evaluated_once > walked_once > 0


def test_criteria_3_and_4_list_the_forms_they_skip():
    expected = _over_cap(4)
    for criterion in (verify.criterion_3, verify.criterion_4):
        result = criterion(max_rank=4, term_cap=CAP)
        assert result["details"]["skipped"] == expected, result["name"]
        assert result["details"]["failures"] == []


def test_skipped_is_absent_when_nothing_is_skipped():
    for criterion in (verify.criterion_3, verify.criterion_4,
                      verify.criterion_5, verify.criterion_7):
        assert "skipped" not in criterion(max_rank=3)["details"]


def test_criterion_4_reports_orthogonality_over_the_term_cap():
    # the orthogonality verdict comes from the v2 sum, which raises before
    # the cap is checked; evaluated after orig, the witnesses over the cap
    # would be listed as skipped instead
    witnesses = ("SO_e(6,5)", "SO_e(6,7)", "SO_e(6,9)", "SO_e(6,6)",
                 "SO_e(6,8)")
    result = verify.criterion_4(term_cap=CAP)
    assert result["details"]["failures"] == [
        (case, 2, "orthogonality") for case in witnesses]
    skipped = result["details"]["skipped"]
    assert len(skipped) == 39
    assert skipped == [f for f in _over_cap(None)
                       if f not in {f"{case} form 2" for case in witnesses}]


@pytest.mark.parametrize("value, error", [
    (0, ValueError), (-1, ValueError), (True, TypeError), (2.5, TypeError),
    ("3", TypeError)])
def test_max_rank_is_validated_where_it_enters(value, error):
    # max_rank=0 once filtered out every case, and all nine criteria passed
    # over zero forms
    with pytest.raises(error, match="max_rank"):
        verify.acceptance_cases(value)
    with pytest.raises(error, match="max_rank"):
        verify.run_all(max_rank=value)


@pytest.mark.parametrize("criterion", [
    verify.criterion_1, verify.criterion_3, verify.criterion_4,
    verify.criterion_5, verify.criterion_6, verify.criterion_7,
    verify.criterion_8, verify.criterion_9])
def test_criteria_take_their_parameters_by_keyword(criterion):
    # criterion_5 once took term_cap first, so criterion_5(4) skipped every
    # form and passed
    with pytest.raises(TypeError):
        criterion(4)


def test_criterion_5_lists_the_forms_it_skips():
    expected = _over_cap(4, lambda case, form: case.family == "so-odd"
                         and form.kind == 3)
    assert expected
    result = verify.criterion_5(max_rank=4, term_cap=CAP)
    assert result["details"]["skipped"] == expected
    assert result["details"]["failures"] == []


def test_criterion_7_lists_the_forms_it_skips():
    # criterion 7 checks every sp, so-star and su form and the first form of
    # the orthogonal families
    expected = _over_cap(4, lambda case, form: form.index == 1 or case.family
                         in ("sp", "so-star", "su"))
    assert expected
    result = verify.criterion_7(max_rank=4, term_cap=CAP)
    assert sorted(result["details"]["skipped"]) == sorted(expected)
    assert result["details"]["failures"] == []


def test_criterion_7_enumerates_each_form_once(monkeypatch):
    seen = []
    enumerate_survivors = oracles.surviving_terms

    def counted(case, form, *args, **kwargs):
        seen.append(f"{case} form {form.index}")
        return enumerate_survivors(case, form, *args, **kwargs)

    monkeypatch.setattr(oracles, "surviving_terms", counted)
    assert verify.criterion_7(max_rank=5)["passed"]
    assert len(seen) == len(set(seen))
    # every sp, so-star and su form, and form 1 of every so-odd and so-even
    # case, the so-odd cases with q = p - 1 among them
    expected = {f"{case} form {form.index}"
                for case in verify.acceptance_cases(5)
                for form in real_forms(case)
                if form.index == 1 or case.family in ("sp", "so-star", "su")}
    assert set(seen) == expected


def test_run_all_shares_one_executor_across_its_criteria(monkeypatch):
    serial = verify.run_all(workers=1, skip_determinism=True)
    started = []

    def counted(*args, **kwargs):
        started.append(kwargs)
        return executor(*args, **kwargs)

    executor = constants.ProcessPoolExecutor
    monkeypatch.setattr(constants, "ProcessPoolExecutor", counted)
    pooled = verify.run_all(workers=2, skip_determinism=True)
    assert len(started) == 1
    assert pooled["criteria"] == serial["criteria"]
    assert multiprocessing.active_children() == []


def _sums(run):
    """The (total, nonzero) of each sum in the run's memo, by its key."""
    return {key: value for key, value in run.memo.items()
            if key[0] == "sum"}


def test_a_batch_keys_each_sum_on_what_fixes_it(monkeypatch):
    # SU(1,1) and Sp(4,R) form 1 at lambda = (2, 1) both sum over an empty
    # pool from the base (4, 2), but their P_K differ: a key without P_K's
    # packed factors hands one the other's total
    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0, 1})
    lam = (Fraction(2), Fraction(1))
    forms = [(case, get_form(case, 1))
             for case in (GroupCase.su(1, 1), GroupCase.sp(2))]
    alone = [constants._constant(case, form, lam, "orig", DEFAULT_TERM_CAP,
                                 1).lhs for case, form in forms]
    with constants.worker_pool() as run:
        constants._prewalk([(case, form, lam, "orig") for case, form in forms],
                           DEFAULT_TERM_CAP, 2)
        walked = _sums(run)
        assert len(walked) == 2
        # each evaluation reads its batched total instead of a walk
        monkeypatch.setattr(constants, "_subset_sum", None)
        batched = [verify.cached_constant(case, form, lam, "orig",
                                          DEFAULT_TERM_CAP, 2).lhs
                   for case, form in forms]
        assert _sums(run) == walked
    assert batched == alone


def test_a_batch_walks_no_sum_the_run_holds(monkeypatch):
    # with an empty A-pool the v2 sum at lambda_0 is the orig sum, under
    # one key: once an orig evaluation has walked it, the batch of the v2
    # sums leaves it out, whichever evaluation's key it would look up
    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0, 1})
    forms = [(case, form) for case in verify.acceptance_cases(3)
             for form in real_forms(case)
             if constants._form_data(case, form).levi.delta_n_plus_l == ()]
    assert len(forms) > 2
    dealt, deal = [], constants._deal

    def recorded(walk, shared, units, workers):
        if walk is constants._walk_sums:
            dealt.extend(units)
        return deal(walk, shared, units, workers)

    monkeypatch.setattr(constants, "_deal", recorded)
    with constants.worker_pool() as run:
        for case, form in forms:
            verify.cached_constant(case, form, default_lambda(case, form),
                                   "orig", DEFAULT_TERM_CAP, 2)
        held = _sums(run)
        constants._prewalk([(case, form, default_lambda(case, form), "v2")
                            for case, form in forms], DEFAULT_TERM_CAP, 2)
        assert dealt == []
        assert _sums(run) == held
        # and each v2 evaluation reads its sum from the run
        monkeypatch.setattr(constants, "_subset_sum", None)
        for case, form in forms:
            verify.cached_constant(case, form, default_lambda(case, form),
                                   "v2", DEFAULT_TERM_CAP, 2)
    assert multiprocessing.active_children() == []


def test_a_batch_deals_whole_sums_and_changes_no_count(monkeypatch):
    # criterion 3 deals its sums whole, in min(workers, sums) chunks, one
    # task each; an evaluation reads every sum in the run's memo, and the
    # report, the evaluations and their subsets and nonzero terms are those
    # of one worker
    mapped, sums = [], collections.defaultdict(collections.Counter)
    add, memoized, read = constants.alternating_sum, constants._in_run, set()

    class Recording(constants.ProcessPoolExecutor):
        def map(self, fn, shared, chunks, chunksize=1):
            mapped.append((fn.__name__, [len(c) for c in chunks], chunksize))
            return super().map(fn, shared, chunks, chunksize=chunksize)

    def counted(*args):
        lhs, nonzero, subsets = add(*args)
        sums[args[-1]].update(calls=1, subsets=subsets, nonzero=nonzero)
        return lhs, nonzero, subsets

    def looked_up(key, compute):
        read.add(key)
        return memoized(key, compute)

    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0, 1})
    monkeypatch.setattr(constants, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(constants, "alternating_sum", counted)
    monkeypatch.setattr(constants, "_in_run", looked_up)
    reports = []
    for workers in (1, 2):
        with constants.worker_pool() as run:
            reports.append(verify.run_all(max_rank=4, workers=workers,
                                          skip_determinism=True)["criteria"])
            assert _sums(run) and set(_sums(run)) <= read
    assert reports[0] == reports[1]
    assert sums[1] == sums[2] and sums[1]["calls"] > 0
    # 88 sums in 2 chunks, one task each
    assert mapped[0] == ("_walk_sums", [44, 44], 1)
    assert all(name == "_walk_sums" and len(chunks) == 2 and chunksize == 1
               for name, chunks, chunksize in mapped)
    assert multiprocessing.active_children() == []


def test_a_run_memoizes_form_records_and_sums_alone(monkeypatch):
    # an evaluation reads its form's record and its sum from the run, so
    # the memo holds those, the root systems and P_K they derive from, and
    # no evaluation or key of another kind
    monkeypatch.setattr(constants.os, "sched_getaffinity", lambda _: {0, 1})
    with constants.worker_pool() as run:
        verify.run_all(max_rank=4, workers=2, skip_determinism=True)
        kinds = {key[0] for key in run.memo}
    assert kinds == {"rs", "P_K", "form", "sum"}
    assert multiprocessing.active_children() == []


def _failed(result) -> list:
    assert result["passed"] is False
    return result["details"]["failures"]


def test_criterion_2_names_the_polynomial_that_fails(monkeypatch):
    evaluate = verify.eval_dim_poly
    monkeypatch.setattr(verify, "eval_dim_poly",
                        lambda poly, lam: evaluate(poly, lam) + (len(lam) == 3))
    assert _failed(verify.criterion_2()) == [("P1", 3), ("P2", 3)]


def _closed_form_plus_one(monkeypatch, case, index) -> int:
    """Shift the closed form ``verify`` reads for one form by one; returns
    the form's true closed form."""
    closed = verify.constant_closed_form
    monkeypatch.setattr(verify, "constant_closed_form", lambda c, form: (
        closed(c, form) + ((c, form.index) == (case, index))))
    return closed(case, index)


def _constant_plus_one(monkeypatch, *where) -> None:
    """Shift by one the constant of every evaluation whose key starts with
    ``where``: its LHS gains P_{L&K}(lambda)."""
    evaluate = verify.cached_constant

    def shifted(*key):
        ev = evaluate(*key)
        return (dataclasses.replace(ev, lhs=ev.lhs + ev.plk)
                if key[:len(where)] == where else ev)

    monkeypatch.setattr(verify, "cached_constant", shifted)


def test_criterion_1_names_a_disagreement(monkeypatch):
    case = GroupCase.sp(2)
    c = _closed_form_plus_one(monkeypatch, case, 1)
    result = verify.criterion_1(max_rank=2)
    assert result["passed"] is False
    assert result["details"]["disagreements"] == [
        {"case": str(case), "index": 1, "cBrute": c, "cClosed": c + 1}]


def test_criterion_3_names_a_lambda_dependent_form(monkeypatch):
    case = GroupCase.sp(2)
    form = get_form(case, 1)
    lam = constants.lambda_candidates(case, form, count=3, seed=0)[1]
    _constant_plus_one(monkeypatch, case, form, lam)
    c = verify.constant_closed_form(case, form)
    assert _failed(verify.criterion_3(max_rank=2)) == [
        (str(case), form.index, [c, c + 1])]


def test_criterion_4_names_a_form_whose_sums_disagree(monkeypatch):
    case = GroupCase.sp(2)
    form = get_form(case, 1)
    _constant_plus_one(monkeypatch, case, form, default_lambda(case, form),
                       "v2")
    c = verify.constant_closed_form(case, form)
    assert _failed(verify.criterion_4(max_rank=2)) == [
        (str(case), form.index, (c, c + 1))]


def test_criterion_5_names_a_nonzero_sum(monkeypatch):
    case = GroupCase.so_odd(1, 1)
    form = get_form(case, 3)
    lam = default_lambda(case, form)
    evaluate = verify.cached_constant

    def shifted(*key):
        ev = evaluate(*key)
        return (dataclasses.replace(ev, lhs=ev.lhs + 1)
                if key[:3] == (case, form, lam) else ev)

    monkeypatch.setattr(verify, "cached_constant", shifted)
    assert _failed(verify.criterion_5(max_rank=2)) == [
        (str(case), [str(x) for x in lam], "1")]


@pytest.mark.parametrize("case, witness", [
    (GroupCase.sp(2), "set mismatch"), (GroupCase.su(1, 1), "su oracle"),
    (GroupCase.so_odd(1, 1), "unique survivor")])
def test_criterion_7_names_an_oracle_mismatch(monkeypatch, case, witness):
    check = oracles.check_oracle_against_brute_force

    def refuse_one(c, form, survivors):
        return (c, form.index) != (case, 1) and check(c, form, survivors)

    monkeypatch.setattr(oracles, "check_oracle_against_brute_force",
                        refuse_one)
    assert _failed(verify.criterion_7(max_rank=2)) == [(str(case), 1, witness)]


@pytest.mark.parametrize("change, witness", [
    ({"value": -2}, "value not +-1"), ({"a_set": ()}, "#A != pq/2")])
def test_criterion_7_names_a_survivor_off_the_shuffle(monkeypatch, change,
                                                      witness):
    # Sp(6,R) form 2 has one survivor, with value -1 and one root in A; the
    # oracle is told to agree, so only the shuffle checks can catch it
    case = GroupCase.sp(3)
    enumerate_survivors = oracles.surviving_terms

    def changed(c, form, *args, **kwargs):
        terms = enumerate_survivors(c, form, *args, **kwargs)
        if (c, form.index) != (case, 2):
            return terms
        return [dataclasses.replace(t, **change) for t in terms]

    monkeypatch.setattr(oracles, "surviving_terms", changed)
    monkeypatch.setattr(oracles, "check_oracle_against_brute_force",
                        lambda c, form, survivors: True)
    assert _failed(verify.criterion_7(max_rank=3)) == [(str(case), 2, witness)]


def test_criterion_7_names_a_survivor_count_off_the_closed_form(
        monkeypatch):
    case = GroupCase.sp(3)
    _closed_form_plus_one(monkeypatch, case, 2)
    assert _failed(verify.criterion_7(max_rank=3)) == [(str(case), 2, "count")]


def test_criterion_8_names_a_wrong_form_count(monkeypatch):
    case = GroupCase.sp(2)
    forms = verify.real_forms
    monkeypatch.setattr(verify, "real_forms",
                        lambda c: forms(c)[:-1] if c == case else forms(c))
    assert _failed(verify.criterion_8(max_rank=2)) == [(str(case), 2, 3)]


def test_criterion_6_checks_the_flip_pairs_and_their_signs(monkeypatch):
    # spelled out here, apart from orbits.flip_source: so-odd I/II at p-1
    # with sign -1, so-even I/II at p-1 and III/IV at the last coordinate
    # with sign +1, wherever both forms exist
    expected = []
    for case in verify.acceptance_cases():
        kinds = {f.kind for f in real_forms(case)}
        if case.family in ("so-odd", "so-even") and 2 in kinds:
            sign = -1 if case.family == "so-odd" else +1
            expected.append((str(case), 1, 2, case.p - 1, sign))
        if case.family == "so-even" and 4 in kinds:
            expected.append((str(case), 3, 4, case.rank - 1, +1))
    seen = []
    relate = verify.auto_sign_relation

    def recorded(case, coord, form1, form2):
        seen.append((str(case), form1.kind, form2.kind, coord))
        return relate(case, coord, form1, form2)

    monkeypatch.setattr(verify, "auto_sign_relation", recorded)
    assert verify.criterion_6()["passed"]
    assert seen == [pair[:4] for pair in expected] and len(seen) == 19
    # a sign of +1 everywhere is wrong exactly on the pairs expecting -1
    monkeypatch.setattr(verify, "auto_sign_relation",
                        lambda case, coord, form1, form2: +1)
    failures = verify.criterion_6()["details"]["failures"]
    assert [f[:5] for f in failures] == [
        (case, 1, 2, +1, -1) for case, _, _, _, sign in expected if sign < 0]
