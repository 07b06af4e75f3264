"""Tests of the benchmark itself: span arithmetic, tracer hygiene, smoke runs."""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import job
import run
from tracing import Span, Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_self_time_subtracts_direct_children_only():
    spans = [Span("a", None, 0.0, 10.0), Span("b", 0, 1.0, 4.0),
             Span("c", 1, 2.0, 3.0), Span("b", 0, 5.0, 9.0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_attribute_counts_to_their_criterion():
    tracer = Tracer()
    alt = "constants.alternating_sum"
    tracer.spans = [
        Span("verify.criterion_1", None, 0.0, 10.0),
        Span(alt, 0, 1.0, 3.0, {"subsets": 8, "nonzero": 2}),
        Span("verify.criterion_3", None, 10.0, 20.0),
        Span(alt, 2, 11.0, 19.0, {"subsets": 4096, "nonzero": 6, "pool": True}),
        Span("oracles.surviving_terms", 2, 19.0, 20.0, {"survivors": 3}),
        Span("constants.levi_data", 4, 19.1, 19.2, {"pool": 5}),
        Span("constants.levi_data", 2, 19.3, 19.4, {"pool": 7}),
    ]
    m = tracer.layer_metrics()
    assert m[f"{alt}.calls"] == 2 and m[f"{alt}.self_s"] == 10.0
    assert m[f"{alt}.subsets"] == 4104 and m[f"{alt}.nonzero"] == 8
    assert m[f"{alt}.parallel_calls"] == 1 and m[f"{alt}.parallel_self_s"] == 8.0
    assert m["verify.criterion_1.subsets"] == 8
    assert m["verify.criterion_1.nonzero"] == 2
    assert m["verify.criterion_1.wall_s"] == 10.0
    assert m["verify.criterion_1.self_s"] == 8.0
    assert m[f"{alt}.nonzero_ratio"] == 8 / 4104
    assert m["oracles.surviving_terms.subsets"] == 32
    assert m["oracles.surviving_terms.survivors"] == 3


def _library_attributes():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "orbitconst" or name.startswith("orbitconst.")
            for attr, value in vars(mod).items()}


def test_traced_run_restores_attributes_and_gives_identical_outputs():
    oc = job.import_library()
    items = []
    for case in (oc.GroupCase.so_odd(2, 2), oc.GroupCase.so_even(2, 3),
                 oc.GroupCase.sp(3)):
        for form in oc.real_forms(case):
            lam = oc.lambda_candidates(case, form, count=2, seed=1)[1]
            items.append((case, form, lam, oc.constant_closed_form(case, form)))

    def outputs():
        return (job.run_workload(oc, "heavy-generic", items),
                [oc.surviving_terms(case, form) for case, form, _, _ in items
                 if case.family == "sp"],
                oc.verify.criterion_8())

    before = _library_attributes()
    untraced = outputs()
    with Tracer() as tracer:
        traced = outputs()
    assert _library_attributes() == before
    assert traced == untraced
    assert job.check_outputs(oc, "heavy-generic", items, traced[0]) == (len(items), [])
    assert tracer.absent == []
    m = tracer.layer_metrics()
    assert m["constants.constant_brute_force_orig.calls"] == len(items)
    assert m["constants.alternating_sum.calls"] == len(items)
    assert m["oracles.surviving_terms.calls"] == 4
    assert m["oracles.surviving_terms.survivors"] == sum(len(t) for t in traced[1])
    assert m["oracles.surviving_terms.subsets"] == sum(
        1 << (len(levi.delta_n_plus_l) + len(levi.delta_p1))
        for levi in (oc.levi_data(oc.build_root_system(case), form.h)
                     for case, form, _, _ in items if case.family == "sp"))
    assert m["verify.criterion_8.calls"] == 1


def test_missing_layer_is_reported_absent():
    job.import_library()
    layers = ("constants.no_such_function", "no_such_module.f",
              "rootsys.build_root_system")
    before = _library_attributes()
    with Tracer(layers) as tracer:
        assert tracer.absent == list(layers[:2])
    assert _library_attributes() == before
    assert tracer.layer_metrics()["constants.no_such_function.calls"] == 0


def test_traced_run_marks_calls_that_start_a_pool():
    oc = job.import_library()
    case = oc.GroupCase.so_odd(3, 3)  # form 1 sums over 2^12 subsets
    with Tracer() as tracer:
        serial = oc.constant_brute_force_orig(case, 1, workers=1)
        pooled = oc.constant_brute_force_orig(case, 1, workers=2)
    m = tracer.layer_metrics()
    assert serial == pooled
    assert m["constants.alternating_sum.calls"] == 2
    assert m["constants.alternating_sum.subsets"] == 2 << 12
    assert m["constants.alternating_sum.parallel_calls"] == 1


def test_raising_sweep_counts_every_criterion_failed(monkeypatch):
    oc = job.import_library()

    def broken(*args, **kwargs):
        raise oc.NonIntegerQuotientError("broken on purpose")

    monkeypatch.setattr(oc.verify, "cached_constant", broken)
    record = job.run_job(oc, "sweep", job.make_inputs(oc, "sweep", 0), trace=True)
    assert record["attempted"] == 8 == record["failed"]


def test_speed_probe_samples_and_disarms():
    before = signal.getsignal(signal.SIGVTALRM)
    with job.SpeedProbe() as probe:
        job.reference_loop(4_000_000)  # about 1.2 s of user CPU time
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGVTALRM) is before
    assert len(probe.ns_per_step) >= 2
    assert probe.spent_s > 0
    assert run.speed_scale([150.0, 600.0]) == pytest.approx(
        (run.NOMINAL_NS_PER_STEP / 150 + run.NOMINAL_NS_PER_STEP / 600) / 2)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report, last = proc.stdout.splitlines()
    return json.loads(report)["report"], json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
def test_sweep_run_meets_output_contract(trace):
    report, result = _result(_run(["--workload", "sweep", "--seed", "3",
                                   "--seconds", "1", "--trace", str(trace)]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[kind]}
    assert {"python", "nproc", "platform", "workers", "commit"} <= set(report["env"])
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert {k: values[k] for k in job.CRITERION_1_COUNTS} == job.CRITERION_1_COUNTS
        assert values["constants.alternating_sum.parallel_calls"] > 0
        assert (values["oracles.surviving_terms.subsets"]
                >= values["oracles.surviving_terms.survivors"] > 0)
    else:
        assert all(n > 0 for n in report["job_samples"])
        assert all(s > 0 for s in report["job_scale"] + report["setup_scale"])


def test_wrong_output_is_reported_failed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    constants = tmp_path / "src" / "orbitconst" / "constants.py"
    constants.write_text(constants.read_text() + (
        "\n\ndef _constant(*args, **kwargs):\n"
        "    raise NonIntegerQuotientError('broken on purpose')\n"))
    _, result = _result(_run(["--workload", "heavy-wall", "--seed", "0",
                              "--seconds", "1", "--trace", "0"], cwd=tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= len(job.HEAVY_FORMS)


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
