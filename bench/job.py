"""One benchmark job in a fresh interpreter.

    python3 bench/job.py --workload NAME --seed N [--trace 0|1]
                         [--setup-only] [--spans PATH]

Imports orbitconst from the checkout's ``src``, builds the workload's inputs
from the seed, prints the monotonic clock reading at which set-up ended, then
runs the workload once, checks every output against exact integers and
prints one JSON record as its last line.  An operation that raises counts as
failed; it does not end the job.  Short slices of a fixed reference loop,
run after set-up and, through a CPU-time signal, all through an untraced
job, sample the host's speed so that run.py can scale the measured times to
a nominal speed (see ``SpeedProbe``).  Each job gets its own interpreter,
as each ``orbitconst verify`` does, so no module-level cache of the library
carries over from one repetition to the next.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "heavy-wall", "heavy-generic")

# (group, p, q, form index): SO_e(6,9) III, SO_e(6,11) I and SO_e(6,10) III,
# 2^19, 2^20 and 2^22 subsets.  Two shapes of form, so a root-order
# heuristic tuned to one of them shows its cost on the other.
HEAVY_FORMS = (("so_odd", 3, 4, 3), ("so_odd", 3, 5, 1), ("so_even", 3, 5, 3))

# Criterion 4 is known red: rho_n(l) is not orthogonal to the compact Levi
# roots for the second orthogonal form once p >= 3.  These are its witnesses.
CRITERION_4_WITNESSES = (("so_odd", 3, 2), ("so_even", 3, 3), ("so_odd", 3, 3),
                         ("so_even", 3, 4), ("so_odd", 3, 4))  # SO_e(6,5..9)

# heavy-generic takes its lambda from this fixed seed, not from the run's:
# the cost of one lambda varies by a third between seeds (bigint sizes and
# zero patterns differ), more than any run-to-run bound could absorb.
GENERIC_LAMBDA_SEED = 0

# Subset and nonzero-term counts of criterion 1 over the full range.
CRITERION_1_COUNTS = {"verify.criterion_1.subsets": 801_168,
                      "verify.criterion_1.nonzero": 5_321}


# Slices of the reference loop that sample the host's speed: one of
# SETUP_REFERENCE_STEPS after set-up (about 60 ms in a fast phase), and one
# of PROBE_STEPS (about 1.5 ms) every PROBE_INTERVAL_S of a job's user CPU
# time, which costs the job about 3%.
SETUP_REFERENCE_STEPS = 200_000
PROBE_STEPS = 5_000
PROBE_INTERVAL_S = 0.05


def reference_loop(steps: int) -> int:
    """A fixed pure-Python loop that never calls orbitconst.

    It has the instruction mix of the library's subset kernel: bit tricks on
    a counter, list patching and a running product of ~150-bit integers kept
    by exact division and multiplication.  Its time tracks the host's speed
    and no change to the library can move it.
    """
    factors = [3 + 2 * k for k in range(16)]
    prod = math.prod(factors)
    total = 0
    sign = 1
    for i in range(1, steps):
        k = ((i & -i).bit_length() - 1) & 15
        old = factors[k]
        new = old + (1 if i & 1 else 3)
        prod //= old
        prod *= new
        factors[k] = new
        sign = -sign
        total += prod if sign > 0 else -prod
    return total


def reference_ns_per_step(steps: int = SETUP_REFERENCE_STEPS) -> float:
    """Time one slice of the reference loop, in nanoseconds per step."""
    t0 = time.perf_counter()
    reference_loop(steps)
    return (time.perf_counter() - t0) * 1e9 / steps


class SpeedProbe:
    """Samples the host's speed while a job runs.

    A shared host switches its vCPUs between fast and slow phases (up to
    1.8 times slower) every few seconds, so slices taken only between the
    operations of a job miss most of a 10-second call.  While installed,
    every ``PROBE_INTERVAL_S`` of this process's user CPU time (SIGVTALRM;
    pool workers started by fork do not inherit the timer) the handler runs
    one slice of the reference loop on the same vCPU and records its
    nanoseconds per step.  ``spent_s`` is the wall time the slices took, to
    be taken off the measured wall and CPU times: a slice runs on the CPU
    throughout, and the CPU-time clock can tick too coarsely (every 4 ms on
    a 250 Hz kernel) to time a 1.5-ms slice itself.
    """

    def __init__(self):
        self.ns_per_step: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop(PROBE_STEPS)
        took = time.perf_counter() - t0
        self.spent_s += took
        self.ns_per_step.append(took * 1e9 / PROBE_STEPS)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)


def import_library():
    """Import orbitconst from this checkout, never from an installed copy."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import orbitconst
    import orbitconst.verify
    if Path(orbitconst.__file__).resolve().parent != src / "orbitconst":
        raise ImportError(f"orbitconst imported from {orbitconst.__file__}, "
                          f"not from {src}")
    return orbitconst


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sweep_workers() -> int:
    return min(2, nproc())


def make_inputs(oc, workload: str, seed: int):
    """The workload's inputs; the same seed gives the same inputs."""
    if workload == "sweep":
        return {"seed": seed, "workers": sweep_workers()}
    items = []
    for group, p, q, index in HEAVY_FORMS:
        case = getattr(oc.GroupCase, group)(p, q)
        form = oc.get_form(case, index)
        if workload == "heavy-wall":
            lam = oc.default_lambda(case, form)
        else:
            lam = oc.lambda_candidates(case, form, count=2,
                                       seed=GENERIC_LAMBDA_SEED)[1]
        items.append((case, form, lam, oc.constant_closed_form(case, form)))
    return items


def run_workload(oc, workload: str, inputs):
    """Run the workload once; an operation that raises yields its exception."""
    if workload == "sweep":
        try:
            return oc.verify.run_all(workers=inputs["workers"],
                                     seed=inputs["seed"], skip_determinism=True)
        except Exception as exc:
            return exc
    outputs = []
    for case, form, lam, _ in inputs:
        try:
            outputs.append(oc.constant_brute_force_orig(case, form, lam,
                                                        workers=1))
        except Exception as exc:
            outputs.append(exc)
    return outputs


def check_outputs(oc, workload: str, inputs, outputs) -> tuple[int, list[str]]:
    """Operations attempted and a description of each one that failed.

    In ``sweep`` an operation is one criterion: criterion 4 must fail with
    exactly its known witnesses and every other criterion must pass.  In the
    heavy workloads an operation is one form, whose brute-force integer must
    equal the closed form.  If ``run_all`` raises, all eight criteria fail.
    """
    failures = []
    if workload != "sweep":
        for (case, form, _, expected), got in zip(inputs, outputs):
            if got != expected:
                failures.append(f"{case} form {form.index}: {got!r} != {expected}")
        return len(inputs), failures
    if isinstance(outputs, Exception):
        return 8, [f"criterion {i}: run_all raised {outputs!r}"
                   for i in range(1, 9)]
    witnesses = sorted((str(getattr(oc.GroupCase, group)(p, q)), 2,
                        "orthogonality")
                       for group, p, q in CRITERION_4_WITNESSES)
    criteria = outputs["criteria"]
    for crit in criteria:
        if crit["id"] == 4:
            found = sorted(tuple(w) for w in crit["details"]["failures"])
            if crit["passed"] or found != witnesses:
                failures.append(f"criterion 4: witnesses {found}")
        elif not crit["passed"]:
            failures.append(f"criterion {crit['id']}: {crit['details']}")
    first = criteria[0]["details"]
    if first["skipped"] or first["checked"] != first["forms"]:
        failures.append(f"criterion 1 did not check every form: {first}")
    if [c["id"] for c in criteria] != list(range(1, 9)):
        failures.append(f"criteria run: {[c['id'] for c in criteria]}")
    return 8, failures


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def run_job(oc, workload: str, inputs, trace: bool, spans_path=None) -> dict:
    """Run the workload once, timed, and check its outputs.

    An untraced job runs under a ``SpeedProbe`` and records its samples in
    ``probe_ns``.  A traced job takes none, so that they do not show up in
    the layers' self times.
    """
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    with tracer or probe:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        outputs = run_workload(oc, workload, inputs)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    attempted, failures = check_outputs(oc, workload, inputs, outputs)
    record = {"wall_s": wall - probe.spent_s, "cpu_s": cpu - probe.spent_s,
              "probe_ns": probe.ns_per_step,
              "peak_rss_mb": _peak_rss_mib(),
              "attempted": attempted, "failed": len(failures),
              "failures": failures}
    if tracer:
        record["layers"] = tracer.layer_metrics()
        record["absent"] = tracer.absent
        if spans_path:
            Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
            Path(spans_path).write_text(json.dumps(tracer.dump()))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    oc = import_library()
    inputs = make_inputs(oc, args.workload, args.seed)
    record = {"setup_done": time.monotonic(),
              "setup_ns": reference_ns_per_step()}
    if not args.setup_only:
        record.update(run_job(oc, args.workload, inputs, bool(args.trace),
                              args.spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
