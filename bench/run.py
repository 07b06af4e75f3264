"""orbitconst benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {sweep,heavy-wall,heavy-generic}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Starts a few set-up-only interpreters, then
runs whole jobs, each in a fresh interpreter (see job.py), while the next one
still fits in S seconds counted from the first set-up; at least one job
always runs.  Prints a report line (environment, failures, measured per-job
figures) and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics of traced jobs with ``--trace 1``.
End-to-end times are scaled to a nominal host speed by the reference loop
of job.py.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from job import CRITERION_1_COUNTS, WORKLOADS, nproc, sweep_workers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
JOB_TIMEOUT_S = 120
# The reference loop's nominal speed (job.reference_loop): about what a
# 2-vCPU Firecracker guest with Python 3.11 gives in a fast phase.
NOMINAL_NS_PER_STEP = 300.0


def speed_scale(ns_per_step: list[float]) -> float:
    """Mean of nominal / sampled speed; a measured time times this is the
    time at the nominal speed.  The samples are evenly spaced in CPU time,
    so the mean of the ratios is the mean speed relative to the nominal."""
    return statistics.fmean(NOMINAL_NS_PER_STEP / ns for ns in ns_per_step)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_job(args, setup_only: bool, spans: Path | None = None) -> dict:
    """Run job.py in a fresh interpreter; adds its set-up time and lifetime."""
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.monotonic()
    # A session of its own, so a timeout also ends the job's pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lifetime = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"job exited with {proc.returncode}:\n{stderr}")
    record = json.loads(stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("setup_done") - start
    record["lifetime_s"] = lifetime
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orbitconst" / "__init__.py").is_file():
        print(f"no orbitconst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    probes = [spawn_job(args, setup_only=True) for _ in range(SETUP_PROBES)]
    jobs = []
    while True:
        spans = (ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}"
                 f"-job{len(jobs)}.json") if args.trace else None
        jobs.append(spawn_job(args, setup_only=False, spans=spans))
        longest = max(j["lifetime_s"] for j in jobs)
        if time.monotonic() - start + longest > args.seconds:
            break
    probes += jobs
    for j in jobs:
        # A job too short for a single sample (say, every operation raised
        # at once) falls back to the slice timed after its set-up.
        j["scale"] = speed_scale(j["probe_ns"] or [j["setup_ns"]])
    for p in probes:
        p["setup_scale"] = speed_scale([p["setup_ns"]])

    failures = [f for j in jobs for f in j["failures"]]
    attempted = sum(j["attempted"] for j in jobs)
    correct = not failures
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": len(jobs),
        "fail_frac": {"value": len(failures) / attempted, "unit": "ratio"},
        "failures": failures,
        "env": {"python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": platform.platform(),
                "nproc": nproc(),
                "workers": sweep_workers() if args.workload == "sweep" else 1,
                "commit": git_commit()},
        "job_wall_s": [j["wall_s"] for j in jobs],
        "job_cpu_s": [j["cpu_s"] for j in jobs],
        "job_scale": [j["scale"] for j in jobs],
        "job_samples": [len(j["probe_ns"]) for j in jobs],
        "setup_s": [p["setup_s"] for p in probes],
        "setup_scale": [p["setup_scale"] for p in probes],
    }
    if args.trace:
        layers = [j["layers"] for j in jobs]
        counts = [tracing.exact_counts(m) for m in layers]
        if any(c != counts[0] for c in counts):
            correct = False
            report["count_mismatch"] = counts
        if args.workload == "sweep":
            got = {k: counts[0][k] for k in CRITERION_1_COUNTS}
            if got != CRITERION_1_COUNTS:
                correct = False
                report["criterion_1_counts"] = got
        report["absent"] = jobs[0]["absent"]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["traced.wall_s"] = statistics.median(j["wall_s"] for j in jobs)
    else:
        values = {"wall_s": statistics.median(j["wall_s"] * j["scale"]
                                              for j in jobs),
                  "cpu_s": statistics.median(j["cpu_s"] * j["scale"]
                                             for j in jobs),
                  "setup_s": statistics.median(p["setup_s"] * p["setup_scale"]
                                               for p in probes),
                  "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs)}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
