"""zlq benchmark: one single-threaded client driving the public API in a closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exact-q4 --seed 0 --seconds 32 --trace 0

Workloads (see ``workloads.py``): ``exact-q4``, ``exact-q5-budget``,
``search-q7`` and ``lift-export``.  A run imports ``zlq`` from ``src/`` and
builds the workload's inputs, then runs the workload's job, each op
starting when the previous one ends, and repeats import, build and job
until the next job would end past ``--seconds``.  Every op's result is
checked; a failing op counts against ``ops_passed.share`` and makes the
run incorrect.

Every op and every set-up is timed on its own and scaled to a fixed machine
speed (see ``speed.py``); the raw times are kept in the run's record.
``setup_s`` is the median scaled import-and-build, and ``wall_s`` sums,
over the job's ops, each op's median scaled time across the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the window on untraced jobs and the rest on jobs with trace hooks on every
``src/zlq`` module's public functions (at least two).  It reports the
per-layer metrics (counts, and seconds scaled like the op times) of the
fastest traced job, the tracing overhead (traced minus untraced
``wall_s``), and checks that every traced job repeats the first one's
work counters exactly.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full record of the run (environment, op seeds,
op times, per-op work counters), which ``--out`` also writes to a file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import ReferenceClock
from trace_hooks import DETERMINISTIC, LAYER_METRICS, Tracer, layer_metrics
from workloads import Q4_NODES, WORKLOADS, build_job, op_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


@dataclass
class OpRecord:
    key: str
    seconds: float  # scaled to the reference speed
    raw_seconds: float
    failures: list[str]
    family_size: int | None
    counters: dict | None  # deterministic work counters, traced runs only


@dataclass
class Harness:
    """Imports ``zlq`` from ``src/`` and builds the job, timing each set-up."""

    workload: str
    seeds: list[int]
    order_seed: int
    smoke: bool
    clock: ReferenceClock = field(default_factory=ReferenceClock)
    setup_times: list[float] = field(default_factory=list)
    raw_setup_times: list[float] = field(default_factory=list)

    def set_up(self):
        with self.clock.timing() as lap:
            for key in [k for k in sys.modules if k == "zlq" or k.startswith("zlq.")]:
                del sys.modules[key]
            zlq = importlib.import_module("zlq")
            job = build_job(zlq, self.workload, self.seeds, self.order_seed, self.smoke)
        if Path(zlq.__file__).resolve().parent != SRC / "zlq":
            raise ImportError(f"zlq was imported from {zlq.__file__}, not from {SRC}")
        self.raw_setup_times.append(lap.raw)
        self.setup_times.append(lap.scaled)
        return job


def _delta(before: dict, after: dict) -> dict:
    return {
        hook: {k: v - before[hook].get(k, 0) for k, v in stats.items()}
        for hook, stats in after.items()
    }


def run_job(job, clock: ReferenceClock, tracer: Tracer | None = None) -> list[OpRecord]:
    records = []
    for op in job:
        before = tracer.snapshot() if tracer else None
        try:
            # kernel samples inside a traced op would land in the layer times
            with clock.timing(sample=tracer is None) as lap:
                result = op.run()
            error = None
        except Exception as exc:  # a failing op is counted, never dropped
            traceback.print_exc()
            result, error = None, f"{type(exc).__name__}: {exc}"
        if error is None:
            failures, size = op.check(result), op.family_size(result)
        else:
            failures, size = [error], None
        counters = None
        if tracer:
            values, _ = layer_metrics(_delta(before, tracer.snapshot()))
            counters = {name: values[name] for name in DETERMINISTIC if name in values}
            counters["family_size"] = size
        for message in failures:
            print(f"op {op.key} failed: {message}", file=sys.stderr)
        records.append(OpRecord(op.key, lap.scaled, lap.raw, failures, size, counters))
    return records


def typical(jobs: list[list[OpRecord]]) -> dict[str, float]:
    """Each op key's median scaled time."""
    times: dict[str, list[float]] = {}
    for records in jobs:
        for r in records:
            times.setdefault(r.key, []).append(r.seconds)
    return {key: statistics.median(v) for key, v in times.items()}


def job_wall(job, per_op: dict[str, float]) -> float:
    return sum(per_op[op.key] for op in job)


def _next_would_overrun(start: float, jobs_done: int, seconds: float) -> bool:
    elapsed = perf_counter() - start
    return elapsed * (jobs_done + 1) / jobs_done > seconds


def measure(harness: Harness, job, seconds: float):
    """Untraced jobs, each on a fresh import, until the next would overrun."""
    jobs = []
    start = perf_counter()
    while True:
        jobs.append(run_job(job, harness.clock))
        if _next_would_overrun(start, len(jobs), seconds):
            return jobs, job
        job = harness.set_up()


def end_to_end(harness: Harness, job, jobs: list[list[OpRecord]]) -> dict:
    per_op = typical(jobs)
    ops = [r for records in jobs for r in records]
    sizes = [r.family_size for r in ops if r.family_size is not None]
    passed = sum(1 for r in ops if not r.failures)
    values = {
        "setup_s": (statistics.median(harness.setup_times), "s"),
        "wall_s": (job_wall(job, per_op), "s"),
        "op_s.p50": (statistics.median(per_op[op.key] for op in job), "s"),
        "family_size.mean": (statistics.fmean(sizes) if sizes else 0.0, "edges"),
        "family_size.max": (max(sizes, default=0), "edges"),
        "ops_passed.share": (passed / len(ops), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def traced(harness: Harness, job, seconds: float, record: dict):
    """Half the window untraced, the rest traced; returns jobs, metrics, repeatable."""
    untraced, job = measure(harness, job, seconds / 2)
    untraced_wall = job_wall(job, typical(untraced))

    tracer = Tracer()
    traced_jobs, per_job = [], []
    start = perf_counter()
    with tracer:
        while True:
            before = tracer.snapshot()
            traced_jobs.append(run_job(job, harness.clock, tracer))
            per_job.append(_delta(before, tracer.snapshot()))
            if len(traced_jobs) >= 2 and _next_would_overrun(start, len(traced_jobs), seconds / 2):
                break
    traced_wall = job_wall(job, typical(traced_jobs))

    repeatable = True
    reference = [r.counters for r in traced_jobs[0]]
    for n, records in enumerate(traced_jobs[1:], start=2):
        for first, again in zip(reference, (r.counters for r in records)):
            if first != again:
                repeatable = False
                print(f"traced job {n} changed counters: {first} != {again}", file=sys.stderr)

    quickest = min(range(len(traced_jobs)), key=lambda k: sum(r.seconds for r in traced_jobs[k]))
    values, missing = layer_metrics(per_job[quickest])
    for name in missing:
        print(f"per-layer metric {name} is missing: its hook target was not found", file=sys.stderr)
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    # layer seconds are raw; scale them as the job's op times were scaled
    records = traced_jobs[quickest]
    factor = sum(r.seconds for r in records) / sum(r.raw_seconds for r in records)
    for name in values:
        if units[name] == "s":
            values[name] *= factor
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead.share"] = (traced_wall - untraced_wall) / untraced_wall
    units.update({"trace.overhead_s": "s", "trace.overhead.share": "share"})

    record["untraced_wall_s"] = untraced_wall
    record["traced_wall_s"] = traced_wall
    record["missing_hooks"] = tracer.missing
    record["missing_metrics"] = missing
    record["repeatable"] = repeatable
    record["counters"] = reference
    record["hooks"] = per_job[quickest]
    if harness.workload == "exact-q4" and not harness.smoke:
        nodes = [c.get("exact.nodes") for c in reference]
        record["q4_nodes_per_op"] = nodes
        if any(n != Q4_NODES for n in nodes):
            print(f"note: exact-q4 nodes per op {nodes} differ from the re-anchor value {Q4_NODES}",
                  file=sys.stderr)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return untraced + traced_jobs, metrics, repeatable


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="orders the job's ops")
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--op-seeds", type=lambda s: [int(x) for x in s.split(",")], default=None,
                   help="comma-separated op seeds for search-q7 and lift-export "
                        "(default 0,1; use an unseen one to confirm a claim)")
    p.add_argument("--smoke", action="store_true", help="run the workload on the q=3 board")
    p.add_argument("--out", type=Path, default=None, help="also write the full record here")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zlq" / "__init__.py").is_file():
        print(f"no zlq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    harness = Harness(args.workload, op_seeds(args.workload, args.op_seeds), args.seed, args.smoke)
    for _ in range(SETUP_REPEATS):
        job = harness.set_up()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "op_seeds": harness.seeds,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(),
    }
    if args.trace:
        jobs, metrics, repeatable = traced(harness, job, args.seconds, record)
    else:
        jobs, job = measure(harness, job, args.seconds)
        metrics, repeatable = end_to_end(harness, job, jobs), True

    ops = [r for records in jobs for r in records]
    failed = sum(1 for r in ops if r.failures)
    record["setup_s"] = harness.setup_times
    record["raw_setup_s"] = harness.raw_setup_times
    record["job"] = [op.key for op in job]
    record["job_s"] = [[r.seconds for r in records] for records in jobs]
    record["raw_job_s"] = [[r.raw_seconds for r in records] for records in jobs]
    record["kernel_s"] = harness.clock.kernel_times
    record["op_count"] = len(ops)
    record["family_sizes"] = [r.family_size for r in jobs[0]]
    record["metrics"] = metrics
    result = {
        "correct": failed == 0 and repeatable,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
