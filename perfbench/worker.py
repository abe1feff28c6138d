"""One workload's process: runs whole passes of ops, times them, checks them.

Started by ``run.py`` with BLAS threads pinned in its environment and qig on
``PYTHONPATH``.  Prints one JSON object on its last stdout line.

Untraced (``--trace 0``): passes repeat until ``--seconds`` of timed passes
and at least ``MIN_OPS`` ops have run.  Traced (``--trace 1``): half the
time untraced, then the tracer is installed and the other half traced; the
per-layer numbers are per pass, and ``trace.overhead_s`` is the difference
of the two median pass times.  Checks run after each pass, outside the
timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import qig
import qig.cli
import workloads
from tracer import LAYERS, Tracer

# p90 is the highest percentile with ten ops beyond it at 100 ops
MIN_OPS = 100
TAIL_PERCENTILE = 90
# stop adding passes after this much wall time, so a slow machine still ends
WALL_LIMIT_S = 110.0


def run_op(op: workloads.Op) -> dict:
    """One op, timed by the caller: the command, plus the read-back for records."""
    rc = qig.cli.main(op.argv)
    outcome = {"rc": rc}
    if op.workload == "records" and rc == 0:
        record = qig.parse_bit_record(op.out.read_text(encoding="utf-8"))
        table = qig.build_entropy_table(qig.empirical_distribution(record))
        outcome["readback"] = {
            "observers": record.observers,
            "seed": record.seed,
            "runs": record.runs,
            "A-B": qig.distance(table, "A", "B"),
            "A-C": qig.distance(table, "A", "C"),
            "B-C": qig.distance(table, "B", "C"),
            "area": qig.area(table, "A", "B", "C"),
        }
    return outcome


def run_pass(ops) -> tuple[float, list[float], list[dict]]:
    latencies, outcomes = [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            outcome = run_op(op)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            outcome = {"rc": None, "error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - t0)
        outcomes.append(outcome)
    return clock() - start, latencies, outcomes


class Phase:
    """Passes, op latencies and failures of one stretch of the run."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_out = 0

    def run(self, ops, seconds: float, min_ops: int, deadline: float, after_pass=None):
        while True:
            elapsed, latencies, outcomes = run_pass(ops)
            if after_pass is not None:
                after_pass()
            self.pass_s.append(elapsed)
            self.latencies += latencies
            self.bytes_out = sum(op.out.stat().st_size for op in ops if op.out.exists())
            for op, outcome in zip(ops, outcomes):
                self.attempted += 1
                problems = workloads.check(op, outcome)
                if problems:
                    self.failed += 1
                    self.problems += [f"{' '.join(op.argv[:3])}: {p}" for p in problems[:3]]
            if (sum(self.pass_s) >= seconds and self.attempted >= min_ops) \
                    or time.monotonic() > deadline:
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + WALL_LIMIT_S
    ops = workloads.make_pass(args.workload, args.seed, args.work)
    run_pass(ops[:1])  # warm-up op: lazy imports and first-call caches

    untraced = Phase()
    if args.trace == 0:
        untraced.run(ops, args.seconds, MIN_OPS, deadline)
        lat_ms = np.array(untraced.latencies) * 1e3
        metrics = {
            "pass_s": statistics.median(untraced.pass_s),
            "op_p50_ms": float(np.percentile(lat_ms, 50)),
            "op_tail_ms": float(np.percentile(lat_ms, TAIL_PERCENTILE)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        phases = [untraced]
    else:
        untraced.run(ops, args.seconds / 2, 0, deadline)
        tracer = Tracer()
        tracer.install(qig, qig.cli)
        snapshots = [tracer.snapshot()]
        traced = Phase()
        traced.run(ops, args.seconds / 2, 0, deadline,
                   after_pass=lambda: snapshots.append(tracer.snapshot()))
        tracer.uninstall()
        per_pass = [{k: b[k] - a[k] for k in b} for a, b in zip(snapshots, snapshots[1:])]
        metrics = {}
        # counts repeat exactly from pass to pass; times are the median pass's
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = statistics.median_low(p[f"{layer}.calls"] for p in per_pass)
            metrics[f"{layer}.self_s"] = statistics.median(p[f"{layer}.self_s"] for p in per_pass)
        for name in ("born.outcomes", "entropy.subsets", "scenarios.evaluations", "bitstream.rows"):
            metrics[name] = statistics.median_low(p[name] for p in per_pass)
        budget = statistics.median_low(p["scenarios.budget"] for p in per_pass)
        metrics["scenarios.budget_share"] = metrics["scenarios.evaluations"] / budget if budget else 0.0
        metrics["cli.bytes_out"] = traced.bytes_out
        metrics["trace.overhead_s"] = statistics.median(traced.pass_s) - statistics.median(untraced.pass_s)
        phases = [untraced, traced]
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.spans)

    print(json.dumps({
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "problems": [q for p in phases for q in p.problems][:20],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
