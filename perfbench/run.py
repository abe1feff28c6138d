"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a qig checkout.

Measures ``setup_s`` in fresh interpreters, starts one worker process for
the workload (BLAS threads pinned to one through its environment, qig taken
from ``src/``), and prints the result as one JSON line.  This process never
imports qig.  Results go to ``perfbench/results/`` as well; the ops' files
go to a work directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0

SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import qig
elapsed = time.perf_counter() - t0
import sys
assert "numpy" in sys.modules and "scipy.optimize" in sys.modules
print(repr(elapsed))
"""

def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("QIG_OUTPUT_DIR", None)
    return env


def measure_setup(env: dict, deadline: float) -> float:
    """Median time to ``import qig`` in a fresh interpreter (one probe discarded)."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, capture_output=True,
                               text=True, timeout=max(1.0, deadline - time.monotonic()))
        if probe.returncode != 0:
            raise RuntimeError(f"import qig failed:\n{probe.stderr}")
        if k:
            times.append(float(probe.stdout.strip()))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "qig" / "__init__.py").is_file():
        print(f"error: no qig sources under {root / 'src'}; run from a qig checkout",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = HERE / "results"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    try:
        metrics = {}
        if args.trace == 0:
            metrics["setup_s"] = measure_setup(env, deadline)
        command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--work", str(work)]
        if args.trace:
            command += ["--spans", str(results / f"spans-{tag}.npz")]
        worker = subprocess.run(command, env=env, capture_output=True, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            work.parent.rmdir()
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.strip().splitlines()[-1])
    for problem in report["problems"]:
        print(f"failed op: {problem}", file=sys.stderr)
    metrics.update(report["metrics"])
    names = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(names):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json names {sorted(names)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }
    line = json.dumps(result)
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
