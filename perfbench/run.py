"""Benchmark driver for beamblow.

    python3 perfbench/run.py --workload blowup_1d --seed 1 --seconds 30 --trace 0

Runs repetitions of one workload, each in a fresh worker process
(``worker.py``) with at most two threads, until ``--seconds`` is spent,
then prints the checks and, as its last line, one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` the workers wrap beamblow's public
functions and the metrics are the per-layer ones.

Before the timed repetitions one untimed worker warms the file cache and
the bytecode cache; after them, set-up-only workers top the set-up
samples up to five.  A new repetition starts only while the previous
one would still fit in ``--seconds``, so every run attempts whole
repetitions.
Module caches in beamblow start cold in every repetition, as they do for
a user's command, because every repetition is a new process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
THREAD_ENV = {name: "2" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_SETUPS = 5
TOTAL_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, out: Path, deadline: float, *,
               trace: bool = False, setup_only: bool = False) -> dict:
    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker passed the time limit")
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "beamblow" / "__init__.py").is_file():
        print(f"no beamblow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    hard_deadline = time.monotonic() + TOTAL_LIMIT_S
    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    trace = bool(args.trace)

    def worker(index: int, **kw) -> dict:
        return run_worker(args.workload, args.seed, out_root / str(index),
                          hard_deadline, trace=trace, **kw)

    try:
        worker(0, setup_only=True)  # warm-up, not counted
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 2

    measure_start = time.monotonic()
    deadline = measure_start + args.seconds
    setups, reps, failures = [], [], []
    try:
        while True:
            started = time.monotonic()
            rep = worker(len(reps) + 1)
            reps.append(rep)
            setups.append(rep["setup_s"])
            now = time.monotonic()
            if now + (now - started) > deadline:  # the next would not fit
                break
        while len(setups) < MIN_SETUPS:
            setups.append(worker(len(setups) + 1, setup_only=True)["setup_s"])
    except WorkerError as exc:
        failures.append(str(exc))

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if failures:  # a repetition that died counts whole
        attempted += workload.ops_per_rep
        failed += workload.ops_per_rep

    checks = [c for r in reps for c in r["checks"]]
    if reps:
        checks += [[c.name, c.ok, c.detail] for c in
                   workload.parent_check([r["outputs"] for r in reps])]
    unique = {}
    for name, ok, detail in checks:
        if name not in unique or not ok:
            unique[name] = (ok, detail)
    for name, (ok, detail) in unique.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    for r in reps:
        for message in r["outputs"].get("errors", []):
            print(f"FAILED operation: {message}")
    for message in failures:
        print(f"FAIL worker: {message}")
    correct = bool(reps) and not failures and all(ok for _, ok, _ in checks)

    if not reps:
        metrics = {}
    elif trace:
        names = reps[0]["layers"].keys()
        metrics = {name: {"value": statistics.median(
                              r["layers"][name][0] for r in reps),
                          "unit": reps[0]["layers"][name][1]}
                   for name in names}
    else:
        metrics = {
            "run_s": {"value": statistics.median(r["run_s"] for r in reps),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in reps), "unit": "MB"},
        }
    print(f"{len(reps)} repetitions, {len(setups)} set-ups, "
          f"{time.monotonic() - measure_start:.1f} s measured")
    print("run_s " + " ".join(f"{r['run_s']:.3f}" for r in reps))
    print("cpu_s " + " ".join(f"{r['cpu_s']:.3f}" for r in reps))
    print("setup_s " + " ".join(f"{s:.3f}" for s in setups))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
