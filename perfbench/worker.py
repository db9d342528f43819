"""One repetition of a workload, in a fresh process.

Started by run.py with the launch time on the monotonic clock, so that
set-up is measured from process start: interpreter start-up, importing
beamblow, parsing the workload's configuration and building its grid
(the operator assembly of ``mesh`` included).  The work itself is then
timed on its own, checked, and one JSON line is written to stdout.
"""

import sys
import time


def main() -> int:
    import argparse
    import json
    import resource
    from pathlib import Path

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import beamblow as bb
    if Path(bb.__file__).resolve().parent != src / "beamblow":
        raise SystemExit(f"beamblow imported from {bb.__file__}, not {src}")

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(bb)

    cfg = bb.parse_config(workload.config_text(args.seed))
    grid = cfg.grid()
    start = time.perf_counter()
    bb.laplacian_matrix(grid)
    bb.biharmonic_matrix(grid)
    assembly_s = time.perf_counter() - start
    setup_s = time.monotonic() - args.launched
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start, cpu_start = time.perf_counter(), time.process_time()
    outcome = workload.work(bb, cfg, grid, out)
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.check(bb, cfg, grid, outcome)
    record.update(
        run_s=run_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
        attempted=outcome.attempted, failed=outcome.failed,
        outputs=outcome.outputs,
        checks=[[c.name, c.ok, c.detail] for c in checks])
    if tracer is not None:
        record["layers"] = tracer.metrics(
            assembly_s, outcome.accepted_steps,
            sum(f.stat().st_size for f in out.iterdir()))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
