#!/usr/bin/env python3
"""Cost of the 2D linear solves, before and after a change.

    python scripts/bench_2d_solve.py --before OTHER_CHECKOUT/src

measures the ``src`` tree next to this script ("after") and the tree
given by ``--before``, each in a fresh process with two BLAS threads,
and writes BENCH_2d_solve.json at the repository root.  Without
``--before`` only the "after" side is measured.

For each side it records:

  * the 2D time stepper at N = 32, 64 and 128: a fixed number of steps
    of ``dynamics.simulate`` from a clamped bump of amplitude 200
    (p = 3, r = 2), reporting microseconds per implicit solve (the time
    in ``solvers.conjugate_gradient`` plus the time in sparse
    factorizations, per CG solve), CG iterations per solve, and
    factorizations (``solvers.lu_preconditioner`` and
    ``solvers.ilu_preconditioner`` calls) per accepted step;
  * the wall time of the first ``spectra.smallest_eigen`` call for the
    clamped plate at N = 64 and 96, set-up of its solver included.

All counts and times come from the benchmark's tracer
(``perfbench/tracing.py``), which wraps the program's functions from
outside, so the same script measures any version that has these names.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPPER_N = (32, 64, 128)
EIGEN_N = (64, 96)
STEPS = 100
THREADS = {name: "2" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
FACTORIZATIONS = ("solvers.lu_preconditioner", "solvers.ilu_preconditioner")


def measure(src: str) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    from tracing import Tracer

    import beamblow as bb

    tracer = Tracer()
    tracer.install(bb)

    def reset() -> None:
        # the installed wrappers keep pointing at this tracer object
        Tracer.__init__(tracer)

    params = bb.ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0)
    stepper = {}
    for n in STEPPER_N:
        grid = bb.make_grid(2, n)
        x = grid.axis_coords()
        bump = np.outer(np.sin(np.pi * x)**2, np.sin(np.pi * x)**2).ravel()
        u0 = 200.0 * bump
        bb.laplacian_matrix(grid), bb.biharmonic_matrix(grid)
        reset()
        traj = bb.simulate(grid, params, u0, np.zeros_like(u0),
                           bb.StepControls(max_steps=STEPS), t_max=10.0,
                           blow_threshold=1e9)
        solves = tracer.calls["solvers.conjugate_gradient"]
        factorizations = sum(tracer.calls[f] for f in FACTORIZATIONS)
        solve_s = (tracer.total["solvers.conjugate_gradient"]
                   + sum(tracer.total[f] for f in FACTORIZATIONS))
        stepper[str(n)] = {
            "accepted_steps": traj.n_steps,
            "solves": solves,
            "us_per_solve": 1e6 * solve_s / max(solves, 1),
            "cg_iters_per_solve": tracer.cg_iters / max(solves, 1),
            "factorizations_per_step": factorizations / max(traj.n_steps, 1),
        }

    eigen = {}
    for n in EIGEN_N:
        grid = bb.make_grid(2, n)
        bb.laplacian_matrix(grid), bb.biharmonic_matrix(grid)
        reset()
        bb.smallest_eigen(grid, "biharmonic")
        eigen[str(n)] = tracer.total["spectra.smallest_eigen"]
    return {"stepper": stepper,
            "plate_smallest_eigen_s": eigen}


def run_side(src: Path) -> dict:
    env = {**os.environ, **THREADS}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", str(src)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    info = {"system": platform.platform(), "arch": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version()}
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", type=Path,
                    help="src directory of the version to compare against")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_2d_solve.json")
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0

    import numpy
    import scipy
    result = {"machine": machine(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, "blas_threads": 2,
              "stepper_steps": STEPS}
    if args.before is not None:
        result["before"] = run_side(args.before.resolve())
    result["after"] = run_side(ROOT / "src")
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
