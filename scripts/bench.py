#!/usr/bin/env python3
"""Whole runs and per-layer costs of beamblow, before and after a
change.

    python scripts/bench.py --before OTHER_CHECKOUT/src [--case NAME]

measures the ``src`` tree next to this script ("after") and the tree
given by ``--before``, with two BLAS threads, and writes one
BENCH_<case>.json per case at the repository root.  Without
``--before`` only the "after" side is measured; without ``--case``
every case runs.

The end-to-end cases are the table ``END_TO_END``: each names its runs,
and each run is one command, ``python ARGS``:

  * ``startup``: ``python -c "import beamblow"``;
  * ``run_1d``: ``beamblow simulate`` of an empty configuration file,
    the default run (``RunConfig()``, 1D N = 128, to ``blow_threshold``
    = 1e9), with the relative gap of its ``T_num`` to the singular time
    T* = 0.2493837 of a Radau IIA run of the same model;
  * ``run_2d``: ``beamblow simulate`` of ``dim = 2`` at N = 32, 64 and
    128, otherwise the defaults;
  * ``verify``: ``beamblow verify``;
  * ``tier1``: the side's tier-1 suite, ``python -m pytest -q
    --continue-on-collection-errors`` run in that side's checkout (the
    directory above its ``src``), so each side runs its own tests.

One runner, ``measure``, times them all.  Every repetition of every run
is a fresh process with the side's ``src`` on PYTHONPATH, timed from
outside, so the interpreter's start-up and the import are in each
time; the sides alternate which one runs first, so drift of the host
falls on both alike.  Each side reports the median and quartiles of the
wall time with every run.  A simulate run writes its artifacts in a
scratch directory, and the runner reads the counts from its report.txt:
``run.termination``, ``run.n_steps`` (accepted steps),
``run.attempts``, ``run.newton_iters``, ``run.cg_iters``, ``T_num`` and
``T_num_uncertainty``.  They must be equal on every repetition of a
side.  With ``--before`` each simulate run adds the relative change of
``T_num`` between the sides.

The layer cases measure one stage in one process per side:

  * ``2d_solve``: the wall time of the first ``spectra.smallest_eigen``
    call for the clamped plate at N = 64 and 96, set-up of its solver
    included, and then, on the same grids, the wall time of
    ``spectra.compute_constants`` for p = 3, r = 2 (the set-up of the
    fixed forms and the embedding sweeps, the plate eigenpair already
    at hand), both measured first in the process; then the 2D time
    stepper at N = 32, 64 and 128, a fixed number of steps of
    ``dynamics.simulate`` from a clamped bump of amplitude 200,
    reporting microseconds per implicit solve (the time in
    ``solvers.conjugate_gradient`` per CG solve) and CG iterations per
    solve.
  * ``step_1d``: the default 1D run (``RunConfig()``, N = 128) for at
    most 2000 accepted steps (the whole run when it reaches its blow
    threshold sooner), repeated in one process after a warm-up run,
    reporting microseconds per call of ``dynamics.step`` (whole and
    self time), ``functionals.diagnostics`` (the step loop's
    snapshot), ``dynamics.adapt_dt`` and ``solvers.solve_spd_banded``,
    and per accepted step of ``dynamics.simulate``; each value is the
    median over the repetitions, which are also listed.
  * ``2d_forms``: the exact solves of the fixed forms ``lap`` (B) and
    ``H`` (B - L) of the 2D embedding sweeps at N = 64, 96 and 128,
    reporting the set-up time of each form (``GridOperators.form``,
    after the stencil matrices are built; the first form's set-up also
    builds the sine matrix when it uses one), microseconds per solve
    (median, 10th and 90th percentiles over repeated solves of one
    right-hand side) and the bytes of the arrays the solve function
    holds, which is its factor.

The counts and times of ``2d_solve`` and ``step_1d`` come from the
benchmark's tracer (``perfbench/tracing.py``), which wraps the
program's functions from outside, so the same script measures any
version that has these names.  The tracer's own cost per wrapped call
is included on both sides.  ``2d_forms`` times the program directly.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
STEPPER_N = (32, 64, 128)
EIGEN_N = (64, 96)
STEPS = 100
STEP_1D_STEPS = 2000
STEP_1D_REPEATS = 5
FORMS_N = (64, 96, 128)
FORM_SOLVES = 40
THREADS = {name: "2" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
# per-call layers of the 1D step loop, by tracer name
STEP_1D_LAYERS = {"step": "dynamics.step",
                  "snapshot": "functionals.diagnostics",
                  "adapt_dt": "dynamics.adapt_dt",
                  "banded_solve": "solvers.solve_spd_banded"}


class Run(NamedTuple):
    """One command of an end-to-end case, ``python *args`` in a fresh
    process.  A ``config`` is the text of the run.txt that a simulate
    run reads, and marks a run whose report.txt is read; ``in_root``
    runs the command in the side's checkout instead of a scratch
    directory; ``T_star`` is a reference blow-up time for ``T_num``."""

    args: tuple[str, ...]
    config: str | None = None
    in_root: bool = False
    T_star: float | None = None


def simulate(config: str, T_star: float | None = None) -> Run:
    return Run(("-m", "beamblow.cli", "simulate", "--config", "run.txt",
                "--out", "out"), config, T_star=T_star)


# the end-to-end cases: each run by name, and the repetitions per side
END_TO_END = {
    "startup": {"import": Run(("-c", "import beamblow"))},
    # singular time of the default 1D run: the Radau IIA run of the same
    # model (perfbench/reference.py) follows max|u|^(-1/k) = c (T* - t)
    "run_1d": {"default": simulate("", T_star=0.2493837)},
    "run_2d": {str(n): simulate(f"dim = 2\nN = {n}\n") for n in (32, 64, 128)},
    "verify": {"verify": Run(("-m", "beamblow.cli", "verify"))},
    "tier1": {"suite": Run(("-m", "pytest", "-q",
                            "--continue-on-collection-errors"),
                           in_root=True)},
}
REPEATS = {"startup": 11, "run_1d": 11, "run_2d": 5, "verify": 5, "tier1": 5}
# the keys of a simulate run's report.txt that the runner reads
REPORT_KEYS = ("run.termination", "run.n_steps", "run.attempts",
               "run.newton_iters", "run.cg_iters", "T_num",
               "T_num_uncertainty")


def read_report(path: Path) -> dict:
    """The ``REPORT_KEYS`` of a report.txt, numbers parsed."""
    def value(text: str):
        for parse in (int, float):
            try:
                return parse(text)
            except ValueError:
                pass
        return text

    items = dict(line.split(" = ", 1)
                 for line in path.read_text().splitlines())
    return {key: value(items[key]) for key in REPORT_KEYS}


def run_once(run: Run, src: Path) -> dict:
    """The wall time of one fresh process of ``run`` on the side whose
    package is in ``src``, with the counts of its report."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = src.parent if run.in_root else Path(tmp)
        if run.config is not None:
            (cwd / "run.txt").write_text(run.config)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *run.args], cwd=cwd, env=env,
                              capture_output=True, text=True)
        result = {"wall_s": time.perf_counter() - start}
        if proc.returncode != 0:
            raise RuntimeError(f"{run.args} on {src} exited "
                               f"{proc.returncode}:\n{proc.stdout[-2000:]}"
                               f"{proc.stderr[-2000:]}")
        if run.config is not None:
            result.update(read_report(cwd / "out" / "report.txt"))
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def measure(runs: dict[str, Run], sides: dict[str, Path],
            repeats: int) -> dict:
    """Every run ``repeats`` times on each side, each time a fresh
    process, the sides alternating which runs first: per side and run
    the spread of the wall time and the counts of its report."""
    times = {side: {name: [] for name in runs} for side in sides}
    counts = {side: {} for side in sides}
    order = list(sides)
    for _ in range(repeats):
        for name, run in runs.items():
            for side in order:
                result = run_once(run, sides[side])
                times[side][name].append(result.pop("wall_s"))
                if counts[side].setdefault(name, result) != result:
                    raise RuntimeError(f"{name} on {side}: the counts "
                                       f"{result} differ from the first "
                                       f"run's {counts[side][name]}")
        order.reverse()
    out = {"repetitions": repeats}
    for side in sides:
        out[side] = {}
        for name, run in runs.items():
            out[side][name] = {**counts[side][name],
                               "wall_s": spread(times[side][name])}
            if run.T_star is not None:
                gap = (counts[side][name]["T_num"] - run.T_star) / run.T_star
                out[side][name].update(T_star=run.T_star, T_num_rel_gap=gap)
    simulated = [name for name, run in runs.items() if run.config is not None]
    if "before" in sides and simulated:
        out["T_num_rel_change"] = {
            name: (counts["after"][name]["T_num"]
                   - counts["before"][name]["T_num"])
            / counts["before"][name]["T_num"] for name in simulated}
    return out


def traced_package(src: str):
    """beamblow from ``src`` with the benchmark's tracer installed, and
    a function that clears the tracer's totals."""
    sys.path.insert(0, src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import Tracer

    import beamblow as bb

    tracer = Tracer()
    tracer.install(bb)
    # the step loop's snapshot, which the tracer does not name
    bb.functionals.diagnostics = tracer.wrap(
        "functionals.diagnostics", bb.functionals.diagnostics)

    def reset() -> None:
        # the installed wrappers keep pointing at this tracer object
        Tracer.__init__(tracer)

    return bb, tracer, reset


def measure_2d_solve(src: str) -> dict:
    import numpy as np

    bb, tracer, reset = traced_package(src)
    params = bb.ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0)
    # before the stepper, whose grids and solver state would otherwise
    # be left behind in the timings
    eigen, constants = {}, {}
    for n in EIGEN_N:
        grid = bb.make_grid(2, n)
        bb.laplacian_matrix(grid), bb.biharmonic_matrix(grid)
        reset()
        bb.smallest_eigen(grid, "biharmonic")
        eigen[str(n)] = tracer.total["spectra.smallest_eigen"]
        reset()
        bb.compute_constants(grid, params)
        constants[str(n)] = tracer.total["spectra.compute_constants"]
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
        stepper[str(n)] = {
            "accepted_steps": traj.n_steps,
            "solves": solves,
            "us_per_solve": (1e6 * tracer.total["solvers.conjugate_gradient"]
                             / max(solves, 1)),
            "cg_iters_per_solve": tracer.cg_iters / max(solves, 1),
        }

    return {"stepper_steps": STEPS, "stepper": stepper,
            "plate_smallest_eigen_s": eigen, "compute_constants_s": constants}


def measure_step_1d(src: str) -> dict:
    from dataclasses import replace

    bb, tracer, reset = traced_package(src)
    cfg = bb.RunConfig()
    grid, params = cfg.grid(), cfg.model_params()
    data = bb.preset(cfg.preset, grid, params, cfg.amplitude)
    controls = replace(cfg.step_controls(), max_steps=STEP_1D_STEPS)

    def run():
        return bb.simulate(grid, params, data.u0, data.u1, controls,
                           t_max=cfg.t_max, blow_threshold=cfg.blow_threshold)

    run()  # warm-up: operators, bands and caches built outside the timing
    reps = []
    for _ in range(STEP_1D_REPEATS):
        reset()
        traj = run()
        us = {key: 1e6 * tracer.total[name] / max(tracer.calls[name], 1)
              for key, name in STEP_1D_LAYERS.items()}
        us["step_self"] = (1e6 * tracer.self_time["dynamics.step"]
                           / max(tracer.calls["dynamics.step"], 1))
        us["simulate_per_accepted_step"] = (
            1e6 * tracer.total["dynamics.simulate"] / max(traj.n_steps, 1))
        reps.append(us)
    return {
        "grid": {"dim": cfg.dim, "N": cfg.N},
        "accepted_steps": traj.n_steps,
        "calls": {key: tracer.calls[name]
                  for key, name in STEP_1D_LAYERS.items()},
        "us_per_call": {key: statistics.median(r[key] for r in reps)
                        for key in reps[0]},
        "repetitions": reps,
    }


def closure_bytes(fn) -> int:
    """Bytes of the numpy arrays held in the closure of ``fn``, directly
    or inside tuples."""
    import numpy as np

    def size(obj) -> int:
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if isinstance(obj, tuple):
            return sum(size(item) for item in obj)
        return 0

    return sum(size(cell.cell_contents) for cell in fn.__closure__ or ())


def measure_2d_forms(src: str) -> dict:
    import time

    import numpy as np

    sys.path.insert(0, src)
    import beamblow as bb
    from beamblow.operators import operators

    result = {}
    for n in FORMS_N:
        grid = bb.make_grid(2, n)
        ops = operators(grid)
        ops.B, ops.L  # assembled outside the forms' set-up time
        rhs = np.random.default_rng(n).standard_normal(grid.size)
        result[str(n)] = {}
        for name in ("lap", "H"):
            start = time.perf_counter()
            _, solve = ops.form(name)
            setup_s = time.perf_counter() - start
            solve(rhs)
            us = []
            for _ in range(FORM_SOLVES):
                start = time.perf_counter()
                solve(rhs)
                us.append(1e6 * (time.perf_counter() - start))
            result[str(n)][name] = {
                "setup_ms": 1e3 * setup_s,
                "us_per_solve": float(np.median(us)),
                "us_p10": float(np.percentile(us, 10)),
                "us_p90": float(np.percentile(us, 90)),
                "factor_bytes": closure_bytes(solve),
            }
    return {"solves_per_form": FORM_SOLVES, "forms": result}


# the layer cases, each measured in one process per side
LAYER_CASES = {"2d_solve": measure_2d_solve, "step_1d": measure_step_1d,
               "2d_forms": measure_2d_forms}


def run_side(case: str, src: Path) -> dict:
    env = {**os.environ, **THREADS}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", case, str(src)],
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
    ap.add_argument("--case", choices=sorted(LAYER_CASES | END_TO_END),
                    help="run only this case (default: every case)")
    ap.add_argument("--out-dir", type=Path, default=ROOT,
                    help="where BENCH_<case>.json is written")
    ap.add_argument("--measure", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        case, src = args.measure
        print(json.dumps(LAYER_CASES[case](src)))
        return 0

    import numpy
    import scipy
    sides = {"after": ROOT / "src"}
    if args.before is not None:
        sides = {"before": args.before.resolve(), **sides}
    for case in [args.case] if args.case else sorted(LAYER_CASES
                                                     | END_TO_END):
        result = {"machine": machine(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas_threads": 2}
        if case in END_TO_END:
            result.update(measure(END_TO_END[case], sides, REPEATS[case]))
        else:
            for side, src in sides.items():
                result[side] = run_side(case, src)
        out = args.out_dir / f"BENCH_{case}.json"
        out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"{out}:\n{json.dumps(result, indent=2)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
