#!/usr/bin/env python3
"""Per-layer costs of the time stepper and the solves, and the start-up
cost of the package, before and after a change.

    python scripts/bench.py --before OTHER_CHECKOUT/src [--case NAME]

measures the ``src`` tree next to this script ("after") and the tree
given by ``--before``, each in a fresh process with two BLAS threads,
and writes one BENCH_<case>.json per case at the repository root.
Without ``--before`` only the "after" side is measured; without
``--case`` every case runs.

The cases:

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
    self time), ``functionals.snapshot``, ``dynamics.adapt_dt`` and
    ``solvers.solve_spd_banded``, and per accepted step of
    ``dynamics.simulate``; each value is the median over the
    repetitions, which are also listed.
  * ``run_1d``: the default run (``RunConfig()``, 1D N = 128) from its
    data to ``blow_threshold`` = 1e9, repeated in one process after a
    warm-up run, reporting the wall time of ``dynamics.simulate`` (the
    median over the repetitions, which are also listed), the accepted
    steps, the step attempts (calls of ``dynamics.step``), and
    ``T_num`` with its reported uncertainty (from ``harness.evaluate``
    of the same configuration, which also supplies the data and warms
    up, untimed) and its relative gap to the
    singular time T* = 0.2493837 of a Radau IIA run of the same model.
  * ``run_2d``: the default 2D runs (``RunConfig(dim=2, N=N)``) at
    N = 32 and 64 from their data to ``blow_threshold`` = 1e9, each
    repetition a fresh process per side, the sides alternating which
    runs first, so drift of the host falls on both alike.  It reports
    the wall time of ``dynamics.simulate`` (median and quartiles per
    side, with the runs; the grid's operators are built inside it, as
    in a user's run), the accepted steps, step attempts, Newton
    corrections and ``T_num``, and the CG iterations counted by the
    benchmark's tracer in one more, untimed, run per side
    (``run_cg_iters`` is the run's own count, ``StepCounts.cg_iters``,
    where the version has it).  With ``--before`` it adds the relative
    change of ``T_num`` at each N.
  * ``2d_forms``: the exact solves of the fixed forms ``lap`` (B) and
    ``H`` (B - L) of the 2D embedding sweeps at N = 64, 96 and 128,
    reporting the set-up time of each form (``GridOperators.form``,
    after the stencil matrices are built; the first form's set-up also
    builds the sine matrix when it uses one), microseconds per solve
    (median, 10th and 90th percentiles over repeated solves of one
    right-hand side) and the bytes of the arrays the solve function
    holds, which is its factor.
  * ``startup``: the wall time of fresh processes, measured from
    outside them: ``python -c "import beamblow"`` and the whole default
    ``beamblow simulate`` run (an empty configuration file, so
    ``RunConfig()``), each repeated, reporting the median and quartiles
    per side and the runs.  With ``--before`` the two sides alternate
    run by run, so drift of the host falls on both alike.

The counts and times of ``2d_solve`` and ``step_1d`` come from the
benchmark's tracer (``perfbench/tracing.py``), which wraps the
program's functions from outside, so the same script measures any
version that has these names.  The tracer's own cost per wrapped call
is included on both sides.  ``2d_forms`` and ``run_1d`` time the
program directly; ``run_1d`` and ``run_2d`` read the step counts from
the trajectory's ``counts``.  The per-step diagnostics of ``step_1d``
are ``functionals.diagnostics`` where the version has it (the step
loop's unchecked snapshot), and ``functionals.snapshot`` otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPPER_N = (32, 64, 128)
EIGEN_N = (64, 96)
STEPS = 100
STEP_1D_STEPS = 2000
STEP_1D_REPEATS = 5
RUN_1D_REPEATS = 3
RUN_2D_N = (32, 64)
RUN_2D_REPEATS = 5
# singular time of the default 1D run: the Radau IIA run of the same
# model (perfbench/reference.py) follows max|u|^(-1/k) = c (T* - t)
T_STAR_1D = 0.2493837
FORMS_N = (64, 96, 128)
FORM_SOLVES = 40
STARTUP_REPEATS = 11
THREADS = {name: "2" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
# per-call layers of the 1D step loop, by tracer name
STEP_1D_LAYERS = {"step": "dynamics.step", "snapshot": "functionals.snapshot",
                  "adapt_dt": "dynamics.adapt_dt",
                  "banded_solve": "solvers.solve_spd_banded"}


def traced_package(src: str):
    """beamblow from ``src`` with the benchmark's tracer installed, and
    a function that clears the tracer's totals."""
    sys.path.insert(0, src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import Tracer

    import beamblow as bb

    tracer = Tracer()
    tracer.install(bb)
    if hasattr(bb.functionals, "diagnostics"):
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
    layers = dict(STEP_1D_LAYERS)
    if tracer.calls["functionals.diagnostics"]:
        layers["snapshot"] = "functionals.diagnostics"
    reps = []
    for _ in range(STEP_1D_REPEATS):
        reset()
        traj = run()
        us = {key: 1e6 * tracer.total[name] / max(tracer.calls[name], 1)
              for key, name in layers.items()}
        us["step_self"] = (1e6 * tracer.self_time["dynamics.step"]
                           / max(tracer.calls["dynamics.step"], 1))
        us["simulate_per_accepted_step"] = (
            1e6 * tracer.total["dynamics.simulate"] / max(traj.n_steps, 1))
        reps.append(us)
    return {
        "grid": {"dim": cfg.dim, "N": cfg.N},
        "accepted_steps": traj.n_steps,
        "calls": {key: tracer.calls[name] for key, name in layers.items()},
        "us_per_call": {key: statistics.median(r[key] for r in reps)
                        for key in reps[0]},
        "repetitions": reps,
    }


def measure_run_1d(src: str) -> dict:
    import time

    sys.path.insert(0, src)
    import beamblow as bb

    cfg = bb.RunConfig()
    # the whole pipeline, untimed: the data, the estimate the run
    # reports, and a warm-up of the operators, bands and caches
    art = bb.evaluate(cfg)
    grid, params, data, est = art.grid, art.params, art.data, art.estimate

    def run():
        start = time.perf_counter()
        traj = bb.simulate(grid, params, data.u0, data.u1,
                           cfg.step_controls(), t_max=cfg.t_max,
                           blow_threshold=cfg.blow_threshold,
                           output_every=cfg.output_every)
        return traj, time.perf_counter() - start

    seconds = []
    for _ in range(RUN_1D_REPEATS):
        traj, elapsed = run()
        seconds.append(elapsed)
    return {
        "grid": {"dim": cfg.dim, "N": cfg.N},
        "blow_threshold": cfg.blow_threshold,
        "termination": traj.termination,
        "simulate_s": statistics.median(seconds),
        "repetitions_s": seconds,
        "accepted_steps": traj.n_steps,
        "attempts": traj.counts.attempts,
        "T_num": est.T_num,
        "T_num_uncertainty": est.uncertainty,
        "T_star": T_STAR_1D,
        "T_num_rel_gap": (est.T_num - T_STAR_1D) / T_STAR_1D,
    }


def run_2d(bb, n: int):
    """The default 2D run at N = n: (config, params, trajectory, wall
    time of ``simulate``)."""
    import time

    cfg = bb.RunConfig(dim=2, N=n)
    grid, params = cfg.grid(), cfg.model_params()
    data = bb.preset(cfg.preset, grid, params, cfg.amplitude)
    start = time.perf_counter()
    traj = bb.simulate(grid, params, data.u0, data.u1, cfg.step_controls(),
                       t_max=cfg.t_max, blow_threshold=cfg.blow_threshold,
                       output_every=cfg.output_every)
    return cfg, params, traj, time.perf_counter() - start


def measure_run_2d(src: str) -> dict:
    sys.path.insert(0, src)
    import beamblow as bb

    result = {}
    for n in RUN_2D_N:
        cfg, params, traj, elapsed = run_2d(bb, n)
        est = bb.detect_blowup(traj.times(), traj.series("lp1_u"),
                               cfg.thresholds, params.blowup_exponent)
        result[str(n)] = {
            "simulate_s": elapsed,
            "termination": traj.termination,
            "accepted_steps": traj.n_steps,
            "attempts": traj.counts.attempts,
            "newton_iters": traj.counts.newton_iters,
            "run_cg_iters": getattr(traj.counts, "cg_iters", None),
            "T_num": est.T_num,
        }
    return result


def count_run_2d(src: str) -> dict:
    """CG iterations of the ``run_2d`` runs, by the benchmark's tracer."""
    bb, tracer, reset = traced_package(src)
    counts = {}
    for n in RUN_2D_N:
        reset()
        run_2d(bb, n)
        counts[str(n)] = tracer.cg_iters
    return counts


def compare_run_2d(sides: dict[str, Path]) -> dict:
    """``run_2d`` on each side, the sides alternating which runs first."""
    runs = {side: [] for side in sides}
    order = list(sides)
    for _ in range(RUN_2D_REPEATS):
        for side in order:
            runs[side].append(run_side("run_2d", sides[side]))
        order.reverse()
    result = {"repetitions": RUN_2D_REPEATS}
    for side, src in sides.items():
        cg_iters = run_side("run_2d_cg", src)
        result[side] = {}
        for n in map(str, RUN_2D_N):
            # every repetition makes the same steps; the first one's
            # counts stand for all
            first = runs[side][0][n]
            result[side][n] = {
                **{key: value for key, value in first.items()
                   if key != "simulate_s"},
                "cg_iters": cg_iters[n],
                "simulate_s": spread([run[n]["simulate_s"]
                                      for run in runs[side]]),
            }
    if "before" in sides:
        result["T_num_rel_change"] = {
            n: (result["after"][n]["T_num"] - result["before"][n]["T_num"])
            / result["before"][n]["T_num"] for n in map(str, RUN_2D_N)}
    return result


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


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def measure_startup(sides: dict[str, Path]) -> dict:
    """Fresh-process wall times of each side, the sides interleaved."""
    import tempfile
    import time

    commands = {"import_s": ["-c", "import beamblow"],
                "simulate_s": ["-m", "beamblow.cli", "simulate",
                               "--config", "run.txt", "--out", "out"]}
    times = {side: {key: [] for key in commands} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "run.txt").write_text("")
        for _ in range(STARTUP_REPEATS):
            for side, src in sides.items():
                env = {**os.environ, **THREADS, "PYTHONPATH": str(src)}
                for key, args in commands.items():
                    start = time.perf_counter()
                    subprocess.run([sys.executable, *args], cwd=tmp, env=env,
                                   capture_output=True, check=True)
                    times[side][key].append(time.perf_counter() - start)
    return {side: {key: spread(values) for key, values in by_key.items()}
            for side, by_key in times.items()}


CASES = {"2d_solve": measure_2d_solve, "step_1d": measure_step_1d,
         "run_1d": measure_run_1d, "2d_forms": measure_2d_forms}
# cases that run every side themselves: in fresh processes that they
# time from outside, or in processes of their own that alternate sides
PROCESS_CASES = {"startup": measure_startup, "run_2d": compare_run_2d}
# what one process measures on one side, by the name run_side passes
MEASURES = {**CASES, "run_2d": measure_run_2d, "run_2d_cg": count_run_2d}


def run_side(measure: str, src: Path) -> dict:
    env = {**os.environ, **THREADS}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", measure, str(src)],
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
    ap.add_argument("--case", choices=sorted(CASES | PROCESS_CASES),
                    help="run only this case (default: every case)")
    ap.add_argument("--out-dir", type=Path, default=ROOT,
                    help="where BENCH_<case>.json is written")
    ap.add_argument("--measure", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        measure, src = args.measure
        print(json.dumps(MEASURES[measure](src)))
        return 0

    import numpy
    import scipy
    sides = {"after": ROOT / "src"}
    if args.before is not None:
        sides = {"before": args.before.resolve(), **sides}
    for case in [args.case] if args.case else sorted(CASES | PROCESS_CASES):
        result = {"machine": machine(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas_threads": 2}
        if case in PROCESS_CASES:
            result.update(PROCESS_CASES[case](sides))
        else:
            for side, src in sides.items():
                result[side] = run_side(case, src)
        out = args.out_dir / f"BENCH_{case}.json"
        out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"{out}:\n{json.dumps(result, indent=2)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
