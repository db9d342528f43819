#!/usr/bin/env python3
"""Whole runs and per-stage costs of beamblow, before and after a
change.

    python scripts/bench.py --before OTHER_CHECKOUT/src [--case NAME]

measures the ``src`` tree next to this script ("after") and the tree
given by ``--before`` in ten alternating pairs per case (``PAIRS``),
with two BLAS threads unless a run says otherwise, and writes one
BENCH_<case>.json per case at the repository root.  Without
``--before`` only the "after" side is measured; without ``--case``
every case runs.

The cases are the table ``CASES``: each names its runs, and each run is
one command, ``python ARGS``:

  * ``startup``: ``python -c "import beamblow"``;
  * ``run_1d``: ``beamblow simulate`` of an empty configuration file,
    the default run (``RunConfig()``, 1D N = 128, to ``blow_threshold``
    = 1e9), with the relative gap of its ``T_num`` to the singular time
    T* = 0.2493837 of a Radau IIA run of the same model;
  * ``run_2d``: ``beamblow simulate`` of ``dim = 2`` at N = 32, 64 and
    128, otherwise the defaults;
  * ``run_2d_pr``: ``beamblow simulate`` at 2D N = 32 with p = 3 and
    r = 1.0, 1.2 and 1.5, otherwise the defaults, runs whose damping
    exponent keeps the blow-up exponent k at 1;
  * ``step_2d``: this script's ``--measure step_2d 128``, the default 2D
    run at N = 128 in process, on one BLAS thread (run ``128@1``) and
    on two (``128@2``), printing the median and the 99th percentile of
    the microseconds per step attempt and the attempts as a count;
  * ``verify``: ``beamblow verify``;
  * ``tier1``: the side's tier-1 suite, ``python -m pytest -q
    --continue-on-collection-errors`` run in that side's checkout (the
    directory above its ``src``), so each side runs its own tests;
  * ``2d_forms``: this script's ``--measure 2d_forms N``, the exact
    solves of the fixed forms ``lap`` (B) and ``H`` (B - L) of the 2D
    embedding sweeps at N = 64, 96 and 128, one process per N, printing
    for each form its set-up time (``GridOperators.form``, after the stencil
    matrices are built; the first form's set-up also builds the sine
    matrix when it uses one), the median microseconds per solve over
    repeated solves of one right-hand side, and ``factor_bytes``: the
    bytes of the arrays the solve function holds in its closure,
    directly or inside tuples, less the grid's sine matrix, which every
    form shares.  So it counts what the form owns: for the capacitance
    solve, the inverse of the capacitance matrix, the symbols of its
    sine-diagonal part and the end rows of the sine matrix;
  * ``energy_levels``: this script's ``--measure energy_levels 96``,
    the energy-level constructions of the benchmark's ``constants_2d``
    workload at 2D N = 96: for each of its source exponents, its ladder
    of levels (seed 1) and its preset's level, each with the weight B
    of the growth chain.  It prints the median milliseconds per
    ``construct_energy_level`` and ``field_probes``, the number of
    full-field potential evaluations the constructions make in all;
  * ``constants``: this script's ``--measure constants 96``, the
    variational constants of the benchmark's ``constants_2d`` workload,
    ``compute_constants`` for each of its source exponents at 2D N = 96
    (seed 0), the first work of the process.  It prints the median
    milliseconds per ``compute_constants`` and ``sweeps``, the number of
    extremal sweeps (one exact solve each) its embedding constants make
    in all.

One runner, ``measure``, times them all.  Every repetition of every run
is a fresh process with the side's ``src`` on PYTHONPATH, timed from
outside, so the interpreter's start-up and the import are in each
time; the sides alternate which one runs first, so drift of the host
falls on both alike.  A run yields measured values and counts.  The
measured values are the wall time ``wall_s``, every ``timing.*`` stage
time of a simulate run's timing.txt (a side whose runs write no
timing.txt has none) and the ``measured`` numbers a ``--measure`` run
prints; each side reports the median and quartiles of each, with every
run.  The counts are every ``run.*`` key of a simulate run's report.txt
with ``T_num`` and ``T_num_uncertainty``, and the ``counts`` a
``--measure`` run prints; they must be equal on every repetition of a
side.  With ``--before`` each simulate run adds the relative change of
``T_num``, and each measured value of the after side adds ``won`` and
``lost``: the pairs of repetitions (by index) in which it was lower,
and higher; a tie counts for neither, and a value the before side
lacks has neither key.

The per-call split of a step (banded solve, CG, the step's own time) on
the benchmark's workloads comes from ``perfbench/run.py --trace 1``.
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
FORMS_N = (64, 96, 128)
FORM_SOLVES = 40
# the variables that set the BLAS threads of a run's process
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Run(NamedTuple):
    """One command of a case, ``python *args`` in a fresh process.  A
    ``config`` is the text of the run.txt that a simulate run reads, and
    marks a run whose report.txt and timing.txt are read; ``in_root``
    runs the command in the side's checkout instead of a scratch
    directory; ``T_star`` is a reference blow-up time for ``T_num``;
    ``threads`` is the number of BLAS threads the process may use.  A
    ``--measure`` command prints ``measured`` and ``counts`` as JSON."""

    args: tuple[str, ...]
    config: str | None = None
    in_root: bool = False
    T_star: float | None = None
    threads: int = 2


def simulate(config: str, T_star: float | None = None) -> Run:
    return Run(("-m", "beamblow.cli", "simulate", "--config", "run.txt",
                "--out", "out"), config, T_star=T_star)


def measure_run(case: str, n: int, threads: int = 2) -> Run:
    """This script's ``--measure case n`` in a fresh process."""
    return Run((str(Path(__file__).resolve()), "--measure", case, str(n)),
               threads=threads)


# every case: each run by name
CASES = {
    "startup": {"import": Run(("-c", "import beamblow"))},
    # singular time of the default 1D run: the Radau IIA run of the same
    # model (perfbench/reference.py) follows max|u|^(-1/k) = c (T* - t)
    "run_1d": {"default": simulate("", T_star=0.2493837)},
    "run_2d": {str(n): simulate(f"dim = 2\nN = {n}\n") for n in (32, 64, 128)},
    "run_2d_pr": {f"p3_r{r}": simulate(f"dim = 2\nN = 32\np = 3\nr = {r}\n")
                  for r in ("1.0", "1.2", "1.5")},
    "step_2d": {f"128@{t}": measure_run("step_2d", 128, t) for t in (1, 2)},
    "verify": {"verify": Run(("-m", "beamblow.cli", "verify"))},
    "tier1": {"suite": Run(("-m", "pytest", "-q",
                            "--continue-on-collection-errors"),
                           in_root=True)},
    "2d_forms": {str(n): measure_run("2d_forms", n) for n in FORMS_N},
    "energy_levels": {"96": measure_run("energy_levels", 96)},
    "constants": {"96": measure_run("constants", 96)},
}
PAIRS = 10  # alternating before/after pairs per case


def read_items(path: Path) -> dict:
    """The ``key = value`` lines of an artifact, numbers parsed."""
    def value(text: str):
        for parse in (int, float):
            try:
                return parse(text)
            except ValueError:
                pass
        return text

    return {key: value(text) for key, text in
            (line.split(" = ", 1) for line in path.read_text().splitlines())}


def read_report(path: Path) -> dict:
    """Every ``run.*`` key, ``T_num`` and ``T_num_uncertainty`` of a
    report.txt, numbers parsed."""
    return {key: value for key, value in read_items(path).items()
            if key.startswith("run.") or key in ("T_num", "T_num_uncertainty")}


def run_once(run: Run, src: Path) -> tuple[dict, dict]:
    """One fresh process of ``run`` on the side whose package is in
    ``src``: its measured values, the wall time first, and its
    counts."""
    env = {**os.environ, **dict.fromkeys(THREADS, str(run.threads)),
           "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = src.parent if run.in_root else Path(tmp)
        if run.config is not None:
            (cwd / "run.txt").write_text(run.config)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *run.args], cwd=cwd, env=env,
                              capture_output=True, text=True)
        measured, counts = {"wall_s": time.perf_counter() - start}, {}
        if proc.returncode != 0:
            raise RuntimeError(f"{run.args} on {src} exited "
                               f"{proc.returncode}:\n{proc.stdout[-2000:]}"
                               f"{proc.stderr[-2000:]}")
        if run.config is not None:
            counts = read_report(cwd / "out" / "report.txt")
            timing = cwd / "out" / "timing.txt"
            if timing.exists():
                measured.update(read_items(timing))
    if "--measure" in run.args:
        printed = json.loads(proc.stdout.splitlines()[-1])
        measured.update(printed["measured"])
        counts.update(printed["counts"])
    return measured, counts


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def relative(value, reference):
    """(value - reference) / reference, or ``none`` when either is not a
    number, as the ``T_num`` of a run that detected nothing."""
    if isinstance(value, str) or isinstance(reference, str):
        return "none"
    return (value - reference) / reference


def measure(runs: dict[str, Run], sides: dict[str, Path],
            repeats: int) -> dict:
    """Every run ``repeats`` times on each side, each time a fresh
    process, the sides alternating which runs first: per side and run
    the counts and the spread of each measured value, on the after side
    with its pair wins and losses against a ``before`` side."""
    values = {side: {name: {} for name in runs} for side in sides}
    counts = {side: {} for side in sides}
    order = list(sides)
    for _ in range(repeats):
        for name, run in runs.items():
            for side in order:
                measured, result = run_once(run, sides[side])
                for key, value in measured.items():
                    values[side][name].setdefault(key, []).append(value)
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
                               **{key: spread(v) for key, v
                                  in values[side][name].items()}}
            if side == "after" and "before" in sides:
                before = values["before"][name]
                for key in values[side][name].keys() & before.keys():
                    pairs = list(zip(values[side][name][key], before[key]))
                    out[side][name][key].update(
                        won=sum(a < b for a, b in pairs),
                        lost=sum(a > b for a, b in pairs))
            if run.T_star is not None:
                gap = relative(counts[side][name]["T_num"], run.T_star)
                out[side][name].update(T_star=run.T_star, T_num_rel_gap=gap)
    simulated = [name for name, run in runs.items() if run.config is not None]
    if "before" in sides and simulated:
        out["T_num_rel_change"] = {
            name: relative(counts["after"][name]["T_num"],
                           counts["before"][name]["T_num"])
            for name in simulated}
    return out


def closure_bytes(fn, shared=()) -> int:
    """Bytes of the numpy arrays held in the closure of ``fn``, directly
    or inside tuples, except the arrays in ``shared``."""
    import numpy as np

    def size(obj) -> int:
        if isinstance(obj, np.ndarray):
            return 0 if any(obj is s for s in shared) else obj.nbytes
        if isinstance(obj, tuple):
            return sum(size(item) for item in obj)
        return 0

    return sum(size(cell.cell_contents) for cell in fn.__closure__ or ())


def measure_forms(n: int) -> tuple[dict, dict]:
    """Set-up time and median microseconds per solve, and factor bytes
    as counts, of the forms ``lap`` and ``H`` at 2D N = ``n``, the first
    work of the process after the stencil matrices."""
    import numpy as np

    import beamblow as bb
    from beamblow.operators import operators

    grid = bb.make_grid(2, n)
    ops = operators(grid)
    # the stencil operators, built outside the forms' set-up time
    bb.laplacian_matrix(grid), bb.biharmonic_matrix(grid)
    rhs = np.random.default_rng(n).standard_normal(grid.size)
    result, counts = {}, {}
    for name in ("lap", "H"):
        start = time.perf_counter()
        _, solve = ops.form(name)
        result[f"{name}.setup_ms"] = 1e3 * (time.perf_counter() - start)
        solve(rhs)
        us = []
        for _ in range(FORM_SOLVES):
            start = time.perf_counter()
            solve(rhs)
            us.append(1e6 * (time.perf_counter() - start))
        result[f"{name}.us_per_solve"] = statistics.median(us)
        counts[f"{name}.factor_bytes"] = closure_bytes(solve, (ops.sine,))
    return result, counts


def measure_energy_levels(n: int) -> tuple[dict, dict]:
    """Median milliseconds per ``construct_energy_level`` over the
    levels of the ``constants_2d`` workload at 2D N = ``n``, and the
    full-field potential evaluations they make in all as a count."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from dataclasses import replace

    import workloads

    import beamblow as bb
    import beamblow.scenarios as scenarios

    workload = workloads.WORKLOADS["constants_2d"]
    cfg = bb.parse_config(workloads.config_text(
        {**workloads.CONSTANTS_2D, "N": n}))
    grid = cfg.grid()
    factors, preset_R = workload.ladder(1)
    probes = [0]
    field_J = scenarios.potential_J

    def counted_J(*args):
        probes[0] += 1
        return field_J(*args)

    scenarios.potential_J = counted_J
    ms = []
    for p in workload.ps:
        params = replace(cfg, p=p).model_params()
        consts = bb.compute_constants(grid, params)
        B = bb.thm31_constants(params, consts.B1).B
        for R in [f * consts.depth for f in factors] + [preset_R]:
            start = time.perf_counter()
            bb.construct_energy_level(grid, params, R, B)
            ms.append(1e3 * (time.perf_counter() - start))
    return ({"ms_per_level": statistics.median(ms)},
            {"field_probes": probes[0]})


def measure_constants(n: int) -> tuple[dict, dict]:
    """Median milliseconds per ``compute_constants`` over the source
    exponents of the ``constants_2d`` workload at 2D N = ``n``, and the
    extremal sweeps of its embedding constants in all as a count."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from dataclasses import replace

    import workloads

    import beamblow as bb
    import beamblow.spectra as spectra

    cfg = bb.parse_config(workloads.config_text(
        {**workloads.CONSTANTS_2D, "N": n}))
    grid = cfg.grid()
    sweeps = [0]
    sweep = spectra._extremal_sweep

    def counted(grid, q, apply, solve, *args):
        def counted_solve(x):
            sweeps[0] += 1
            return solve(x)
        return sweep(grid, q, apply, counted_solve, *args)

    spectra._extremal_sweep = counted
    ms = []
    for p in workloads.CONSTANTS_P:
        params = replace(cfg, p=p).model_params()
        start = time.perf_counter()
        bb.compute_constants(grid, params)
        ms.append(1e3 * (time.perf_counter() - start))
    return {"ms_per_constants": statistics.median(ms)}, {"sweeps": sweeps[0]}


def measure_step(n: int) -> tuple[dict, dict]:
    """Median and 99th percentile microseconds per step attempt of the
    default 2D run at N = ``n``, with its artifacts, and the attempts
    as a count."""
    import numpy as np

    import beamblow as bb
    import beamblow.dynamics as dynamics

    us = []
    step = dynamics.step

    def timed(*args):
        start = time.perf_counter()
        try:
            return step(*args)
        finally:
            us.append(1e6 * (time.perf_counter() - start))

    dynamics.step = timed
    with tempfile.TemporaryDirectory() as tmp:
        bb.harness.run(bb.parse_config(f"dim = 2\nN = {n}\n"), Path(tmp))
    return ({"step_us_p50": float(np.percentile(us, 50)),
             "step_us_p99": float(np.percentile(us, 99))},
            {"attempts": len(us)})


MEASURES = {"2d_forms": measure_forms, "energy_levels": measure_energy_levels,
            "constants": measure_constants, "step_2d": measure_step}


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
    ap.add_argument("--case", choices=sorted(CASES),
                    help="run only this case (default: every case)")
    ap.add_argument("--out-dir", type=Path, default=ROOT,
                    help="where BENCH_<case>.json is written")
    ap.add_argument("--measure", nargs=2, metavar=("CASE", "N"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure is not None:
        case, n = args.measure
        values, counts = MEASURES[case](int(n))
        print(json.dumps({"measured": values, "counts": counts}))
        return 0

    import numpy
    import scipy
    sides = {"after": ROOT / "src"}
    if args.before is not None:
        sides = {"before": args.before.resolve(), **sides}
    for case in [args.case] if args.case else sorted(CASES):
        result = {"machine": machine(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas_threads": {name: run.threads
                                   for name, run in CASES[case].items()},
                  **measure(CASES[case], sides, PAIRS)}
        out = args.out_dir / f"BENCH_{case}.json"
        out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"{out}:\n{json.dumps(result, indent=2)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
