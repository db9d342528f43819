"""End-to-end drivers: single runs, parameter sweeps, self checks.

A run takes one configuration from initial data to certificate report
and leaves its artifacts in an output directory: config.txt (the exact
configuration, round-trippable), u0.csv / u1.csv (initial data, one
value per line), timeseries.csv (one diagnostics row every
``output_every`` accepted steps), report.txt (variational constants,
every bound chain, verdicts, and the step counts of the run) and
timing.txt (the wall time of each stage, kept out of report.txt so that
the report is reproducible byte for byte).  A
failure leaves a FAILED marker naming the exception next to whatever
partial outputs were already written.

Sweeps evaluate a cartesian grid of configurations, optionally across
processes, and produce one CSV row per cell in a deterministic order
(sorted parameter keys, lexicographic cell order) regardless of the
worker count.  Failures are recorded in-row, with the exception's type
and message, never raised.

verify() runs the internal consistency suites and is what the command
line exposes so an installation can check itself in about a second.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import functionals, mesh
from .bounds import (SUMMARY_COLUMNS, BoundReport, _lower_34_integral, _walk,
                     fmt, full_report, scalar_items, summary_row,
                     thm31_constants)
from .config import RunConfig, SweepConfig, serialize_config
from .dynamics import (BlowupEstimate, StepControls, Trajectory,
                       detect_blowup, simulate)
from .errors import (ConfigError, ConstructionFailure, ConvergenceFailure,
                     SolverFailure)
from .functionals import FunctionalSnapshot, ModelParams
from .mesh import Grid, make_grid
from .scenarios import InitialData, preset
from .spectra import VariationalConstants, compute_constants, smallest_eigen

FAILURE_MARKER = "FAILED"

TIMESERIES_COLUMNS = ("t", "dt", *(f.name for f in fields(FunctionalSnapshot)),
                      "energy_residual")

# exit code and sweep status token of each failure class; any other
# exception exits 1 with status ``error``
_FAILURES = {
    ConfigError: (2, "config_error"),
    SolverFailure: (3, "solver_failure"),
    ConstructionFailure: (4, "construction_failure"),
    ConvergenceFailure: (5, "convergence_failure"),
}


def _failure(exc: BaseException) -> tuple[int, str]:
    return next((_FAILURES[cls] for cls in type(exc).__mro__
                 if cls in _FAILURES), (1, "error"))


def _describe(exc: BaseException) -> str:
    """``type: message`` of a failure, on one line for a sweep row."""
    return " ".join(f"{type(exc).__name__}: {exc}".splitlines())


def exit_code_for(exc: BaseException) -> int:
    """Process exit code for a failed run; 0 is success by convention."""
    return _failure(exc)[0]


@dataclass(frozen=True)
class RunArtifacts:
    """Everything a finished evaluation produced, still in memory."""

    consts: VariationalConstants
    data: InitialData
    traj: Trajectory
    estimate: BlowupEstimate
    report: BoundReport
    # wall seconds of each stage: constants_s, data_s, simulate_s (with
    # the trajectory's step_s and diagnostics_s) and bounds_s
    timing: dict[str, float]


def evaluate(config: RunConfig) -> RunArtifacts:
    """Run the full pipeline for one configuration, in memory:
    constants, initial data, ``simulate``, ``detect_blowup`` on the
    ``lp1_u`` series, ``full_report`` from the run's first record; each
    stage is timed."""
    grid = config.grid()
    params = config.model_params()
    marks = [time.perf_counter()]
    consts = compute_constants(grid, params, config.seed)
    marks.append(time.perf_counter())
    data = preset(config.preset, grid, params, config.amplitude,
                  energy_R=config.energy_R)
    marks.append(time.perf_counter())
    traj = simulate(grid, params, data.u0, data.u1, config.step_controls(),
                    t_max=config.t_max, blow_threshold=config.blow_threshold,
                    output_every=config.output_every)
    marks.append(time.perf_counter())
    estimate = detect_blowup(traj.times(), traj.series("lp1_u"),
                             config.thresholds, params.blowup_exponent)
    first = traj.records[0]
    report = full_report(grid, first.snap, first.inner_uv, params, consts,
                         estimate, mu=config.mu, m_safety=config.M_safety,
                         alpha_override=config.alpha_override,
                         eps_override=config.eps_override)
    marks.append(time.perf_counter())
    constants_s, data_s, simulate_s, bounds_s = np.diff(marks).tolist()
    return RunArtifacts(consts=consts, data=data, traj=traj,
                        estimate=estimate, report=report,
                        timing={"constants_s": constants_s, "data_s": data_s,
                                "simulate_s": simulate_s, **traj.timing,
                                "bounds_s": bounds_s})


def _write_vector(path: Path, values: np.ndarray) -> None:
    path.write_text("".join("%.17g\n" % x for x in values))


def _write_timeseries(path: Path, traj: Trajectory) -> None:
    lines = [",".join(TIMESERIES_COLUMNS)]
    for rec in traj.records:
        row = (rec.t, rec.dt, *vars(rec.snap).values(), rec.energy_residual)
        lines.append(",".join(map(fmt, row)))
    path.write_text("\n".join(lines) + "\n")


def _write_report(path: Path, artifacts: RunArtifacts) -> None:
    items = scalar_items(artifacts.consts, "constants.")
    items += scalar_items(artifacts.report)
    items += [("run.termination", artifacts.traj.termination),
              ("run.note", artifacts.traj.note or "none"),
              ("run.n_steps", str(artifacts.traj.n_steps)),
              ("run.t_final", fmt(artifacts.traj.records[-1].t))]
    items += scalar_items(artifacts.traj.counts, "run.")
    path.write_text("".join(f"{k} = {v}\n" for k, v in items))


def write_artifacts(out: Path, artifacts: RunArtifacts) -> None:
    _write_vector(out / "u0.csv", artifacts.data.u0)
    _write_vector(out / "u1.csv", artifacts.data.u1)
    _write_timeseries(out / "timeseries.csv", artifacts.traj)
    _write_report(out / "report.txt", artifacts)
    (out / "timing.txt").write_text("".join(
        f"timing.{k} = {fmt(v)}\n" for k, v in artifacts.timing.items()))


def integrator_failure(traj: Trajectory) -> SolverFailure | None:
    """The error a run reports when its integration failed, else None."""
    if traj.termination == "solver_failure":
        return SolverFailure(traj.note or "integrator failed")
    return None


def run_with_artifacts(config: RunConfig, output_dir: str | Path
                       ) -> tuple[int, RunArtifacts | None]:
    """``run``, also handing back the evaluation (None when it raised)."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / FAILURE_MARKER
    marker.unlink(missing_ok=True)
    artifacts = None
    try:
        (out / "config.txt").write_text(serialize_config(config))
        artifacts = evaluate(config)
        write_artifacts(out, artifacts)
        failure = integrator_failure(artifacts.traj)
        if failure is not None:
            raise failure
        return 0, artifacts
    except Exception as exc:
        marker.write_text(f"{type(exc).__name__}: {exc}\n")
        return exit_code_for(exc), artifacts


def run(config: RunConfig, output_dir: str | Path) -> int:
    """Evaluate one configuration and write its artifacts.

    Returns the process exit code: 0 on success, 2 for configuration
    errors, 3 when the integrator failed, 4 when initial data could not
    be constructed, 5 for linear-solver breakdown, 1 otherwise.  Partial
    outputs are kept; failures additionally leave a FAILED marker.
    """
    return run_with_artifacts(config, output_dir)[0]


def _sweep_cell(config: RunConfig) -> tuple[str, str, dict | None]:
    """Evaluate one sweep cell: its status token, the failure's
    ``type: message`` (empty when ok) and its summary row (None when
    the evaluation raised); never raises."""
    try:
        artifacts = evaluate(config)
    except Exception as exc:
        return _failure(exc)[1], _describe(exc), None
    row = summary_row(artifacts.report)
    failure = integrator_failure(artifacts.traj)
    if failure is None:
        return "ok", "", row
    return _failure(failure)[1], _describe(failure), row


def sweep(config: SweepConfig, jobs: int = 1) -> str:
    """Evaluate every cell of a sweep and return the result table.

    One CSV row per cell: the swept parameter values (sorted by key),
    the per-run summary columns, a status token, and the failure's
    ``type: message`` (CSV-quoted, empty for an ok cell).  Rows keep the
    lexicographic cell order no matter how many workers ran them, and a
    failed cell yields a row of ``none`` values instead of an error.
    ``jobs`` caps the worker processes, which never outnumber the cells
    or the CPUs (a pool forks all of its workers at once); one worker
    runs in this process.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    cells = config.cells()
    keys = sorted(config.axes)
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers <= 1:
        results = list(map(_sweep_cell, cells))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))

    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(keys + list(SUMMARY_COLUMNS) + ["status", "message"])
    for cell, (status, message, row) in zip(cells, results):
        values = [fmt(getattr(cell, key)) for key in keys]
        if row is None:
            values += ["none"] * len(SUMMARY_COLUMNS)
        else:
            values += row.values()
        writer.writerow(values + [status, message])
    return table.getvalue()


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class VerifyReport:
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(suite.passed for suite in self.suites)

    def lines(self) -> list[str]:
        out = [f"{'PASS' if s.passed else 'FAIL'} {s.name} "
               f"({s.seconds:.2f}s): {s.detail}" for s in self.suites]
        out.append("all suites passed" if self.ok
                   else "one or more suites FAILED")
        return out


def _dense_stencils(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """L and B as dense Kronecker sums of the 1d three-point Laplacian
    T/h^2 and clamped fourth difference (T^2 + 2 at both ends)/h^4."""
    n = grid.n_interior
    T = np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)
    F = T @ T
    F[0, 0] += 2.0
    F[-1, -1] += 2.0  # the same node when n = 1
    L1, B1, eye = T / grid.h**2, F / grid.h**4, np.eye(n)
    if grid.dim == 1:
        return L1, B1
    return (np.kron(L1, eye) + np.kron(eye, L1),
            np.kron(B1, eye) + 2.0 * np.kron(L1, L1) + np.kron(eye, B1))


def _suite_green_identity() -> tuple[bool, str]:
    """Symmetry of the discrete operators, and the gradient and plate
    energies against u^T (-L u) and u^T (B u) of ``_dense_stencils``."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for grid in (make_grid(1, 64), make_grid(2, 16)):
        L = mesh.laplacian_matrix(grid)
        B = mesh.biharmonic_matrix(grid)
        L_dense, B_dense = _dense_stencils(grid)
        for _ in range(50):
            u = rng.standard_normal(grid.size)
            w = rng.standard_normal(grid.size)
            pairs = []
            for A in (L, B):
                a = grid.weight * float(u @ (A @ w))
                b = grid.weight * float(w @ (A @ u))
                pairs.append((a, b))
            pairs.append((-grid.weight * float(u @ (L_dense @ u)),
                          mesh.grad_norm_sq(grid, u)))
            pairs.append((grid.weight * float(u @ (B_dense @ u)),
                          mesh.lap_norm_sq(grid, u)))
            for a, b in pairs:
                rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
                worst = max(worst, rel)
    return worst <= 1e-13, f"worst relative identity gap {worst:.3e}"


def _suite_eigen_benchmark() -> tuple[bool, str]:
    """First clamped eigenvalues against their continuum references."""
    lam_bih, _ = smallest_eigen(make_grid(1, 256), "biharmonic")
    lam_lap, _ = smallest_eigen(make_grid(1, 256), "laplacian")
    ref_bih = 4.73004074**4
    ref_lap = math.pi**2
    gap_bih = abs(lam_bih - ref_bih) / ref_bih
    gap_lap = abs(lam_lap - ref_lap) / ref_lap
    ok = gap_bih <= 5e-3 and gap_lap <= 1e-3
    return ok, (f"biharmonic gap {gap_bih:.2e} (tol 5e-3), "
                f"laplacian gap {gap_lap:.2e} (tol 1e-3)")


def _energy_defect(grid: Grid, params: ModelParams, data: InitialData,
                   dt: float, t_max: float) -> float:
    controls = StepControls(dt_max=dt, residual_target=math.inf)
    traj = simulate(grid, params, data.u0, data.u1, controls,
                    t_max=t_max, blow_threshold=1e12, output_every=10)
    return abs(sum(rec.energy_residual for rec in traj.records))


def _suite_energy_residual_order() -> tuple[bool, str]:
    """Fixed-step energy-identity defect must shrink at second order."""
    grid = make_grid(1, 64)
    params = ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0)
    data = preset("sine_bump", grid, params, amplitude=1.0)
    coarse = _energy_defect(grid, params, data, 2e-4, 0.05)
    fine = _energy_defect(grid, params, data, 1e-4, 0.05)
    if fine == 0.0:
        return False, "zero defect at the fine step; nothing to compare"
    ratio = coarse / fine
    ok = 2.5 <= ratio <= 6.0
    return ok, (f"defect {coarse:.3e} -> {fine:.3e} under halving, "
                f"ratio {ratio:.2f} (want roughly 4)")


def _suite_lemma21(n_fields: int = 200) -> tuple[bool, str]:
    """Potential-well dichotomy on random in-well states."""
    grid = make_grid(1, 48)
    params = ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0)
    consts = compute_constants(grid, params)
    depth = consts.depth
    rng = np.random.default_rng(11)
    counts: dict[str, int] = {}
    zeros = np.zeros(grid.size)
    taper = np.sin(np.pi * grid.axis_coords() / grid.extent)**2
    for _ in range(n_fields):
        u = rng.standard_normal(grid.size) * taper
        J_at = functionals.ray_energy(grid, u, params)
        # walk down the ray into the well, then test a random point of it
        s_hi, _ = _walk(lambda s: J_at(s) <= depth, 1.0, 0.7, 200)
        # and up the ray: through the barrier, onto the outer branch
        s_out, _ = _walk(lambda s: J_at(s) > depth, s_hi, 1.5, 200)
        s_out, _ = _walk(lambda s: J_at(s) <= depth, s_out, 1.5, 400)
        for w in (s_hi * rng.uniform(0.05, 1.0) * u, s_out * u):
            snap = functionals.snapshot(grid, w, zeros, params)
            X = snap.grad_u_sq + snap.lap_u_sq
            verdict = functionals.lemma21_verdict(
                math.sqrt(X), snap.I, snap.J, consts.lam_star, depth,
                scale=X + snap.lp1_u**(params.p + 1))
            counts[verdict] = counts.get(verdict, 0) + 1
    violations = counts.get("violation", 0)
    seen = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    return violations == 0, f"{n_fields} fields: {seen}"


def _suite_chain_consistency() -> tuple[bool, str]:
    """Constant chains against frozen references and ordering laws."""
    problems = []
    chain = thm31_constants(ModelParams(p=3.0, r=1.0, gamma=0.5, beta=1.0),
                            1.0 / math.pi)
    for name, got, want, tol in (
            ("delta3", chain.delta3, 0.9742284922350992, 1e-12),
            ("A", chain.A, 9.46517318220759, 1e-10),
            ("B", chain.B, 1.0264532478472017, 1e-10)):
        if abs(got - want) > tol * abs(want):
            problems.append(f"{name} = {got!r}, expected {want!r}")
    for p in (2.5, 3.0, 4.0):
        for r in (1.0, 1.5, 2.0):
            if not r < p:
                continue
            c = thm31_constants(ModelParams(p=p, r=r, gamma=0.5, beta=1.0),
                                1.0 / math.pi)
            if not (0.0 < c.eps0 < c.delta3 <= c.delta2
                    <= c.delta1 <= c.delta0):
                problems.append(f"ordering broken at p={p}, r={r}")
    # the Theorem 3.4 quadrature against its closed form: with K1 = 0,
    # K2 = 1/4 and p = 3 the integral from 1 is exactly log(5) / 2
    truncated, with_tail = _lower_34_integral(1.0, 0.0, 0.25, 3.0)
    want = 0.5 * math.log(5.0)
    if not truncated <= with_tail:
        problems.append("truncated quadrature exceeds its tailed value")
    if abs(with_tail - want) > 1e-8:
        problems.append(f"tail quadrature {with_tail!r} vs {want!r}")
    if problems:
        return False, "; ".join(problems)
    return True, "frozen chain references and ordering invariants hold"


def _suite_sandwich() -> tuple[bool, str]:
    """A cheap blow-up run must land between its certified bounds."""
    report = evaluate(RunConfig(N=64, blow_threshold=1e6,
                                thresholds=(1e2, 1e3, 1e4, 1e5))).report
    ok = (report.blowup_detected and report.sandwich_ok
          and report.thm31_verdict == "case_i"
          and report.T_upper is not None and report.T_num is not None)
    return bool(ok), (f"detected={report.blowup_detected} "
                      f"T_num={fmt(report.T_num)} "
                      f"T_upper={fmt(report.T_upper)} "
                      f"sandwich_ok={report.sandwich_ok}")


def verify() -> VerifyReport:
    """Run the self-check suites and collect per-suite verdicts."""
    suites = (
        ("green-identity", _suite_green_identity),
        ("eigenvalue-benchmark", _suite_eigen_benchmark),
        ("energy-residual-order", _suite_energy_residual_order),
        ("lemma-2.1", _suite_lemma21),
        ("chain-consistency", _suite_chain_consistency),
        ("sandwich", _suite_sandwich),
    )
    results = []
    for name, fn in suites:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(SuiteResult(name=name, passed=passed, detail=detail,
                                   seconds=time.perf_counter() - start))
    return VerifyReport(suites=tuple(results))
