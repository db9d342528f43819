"""End-to-end drivers: single runs, parameter sweeps, self checks.

A run takes one configuration from initial data to certificate report
and leaves its artifacts in an output directory: config.txt (the exact
configuration, round-trippable), u0.csv / u1.csv (initial data, one
value per line), timeseries.csv (one diagnostics row every
``output_every`` accepted steps) and report.txt (variational constants,
every bound chain, verdicts).  A failure leaves a FAILED marker naming
the exception next to whatever partial outputs were already written.

Sweeps evaluate a cartesian grid of configurations, optionally across
processes, and produce one CSV row per cell in a deterministic order
(sorted parameter keys, lexicographic cell order) regardless of the
worker count.  Failures are recorded in-row, never raised.

verify() runs the internal consistency suites and is what the command
line exposes so an installation can check itself in a few minutes.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import functionals, mesh
from .bounds import (BoundReport, _lower_34_integral, fmt, full_report,
                     report_items, summary_row, thm31_constants)
from .config import RunConfig, SweepConfig, serialize_config
from .dynamics import (BlowupEstimate, StepControls, Trajectory,
                       detect_blowup, simulate)
from .errors import (ConfigError, ConstructionFailure, ConvergenceFailure,
                     SolverFailure)
from .functionals import ModelParams
from .mesh import Grid, make_grid
from .scenarios import InitialData, preset
from .spectra import VariationalConstants, compute_constants, smallest_eigen

FAILURE_MARKER = "FAILED"

TIMESERIES_COLUMNS = (
    "t", "dt", "E", "J", "I", "l2_u", "lp1_u", "linf_u", "l2_v",
    "grad_u_sq", "lap_u_sq", "dissipation_rate", "energy_residual")

SWEEP_RESULT_KEYS = (
    "E0", "thm31_verdict", "thm31_case_i", "thm31_case_ii",
    "thm32_applicable", "thm33_applicable", "T_num", "T_upper",
    "T_lower_34_truncated", "T_lower_34_with_tail", "T_lower_35",
    "sandwich_ok")


def exit_code_for(exc: BaseException) -> int:
    """Process exit code for a failed run; 0 is success by convention."""
    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, SolverFailure):
        return 3
    if isinstance(exc, ConstructionFailure):
        return 4
    if isinstance(exc, ConvergenceFailure):
        return 5
    return 1


@dataclass(frozen=True)
class RunArtifacts:
    """Everything a finished evaluation produced, still in memory."""

    config: RunConfig
    grid: Grid
    params: ModelParams
    consts: VariationalConstants
    data: InitialData
    traj: Trajectory
    estimate: BlowupEstimate
    report: BoundReport


def _evaluate(config: RunConfig) -> RunArtifacts:
    """Run the full pipeline for one configuration, in memory."""
    grid = config.grid()
    params = config.model_params()
    consts = compute_constants(grid, params)
    data = preset(config.preset, grid, params, config.amplitude,
                  energy_R=config.energy_R)
    traj = simulate(grid, params, data.u0, data.u1, config.step_controls(),
                    t_max=config.t_max, blow_threshold=config.blow_threshold,
                    output_every=config.output_every)
    estimate = detect_blowup(traj.times(), traj.series("lp1_u"),
                             config.thresholds)
    report = full_report(grid, data.u0, data.u1, params, consts, traj,
                         estimate=estimate, thresholds=config.thresholds,
                         mu=config.mu, m_safety=config.M_safety,
                         alpha_override=config.alpha_override,
                         eps_override=config.eps_override)
    return RunArtifacts(config=config, grid=grid, params=params,
                        consts=consts, data=data, traj=traj,
                        estimate=estimate, report=report)


def _write_vector(path: Path, values: np.ndarray) -> None:
    path.write_text("".join("%.17g\n" % x for x in values))


def _write_timeseries(path: Path, traj: Trajectory) -> None:
    lines = [",".join(TIMESERIES_COLUMNS)]
    for rec in traj.records:
        s = rec.snap
        row = (rec.t, rec.dt, s.E, s.J, s.I, s.l2_u, s.lp1_u, s.linf_u,
               s.l2_v, s.grad_u_sq, s.lap_u_sq, s.dissipation_rate,
               rec.energy_residual)
        lines.append(",".join("%.17g" % x for x in row))
    path.write_text("\n".join(lines) + "\n")


def constants_items(consts: VariationalConstants) -> list[tuple[str, str]]:
    return [(f"constants.{name}", fmt(getattr(consts, name)))
            for name in ("lam1_lap", "lam1_bih", "B1", "C", "C_a", "C_b",
                         "B_star", "lam_star", "depth")]


def _write_report(path: Path, artifacts: RunArtifacts) -> None:
    items = constants_items(artifacts.consts)
    items += report_items(artifacts.report)
    items += [("run.termination", artifacts.traj.termination),
              ("run.note", artifacts.traj.note or "none"),
              ("run.n_steps", str(artifacts.traj.n_steps)),
              ("run.t_final", fmt(artifacts.traj.records[-1].t))]
    path.write_text("".join(f"{k} = {v}\n" for k, v in items))


def write_artifacts(out: Path, artifacts: RunArtifacts) -> None:
    _write_vector(out / "u0.csv", artifacts.data.u0)
    _write_vector(out / "u1.csv", artifacts.data.u1)
    _write_timeseries(out / "timeseries.csv", artifacts.traj)
    _write_report(out / "report.txt", artifacts)


def integrator_failure(traj: Trajectory) -> SolverFailure | None:
    """The error a run reports when its integration failed, else None."""
    if traj.termination == "solver_failure":
        return SolverFailure(traj.note or "integrator failed")
    return None


def run(config: RunConfig, output_dir: str | Path) -> int:
    """Evaluate one configuration and write its artifacts.

    Returns the process exit code: 0 on success, 2 for configuration
    errors, 3 when the integrator failed, 4 when initial data could not
    be constructed, 5 for linear-solver breakdown, 1 otherwise.  Partial
    outputs are kept; failures additionally leave a FAILED marker.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / FAILURE_MARKER
    marker.unlink(missing_ok=True)
    try:
        (out / "config.txt").write_text(serialize_config(config))
        artifacts = _evaluate(config)
        write_artifacts(out, artifacts)
        failure = integrator_failure(artifacts.traj)
        if failure is not None:
            raise failure
        return 0
    except Exception as exc:
        marker.write_text(f"{type(exc).__name__}: {exc}\n")
        return exit_code_for(exc)


def _sweep_cell(task: tuple[int, RunConfig]) -> tuple[int, str, dict | None]:
    """Evaluate one sweep cell; never raises."""
    index, config = task
    try:
        artifacts = _evaluate(config)
    except ConfigError:
        return index, "config_error", None
    except ConstructionFailure:
        return index, "construction_failure", None
    except SolverFailure:
        return index, "solver_failure", None
    except ConvergenceFailure:
        return index, "convergence_failure", None
    except Exception:
        return index, "error", None
    status = "ok"
    if artifacts.traj.termination == "solver_failure":
        status = "solver_failure"
    return index, status, summary_row(artifacts.report)


def sweep(config: SweepConfig, jobs: int = 1) -> str:
    """Evaluate every cell of a sweep and return the result table.

    One CSV row per cell: the swept parameter values (sorted by key),
    the per-run summary columns, and a status token.  Rows keep the
    lexicographic cell order no matter how many workers ran them, and a
    failed cell yields a row of ``none`` values instead of an error.
    """
    cells = config.cells()
    keys = sorted(config.axes)
    tasks = list(enumerate(cells))
    if jobs <= 1:
        results = [_sweep_cell(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_cell, tasks))
    results.sort(key=lambda item: item[0])

    header = list(keys) + list(SWEEP_RESULT_KEYS) + ["status"]
    lines = [",".join(header)]
    for index, status, row in results:
        cell = cells[index]
        values = [fmt(getattr(cell, key)) for key in keys]
        if row is None:
            values += ["none"] * len(SWEEP_RESULT_KEYS)
        else:
            values += [row[key] for key in SWEEP_RESULT_KEYS]
        values.append(status)
        lines.append(",".join(values))
    return "\n".join(lines) + "\n"


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


def _suite_green_identity(stencil_perturbation: float) -> tuple[bool, str]:
    """Symmetry and quadratic-form identities of the discrete operators.

    ``stencil_perturbation`` is a negative-control hook: a nonzero value
    corrupts one off-diagonal entry of a copied stencil, which must
    break the identities and fail this suite.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    for grid in (make_grid(1, 64), make_grid(2, 16)):
        L = mesh.laplacian_matrix(grid)
        B = mesh.biharmonic_matrix(grid)
        if stencil_perturbation != 0.0:
            L = L.tolil()
            L[0, 1] += stencil_perturbation
            L = L.tocsr()
        for _ in range(50):
            u = rng.standard_normal(grid.size)
            w = rng.standard_normal(grid.size)
            pairs = []
            for A in (L, B):
                a = grid.weight * float(u @ (A @ w))
                b = grid.weight * float(w @ (A @ u))
                pairs.append((a, b))
            pairs.append((-grid.weight * float(u @ (L @ u)),
                          mesh.grad_norm_sq(grid, u)))
            pairs.append((grid.weight * float(u @ (B @ u)),
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
    controls = StepControls(dt_max=dt, amp_coeff=0.0,
                            residual_target=math.inf)
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
    rng = np.random.default_rng(11)
    counts: dict[str, int] = {}
    x = (np.arange(1, grid.size + 1)) * grid.h
    taper = np.sin(np.pi * x / grid.extent)**2
    for _ in range(n_fields):
        u = rng.standard_normal(grid.size) * taper
        # walk down the ray into the well, then test a random point of it
        s_hi = 1.0
        for _ in range(200):
            if functionals.potential_J(grid, s_hi * u, params) <= consts.depth:
                break
            s_hi *= 0.7
        # and up the ray: through the barrier, onto the outer branch
        s_out = s_hi
        for _ in range(200):
            if functionals.potential_J(grid, s_out * u, params) > consts.depth:
                break
            s_out *= 1.5
        for _ in range(400):
            if functionals.potential_J(grid, s_out * u, params) <= consts.depth:
                break
            s_out *= 1.5
        for w in (s_hi * rng.uniform(0.05, 1.0) * u, s_out * u):
            X = mesh.grad_norm_sq(grid, w) + mesh.lap_norm_sq(grid, w)
            verdict = functionals.lemma21_verdict(
                math.sqrt(X),
                functionals.nehari_I(grid, w, params),
                functionals.potential_J(grid, w, params),
                consts.lam_star, consts.depth,
                scale=X + mesh.norm_lq(grid, w, params.p + 1)**(params.p + 1))
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
    # doubling-segment quadrature against its closed form: with K1 = 0,
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
    grid = make_grid(1, 64)
    params = ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0)
    consts = compute_constants(grid, params)
    data = preset("negative_energy", grid, params)
    thresholds = (1e2, 1e3, 1e4, 1e5)
    traj = simulate(grid, params, data.u0, data.u1, StepControls(),
                    t_max=10.0, blow_threshold=1e6, output_every=10)
    report = full_report(grid, data.u0, data.u1, params, consts, traj,
                         thresholds=thresholds)
    ok = (report.blowup_detected and report.sandwich_ok
          and report.thm31_verdict == "case_i"
          and report.T_upper is not None and report.T_num is not None)
    return bool(ok), (f"detected={report.blowup_detected} "
                      f"T_num={fmt(report.T_num)} "
                      f"T_upper={fmt(report.T_upper)} "
                      f"sandwich_ok={report.sandwich_ok}")


def verify(*, stencil_perturbation: float = 0.0) -> VerifyReport:
    """Run the self-check suites and collect per-suite verdicts.

    ``stencil_perturbation`` feeds the Green-identity negative control;
    leave it at zero for a genuine verification.
    """
    suites = (
        ("green-identity",
         lambda: _suite_green_identity(stencil_perturbation)),
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
