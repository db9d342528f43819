"""Time integration and blow-up detection.

The second-order system u_t = v, v_t = F(u, v) with

    F(u, v) = -B u + M(G(u)) L u + L v - |v|^{r-1} v + |u|^{p-1} u

is advanced by the trapezoidal rule on the whole system: plate,
Kirchhoff, strong damping, velocity damping and source are all
implicit, and the step is of order 2 through the blow-up tail, where
damping and source nearly cancel (Hairer & Wanner, Solving ODEs II,
1996, IV.8).  Eliminating u_new = u + dt/2 (v + v_new) leaves one
nonlinear system for v_new, solved by Newton.  Its matrix is

    I + a B - c L + D + rho (L u)(L u)^T,   a = dt^2/4,
    c = dt/2 + M dt^2/4,   D = dt/2 r|v|^{r-1} - dt^2/4 p|u|^{p-1},
    rho = dt^2/2 h^dim M'(G) >= 0,

solved by one banded Cholesky call and a Sherman-Morrison update in
one dimension and by preconditioned conjugate gradients in two.  Newton
stops at NEWTON_RTOL = 1e-8: it converges quadratically, so the step
lands within about 1e-12 of the velocity of one solved to rounding.

Two cheaper solves were measured and rejected, because a fixed-step run
past the blow-up must collapse to dt_min.  A CG solve stopped early
(at 1e-4 to 1e-8, fixed or with Eisenstat-Walker-style forcing) never
meets the negative curvature of the indefinite Newton matrix there, so
in 2d the run crawls on at steps near 1e-13 instead; a check for a
positive diagonal did not restore the collapse.  Starting Newton from
the explicit predictor v + dt F(u, v) instead of v keeps the run going
in the same way in one dimension and in two.

The step size is set by an energy compliance governor alone: every
accepted step must reproduce the dissipation identity
E' = -||v||_{r+1}^{r+1} - ||grad v||^2 to a target relative to the
larger of the stored energy and the step's own dissipation turnover.  A
violating step is rejected and retried; a proportional rule on the
accepted residual keeps the working step near the largest compliant
size.  A step whose linear solve breaks down, whose Newton iteration
does not converge or whose state is not finite is retried at half the
step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import functionals, mesh
from .errors import ConvergenceFailure, NewtonFailure
from .functionals import FunctionalSnapshot, ModelParams
from .mesh import Grid
from .operators import GridOperators, operators

# row-wise backward-error target of the 2d step's conjugate gradients;
# looser solves never meet the negative curvature of the Newton matrix
# past the blow-up, and a fixed-step run then crawls instead of
# collapsing (measured at 1e-4 to 1e-8, see the module docstring)
CG_RTOL = 1e-10
# Newton on the step's velocity: iteration cap, and the error estimate
# at which it stops, relative to the iterate in the max norm
NEWTON_MAX_ITER = 8
NEWTON_RTOL = 1e-8
# accepted steps after which a run that has neither blown up nor reached
# t_max ends as a solver failure
MAX_STEPS = 2_000_000
# the StepCounts field of each cause of a failed step attempt, matched
# in order (a NewtonFailure is a ConvergenceFailure); OverflowError is a
# float power that overflowed
_REJECTIONS = {NewtonFailure: "rejected_newton",
               ConvergenceFailure: "rejected_solver",
               FloatingPointError: "rejected_nonfinite",
               OverflowError: "rejected_nonfinite"}


@dataclass(frozen=True)
class StepControls:
    """Time-step policy.

    ``dt_min`` defaults to 1e-12 * dt_max.  A request dt_max * scale
    below it (not caused by clipping at the final time) aborts the run,
    and so does a failed step clipped at the final time once the
    request is below dt_min; a request equal to dt_min is taken.  Setting
    ``residual_target = inf`` gives fixed steps.  A fixed-step run past
    the blow-up ends in ``solver_failure``: its attempts fail (the
    Newton matrix turns indefinite, Newton does not converge, or the
    state overflows) and are retried at ever smaller steps until the
    step collapses below dt_min.
    """

    dt_max: float = 1e-3
    dt_min: float | None = None
    residual_target: float = 1e-3

    def __post_init__(self):
        if not self.dt_max > 0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if self.dt_min is None:
            object.__setattr__(self, "dt_min", 1e-12 * self.dt_max)
        if not 0 < self.dt_min <= self.dt_max:
            raise ValueError(f"need 0 < dt_min <= dt_max, got {self.dt_min}")
        if not self.residual_target > 0:
            raise ValueError("residual_target must be positive")


@dataclass
class StepCounts:
    """What the step attempts of a run cost and what became of them.

    Every attempt is accepted or rejected for one cause: a non-finite
    state or diagnostics, a linear solve that broke down, Newton not
    converging, or the energy test.  ``newton_iters`` counts Newton
    corrections, ``linear_solves`` the solves begun for them,
    ``cg_iters`` the conjugate-gradient iterations of those solves (0 in
    1d, where each is one banded call) and ``diagonal_solves`` the 2d
    solves preconditioned by the diagonal, over all attempts."""

    attempts: int = 0
    rejected_nonfinite: int = 0
    rejected_solver: int = 0
    rejected_newton: int = 0
    rejected_energy: int = 0
    newton_iters: int = 0
    linear_solves: int = 0
    cg_iters: int = 0
    diagonal_solves: int = 0


@dataclass
class State:
    t: float
    u: np.ndarray
    v: np.ndarray


def coefficients(dt: float, mbar: float) -> tuple[float, float]:
    """(a, c) of the step system I + a B - c L at Kirchhoff value mbar."""
    return 0.25 * dt * dt, 0.5 * dt + 0.25 * mbar * dt * dt


def _force(ops: GridOperators, params: ModelParams, y: np.ndarray,
           x: np.ndarray) -> tuple:
    """F(y, x) with the pieces of its Jacobian: (F, L y, G, M(G),
    |x|^{r-1}, |y|^{p-1}), where G = ||grad y||^2."""
    Ly = ops.laplacian(y)
    G = max(ops.grid.weight * float(y @ -Ly), 0.0)
    m = functionals.kirchhoff(params, G)
    damp = np.abs(x)**(params.r - 1.0)
    grow = np.abs(y)**(params.p - 1.0)
    # -B y + L x = L (x - L y) - (2/h^4) edges y: two Laplacian products
    F = (ops.laplacian(x - Ly) + m * Ly - ops.edge_term * y - damp * x
         + grow * y)
    return F, Ly, G, m, damp, grow


def step(ops: GridOperators, params: ModelParams, u: np.ndarray,
         v: np.ndarray, dt: float,
         counts: StepCounts) -> tuple[np.ndarray, np.ndarray]:
    """One trapezoidal step of size dt on the whole system.

    With F(u, v) = -B u + M(G(u)) L u + L v - |v|^{r-1} v + |u|^{p-1} u
    the step solves

        u_new = u + dt/2 (v + v_new),
        v_new = v + dt/2 (F(u, v) + F(u_new, v_new)),

    every term implicit.  After u_new is eliminated the velocity solves
    R(x) = 0 by Newton from x = v, each correction a solve with the
    velocity block I + a B - c L + D + rho (L u)(L u)^T of
    ``GridOperators.solve``.  Newton stops when its estimate of the
    error left falls below NEWTON_RTOL of the iterate in the max norm.

    ``ops`` is the grid's operator object; Newton iterations, linear
    solves and their CG iterations are added to ``counts``.  Returns
    (u_new, v_new) or raises: FloatingPointError when an iterate or the
    new state is not finite (OverflowError when the Kirchhoff power
    overflows), NewtonFailure when Newton has not converged in
    NEWTON_MAX_ITER iterations and ConvergenceFailure when a linear
    solve breaks down;
    each is the signal to retry with a smaller dt.  u and v are not
    checked: ``simulate`` checks the initial data and every state it
    passes on came from this function.
    """
    p, r, w = params.p, params.r, ops.grid.weight
    h = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the explicit half of the trapezoid, and the part of u_new
        # that does not depend on v_new
        rest = v + h * _force(ops, params, u, v)[0]
        u_half = u + h * v
        x, last = v, None
        for _ in range(NEWTON_MAX_ITER):
            # the displacement that the trial velocity x gives
            y = u_half + h * x
            F, Ly, G, m, damp, grow = _force(ops, params, y, x)
            residual = x - rest - h * F
            a, c = coefficients(dt, m)
            d = h * r * damp - h * h * p * grow
            # G = 0 only at y = 0, where the rank-1 term L y vanishes
            rho = (2.0 * h * h * w * params.beta * params.gamma
                   * G**(params.gamma - 1.0) if G > 0 else 0.0)
            counts.linear_solves += 1
            delta = ops.solve(a, c, d, rho, Ly, -residual, CG_RTOL, counts)
            counts.newton_iters += 1
            x = x + delta
            if not np.isfinite(x).all():
                raise FloatingPointError("Newton iterate is not finite")
            size = np.abs(delta).max()
            # the error left after this correction: the correction itself
            # at first, then theta/(1 - theta) times it, theta = size/last
            # the observed contraction (Hairer & Wanner, Solving ODEs II,
            # IV.8), which stops before the corrections sink into rounding
            if last is None:
                left = size
            else:
                left = size * size / (last - size) if size < last else math.inf
            if left <= NEWTON_RTOL * np.abs(x).max():
                break
            last = size
        else:
            raise NewtonFailure(f"Newton did not converge in "
                                f"{NEWTON_MAX_ITER} iterations")
        u_new = u_half + h * x
        if not np.isfinite(u_new).all():
            raise FloatingPointError("new displacement is not finite")
    return u_new, x


def adapt_dt(controls: StepControls, scale: float) -> float:
    """dt_max times the energy governor's compliance ``scale``, clamped
    to [dt_min, dt_max]."""
    return min(max(controls.dt_max * scale, controls.dt_min),
               controls.dt_max)


@dataclass(frozen=True)
class Record:
    """One output row: time, step size, diagnostics, and the raw signed
    energy-identity residual accumulated since the previous row."""

    t: float
    dt: float
    snap: FunctionalSnapshot
    energy_residual: float
    inner_uv: float


@dataclass
class Trajectory:
    records: list[Record]
    termination: str
    note: str
    n_steps: int
    final_state: State
    counts: StepCounts
    timing: dict[str, float]  # step_s and diagnostics_s, in seconds

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r.snap, name) for r in self.records])


def simulate(grid: Grid, params: ModelParams, u0: np.ndarray,
             v0: np.ndarray, controls: StepControls, *, t_max: float,
             blow_threshold: float = 1e9,
             output_every: int = 1) -> Trajectory:
    """Advance from (u0, v0) until t_max, the sup-norm threshold, or
    failure.  Records are kept every ``output_every`` steps plus the
    initial and final instants.

    Termination is one of ``time_limit``, ``blowup_threshold`` or
    ``solver_failure`` (step collapse or step budget exhaustion; details
    in ``note``).  A step attempt that raises (a non-finite state, a
    linear solve that broke down, Newton not converging) or whose
    diagnostics are not finite is rejected and retried at half the step;
    the attempts and the cause of each rejection are counted in the
    trajectory's ``counts``, and the wall time of the attempts' steps
    and diagnostics in its ``timing``.

    u0 and v0 are checked here, once (ValueError if either is
    mis-shaped or non-finite); the loop runs unchecked kernels.
    """
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if output_every < 1:
        raise ValueError(f"output_every must be >= 1, got {output_every}")
    u = mesh.check_field(grid, np.array(u0, dtype=float))
    v = mesh.check_field(grid, np.array(v0, dtype=float))
    ops = operators(grid)

    t = 0.0
    scale = 1.0
    # whether the last step attempt was rejected
    rejected = False
    n_steps = 0
    counts = StepCounts()
    step_s = diagnostics_s = 0.0
    snap = functionals.diagnostics(ops, u, v, params)
    dt = adapt_dt(controls, scale)

    records = [Record(t=0.0, dt=dt, snap=snap, energy_residual=0.0,
                      inner_uv=mesh.inner(grid, u, v))]
    diss_accum = 0.0
    termination = None
    note = ""

    def record() -> Record:
        return Record(t=t, dt=dt, snap=snap,
                      energy_residual=snap.E - records[-1].snap.E + diss_accum,
                      inner_uv=mesh.inner(grid, u, v))

    while True:
        if snap.linf_u >= blow_threshold:
            termination = "blowup_threshold"
            break
        if t >= t_max * (1.0 - 1e-12):
            termination = "time_limit"
            break
        if n_steps >= MAX_STEPS:
            termination = "solver_failure"
            note = f"step budget of {MAX_STEPS} exhausted"
            break

        dt = adapt_dt(controls, scale)
        floored = controls.dt_max * scale < controls.dt_min
        clipped = t + dt > t_max
        if clipped:
            dt = t_max - t
        # a clipped step t_max - t that failed is retried only while
        # the request is not below dt_min; below it dt stays clamped,
        # and every retry would repeat the failed attempt
        if floored and (rejected or not clipped):
            termination = "solver_failure"
            note = (f"adapted step collapsed to dt_min = "
                    f"{controls.dt_min:g} at t = {t:g}")
            if clipped:
                note += ", where the step clipped to t_max failed"
            break

        counts.attempts += 1
        start = time.perf_counter()
        try:
            try:
                u_new, v_new = step(ops, params, u, v, dt, counts)
            finally:
                stepped = time.perf_counter()
                step_s += stepped - start
            snap_new = functionals.diagnostics(ops, u_new, v_new, params)
            diagnostics_s += time.perf_counter() - stepped
            if not (math.isfinite(snap_new.E)
                    and math.isfinite(snap_new.dissipation_rate)):
                raise FloatingPointError("diagnostics are not finite")
        except tuple(_REJECTIONS) as exc:
            # the step could not be completed at this dt
            cause = next(name for cls, name in _REJECTIONS.items()
                         if isinstance(exc, cls))
            setattr(counts, cause, getattr(counts, cause) + 1)
            scale *= 0.5
            rejected = True
            continue

        step_diss = 0.5 * dt * (snap.dissipation_rate
                                + snap_new.dissipation_rate)
        rel = (abs(snap_new.E - snap.E + step_diss)
               / max(1.0, abs(snap.E), abs(snap_new.E), abs(step_diss)))
        # proportional governor: aim the next step at a residual of
        # 0.3 * target, so the scale hugs the compliance boundary from
        # below instead of sawtoothing across it
        gain = (0.3 * controls.residual_target / max(rel, 1e-300))**(1.0 / 3.0)
        if rel > controls.residual_target:
            # reject and retry; the dt_min guard bounds the cascade
            counts.rejected_energy += 1
            scale *= min(0.5, max(0.1, gain))
            rejected = True
            continue
        scale = min(1.0, scale * min(1.25, max(0.9, gain)))
        rejected = False

        diss_accum += step_diss
        t += dt
        u, v, snap = u_new, v_new, snap_new
        n_steps += 1
        if n_steps % output_every == 0:
            records.append(record())
            diss_accum = 0.0

    if n_steps % output_every:
        records.append(record())

    return Trajectory(records=records, termination=termination, note=note,
                      n_steps=n_steps, final_state=State(t=t, u=u, v=v),
                      counts=counts, timing={"step_s": step_s,
                                             "diagnostics_s": diagnostics_s})


# default crossing ladder on ||u||_{p+1} for blow-up detection
DEFAULT_THRESHOLDS: tuple[float, ...] = tuple(10.0**k for k in range(2, 9))


@dataclass(frozen=True)
class ThresholdCrossing:
    threshold: float
    t_cross: float


@dataclass(frozen=True)
class BlowupEstimate:
    """Numerical blow-up time from the blow-up law.

    ``detected`` means the top threshold was crossed.  An estimate that
    falls back to the last crossing time (a tail of fewer than five
    samples, or one that stopped growing) has infinite uncertainty.
    """

    detected: bool
    T_num: float | None
    uncertainty: float
    crossings: tuple[ThresholdCrossing, ...]


def detect_blowup(times: np.ndarray, values: np.ndarray,
                  thresholds: tuple[float, ...], k: float) -> BlowupEstimate:
    """Estimate the blow-up time from a growing norm series.

    Threshold crossings are located by log-linear interpolation between
    samples, or by linear interpolation when the sample before the
    crossing is not positive.  Near blow-up the series follows the law
    value ~ (T - t)^(-k) (``ModelParams.blowup_exponent``), so
    value^(-1/k) falls linearly to zero at T.  T_num is where the line
    through the last two samples of the tail (every sample from the
    first crossing of the lowest threshold onward) meets zero; the
    reported uncertainty is the gap between T_num and the top observed
    crossing.  A tail of fewer than five samples, or one whose last
    sample does not grow, falls back to the top crossing.  Blow-up counts as
    detected only if the highest threshold was crossed.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be matching 1d arrays")
    if len(times) == 0:
        raise ValueError("empty series")
    thresholds = tuple(sorted(float(th) for th in thresholds))
    if not thresholds or thresholds[0] <= 0:
        raise ValueError("thresholds must be positive")
    if not k > 0:
        raise ValueError(f"blow-up exponent must be positive, got {k}")

    crossings = []
    for th in thresholds:
        idx = np.nonzero(values >= th)[0]
        if len(idx) == 0:
            continue
        i = int(idx[0])
        if i == 0:
            crossings.append(ThresholdCrossing(th, float(times[0])))
            continue
        t0, t1 = times[i - 1], times[i]
        a0, a1 = values[i - 1], values[i]
        if a0 > 0:
            frac = (np.log(th) - np.log(a0)) / (np.log(a1) - np.log(a0))
        else:
            frac = (th - a0) / (a1 - a0)
        crossings.append(ThresholdCrossing(th, float(t0 + frac * (t1 - t0))))
    crossings = tuple(crossings)

    detected = bool(crossings) and crossings[-1].threshold == thresholds[-1]
    if not crossings:
        return BlowupEstimate(detected=False, T_num=None,
                              uncertainty=np.inf, crossings=crossings)

    i0 = int(np.nonzero(values >= thresholds[0])[0][0])
    keep = values[i0:] > 0
    t_tail = times[i0:][keep]
    a_tail = values[i0:][keep]
    # the law's line value^(-1/k) at the last two samples falls, unless
    # the tail stopped growing
    y = a_tail[-2:] ** (-1.0 / k)
    if len(t_tail) < 5 or not y[0] > y[1]:
        return BlowupEstimate(detected=detected,
                              T_num=crossings[-1].t_cross,
                              uncertainty=np.inf, crossings=crossings)

    (t0, t1), (y0, y1) = t_tail[-2:], y
    T_num = float(t1 + y1 * (t1 - t0) / (y0 - y1))
    uncertainty = abs(T_num - crossings[-1].t_cross)
    return BlowupEstimate(detected=detected, T_num=T_num,
                          uncertainty=uncertainty, crossings=crossings)
