"""Time integration and blow-up detection.

The second-order system u_t = v, v_t = -B u + M(G(u)) L u + L v
- |v|^{r-1} v + |u|^{p-1} u is advanced by Strang splitting: a
half-step of the exact nodewise damping flow, a trapezoidal
predictor-corrector for everything else, and a second damping
half-step.  In the core the stiff linear operators are treated
implicitly (Crank-Nicolson) while the scalar stiffness M and the
source are frozen at predictor values and then averaged in a corrector
pass.  Both stages solve one SPD system

    [I + dt^2/4 B - (dt/2 + m dt^2/4) L] v_new = rhs

directly (banded Cholesky) in one dimension, and by conjugate
gradients preconditioned with a sine-basis solve in two.

Step-size control combines an amplitude brake (the step shrinks as the
solution norms grow, which resolves the blow-up tail) with an energy
compliance governor: every accepted step must reproduce the dissipation
identity E' = -||v||_{r+1}^{r+1} - ||grad v||^2 to a target relative to
the larger of the stored energy and the step's own dissipation
turnover.  A violating step is rejected and retried; a proportional
rule on the accepted residual keeps the working step near the largest
compliant size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functionals, mesh
from .errors import ConvergenceFailure
from .functionals import FunctionalSnapshot, ModelParams
from .mesh import Grid
from .operators import GridOperators, operators


@dataclass(frozen=True)
class StepControls:
    """Time-step policy.

    ``dt_min`` defaults to 1e-12 * dt_max; a step request below it (not
    caused by clipping at the final time) aborts the run.  Setting
    ``amp_coeff = 0`` and ``residual_target = inf`` gives fixed steps.
    """

    dt_max: float = 1e-3
    dt_min: float | None = None
    amp_coeff: float = 1e-9
    residual_target: float = 1e-3
    cg_rtol: float = 1e-10
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not self.dt_max > 0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if self.dt_min is None:
            object.__setattr__(self, "dt_min", 1e-12 * self.dt_max)
        if not 0 < self.dt_min <= self.dt_max:
            raise ValueError(f"need 0 < dt_min <= dt_max, got {self.dt_min}")
        if self.amp_coeff < 0:
            raise ValueError("amp_coeff must be nonnegative")
        if not self.residual_target > 0:
            raise ValueError("residual_target must be positive")


@dataclass
class State:
    grid: Grid
    t: float
    u: np.ndarray
    v: np.ndarray
    dt: float


def coefficients(dt: float, mbar: float) -> tuple[float, float]:
    """(a, c) of the step system I + a B - c L at Kirchhoff value mbar."""
    return 0.25 * dt * dt, 0.5 * dt + 0.25 * mbar * dt * dt


def damping_flow(params: ModelParams, v: np.ndarray,
                 tau: float) -> np.ndarray:
    """Exact flow of v\' = -|v|^{r-1} v over a time tau.

    Closed form for every r >= 1, monotone and unconditionally stable,
    which is what lets the integrator keep its step size when the
    velocity is many orders of magnitude above unity (the explicit
    Lipschitz bound dt * r |v|^{r-1} < 1 would collapse dt there).
    """
    if params.r == 1:
        return v * np.exp(-tau)
    q = params.r - 1.0
    return v * (1.0 + q * tau * np.abs(v)**q)**(-1.0 / q)


def step(ops: GridOperators, params: ModelParams, u: np.ndarray,
         v: np.ndarray, dt: float,
         cg_rtol: float = 1e-10) -> tuple[np.ndarray, np.ndarray] | None:
    """One Strang-split step of size dt.

    Half-step of the exact damping flow, a trapezoidal
    predictor-corrector for the remaining system, half-step of damping
    again.  The corrector averages the frozen nonlinear terms between
    the old state and the predictor; iterating that average to its
    fixed point does not pay, the truncated pass already matches the
    splitting error.  ``ops`` is the grid's operator object.  Returns
    None when the step produced a non-finite state, the signal to retry
    with a smaller dt.
    """
    grid = ops.grid

    def implicit_solve(mbar: float, sbar: np.ndarray, x0: np.ndarray):
        a, c = coefficients(dt, mbar)
        rhs = v + dt * (-0.5 * Bu + 0.5 * mbar * Lu + 0.5 * Lv + sbar)
        return ops.solve(a, c, rhs, x0, cg_rtol)

    with np.errstate(over="ignore", invalid="ignore"):
        v = damping_flow(params, v, 0.5 * dt)
        u_hat = u + 0.5 * dt * v
        u_sum = u + u_hat
        # the predictor and the corrector share these products
        Bu, Lu, Lv = ops.B @ u_sum, ops.L @ u_sum, ops.L @ v

        m0 = functionals.kirchhoff(params, mesh.grad_norm_sq(grid, u))
        s0 = functionals.source_term(params, u)

        v_star = implicit_solve(m0, s0, x0=v)
        if not np.all(np.isfinite(v_star)):
            return None
        u_star = u_hat + 0.5 * dt * v_star
        m1 = 0.5 * (m0 + functionals.kirchhoff(
            params, mesh.grad_norm_sq(grid, u_star)))
        s1 = 0.5 * (s0 + functionals.source_term(params, u_star))
        v_new = implicit_solve(m1, s1, x0=v_star)
        u_new = u_hat + 0.5 * dt * v_new
        v_new = damping_flow(params, v_new, 0.5 * dt)
        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
            return None
    return u_new, v_new


def adapt_dt(grid: Grid, params: ModelParams, controls: StepControls,
             u: np.ndarray, v: np.ndarray, scale: float) -> float:
    """Amplitude-braked step size, clamped to [dt_min, dt_max].

    The brake grows with the norms that drive the blow-up mechanism,
    so the step shrinks at the same rate the solution accelerates; the
    compliance ``scale`` from the energy governor multiplies on top.
    """
    amp = mesh.norm_lq(grid, u, params.p + 1)**(params.p - 1.0)
    if params.r > 1:
        amp += mesh.norm_lq(grid, v, params.r + 1)**(params.r - 1.0)
    dt = controls.dt_max / (1.0 + controls.amp_coeff * amp) * scale
    return min(max(dt, controls.dt_min), controls.dt_max)


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
    grid: Grid
    params: ModelParams
    records: list[Record]
    termination: str
    note: str
    n_steps: int
    final_state: State

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r.snap, name) for r in self.records])


def simulate(grid: Grid, params: ModelParams, u0: np.ndarray,
             v0: np.ndarray, controls: StepControls, *, t_max: float,
             blow_threshold: float = 1e9,
             output_every: int = 10) -> Trajectory:
    """Advance from (u0, v0) until t_max, the sup-norm threshold, or
    failure.  Records are kept every ``output_every`` steps plus the
    initial and final instants.

    Termination is one of ``time_limit``, ``blowup_threshold`` or
    ``solver_failure`` (step collapse, stalled linear solve, non-finite
    state, or step budget exhaustion; details in ``note``).
    """
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if output_every < 1:
        raise ValueError(f"output_every must be >= 1, got {output_every}")
    u = np.array(u0, dtype=float)
    v = np.array(v0, dtype=float)
    ops = operators(grid)

    t = 0.0
    scale = 1.0
    n_steps = 0
    snap = functionals.snapshot(grid, u, v, params)
    dt = adapt_dt(grid, params, controls, u, v, scale)

    records = [Record(t=0.0, dt=dt, snap=snap, energy_residual=0.0,
                      inner_uv=mesh.inner(grid, u, v))]
    diss_accum = 0.0
    last_record_E = snap.E
    steps_since_record = 0
    termination = None
    note = ""

    while True:
        if snap.linf_u >= blow_threshold:
            termination = "blowup_threshold"
            break
        if t >= t_max * (1.0 - 1e-12):
            termination = "time_limit"
            break
        if n_steps >= controls.max_steps:
            termination = "solver_failure"
            note = f"step budget of {controls.max_steps} exhausted"
            break

        dt = adapt_dt(grid, params, controls, u, v, scale)
        clipped = False
        if t + dt > t_max:
            dt = t_max - t
            clipped = True
        if dt <= controls.dt_min and not clipped:
            termination = "solver_failure"
            note = (f"adapted step collapsed to dt_min = "
                    f"{controls.dt_min:g} at t = {t:g}")
            break
        if dt <= 0.0:
            termination = "time_limit"
            break

        try:
            result = step(ops, params, u, v, dt,
                          cg_rtol=controls.cg_rtol)
        except ConvergenceFailure:
            result = None
        if result is None or not (np.all(np.isfinite(result[0]))
                                  and np.all(np.isfinite(result[1]))):
            # step could not be completed at this dt; retry smaller
            scale *= 0.5
            continue
        u_new, v_new = result

        snap_new = functionals.snapshot(grid, u_new, v_new, params)
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
            scale *= min(0.5, max(0.1, gain))
            continue
        scale = min(1.0, scale * min(1.25, max(0.9, gain)))

        diss_accum += step_diss
        t += dt
        u, v, snap = u_new, v_new, snap_new
        n_steps += 1
        steps_since_record += 1
        if steps_since_record >= output_every:
            records.append(Record(
                t=t, dt=dt, snap=snap,
                energy_residual=snap.E - last_record_E + diss_accum,
                inner_uv=mesh.inner(grid, u, v)))
            last_record_E = snap.E
            diss_accum = 0.0
            steps_since_record = 0

    if steps_since_record > 0:
        records.append(Record(
            t=t, dt=dt, snap=snap,
            energy_residual=snap.E - last_record_E + diss_accum,
            inner_uv=mesh.inner(grid, u, v)))

    return Trajectory(grid=grid, params=params, records=records,
                      termination=termination, note=note, n_steps=n_steps,
                      final_state=State(grid=grid, t=t, u=u, v=v, dt=dt))


# default crossing ladder on ||u||_{p+1} for blow-up time fitting
DEFAULT_THRESHOLDS: tuple[float, ...] = tuple(10.0**k for k in range(2, 9))


@dataclass(frozen=True)
class ThresholdCrossing:
    threshold: float
    t_cross: float


@dataclass(frozen=True)
class BlowupEstimate:
    """Fitted numerical blow-up time.

    ``detected`` means the top threshold was crossed.  ``coarse`` marks
    estimates that fall back to the last crossing time because the tail
    held fewer than five samples; those carry infinite uncertainty.
    """

    detected: bool
    T_num: float | None
    uncertainty: float
    crossings: tuple[ThresholdCrossing, ...]
    coarse: bool


def _golden_minimize(f, lo: float, hi: float, iters: int = 120) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def detect_blowup(times: np.ndarray, values: np.ndarray,
                  thresholds: tuple[float, ...]) -> BlowupEstimate:
    """Estimate the blow-up time from a growing norm series.

    Threshold crossings are located by log-linear interpolation between
    samples.  When the tail (every sample from the first crossing of
    the lowest threshold onward) holds at least five samples, it is
    fitted to the power ansatz
    value = K (T - t)^{-k} by minimizing the log-log least-squares
    residual over T (golden section in log(T - t_last)); the reported
    uncertainty is the gap between the fitted T and the top observed
    crossing.  Blow-up counts as detected only if the highest threshold
    was crossed.
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
        frac = (np.log(th) - np.log(a0)) / (np.log(a1) - np.log(a0))
        crossings.append(ThresholdCrossing(th, float(t0 + frac * (t1 - t0))))
    crossings = tuple(crossings)

    detected = bool(crossings) and crossings[-1].threshold == thresholds[-1]
    if not crossings:
        return BlowupEstimate(detected=False, T_num=None,
                              uncertainty=np.inf, crossings=crossings,
                              coarse=True)

    i0 = int(np.nonzero(values >= thresholds[0])[0][0])
    keep = values[i0:] > 0
    t_tail = times[i0:][keep]
    a_tail = values[i0:][keep]
    t_last = float(t_tail[-1])
    if len(t_tail) < 5:
        return BlowupEstimate(detected=detected,
                              T_num=crossings[-1].t_cross,
                              uncertainty=np.inf, crossings=crossings,
                              coarse=True)

    span = t_last - float(times[0])
    if span <= 0:
        span = 1.0
    log_lo = np.log(1e-12 * max(1.0, t_last))
    log_hi = np.log(span)
    log_a = np.log(a_tail)

    def fit_residual(log_gap: float) -> float:
        T = t_last + np.exp(log_gap)
        x = np.log(T - t_tail)
        coef = np.polyfit(x, log_a, 1)
        res = log_a - np.polyval(coef, x)
        return float(res @ res)

    best = _golden_minimize(fit_residual, log_lo, log_hi)
    T_fit = t_last + float(np.exp(best))
    uncertainty = abs(T_fit - crossings[-1].t_cross)
    return BlowupEstimate(detected=detected, T_num=T_fit,
                          uncertainty=uncertainty, crossings=crossings,
                          coarse=False)
