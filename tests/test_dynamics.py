"""Time integration: the implicit step, energy identity, blow-up detection."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from beamblow import (
    ModelParams,
    RunConfig,
    StepControls,
    adapt_dt,
    detect_blowup,
    evaluate,
    make_grid,
    preset,
    simulate,
)


# Dense-Jacobian Radau IIA (scipy's solve_ivp, rtol 1e-11) on a model of
# the same discretization assembled independently of the package, at
# 1D N = 32 with p = 3, r = 2, gamma = 1/2, beta = 1 and the
# negative_energy data: the times at which max|u| first reaches 1e3 and
# 1e6.
RADAU_CROSSINGS_1D_N32 = {1e3: 0.1854969, 1e6: 0.2480639}
# Its singular time T*: max|u|^(-1/k) is linear in T* - t near blow-up.
T_STAR_1D_N32 = 0.2500652
# The model of both Radau references.
RADAU_PARAMS_1D_N32 = ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0)
# The singular time T* of the default run (RunConfig(), 1D N = 128):
# the Radau run's max|u|^(-1/k) is linear in T* - t near blow-up.
T_STAR_DEFAULT_1D = 0.2493837


def total_defect(traj):
    """Absolute accumulated energy-identity residual over a run."""
    return abs(sum(r.energy_residual for r in traj.records))


def test_step_controls_validation():
    c = StepControls(dt_max=2e-3)
    assert c.dt_min == pytest.approx(2e-15)
    with pytest.raises(ValueError):
        StepControls(dt_max=-1.0)
    with pytest.raises(ValueError):
        StepControls(dt_max=1e-3, dt_min=1.0)
    with pytest.raises(ValueError):
        StepControls(residual_target=0.0)


def test_scheme_matches_reference_ode():
    # On the single-node grid the semi-discrete system is a scalar ODE:
    # u'' = -128 u + (1 + beta (4u^2)^gamma) (-8 u) - 8 v - |v|^{r-1} v + u^3.
    prm = ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0)
    g = make_grid(1, 1)

    def rhs(t, y):
        u, v = y
        m = 1.0 + (4.0 * u * u) ** 0.5
        return [v, -128.0 * u - 8.0 * m * u - 8.0 * v - abs(v) * v + u**3]

    ref = solve_ivp(rhs, (0, 0.3), [0.1, 0.0], rtol=1e-11, atol=1e-13)
    controls = StepControls(dt_max=2e-4, residual_target=math.inf)
    traj = simulate(g, prm, np.array([0.1]), np.array([0.0]), controls, t_max=0.3)
    assert traj.termination == "time_limit"
    assert traj.final_state.u[0] == pytest.approx(ref.y[0, -1], abs=5e-7)
    assert traj.final_state.v[0] == pytest.approx(ref.y[1, -1], abs=5e-6)


@pytest.fixture(scope="module")
def radau_run_1d_n32():
    """The Radau reference's run: 1D N = 32, negative_energy, to 1e6."""
    g = make_grid(1, 32)
    prm = RADAU_PARAMS_1D_N32
    data = preset("negative_energy", g, prm)
    traj = simulate(g, prm, data.u0, data.u1, StepControls(), t_max=10.0,
                    blow_threshold=1e6)
    assert traj.termination == "blowup_threshold"
    return traj


def test_crossings_match_dense_jacobian_radau(radau_run_1d_n32):
    traj = radau_run_1d_n32
    est = detect_blowup(traj.times(), traj.series("linf_u"),
                        tuple(RADAU_CROSSINGS_1D_N32),
                        RADAU_PARAMS_1D_N32.blowup_exponent)
    assert len(est.crossings) == 2
    for crossing in est.crossings:
        assert crossing.t_cross == pytest.approx(
            RADAU_CROSSINGS_1D_N32[crossing.threshold], rel=5e-4)


def test_T_num_matches_radau_singular_time(radau_run_1d_n32):
    traj = radau_run_1d_n32
    est = detect_blowup(traj.times(), traj.series("lp1_u"),
                        (1e2, 1e3, 1e4, 1e5),
                        RADAU_PARAMS_1D_N32.blowup_exponent)
    assert est.detected and not math.isinf(est.uncertainty)
    assert abs(est.T_num - T_STAR_1D_N32) <= 5e-5


def default_run():
    return evaluate(RunConfig())


def test_default_run_T_num_covers_the_singular_time():
    art = default_run()
    assert art.traj.termination == "blowup_threshold"
    assert art.traj.n_steps <= 5000
    est = art.estimate
    assert est.detected and not math.isinf(est.uncertainty)
    assert abs(est.T_num - T_STAR_DEFAULT_1D) <= est.uncertainty


def test_dissipation_accounts_for_the_energy_drop():
    # the default run stopped at max|u| = 1e4: the energy-identity
    # residuals the run reports are at most 1% of E(0) - E(T)
    traj = evaluate(RunConfig(blow_threshold=1e4)).traj
    assert traj.termination == "blowup_threshold"
    E = traj.series("E")
    drop = E[0] - E[-1]
    assert drop > 0.0
    assert total_defect(traj) <= 1e-2 * drop


def test_step_counts_add_up():
    traj = default_run().traj
    n = traj.counts
    rejected = (n.rejected_nonfinite + n.rejected_solver + n.rejected_newton
                + n.rejected_energy)
    assert n.attempts == traj.n_steps + rejected
    assert n.attempts <= n.linear_solves
    assert n.newton_iters <= n.linear_solves


def test_zero_field_stays_zero(grid64, params):
    z = np.zeros(grid64.size)
    traj = simulate(grid64, params, z, z, StepControls(dt_max=1e-3),
                    t_max=0.01)
    assert traj.termination == "time_limit"
    assert traj.final_state.t == pytest.approx(0.01, rel=1e-12)
    assert np.all(traj.final_state.u == 0.0)
    assert traj.series("E") == pytest.approx(np.zeros(len(traj.records)), abs=1e-300)


def test_record_layout(grid64, params):
    data = preset("sine_bump", grid64, params, amplitude=0.5)
    traj = simulate(grid64, params, data.u0, data.u1,
                    StepControls(dt_max=1e-3), t_max=0.02, output_every=5)
    times = traj.times()
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.02, rel=1e-12)
    assert np.all(np.diff(times) > 0)
    # every series getter matches the snapshot fields
    for name in ("E", "J", "I", "l2_u", "lp1_u", "linf_u", "l2_v",
                 "grad_u_sq", "lap_u_sq", "dissipation_rate"):
        assert len(traj.series(name)) == len(traj.records)
    assert traj.n_steps >= len(traj.records) - 1


def test_closing_record_of_a_partial_output_block(grid64, params):
    # 20 steps at output_every = 7: records at steps 0, 7 and 14, and
    # the closing record of the last six steps at step 20
    data = preset("sine_bump", grid64, params, amplitude=0.5)
    runs = {every: simulate(grid64, params, data.u0, data.u1,
                            StepControls(dt_max=1e-3), t_max=0.02,
                            output_every=every) for every in (1, 7)}
    traj = runs[7]
    assert traj.n_steps == 20
    assert len(traj.records) == 4
    assert traj.records[-1].t == traj.final_state.t
    # each record carries the residual since the one before, so the
    # sums telescope to the same whole-run defect
    scale = abs(traj.records[0].snap.E)
    assert (sum(rec.energy_residual for rec in traj.records)
            == pytest.approx(sum(rec.energy_residual
                                 for rec in runs[1].records),
                             rel=0.0, abs=1e-14 * scale))


def test_energy_identity_second_order(grid48, params):
    # the accumulated defect |Delta E + integral of dissipation| drops
    # by about 4 per step halving
    data = preset("sine_bump", grid48, params, amplitude=1.0)
    defects = []
    for dt in (2e-4, 1e-4):
        controls = StepControls(dt_max=dt, residual_target=math.inf)
        traj = simulate(grid48, params, data.u0, data.u1, controls,
                        t_max=0.05)
        defects.append(total_defect(traj))
    ratio = defects[0] / defects[1]
    assert 2.5 < ratio < 6.0


def test_energy_decays_without_source_growth(grid48, params):
    # small data: dissipation dominates, E(t) must be nonincreasing
    data = preset("sine_bump", grid48, params, amplitude=0.01)
    traj = simulate(grid48, params, data.u0, data.u1,
                    StepControls(dt_max=1e-4, residual_target=math.inf),
                    t_max=0.05)
    E = traj.series("E")
    assert np.all(np.diff(E) <= 1e-12 * max(1.0, abs(E[0])))


def test_adapt_dt_clamp():
    controls = StepControls(dt_max=1e-3, dt_min=1e-6)
    assert adapt_dt(controls, 1.0) == controls.dt_max
    assert adapt_dt(controls, 0.25) == 0.25 * controls.dt_max
    assert adapt_dt(controls, 2.0) == controls.dt_max
    assert adapt_dt(controls, 1e-9) == controls.dt_min


def test_simulate_argument_validation(grid64, params):
    z = np.zeros(grid64.size)
    with pytest.raises(ValueError):
        simulate(grid64, params, z, z, StepControls(), t_max=0.0)
    with pytest.raises(ValueError):
        simulate(grid64, params, z, z, StepControls(), t_max=1.0,
                 output_every=0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("field,bad", [
    ("u0", "nan"), ("u0", "inf"), ("u0", "short"), ("u0", "square"),
    ("v0", "nan"), ("v0", "inf"), ("v0", "short"), ("v0", "square")])
def test_simulate_rejects_bad_initial_data(dim, field, bad):
    g = make_grid(dim, 8)
    prm = ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0, dim=dim)
    fields = {"u0": np.full(g.size, 0.1), "v0": np.zeros(g.size)}
    if bad in ("nan", "inf"):
        fields[field][3] = float(bad)
    elif bad == "short":
        fields[field] = fields[field][:-1]
    else:
        fields[field] = np.zeros((g.size, g.size))
    with pytest.raises(ValueError):
        simulate(g, prm, fields["u0"], fields["v0"], StepControls(),
                 t_max=1e-3)


@pytest.mark.parametrize("dim,dt_max,amplitude", [
    (1, 1e-3, 1.0), (1, 1e-2, 1.0), (2, 1e-3, 1.0), (1, 1e-3, 1e80),
    (1, 1e-3, 1e110)])
def test_fixed_step_overflow_ends_in_solver_failure(monkeypatch, dim,
                                                    dt_max, amplitude):
    """A fixed-step run past the blow-up overflows.  It must end as a
    solver failure: no exception escapes, and rejected attempts, which
    do not count against MAX_STEPS, cannot repeat forever (a bound on
    the attempts turns such a loop into a failure here)."""
    from beamblow import dynamics

    g = make_grid(dim, 32)
    prm = ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0, dim=dim)
    data = preset("negative_energy", g, prm)
    attempts = []
    step = dynamics.step

    def bounded_step(*args, **kwargs):
        attempts.append(1)
        assert len(attempts) < 20_000, "rejected attempts repeat forever"
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", bounded_step)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 20_000)
    controls = StepControls(dt_max=dt_max, residual_target=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate(g, prm, amplitude * data.u0, data.u1, controls,
                        t_max=5.0, blow_threshold=1e300)
    assert traj.termination == "solver_failure"
    assert traj.final_state.t < 5.0
    if amplitude > 1.0:
        assert traj.n_steps == 0
        assert "collapsed" in traj.note


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("dt", [1e-3, 1e-4])
def test_newton_stopped_at_its_tolerance_matches_a_tight_stop(
        monkeypatch, dim, n, dt):
    """Newton converges quadratically, so a step stopped at NEWTON_RTOL
    lands within 1e-10 of the velocity's size of one stopped at 1e-12."""
    from beamblow import dynamics
    from beamblow.operators import operators

    g = make_grid(dim, n)
    prm = ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0, dim=dim)
    data = preset("negative_energy", g, prm)
    ops = operators(g)

    def step():
        return dynamics.step(ops, prm, data.u0, data.u1, dt,
                             dynamics.StepCounts())

    u, v = step()
    monkeypatch.setattr(dynamics, "NEWTON_RTOL", 1e-12)
    u_tight, v_tight = step()
    scale = np.abs(v_tight).max()
    assert np.abs(v - v_tight).max() <= 1e-10 * scale
    assert np.abs(u - u_tight).max() <= 1e-10 * dt * scale


def test_a_non_finite_snapshot_is_rejected_and_retried(monkeypatch,
                                                      grid48, params):
    """The third snapshot (of the second step attempt) reports a nan
    energy: that attempt is counted as non-finite and retried at half
    the step, and the run ends as it does without the fault."""
    from dataclasses import replace

    from beamblow import functionals

    data = preset("negative_energy", grid48, params)

    def run():
        return simulate(grid48, params, data.u0, data.u1, StepControls(),
                        t_max=5.0, blow_threshold=1e4)

    clean = run()
    diagnostics = functionals.diagnostics
    calls = []

    def faulty(*args):
        calls.append(1)
        snap = diagnostics(*args)
        return replace(snap, E=math.nan) if len(calls) == 3 else snap

    monkeypatch.setattr(functionals, "diagnostics", faulty)
    traj = run()
    assert clean.counts.rejected_nonfinite == 0
    assert traj.counts.rejected_nonfinite == 1
    assert traj.counts.attempts == traj.n_steps + (
        traj.counts.rejected_energy + 1)
    assert traj.termination == clean.termination == "blowup_threshold"


def test_detect_blowup_synthetic_pole():
    # value = 3 (1 - t)^{-2} has an exact pole at T = 1, and the law with
    # k = 2 recovers it
    t = np.linspace(0.0, 0.999, 4000)
    v = 3.0 * (1.0 - t) ** (-2.0)
    thresholds = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
    est = detect_blowup(t, v, thresholds, 2.0)
    assert est.detected
    assert not math.isinf(est.uncertainty)
    assert abs(est.T_num - 1.0) <= 1e-9
    assert est.uncertainty < 1e-2
    assert len(est.crossings) == len(thresholds)
    # crossing times are increasing in the threshold
    cts = [c.t_cross for c in est.crossings]
    assert all(a < b for a, b in zip(cts, cts[1:]))


def test_detect_blowup_decaying_tail_is_coarse():
    # the series crosses both thresholds and then decays: no pole ahead
    t = np.linspace(0.0, 0.9, 200)
    v = 1.0 + 1e3 * np.sin(np.pi * t)
    est = detect_blowup(t, v, (10.0, 100.0), 2.0)
    assert est.detected
    assert math.isinf(est.uncertainty)
    assert est.T_num == est.crossings[-1].t_cross


def test_detect_blowup_crossing_after_a_zero_sample():
    # the sample before the first crossing is 0, where a log-linear
    # interpolation is undefined; the crossing falls back to the line
    t = np.linspace(0.0, 0.9, 91)
    v = 1e3 * np.sin(np.pi * t)
    assert v[0] == 0.0 and v[1] > 10.0
    est = detect_blowup(t, v, (10.0, 100.0), 1.0)
    assert est.detected
    first, second = (c.t_cross for c in est.crossings)
    assert first == pytest.approx(t[1] * 10.0 / v[1], rel=1e-12)
    assert t[3] < second < t[4]
    assert math.isfinite(est.T_num)


def test_detect_blowup_negative_cases():
    t = np.linspace(0.0, 1.0, 200)
    flat = np.ones_like(t)
    est = detect_blowup(t, flat, (10.0, 100.0), 2.0)
    assert not est.detected
    assert est.T_num is None
    # growing but never reaching the top threshold
    est2 = detect_blowup(t, 1.0 + 20.0 * t, (10.0, 1e6), 2.0)
    assert not est2.detected
    assert len(est2.crossings) == 1
    with pytest.raises(ValueError):
        detect_blowup(t, flat, (10.0,), 0.0)


def test_blowup_exponent_is_the_larger_of_the_two_laws():
    # inertial 2/(p-1) against damping r/(p-r)
    for p, r, k in ((3.0, 1.0, 1.0), (3.0, 2.0, 2.0), (3.0, 2.5, 5.0),
                    (4.0, 2.0, 1.0), (5.0, 1.0, 0.5)):
        prm = ModelParams(p=p, r=r, gamma=0.5, beta=1.0)
        assert prm.blowup_exponent == pytest.approx(k, rel=1e-15)


def test_blowup_termination(grid48, params):
    data = preset("negative_energy", grid48, params)
    traj = simulate(grid48, params, data.u0, data.u1, StepControls(),
                    t_max=5.0, blow_threshold=1e4)
    assert traj.termination == "blowup_threshold"
    assert traj.series("linf_u")[-1] >= 1e4
