"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``
or in the captured output) and enforces its wall-clock budget, so the
whole file doubles as the release checklist:

1. discrete Green identities and the clamped-beam eigenvalue benchmark
2. semi-discrete energy identity at fixed steps, with order check
3. potential-well dichotomy on 1000 rescaled random fields
4. initial data constructed at prescribed energy levels, including a
   high-level run driven through blow-up
5. certified bound sandwich around the observed blow-up time on the
   negative-energy preset and the high-energy construction
6. exponential growth law for the certified functional
7. growth-certificate constant chain against an independent closed form
8. collapse of the lower-bound integral to its analytic value
"""

import math
import time

import numpy as np
import pytest

import beamblow.harness as harness
from beamblow import (
    RunConfig,
    StepControls,
    biharmonic_matrix,
    construct_energy_level,
    grad_norm_sq,
    growth_series,
    inner,
    lap_norm_sq,
    laplacian_matrix,
    make_grid,
    preset,
    simulate,
    smallest_eigen,
    snapshot,
    thm31_constants,
)
from beamblow.bounds import _lower_34_integral

from conftest import rel_err


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {tag}: {detail}",
          flush=True)


# -- shared heavy runs ------------------------------------------------------


@pytest.fixture(scope="module")
def preset_blowup_run():
    """The default configuration run end to end (criterion 5a)."""
    t0 = time.perf_counter()
    art = harness.evaluate(RunConfig())
    return art, time.perf_counter() - t0


@pytest.fixture(scope="module")
def constructed_runs(grid64, params, consts64):
    """Energy-level constructions at R = -5, d/2, 10d with the high
    level simulated through blow-up (criteria 4, 5b, 6)."""
    chain = thm31_constants(params, consts64.B1)
    d = consts64.depth
    levels = {}
    for label, R in (("negative", -5.0), ("half_depth", 0.5 * d),
                     ("ten_depth", 10.0 * d)):
        t0 = time.perf_counter()
        data = construct_energy_level(grid64, params, R, chain.B)
        levels[label] = (R, data, time.perf_counter() - t0)

    t0 = time.perf_counter()
    art = harness.evaluate(RunConfig(N=64, preset="high_energy",
                                     energy_R=levels["ten_depth"][0]))
    run_seconds = time.perf_counter() - t0
    return {"levels": levels, "chain": chain, "traj": art.traj,
            "estimate": art.estimate, "report": art.report,
            "run_seconds": run_seconds}


# -- 1: operators -----------------------------------------------------------


def _difference_quotient_energy(g, u):
    """Gradient energy summed directly over first differences with the
    clamped zero boundary; independent of the Laplacian stencil."""
    if g.dim == 1:
        padded = np.concatenate(([0.0], u, [0.0]))
        return float(np.sum(np.diff(padded) ** 2)) / g.h**2 * g.weight
    U = u.reshape(g.shape)
    total = 0.0
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (1, 1)
        total += float(np.sum(np.diff(np.pad(U, pad), axis=axis) ** 2))
    return total / g.h**2 * g.weight


def test_criterion_1_operators_and_spectrum(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for dim, n in ((1, 64), (2, 16)):
        g = make_grid(dim, n)
        L, B = laplacian_matrix(g), biharmonic_matrix(g)
        for _ in range(100):
            u = rng.standard_normal(g.size)
            worst = max(
                worst,
                rel_err(_difference_quotient_energy(g, u),
                        grad_norm_sq(g, u)),
                rel_err(-g.weight * (u @ (L @ u)), grad_norm_sq(g, u)),
                rel_err(g.weight * (u @ (B @ u)), lap_norm_sq(g, u)))

    exact = 4.73004074**4
    errs = []
    for n in (64, 128, 256):
        lam, _ = smallest_eigen(make_grid(1, n), "biharmonic")
        errs.append(abs(lam - exact))
    eig_rel = errs[-1] / exact
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - t0

    ok = (worst < 1e-13 and eig_rel < 5e-3
          and all(abs(o - 2.0) <= 0.3 for o in orders) and elapsed < 10.0)
    _line("1-operators", ok,
          f"green identities {worst:.2e} (tol 1e-13), eigenvalue rel err "
          f"{eig_rel:.2e} (tol 5e-3), orders {orders[0]:.2f}/{orders[1]:.2f} "
          f"(2 +/- 0.3), {elapsed:.1f}s (budget 10s)")
    assert worst < 1e-13
    assert eig_rel < 5e-3
    assert all(abs(o - 2.0) <= 0.3 for o in orders)
    assert elapsed < 10.0


# -- 2: energy identity -----------------------------------------------------


def test_criterion_2_energy_identity(params):
    t0 = time.perf_counter()
    grid = make_grid(1, 128)
    data = preset("sine_bump", grid, params, amplitude=1.0)

    def defects(dt: float):
        controls = StepControls(dt_max=dt, residual_target=math.inf)
        traj = simulate(grid, params, data.u0, data.u1, controls, t_max=0.5)
        assert traj.termination == "time_limit"
        per_row = max(
            abs(rec.energy_residual) / max(1.0, abs(rec.snap.E))
            for rec in traj.records)
        total = abs(sum(rec.energy_residual for rec in traj.records))
        return per_row, total / max(1.0, abs(traj.records[-1].snap.E))

    per_row, total_coarse = defects(1e-4)
    _, total_fine = defects(5e-5)
    ratio = total_coarse / total_fine
    elapsed = time.perf_counter() - t0

    ok = per_row <= 1e-4 and 3.0 <= ratio <= 5.0 and elapsed < 30.0
    _line("2-energy-identity", ok,
          f"max normalized residual {per_row:.2e} (tol 1e-4), halving "
          f"ratio {ratio:.2f} (4 +/- 25%), {elapsed:.1f}s (budget 30s)")
    assert per_row <= 1e-4
    assert 3.0 <= ratio <= 5.0
    assert elapsed < 30.0


# -- 3: potential-well dichotomy --------------------------------------------


def test_criterion_3_well_dichotomy():
    # 500 fields walked into the well from inside plus 500 re-entering
    # from outside, all with J <= d; the verdict band is 1e-9 relative.
    t0 = time.perf_counter()
    passed, detail = harness._suite_lemma21(n_fields=500)
    elapsed = time.perf_counter() - t0
    ok = passed and elapsed < 20.0
    _line("3-well-dichotomy", ok, f"{detail}, {elapsed:.1f}s (budget 20s)")
    assert passed, detail
    assert elapsed < 20.0


# -- 4: energy-level construction -------------------------------------------


def test_criterion_4_construction(constructed_runs, grid64, params):
    chain = constructed_runs["chain"]
    details = []
    ok = True
    for label, (R, data, seconds) in constructed_runs["levels"].items():
        E0 = snapshot(grid64, data.u0, data.u1, params).E
        gap = abs(E0 - R)
        corr = inner(grid64, data.u0, data.u1)
        ok_level = (gap <= 1e-9 * max(1.0, abs(R)) and corr > chain.B * R
                    and seconds < 60.0)
        ok = ok and ok_level
        details.append(f"{label}: |E0-R|={gap:.1e}, margin="
                       f"{corr - chain.B * R:.3g}")

    est = constructed_runs["estimate"]
    run_seconds = constructed_runs["run_seconds"]
    detected = est.detected and est.T_num is not None
    rel_unc = est.uncertainty / est.T_num if detected else math.inf
    ok = ok and detected and rel_unc < 0.01 and run_seconds < 60.0
    _line("4-construction", ok,
          "; ".join(details) + f"; 10d blow-up T_num="
          f"{est.T_num:.6g} rel unc {rel_unc:.2e} (tol 1e-2), "
          f"{run_seconds:.1f}s (budget 60s)")

    for label, (R, data, seconds) in constructed_runs["levels"].items():
        E0 = snapshot(grid64, data.u0, data.u1, params).E
        assert abs(E0 - R) <= 1e-9 * max(1.0, abs(R)), label
        assert inner(grid64, data.u0, data.u1) > chain.B * R, label
        assert seconds < 60.0, label
    assert detected
    assert rel_unc < 0.01
    assert run_seconds < 60.0


# -- 5: bound sandwich -------------------------------------------------------


def test_criterion_5_sandwich_preset(preset_blowup_run):
    art, seconds = preset_blowup_run
    rep = art.report
    low = max(rep.lowers.T_lower_34_truncated, rep.lowers.T_lower_35)
    ok = (rep.blowup_detected and rep.T_num is not None
          and rep.thm33_applicable
          and rep.T_upper == rep.thm33.T_upper
          and low <= rep.T_num <= rep.T_upper
          and rep.sandwich_ok and seconds < 60.0)
    _line("5-sandwich-preset", ok,
          f"{low:.3e} <= T_num={rep.T_num:.6g} <= {rep.T_upper:.6g} "
          f"(negative-energy upper), {seconds:.1f}s (budget 60s)")
    assert rep.blowup_detected
    assert rep.thm33_applicable
    assert rep.T_upper == rep.thm33.T_upper
    assert low <= rep.T_num <= rep.T_upper
    assert rep.sandwich_ok
    assert seconds < 60.0


def test_criterion_5_sandwich_construction(constructed_runs):
    rep = constructed_runs["report"]
    seconds = constructed_runs["run_seconds"]
    low = max(rep.lowers.T_lower_34_truncated, rep.lowers.T_lower_35)
    ok = (rep.blowup_detected and rep.T_num is not None
          and rep.thm32_applicable
          and rep.T_upper == rep.thm32.T_upper
          and low <= rep.T_num <= rep.T_upper
          and rep.sandwich_ok and seconds < 60.0)
    _line("5-sandwich-construction", ok,
          f"{low:.3e} <= T_num={rep.T_num:.6g} <= {rep.T_upper:.6g} "
          f"(positive-energy upper), {seconds:.1f}s (budget 60s)")
    assert rep.blowup_detected
    assert rep.thm32_applicable
    assert rep.T_upper == rep.thm32.T_upper
    assert low <= rep.T_num <= rep.T_upper
    assert rep.sandwich_ok
    assert seconds < 60.0


# -- 6: growth law -----------------------------------------------------------


def test_criterion_6_growth_law(constructed_runs):
    chain = constructed_runs["chain"]
    traj = constructed_runs["traj"]
    series = growth_series(traj, chain)
    times = traj.times()
    linf = traj.series("linf_u")
    window = linf <= 1e3
    F0 = series[0]
    floor = 0.95 * F0 * np.exp(chain.A * times[window])
    margin = np.min(series[window] / floor)
    ok = F0 > 0.0 and int(window.sum()) >= 5 and margin >= 1.0
    _line("6-growth-law", ok,
          f"F0={F0:.6g}, {int(window.sum())} rows with sup norm <= 1e3, "
          f"min F(t) / (0.95 F0 e^(At)) = {margin:.3f} (needs >= 1)")
    assert F0 > 0.0
    assert int(window.sum()) >= 5
    assert margin >= 1.0


# -- 7: certificate chain regression -----------------------------------------


def test_criterion_7_chain_regression():
    t0 = time.perf_counter()
    from beamblow import ModelParams

    chain = thm31_constants(ModelParams(p=3.0, r=1.0, gamma=0.5, beta=1.0),
                            1.0 / math.pi)
    # independent closed form: theta vanishes at r = 1, s = 1, so delta3
    # is the positive root of 64 e^2 + 6 pi^2 e - 12 pi^2 = 0
    root = (-6 * math.pi**2
            + math.sqrt(36 * math.pi**4 + 3072 * math.pi**2)) / 128.0
    A_ref = math.sqrt(6.0 * math.pi**2 * (2.0 - 0.5 * root))
    B_ref = 1.0 / (2.0 * (0.5 * root))
    limit = 4.0 / math.pi / math.sqrt(12.0)
    errs = (rel_err(chain.delta3, root), rel_err(chain.A, A_ref),
            rel_err(chain.B, B_ref),
            abs(chain.B_of(1e-6) - limit) / limit)
    elapsed = time.perf_counter() - t0
    ok = (chain.feasible and chain.eps0 == pytest.approx(0.5 * root, rel=1e-9)
          and errs[0] < 1e-9 and errs[1] < 1e-9 and errs[2] < 1e-9
          and errs[3] < 1e-5 and elapsed < 1.0)
    _line("7-chain-regression", ok,
          f"delta3/A/B rel errs {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e} "
          f"(tol 1e-9), eps->0 weight err {errs[3]:.1e} (tol 1e-5), "
          f"{elapsed:.2f}s (budget 1s)")
    assert chain.feasible
    assert errs[0] < 1e-9 and errs[1] < 1e-9 and errs[2] < 1e-9
    assert errs[3] < 1e-5
    assert elapsed < 1.0


# -- 8: lower-bound integral --------------------------------------------------


def test_criterion_8_integral_collapse():
    t0 = time.perf_counter()
    truncated, with_tail = _lower_34_integral(1.0, 0.0, 0.25, 3.0)
    target = 0.5 * math.log(5.0)
    err = abs(with_tail - target)
    elapsed = time.perf_counter() - t0
    ok = truncated <= with_tail and err <= 1e-8 and elapsed < 1.0
    _line("8-integral-collapse", ok,
          f"value {with_tail:.9f} vs ln(5)/2 = {target:.9f}, err {err:.1e} "
          f"(tol 1e-8), {elapsed:.2f}s (budget 1s)")
    assert truncated <= with_tail
    assert err <= 1e-8
    assert elapsed < 1.0
