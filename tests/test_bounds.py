"""Certificate chains: growth constants, upper and lower time bounds."""

import math

import numpy as np
import pytest

from beamblow import (
    BlowupEstimate,
    LowerBounds,
    ModelParams,
    Thm34Result,
    Thm35Result,
    construct_energy_level,
    detect_blowup,
    full_report,
    growth_series,
    inner,
    make_grid,
    norm_lq,
    preset,
    simulate,
    snapshot,
    StepControls,
    summary_row,
    thm31_check,
    thm31_constants,
    thm32_upper,
    thm33_upper,
    thm34_lower,
    thm35_lower,
)
from beamblow.bounds import (_boundary, _grad_interpolation_constant,
                             _largest_admissible, _lower_34_integral, _walk,
                             fmt, scalar_items)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (2.0**-40, 2.0**40)])
@pytest.mark.parametrize("good_is_low", [True, False])
def test_boundary_bisects_to_adjacent_floats(lo, hi, good_is_low):
    # an edge near 2^-38 inside [2^-40, 2^40] lies below the resolution
    # of 100 halvings (2^-60), so a fixed step cap would stop short
    edge = 3e-12
    if good_is_low:
        good, bad, pred = lo, hi, (lambda x: x < edge)
    else:
        good, bad, pred = hi, lo, (lambda x: x > edge)
    x = _boundary(pred, good, bad)
    assert pred(x)
    assert np.nextafter(x, bad) == edge and not pred(edge)


def counted(pred):
    """``pred`` and the list of the points it is called at."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return pred(x)
    return wrapped, calls


def test_walk_stops_at_a_passing_first_probe():
    pred, calls = counted(lambda x: x > 1.0)
    assert _walk(pred, 3.0, 2.0, 10) == (3.0, True)
    assert calls == [3.0]


def test_walk_returns_the_first_passing_probe():
    pred, calls = counted(lambda x: x > 10.0)
    assert _walk(pred, 1.0, 2.0, 10) == (16.0, True)
    assert calls == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_walk_without_a_passing_probe_ends_one_step_past_the_last():
    pred, calls = counted(lambda x: False)
    assert _walk(pred, 1.0, 0.5, 7) == (2.0**-7, False)
    assert calls == [2.0**-k for k in range(7)]


def test_largest_admissible_probe_count():
    # walk probes at 1 and 1/2, then the bisection of (1/2, 1) down to
    # adjacent floats around 0.3
    pred, calls = counted(lambda e: e <= 0.3)
    assert _largest_admissible(pred, 1.0) == 0.3
    assert len(calls) == 56


def state(grid, data, params):
    """The scalars a chain reads from initial data: the snapshot of
    (u0, u1) and inner(u0, u1)."""
    return (snapshot(grid, data.u0, data.u1, params),
            inner(grid, data.u0, data.u1))


@pytest.fixture(scope="module")
def chain_r1():
    prm = ModelParams(p=3.0, r=1.0, gamma=0.5, beta=1.0)
    return thm31_constants(prm, 1.0 / math.pi)


def test_thm31_chain_frozen_values(chain_r1):
    # independent closed form at p=3, r=1, B1=1/pi: theta = 0 so the
    # admissibility reduces to 64 eps^2 + 6 pi^2 eps - 12 pi^2 <= 0
    root = (-6 * math.pi**2 + math.sqrt(36 * math.pi**4 + 3072 * math.pi**2)) / 128.0
    assert chain_r1.feasible
    assert chain_r1.delta0 == 1.0
    assert chain_r1.delta3 == pytest.approx(root, rel=1e-9)
    assert chain_r1.delta3 == pytest.approx(0.9742284922350992, rel=1e-12)
    assert chain_r1.eps0 == pytest.approx(0.5 * chain_r1.delta3, rel=1e-15)
    assert chain_r1.A == pytest.approx(9.46517318220759, rel=1e-10)
    assert chain_r1.B == pytest.approx(1.0264532478472017, rel=1e-10)
    # B equals the damping cap at eps0
    assert chain_r1.B == pytest.approx(
        chain_r1.r / ((chain_r1.r + 1.0) * chain_r1.eps0), rel=1e-14)
    assert chain_r1.self_consistent()


def test_thm31_small_eps_limit(chain_r1):
    # as eps -> 0 the growth weight B(eps) approaches
    # (p+1) B1 / sqrt((p+3)(p-1))
    limit = 4.0 * (1.0 / math.pi) / math.sqrt(6.0 * 2.0)
    assert limit == pytest.approx(0.3675525969478614, rel=1e-14)
    assert chain_r1.B_of(1e-6) == pytest.approx(limit, rel=1e-5)
    assert chain_r1.B_of(1e-6) == pytest.approx(0.367552688836045, rel=1e-12)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
def test_thm31_interval_nesting(p, r):
    prm = ModelParams(p=p, r=r, gamma=0.4, beta=1.0)
    chain = thm31_constants(prm, 1.0 / math.pi)
    assert chain.feasible
    assert 0.0 < chain.eps0 < chain.delta3
    assert chain.delta3 <= chain.delta2 <= chain.delta1 <= chain.delta0 <= 1.0
    assert chain.A > 0.0 and chain.B > 0.0
    assert chain.self_consistent()
    # growth functional sanity at eps0
    assert chain.g(chain.eps0) > 0.0
    assert chain.h(chain.eps0) > 0.0


def test_thm31_check_verdicts(grid48, params, consts48):
    chain = thm31_constants(params, consts48.B1)
    assert thm31_check(-1.0, 0.0, chain) == "case_i"
    # positive energy with enough velocity correlation
    data = construct_energy_level(grid48, params, 5.0, chain.B)
    snap, corr = state(grid48, data, params)
    assert snap.E >= 0.0
    assert thm31_check(snap.E, corr, chain) == "case_ii"
    # resting data at positive energy: no certificate
    bump = preset("sine_bump", grid48, params, amplitude=0.1)
    snap_b, corr_b = state(grid48, bump, params)
    assert snap_b.E > 0.0
    assert thm31_check(snap_b.E, corr_b, chain) == "not-applicable"


def test_growth_functional_series(grid48, params, consts48):
    chain = thm31_constants(params, consts48.B1)
    data = preset("negative_energy", grid48, params)
    traj = simulate(grid48, params, data.u0, data.u1, StepControls(),
                    t_max=0.01)
    series = growth_series(traj, chain)
    first = (inner(grid48, data.u0, data.u1)
             - chain.B * snapshot(grid48, data.u0, data.u1, params).E)
    assert series[0] == pytest.approx(first, rel=1e-12)
    assert len(series) == len(traj.records)


def test_thm32_on_case_ii_data(grid48, params, consts48):
    chain31 = thm31_constants(params, consts48.B1)
    data = construct_energy_level(grid48, params, 10.0, chain31.B)
    chain32 = thm32_upper(grid48, *state(grid48, data, params), params,
                          consts48)
    assert chain32.applicable
    assert chain32.alpha == pytest.approx(0.25, rel=1e-14)
    assert chain32.T_upper is not None and chain32.T_upper > 0.0
    # larger safety factor weakens (lengthens) the bound
    loose = thm32_upper(grid48, *state(grid48, data, params), params,
                        consts48, m_safety=8.0)
    assert loose.T_upper > chain32.T_upper


def test_thm32_needs_positive_energy(grid48, params, consts48):
    data = preset("negative_energy", grid48, params)
    chain32 = thm32_upper(grid48, *state(grid48, data, params), params,
                          consts48)
    assert not chain32.applicable
    assert "needs E(0) > 0" in chain32.note


def test_thm33_on_negative_energy(grid48, params):
    data = preset("negative_energy", grid48, params)
    snap, corr = state(grid48, data, params)
    chain33 = thm33_upper(grid48, snap, corr, params)
    assert chain33.applicable
    # alpha = min((p-r)/((p+1)r), (p-1)/(2(p+1)), gamma/(gamma+1))
    assert chain33.alpha == pytest.approx(0.125, rel=1e-14)
    assert chain33.H0 == pytest.approx(-snap.E, rel=1e-12)
    assert chain33.T_upper > 0.0


def test_thm33_caps_eps_to_keep_L0_positive(grid48, params):
    # u1 = -c u0 makes inner(u0, u1) + ||grad u0||^2/2 negative: at c = 12
    # the damping-absorption cap on eps still binds, at c = 25 the cap
    # H0^(1-alpha)/(-correlation) takes over and L(0) is half of H0^(1-alpha)
    u0 = preset("negative_energy", grid48, params).u0
    chains = {}
    for c in (12.0, 25.0):
        snap = snapshot(grid48, u0, -c * u0, params)
        corr = inner(grid48, u0, -c * u0)
        chain = thm33_upper(grid48, snap, corr, params)
        correlation = corr + 0.5 * snap.grad_u_sq
        damping_cap = ((1.0 - chain.alpha) * (params.r + 1.0) * chain.delta
                       / params.r)
        L0_cap = chain.H0 ** (1.0 - chain.alpha) / (-correlation)
        assert snap.E < 0.0 and correlation < 0.0
        chains[c] = chain, damping_cap, L0_cap
    chain, damping_cap, L0_cap = chains[12.0]
    assert damping_cap < L0_cap
    assert chain.eps == pytest.approx(0.5 * damping_cap, rel=1e-14)
    chain, damping_cap, L0_cap = chains[25.0]
    assert L0_cap < damping_cap
    assert chain.eps == pytest.approx(0.5 * L0_cap, rel=1e-14)
    assert chain.L0 == pytest.approx(0.5 * chain.H0 ** (1.0 - chain.alpha),
                                     rel=1e-12)
    assert chain.applicable and math.isfinite(chain.T_upper)
    traj = simulate(grid48, params, u0, -25.0 * u0, StepControls(),
                    t_max=10.0, blow_threshold=1e6)
    estimate = detect_blowup(traj.times(), traj.series("lp1_u"),
                             (1e1, 1e2, 1e3, 1e4, 1e5),
                             params.blowup_exponent)
    assert estimate.detected
    assert 0.0 < estimate.T_num < chain.T_upper


def test_thm33_needs_negative_energy(grid48, params):
    bump = preset("sine_bump", grid48, params, amplitude=0.1)
    chain33 = thm33_upper(grid48, *state(grid48, bump, params), params)
    assert not chain33.applicable


def test_lower_34_integral_closed_form():
    # K1 = 0: int_1^inf dF/(F + K2 F^3) = ln(1 + 1/K2)/2; K2 = 1/4
    # gives ln(5)/2
    truncated, with_tail = _lower_34_integral(1.0, 0.0, 0.25, 3.0)
    assert truncated <= with_tail
    assert with_tail == pytest.approx(0.5 * math.log(5.0), abs=1e-8)
    assert truncated == pytest.approx(0.5 * math.log(5.0), abs=1e-7)
    # an overflowed F0 (with the K1 of a nan energy) makes the integrand
    # vanish: the bound is 0 at once, with no quadrature
    assert _lower_34_integral(math.inf, math.nan, 0.25, 3.0) == (0.0, 0.0)


@pytest.mark.parametrize("K2", [1e-4, 0.25, 1e3])
@pytest.mark.parametrize("p,F0", [
    *((p, F0) for p in (1.5, 2.5, 3.0, 5.0)
      for F0 in (1e-6, 0.3, 1.0, 7.0, 1e30)),
    # p > 5 narrows the panels; F0 = 1e30 would put the value below
    # the smallest normal float
    *((p, F0) for p in (12.0, 20.0) for F0 in (1e-6, 0.3, 1.0, 7.0))])
def test_lower_34_integral_brackets_the_closed_form(p, F0, K2):
    # K1 = 0: int_F0^inf dy/(y + K2 y^p) = ln(1 + 1/(K2 F0^(p-1)))/(p-1)
    exact = math.log1p(1.0 / (K2 * F0 ** (p - 1.0))) / (p - 1.0)
    truncated, with_tail = _lower_34_integral(F0, 0.0, K2, p)
    assert truncated <= exact
    # the tail overestimate exceeds the true tail by about
    # (p-1)/2 tail^2, far below rounding, so the upper side holds to
    # rounding only
    assert exact <= with_tail * (1.0 + 1e-14)
    assert with_tail - truncated <= 1e-8 * exact


def test_lower_34_integral_of_overflowing_data_is_zero():
    # y^3 overflows a float from y ~ 6e102 on; in ln y the overflowed
    # terms are 0.  The exact value, about F0^(1-p)/((p-1) K2), is
    # below 1e-470 in both cases, under the smallest float.
    assert _lower_34_integral(1e240, 0.0, 1e3, 3.0) == (0.0, 0.0)
    assert _lower_34_integral(1e240, 1e200, 8e-9, 3.0) == (0.0, 0.0)


@pytest.mark.parametrize("alpha,gamma", [(0.25, 0.5), (0.125, 0.5),
                                         (0.05, 0.1), (0.4, 1.0),
                                         (0.3, 3.0)])
def test_grad_interpolation_constant_is_the_supremum(alpha, gamma):
    # C2 = sup x^m / (x^2 + x^{2(g+1)}), m = 2/(1-a), against the
    # maximum over a dense logarithmic grid of x
    m, hi = 2.0 / (1.0 - alpha), 2.0 * (gamma + 1.0)
    x = np.exp(np.linspace(-12.0, 12.0, 240001))
    dense = float(np.max(x**m / (x**2 + x**hi)))
    C2 = _grad_interpolation_constant(alpha, gamma)
    assert dense <= C2 * (1.0 + 1e-14)
    assert C2 == pytest.approx(dense, rel=1e-7)


def test_grad_interpolation_constant_degenerate_limits():
    # m = 2: the ratio 1/(1 + x^{2g}) tends to 1 at 0; m = 2(g+1): the
    # ratio x^{2g}/(1 + x^{2g}) tends to 1 at infinity
    assert _grad_interpolation_constant(0.0, 0.5) == 1.0
    assert _grad_interpolation_constant(1.0 / 3.0, 0.5) == 1.0


def test_thm34_lower_formulas(grid48, params, consts48):
    data = preset("negative_energy", grid48, params)
    snap = snapshot(grid48, data.u0, data.u1, params)
    res = thm34_lower(snap, params, consts48.B_star)
    p = params.p
    assert res.F0 == pytest.approx(
        norm_lq(grid48, data.u0, p + 1) ** (p + 1), rel=1e-12)
    # negative energy drops the energy terms from K1 entirely
    assert res.varpi < 0.0
    assert res.K1 == 0.0
    assert res.K2 == pytest.approx(
        consts48.B_star ** (2 * p) * 2.0 ** (2 * p - 2) * (p + 1) ** (-p), rel=1e-13)
    assert 0.0 < res.T_lower_34_truncated <= res.T_lower_34_with_tail
    with pytest.raises(ValueError):
        thm34_lower(snap, params, 0.0)


def test_thm34_positive_energy_k1(grid48, params, consts48):
    bump = preset("sine_bump", grid48, params, amplitude=0.5)
    res = thm34_lower(snapshot(grid48, bump.u0, bump.u1, params), params,
                      consts48.B_star)
    w = res.varpi
    assert w > 0.0
    p = params.p
    expect = (p + 1) * (w + consts48.B_star ** (2 * p) * 2.0 ** (p - 2) * (2 * w) ** p)
    assert res.K1 == pytest.approx(expect, rel=1e-13)


def test_thm35_lower_closed_form():
    # single node, u0 = 0, ||u1||^2 = 2: G0 = 1; constants chosen so
    # C_eff = 1, hence T = G0^{1-p} / (p-1) = 1/2
    g = make_grid(1, 1)
    prm = ModelParams(p=3.0, r=1.0, gamma=0.5, beta=1.0)
    snap = snapshot(g, np.array([0.0]), np.array([2.0]), prm)
    res = thm35_lower(snap, prm, 2.0 ** -0.5, 1.0)
    assert res.G0 == pytest.approx(1.0, rel=1e-14)
    assert res.C_eff == pytest.approx(1.0, rel=1e-14)
    assert res.T_lower_35 == pytest.approx(0.5, rel=1e-14)
    rest = snapshot(g, np.array([0.0]), np.array([0.0]), prm)
    zero = thm35_lower(rest, prm, 1.0, 1.0)
    assert math.isinf(zero.T_lower_35)
    with pytest.raises(ValueError):
        thm35_lower(snap, prm, -1.0, 1.0)


def test_full_report_without_blowup(grid48, params, consts48):
    data = preset("negative_energy", grid48, params)
    traj = simulate(grid48, params, data.u0, data.u1, StepControls(),
                    t_max=0.01)
    estimate = detect_blowup(traj.times(), traj.series("lp1_u"),
                             (1e20, 1e21), params.blowup_exponent)
    report = full_report(grid48, *state(grid48, data, params), params,
                         consts48, estimate)
    assert report.thm31_verdict == "case_i"
    assert report.thm31_case_i
    assert not report.blowup_detected
    assert report.T_num is None
    assert report.sandwich_ok  # vacuous without detection
    assert report.T_upper is not None  # thm33 applies


def test_full_report_reads_everything_from_a_record(grid48, params,
                                                    consts48):
    # a chain restarted from a recorded state gets the report of the
    # fields themselves, so a finished run can restart its chains
    data = preset("negative_energy", grid48, params)
    traj = simulate(grid48, params, data.u0, data.u1, StepControls(),
                    t_max=0.01)
    last = traj.final_state
    assert traj.n_steps > 0 and last.t == traj.records[-1].t
    for rec, (u, v) in ((traj.records[0], (data.u0, data.u1)),
                        (traj.records[-1], (last.u, last.v))):
        from_record = full_report(grid48, rec.snap, rec.inner_uv, params,
                                  consts48, None)
        from_fields = full_report(grid48, snapshot(grid48, u, v, params),
                                  inner(grid48, u, v), params, consts48,
                                  None)
        assert scalar_items(from_record) == scalar_items(from_fields)


def _detected_at(T_num: float) -> BlowupEstimate:
    return BlowupEstimate(detected=True, T_num=T_num, uncertainty=0.0,
                          crossings=())


def test_full_report_sandwich_fails_outside_the_bounds(grid48, params,
                                                       consts48):
    data = preset("negative_energy", grid48, params)
    snap, corr = state(grid48, data, params)

    def report_at(T_num):
        return full_report(grid48, snap, corr, params, consts48,
                           _detected_at(T_num))

    bare = full_report(grid48, snap, corr, params, consts48, None)
    lowest = min(bare.lowers.T_lower_34_truncated, bare.lowers.T_lower_35)
    highest = max(bare.lowers.T_lower_34_truncated, bare.lowers.T_lower_35)
    assert bare.T_upper is not None and highest < bare.T_upper
    assert report_at(0.5 * (highest + bare.T_upper)).sandwich_ok
    # below a certified lower bound, and above the upper bound
    assert not report_at(0.5 * lowest).sandwich_ok
    assert not report_at(2.0 * bare.T_upper).sandwich_ok


def test_lower_bounds_merge_both_results_in_order():
    r34 = Thm34Result(F0=1.0, varpi=2.0, K1=3.0, K2=4.0,
                      T_lower_34_truncated=5.0, T_lower_34_with_tail=6.0)
    r35 = Thm35Result(G0=7.0, C_eff=8.0, T_lower_35=9.0)
    merged = LowerBounds(**vars(r34), **vars(r35))
    assert list(vars(merged)) == [*vars(r34), *vars(r35)]
    assert list(vars(merged).values()) == [float(k) for k in range(1, 10)]


def test_report_formatting(grid48, params, consts48):
    data = preset("negative_energy", grid48, params)
    report = full_report(grid48, *state(grid48, data, params), params,
                         consts48, None)
    items = dict(scalar_items(report))
    assert items["thm31_verdict"] == "case_i"
    assert items["T_num"] == "none"
    row = summary_row(report)
    assert row["thm31_case_i"] == "true"
    assert row["sandwich_ok"] == "true"
    assert float(row["E0"]) == pytest.approx(report.E0, rel=1e-15)
    assert fmt(None) == "none"
    assert fmt(True) == "true"
    assert fmt(False) == "false"
    assert fmt(0.5) == "0.5"
    assert fmt("abc") == "abc"


def test_fmt_prints_integers_exactly():
    big = 2**53 + 1
    assert fmt(big) == "9007199254740993"
    assert fmt(np.int64(big)) == "9007199254740993"
    assert fmt(-7) == "-7"
    # bool is an int subclass and must keep its own spelling
    assert fmt(True) == "true"
    assert fmt(np.bool_(False)) == "false"
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt((1.0, 2.5)) == "1, 2.5"
