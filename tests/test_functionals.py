"""Energy functionals, the Nehari functional, and well classification."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beamblow import (
    ModelParams,
    classify,
    grad_norm_sq,
    kirchhoff,
    lap_norm_sq,
    lemma21_verdict,
    make_grid,
    norm_l2,
    norm_lq,
    potential_J,
    ray_energy,
    snapshot,
)


@pytest.fixture(scope="module")
def node():
    # single interior node, h = 1/2: every norm is a monomial in the
    # nodal value, so J, I, E have closed forms
    return make_grid(1, 1)


@pytest.fixture(scope="module")
def cubic():
    return ModelParams(p=3.0, r=1.0, gamma=0.5, beta=0.0)


def test_kirchhoff():
    prm = ModelParams(p=3.0, r=1.0, gamma=0.5, beta=2.0)
    assert kirchhoff(prm, 4.0) == pytest.approx(1.0 + 2.0 * 2.0)
    assert kirchhoff(prm, 0.0) == 1.0
    with pytest.raises(ValueError):
        kirchhoff(prm, -1e-3)


def test_nehari_and_potential_closed_form(node, cubic):
    # G = 4a^2, Bq = 64a^2, F = a^4/2 on the single-node grid, so
    # I(a) = 68 a^2 - a^4/2 and J(a) = 34 a^2 - a^4/8 when beta = 0.
    for a in (0.3, 1.0, 5.0):
        u = np.array([a])
        assert snapshot(node, u, np.zeros_like(u), cubic).I == pytest.approx(
            68 * a**2 - 0.5 * a**4, rel=1e-13)
        assert potential_J(node, u, cubic) == pytest.approx(34 * a**2 - 0.125 * a**4, rel=1e-13)
    root = math.sqrt(136.0)
    assert abs(snapshot(node, np.array([root]), np.zeros(1), cubic).I) < 1e-9


@pytest.mark.parametrize("u, match", [
    (np.array([np.inf]), "non-finite"), (np.zeros(2), "does not match")])
def test_potential_J_checks_its_field(node, cubic, u, match):
    with pytest.raises(ValueError, match=match):
        potential_J(node, u, cubic)


def test_energy_adds_kinetic_term(node, cubic):
    u = np.array([1.0])
    v = np.array([3.0])
    # ||v||^2 = 0.5 * 9
    assert snapshot(node, u, v, cubic).E == pytest.approx(
        potential_J(node, u, cubic) + 0.5 * 0.5 * 9.0, rel=1e-13)


def test_kirchhoff_term_in_functionals(node):
    prm = ModelParams(p=4.0, r=1.0, gamma=1.0, beta=2.0)
    a = 0.7
    u = np.array([a])
    G = 4 * a**2
    extra_J = 2.0 / (2.0 * 2.0) * G**2
    extra_I = 2.0 * G**2
    base = ModelParams(p=4.0, r=1.0, gamma=1.0, beta=0.0)
    assert potential_J(node, u, prm) - potential_J(node, u, base) == pytest.approx(extra_J, rel=1e-12)
    zero = np.zeros_like(u)
    assert (snapshot(node, u, zero, prm).I - snapshot(node, u, zero, base).I
            == pytest.approx(extra_I, rel=1e-12))


def test_dissipation_rate(node):
    prm = ModelParams(p=3.0, r=1.0, gamma=0.5, beta=0.0)
    v = np.array([2.0])
    # ||v||_2^2 = 2, ||grad v||^2 = 16
    u = np.array([0.0])
    assert snapshot(node, u, v, prm).dissipation_rate == pytest.approx(
        2.0 + 16.0, rel=1e-13)
    prm2 = ModelParams(p=3.0, r=2.0, gamma=0.5, beta=0.0)
    # ||v||_3^3 = 4
    assert snapshot(node, u, v, prm2).dissipation_rate == pytest.approx(
        4.0 + 16.0, rel=1e-13)


def test_snapshot_consistency(grid64, params, rng):
    u = rng.standard_normal(grid64.size)
    v = rng.standard_normal(grid64.size)
    snap = snapshot(grid64, u, v, params)
    assert snap.grad_u_sq == pytest.approx(grad_norm_sq(grid64, u), rel=1e-13)
    assert snap.lap_u_sq == pytest.approx(lap_norm_sq(grid64, u), rel=1e-13)
    assert snap.J == pytest.approx(potential_J(grid64, u, params), rel=1e-13)
    assert snap.lp1_u == pytest.approx(norm_lq(grid64, u, params.p + 1), rel=1e-13)
    assert snap.linf_u == pytest.approx(np.abs(u).max(), rel=1e-13)


@given(a=st.floats(0.05, 20.0))
def test_scaling_identity(a):
    # I(s u) = s J'(s u) * s holds along rays: d/ds J(s u) = I(s u)/s.
    node = make_grid(1, 1)
    prm = ModelParams(p=4.0, r=1.0, gamma=1.0, beta=0.5)
    u = np.array([1.0])
    ds = 1e-6 * max(a, 1.0)
    dJ = (potential_J(node, np.array([a + ds]), prm)
          - potential_J(node, np.array([a - ds]), prm)) / (2 * ds)
    assert dJ * a == pytest.approx(
        snapshot(node, np.array([a]), np.zeros(1), prm).I, rel=1e-5)


@pytest.mark.parametrize("dim,n", [(1, 48), (1, 128), (2, 16)])
@pytest.mark.parametrize("m", [0.0, 2.7])
def test_ray_energy_is_the_field_energy_along_the_ray(dim, n, m, params):
    # E(s u, s w) with ||w||^2 = m, to 1e-13 of the sum of the
    # magnitudes of its terms, over seven decades of s
    grid = make_grid(dim, n)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.size)
    w = rng.standard_normal(grid.size)
    w *= math.sqrt(m) / norm_l2(grid, w)
    energy = ray_energy(grid, u, params, m)
    g1, p1 = params.gamma + 1.0, params.p + 1.0
    for s in np.logspace(-3.0, 4.0, 15):
        snap = snapshot(grid, s * u, s * w, params)
        G = snap.grad_u_sq
        terms = (0.5 * (snap.l2_v ** 2 + G + snap.lap_u_sq)
                 + params.beta / (2.0 * g1) * G ** g1 + snap.lp1_u ** p1 / p1)
        assert abs(energy(s) - snap.E) <= 1e-13 * terms


def test_ray_energy_overflow_is_infinite_not_raised(grid64, params):
    # s^(p+1) overflows a float power at s = 1e80: the energy comes out
    # as -inf, like the field's, instead of raising OverflowError
    mode = np.sin(np.pi * (1 + np.arange(grid64.size)) * grid64.h)
    with np.errstate(over="ignore"):
        J_field = potential_J(grid64, 1e80 * mode, params)
    assert ray_energy(grid64, mode, params)(1e80) == -math.inf == J_field


def test_classify_labels(grid64, params, consts64):
    small = 1e-3 * np.sin(np.pi * (1 + np.arange(grid64.size)) * grid64.h)
    assert classify(grid64, small, params, consts64.depth) == "stable_W"
    big = 1e3 * np.sin(np.pi * (1 + np.arange(grid64.size)) * grid64.h)
    assert classify(grid64, big, params, consts64.depth) == "unstable_V"


def test_functionals_of_an_overflowing_field_are_not_finite(grid64, params,
                                                           consts64):
    # the powers of these norms overflow: the functionals come out not
    # finite instead of raising OverflowError
    mode = np.sin(np.pi * (1 + np.arange(grid64.size)) * grid64.h)
    u, v = 1e110 * mode, 1e200 * mode
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(snapshot(grid64, u, v, params).E)
        assert not math.isfinite(
            snapshot(grid64, u, np.zeros_like(u), params).I)
        snap = snapshot(grid64, u, v, params)
        assert not math.isfinite(snap.E) and not math.isfinite(snap.I)
        assert classify(grid64, u, params, consts64.depth) == "indeterminate"


def test_lemma21_verdict_branches():
    lam_star, depth = 2.0, 1.0
    # J > d: outside the well regardless of the rest
    assert lemma21_verdict(1.0, 1.0, 2.0, lam_star, depth, scale=1.0) == "outside_well"
    # interior branch: H < lam*, I > 0
    assert lemma21_verdict(1.0, 0.5, 0.5, lam_star, depth, scale=1.0) == "consistent_interior"
    # exterior branch: H > lam*, I < 0
    assert lemma21_verdict(3.0, -0.5, 0.5, lam_star, depth, scale=1.0) == "consistent_exterior"
    # mismatched pair inside the well is flagged
    assert lemma21_verdict(3.0, 0.5, 0.5, lam_star, depth, scale=1.0) == "violation"
    assert lemma21_verdict(1.0, -0.5, 0.5, lam_star, depth, scale=1.0) == "violation"
    # hairline cases degrade to near_boundary instead of a verdict
    assert lemma21_verdict(2.0 + 1e-12, 0.5, 0.5, lam_star, depth, scale=1.0) == "near_boundary"
