"""Initial-data presets and energy-level construction."""

import numpy as np
import pytest

import beamblow.scenarios as scenarios
from beamblow import (
    ConstructionFailure,
    ModelParams,
    PRESET_NAMES,
    compute_constants,
    construct_energy_level,
    eigen_pair_basis,
    inner,
    laplacian_matrix,
    make_grid,
    norm_l2,
    potential_J,
    preset,
    ray_energy,
    snapshot,
    thm31_constants,
)


def test_eigen_pair_basis(grid64):
    v1, v2 = eigen_pair_basis(grid64)
    assert norm_l2(grid64, v1) == pytest.approx(1.0, rel=1e-10)
    assert norm_l2(grid64, v2) == pytest.approx(1.0, rel=1e-10)
    assert abs(inner(grid64, v1, v2)) < 1e-10
    # shapes: sqrt(2) sin(pi x) and sqrt(2) sin(2 pi x) up to sign
    x = (1 + np.arange(grid64.size)) * grid64.h
    for v, k in ((v1, 1), (v2, 2)):
        ref = np.sqrt(2.0) * np.sin(k * np.pi * x)
        s = np.sign(v @ ref)
        assert np.max(np.abs(s * v - ref)) < 5e-3
    # returned arrays are copies: mutation does not poison the cache
    v1[:] = 0.0
    w1, _ = eigen_pair_basis(grid64)
    assert norm_l2(grid64, w1) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("dim,n", [(1, 48), (2, 16), (2, 24)])
def test_eigen_pair_basis_lies_in_the_first_two_eigenspaces(dim, n):
    g = make_grid(dim, n)
    L = laplacian_matrix(g)
    lam = np.linalg.eigvalsh(-L.toarray())
    v1, v2 = eigen_pair_basis(g)
    for v, lam_k in ((v1, lam[0]), (v2, lam[1])):
        residual = np.linalg.norm(-(L @ v) - lam_k * v)
        assert residual <= 1e-10 * lam_k * np.linalg.norm(v)
        assert norm_l2(g, v) == pytest.approx(1.0, rel=1e-14)
    assert abs(inner(g, v1, v2)) < 1e-14


def single_mode_energy(r1, grid, v1, params):
    """E(r1 v1, r1 v1) on the fields."""
    return 0.5 * r1**2 * norm_l2(grid, v1) ** 2 + potential_J(grid, r1 * v1,
                                                               params)


def test_single_mode_energy_is_the_energy_of_the_pair(grid64, params):
    v1, _ = eigen_pair_basis(grid64)
    r1 = 2.5
    field = single_mode_energy(r1, grid64, v1, params)
    assert field == pytest.approx(
        snapshot(grid64, r1 * v1, r1 * v1, params).E, rel=1e-12)
    # and the closed form the construction searches on
    closed = ray_energy(grid64, v1, params, norm_l2(grid64, v1) ** 2)
    assert closed(r1) == pytest.approx(field, rel=1e-13)


def test_preset_names(grid48, params):
    assert set(PRESET_NAMES) == {"sine_bump", "negative_energy", "high_energy"}
    with pytest.raises(ConstructionFailure):
        preset("no_such_preset", grid48, params)


def test_sine_bump_scaling(grid48, params):
    one = preset("sine_bump", grid48, params, amplitude=1.0)
    two = preset("sine_bump", grid48, params, amplitude=2.0)
    assert np.allclose(two.u0, 2.0 * one.u0)
    assert np.all(one.u1 == 0.0)
    assert norm_l2(grid48, one.u0) == pytest.approx(1.0, rel=1e-10)


def test_negative_energy_preset(grid48, params):
    data = preset("negative_energy", grid48, params)
    assert np.all(data.u1 == 0.0)
    E0 = snapshot(grid48, data.u0, data.u1, params).E
    assert E0 < 0.0
    assert potential_J(grid48, data.u0, params) < 0.0


def test_high_energy_preset(grid48, params):
    data = preset("high_energy", grid48, params, energy_R=25.0)
    E0 = snapshot(grid48, data.u0, data.u1, params).E
    assert E0 == pytest.approx(25.0, abs=1e-9 * 25.0)


@pytest.mark.parametrize("R", [-5.0, 2.4, 48.0])
def test_construct_energy_level(grid48, params, consts48, R):
    chain = thm31_constants(params, consts48.B1)
    data = construct_energy_level(grid48, params, R, chain.B)
    E0 = snapshot(grid48, data.u0, data.u1, params).E
    assert abs(E0 - R) <= 1e-9 * max(1.0, abs(R))
    assert inner(grid48, data.u0, data.u1) > chain.B * R
    # the second mode enters with a positive amplitude
    _, v2 = eigen_pair_basis(grid48)
    assert inner(grid48, data.u1 - data.u0, v2) > 0.0


def counted_J(monkeypatch):
    """Count the potential_J probes the data construction makes."""
    calls = []

    def J(*args):
        calls.append(args)
        return potential_J(*args)
    monkeypatch.setattr(scenarios, "potential_J", J)
    return calls


def test_construct_energy_level_probe_count(grid48, params, consts48,
                                            monkeypatch):
    B = thm31_constants(params, consts48.B1).B
    calls = counted_J(monkeypatch)
    construct_energy_level(grid48, params, 3.0 * consts48.depth, B)
    assert len(calls) == 2


def amplitude_of(grid, u0):
    """The float r1 with r1 * v1 == u0 exactly, v1 the first mode."""
    v1, _ = eigen_pair_basis(grid)
    k = int(np.argmax(np.abs(v1)))
    r = u0[k] / v1[k]
    for _ in range(4):
        r = np.nextafter(r, -np.inf)
    for _ in range(9):
        if np.array_equal(r * v1, u0):
            return float(r), v1
        r = np.nextafter(r, np.inf)
    raise AssertionError("u0 is no multiple of v1")


@pytest.mark.parametrize("n,p,r1_magnitude", [(48, 3.0, None),
                                              (128, 2.2, 1.29e7)])
def test_construct_energy_level_amplitude_sits_at_the_field_changeover(
        n, p, r1_magnitude):
    # the amplitude is searched on the single-mode energy in closed
    # form; on the fields it must still be the first admissible one to
    # 1e-9
    grid = make_grid(1, n)
    params = ModelParams(p=p, r=2.0, gamma=0.5, beta=1.0)
    consts = compute_constants(grid, params)
    B = thm31_constants(params, consts.B1).B
    R = 3.0 * consts.depth
    r1, v1 = amplitude_of(grid, construct_energy_level(grid, params, R,
                                                       B).u0)

    def admissible(r):
        return (single_mode_energy(r, grid, v1, params) < R
                and r * r * norm_l2(grid, v1) ** 2 > B * R)

    assert admissible(r1)
    assert not admissible(r1 * (1.0 - 1e-9))
    if r1_magnitude is not None:
        assert r1 == pytest.approx(r1_magnitude, rel=1e-2)


def test_construct_energy_level_keeps_the_correlation_at_a_large_level():
    # at R = 1e6 the first admissible r1 clears B*R by one rounding of
    # r1^2 ||v1||^2, less than the rounding of r1 r2 inner(v1, v2)
    grid = make_grid(1, 128)
    params = ModelParams(p=6.0, r=2.0, gamma=0.5, beta=1.0)
    B = scenarios.growth_weight(grid, params)
    data = construct_energy_level(grid, params, 1e6, B)
    assert inner(grid, data.u0, data.u1) > B * 1e6


def test_construct_energy_level_fails_when_the_field_never_admits(
        grid48, params, consts48, monkeypatch):
    B = thm31_constants(params, consts48.B1).B
    calls = []

    def J(*args):
        calls.append(args)
        return np.inf
    monkeypatch.setattr(scenarios, "potential_J", J)
    with pytest.raises(ConstructionFailure, match="still miss"):
        construct_energy_level(grid48, params, 3.0 * consts48.depth, B)
    assert len(calls) == 25


def test_negative_energy_probe_count(params, monkeypatch):
    grid = make_grid(1, 128)
    calls = counted_J(monkeypatch)
    preset("negative_energy", grid, params)
    assert len(calls) == 1


def test_construct_rejects_bad_weight(grid48, params):
    with pytest.raises(ConstructionFailure):
        construct_energy_level(grid48, params, 1.0, -2.0)
