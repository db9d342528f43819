"""Eigenvalues, embedding constants, and the potential-well geometry."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import beamblow.spectra as spectra
from beamblow import (
    ModelParams,
    biharmonic_matrix,
    compute_constants,
    embedding_constant,
    laplacian_matrix,
    lap_norm_sq,
    grad_norm_sq,
    make_grid,
    norm_l2,
    norm_lq,
    smallest_eigen,
    well_depth,
)
from beamblow.operators import operators

# first clamped-beam frequency: smallest positive root of
# cos(k) cosh(k) = 1, eigenvalue k^4
CLAMPED_K = 4.73004074


def test_laplacian_eigenvalue_1d():
    g = make_grid(1, 256)
    lam, v = smallest_eigen(g, "laplacian")
    assert lam == pytest.approx(np.pi**2, rel=1e-4)
    # eigenfield looks like sqrt(2) sin(pi x) once normalized
    x = (1 + np.arange(g.size)) * g.h
    ref = np.sqrt(2.0) * np.sin(np.pi * x)
    v = v * np.sign(v[g.size // 2])
    assert np.max(np.abs(v - ref)) < 1e-2


def test_biharmonic_eigenvalue_1d():
    g = make_grid(1, 256)
    lam, _ = smallest_eigen(g, "biharmonic")
    assert lam == pytest.approx(CLAMPED_K**4, rel=5e-3)


def test_eigenvalues_match_dense_solver():
    g = make_grid(1, 64)
    for op, A in (("laplacian", -laplacian_matrix(g)),
                  ("biharmonic", biharmonic_matrix(g))):
        lam, _ = smallest_eigen(g, op)
        dense = np.linalg.eigvalsh(A.toarray())
        assert lam == pytest.approx(dense[0], rel=1e-10)


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 32), (2, 4), (2, 16)])
def test_laplacian_eigenpair_is_the_first_sine_mode(dim, n):
    g = make_grid(dim, n)
    L = laplacian_matrix(g)
    lam, v = smallest_eigen(g, "laplacian")
    dense = np.linalg.eigvalsh(-L.toarray())
    assert abs(lam - dense[0]) <= 1e-13 * dense[0]
    residual = np.linalg.norm(-(L @ v) - lam * v)
    assert residual <= 1e-12 * lam * np.linalg.norm(v)
    assert norm_l2(g, v) == pytest.approx(1.0, rel=1e-14)
    assert np.all(v > 0)


@pytest.mark.parametrize("dim,n", [(1, 48), (1, 128), (2, 32), (2, 64)])
def test_plate_eigenpair_residual_is_at_rounding(dim, n):
    g = make_grid(dim, n)
    lam, v = smallest_eigen(g, "biharmonic")
    residual = np.linalg.norm(biharmonic_matrix(g) @ v - lam * v)
    assert residual <= 1e-9 * lam * np.linalg.norm(v)


@pytest.mark.parametrize("n", [2048, 4096])
def test_plate_eigenpair_on_fine_1d_grids(n):
    g = make_grid(1, n)
    lam, v = smallest_eigen(g, "biharmonic")
    residual = np.linalg.norm(biharmonic_matrix(g) @ v - lam * v)
    backward = residual / ((operators(g).norm_B + lam) * np.linalg.norm(v))
    assert backward <= 1e-15
    assert lam == pytest.approx(CLAMPED_K**4, rel=1e-4)


def test_laplacian_eigenvalue_2d():
    g = make_grid(2, 24)
    lam, _ = smallest_eigen(g, "laplacian")
    assert lam == pytest.approx(2 * np.pi**2, rel=1e-2)


def test_poincare_constant(grid128, params):
    consts = compute_constants(grid128, params)
    assert consts.B1 == pytest.approx(1.0 / math.sqrt(consts.lam1_lap), rel=1e-12)
    assert consts.B1 == pytest.approx(1.0 / np.pi, rel=1e-3)


def test_embedding_constant_is_attained(grid64):
    # C is the best constant: the returned maximizer attains it and
    # random fields never exceed it.
    C, u_star = embedding_constant(grid64, 4.0, "H")
    quad = grad_norm_sq(grid64, u_star) + lap_norm_sq(grid64, u_star)
    assert norm_lq(grid64, u_star, 4.0) == pytest.approx(C * math.sqrt(quad), rel=1e-8)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.standard_normal(grid64.size)
        quad = grad_norm_sq(grid64, u) + lap_norm_sq(grid64, u)
        assert norm_lq(grid64, u, 4.0) <= C * math.sqrt(quad) * (1 + 1e-9)


def test_embedding_constant_validates_q(grid64):
    with pytest.raises(ValueError):
        embedding_constant(grid64, 0.5, "H")


def test_well_depth_closed_form():
    # lam* = C^{-(p-1)/(p+1)} and d = (p-1)/(2(p+1)) lam*^2
    lam_star, depth = well_depth(2.0, ModelParams(p=3.0, r=1.0, gamma=0.5, beta=1.0))
    assert lam_star == pytest.approx(2.0 ** (-0.5), rel=1e-14)
    assert depth == pytest.approx(0.125, rel=1e-14)


def test_constants_bundle(grid128, params):
    consts = compute_constants(grid128, params)
    assert consts.lam1_bih == pytest.approx(CLAMPED_K**4, rel=2e-2)
    lam_star, depth = well_depth(consts.C, params)
    assert consts.lam_star == pytest.approx(lam_star, rel=1e-14)
    assert consts.depth == pytest.approx(depth, rel=1e-14)
    # B* bounds ||u||_{p+1} by the graph seminorm sqrt(G + Bq) with the
    # p+1 exponent; C_a, C_b are the split constants it is built from
    assert 0 < consts.C_b < consts.C_a < 1.0
    assert consts.B_star > 0
    # cached: same object on repeat call
    assert compute_constants(grid128, params) is consts


def test_constants_frozen_values(grid48, params):
    # regression against values measured on this grid
    consts = compute_constants(grid48, params)
    assert consts.lam1_lap == pytest.approx(9.8662240129043184, rel=1e-10)
    assert consts.lam1_bih == pytest.approx(498.84968656554986, rel=1e-10)
    assert consts.B1 == pytest.approx(0.3183644115435677, rel=1e-10)
    assert consts.C == pytest.approx(0.051696739761145756, rel=1e-6)
    assert consts.depth == pytest.approx(4.8358948969523814, rel=1e-6)


def test_shared_embedding_constant_is_swept_once(monkeypatch):
    # p = 2.5 needs the Laplacian-form constant at q = 2p = 5 (B_star),
    # p = 4 needs it at q = p + 1 = 5 (C_b): one sweep serves both
    g = make_grid(1, 37)
    plate = operators(g).B.dot
    swept = []
    sweep = spectra._extremal_sweep

    def counted(grid, q, apply, *args):
        swept.append((q, apply))
        return sweep(grid, q, apply, *args)

    monkeypatch.setattr(spectra, "_extremal_sweep", counted)

    def lap_sweeps_at_5():
        return sum(1 for q, apply in swept if q == 5.0 and apply == plate)

    compute_constants(g, ModelParams(p=2.5, r=2.0, gamma=0.5, beta=1.0))
    assert lap_sweeps_at_5() > 0
    swept.clear()
    consts = compute_constants(g, ModelParams(p=4.0, r=2.0, gamma=0.5,
                                              beta=1.0))
    assert swept and lap_sweeps_at_5() == 0
    assert consts.C_b == compute_constants(
        g, ModelParams(p=2.5, r=2.0, gamma=0.5, beta=1.0)).B_star


def test_constants_make_one_banded_factorization_per_form(monkeypatch):
    # no sparse LU or ILU is made; in 2d B and B - L are factored once
    # each, however many parameter sets share the grid
    def refuse(*args, **kwargs):
        raise AssertionError("sparse LU factorization")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "spilu", refuse)
    cholesky = scipy.linalg.cholesky_banded
    diagonals = []

    def counted(ab, *args, **kwargs):
        diagonals.append(ab[-1].copy())
        return cholesky(ab, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", counted)
    operators.cache_clear()
    g = make_grid(2, 24)
    for p in (2.5, 3.0, 4.0):
        compute_constants(g, ModelParams(p=p, r=2.0, gamma=0.5, beta=1.0))
    ops = operators(g)
    assert len(diagonals) == 2
    for form in (ops.B, ops.B - ops.L):
        assert any(np.array_equal(d, form.diagonal()) for d in diagonals)
