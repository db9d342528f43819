"""Eigenvalues, embedding constants, and the potential-well geometry."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg

import beamblow.operators
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
from beamblow.errors import ConvergenceFailure
from beamblow.operators import operators

from conftest import reference_L

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
    for op, A in (("laplacian", -laplacian_matrix(g).toarray()),
                  ("biharmonic", biharmonic_matrix(g).toarray())):
        lam, _ = smallest_eigen(g, op)
        dense = np.linalg.eigvalsh(A)
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


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_constants_on_fine_1d_grids(p):
    # the embedding sweeps settle although the rounding jitter of their
    # converged value grows like N^4 (it exceeds the stopping tolerance
    # from about N = 192)
    prm = ModelParams(p=p, r=2.0, gamma=0.5, beta=1.0)
    coarse = compute_constants(make_grid(1, 128), prm).C
    for n in (192, 256):
        assert compute_constants(make_grid(1, n), prm).C == pytest.approx(
            coarse, rel=1e-3)


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


def test_restarts_find_a_higher_maximum_than_the_eigenfield():
    # at 2d N=8, q=7 the gradient-form ascent from the eigenfield stops
    # at a lower local maximum than a seeded random start reaches
    g = make_grid(2, 8)
    apply, solve = operators(g).form("grad")
    _, v = smallest_eigen(g, "laplacian")
    from_eigen, u, converged = spectra._extremal_sweep(g, 7.0, apply,
                                                       solve, v)
    assert converged
    # the sweep hands back the field that reaches its value
    assert norm_lq(g, u, 7.0) / math.sqrt(grad_norm_sq(g, u)) == (
        pytest.approx(from_eigen, rel=1e-14))
    assert from_eigen == pytest.approx(0.361441, rel=1e-5)
    C, _ = embedding_constant(g, 7.0, "grad", seed=0)
    assert C == pytest.approx(0.381518, rel=1e-5)


@pytest.mark.parametrize("n,q,values", [
    (16, 9.0, (0.4008297635173375, 0.4082015984474008,
               0.41341181805983723, 0.40002381102264567)),
    (8, 13.0, (0.5065977487115313, 0.4371103149699759,
               0.5065977487115313, 0.4926244351854204)),
])
def test_restarts_keep_their_seeded_maxima(n, q, values):
    # where the gradient form has several maxima the constant depends on
    # the seed; random starts that head for another maximizer than a
    # known one are not stopped, so each seed keeps its maximum
    g = make_grid(2, n)
    for seed, value in enumerate(values):
        C, _ = embedding_constant(g, q, "grad", seed=seed)
        assert C == pytest.approx(value, rel=1e-13)


def test_random_starts_stop_in_the_eigenfield_basin(monkeypatch):
    # every random start at 2d N=32 ends on the eigenfield's maximizer;
    # stopped once within _BASIN_RTOL of it, the five starts make 31
    # solves instead of 67, and the value is the one they all ran to
    sweep = spectra._extremal_sweep
    solves = []

    def counted(grid, q, apply, solve, *args):
        def counted_solve(x):
            solves.append(1)
            return solve(x)
        return sweep(grid, q, apply, counted_solve, *args)

    monkeypatch.setattr(spectra, "_extremal_sweep", counted)
    operators.cache_clear()
    g = make_grid(2, 32)
    C, u = embedding_constant(g, 4.0, "H")
    assert len(solves) == 31
    assert C == pytest.approx(0.03759472212469694, rel=1e-13)

    # a start 1e-3 off the maximizer joins its basin at once: it stops
    # unconverged within 2 solves, before the gain test would stop it
    apply, solve = operators(g).form("H")
    kick = np.random.default_rng(3).standard_normal(g.size)
    u0 = u + 1e-3 * np.linalg.norm(u) / np.linalg.norm(kick) * kick
    solves.clear()
    val, _, converged = spectra._extremal_sweep(g, 4.0, apply, solve, u0,
                                                [u])
    assert not converged and len(solves) <= 2
    assert val == pytest.approx(C, rel=1e-6)
    joined = len(solves)
    solves.clear()
    assert spectra._extremal_sweep(g, 4.0, apply, solve, u0)[2]
    assert len(solves) > joined


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("n,tol", [(16, 1e-12), (64, 4e-12)])
@pytest.mark.parametrize("name", ["grad", "lap", "H"])
def test_maximizers_lie_on_the_ellipsoid_of_the_product(name, n, tol):
    # the sweeps normalize through their solve, which inverts the exact
    # symbols of the form, 5.7e-11 off the ellipsoid of the stencil as
    # rounded at n = 64; the returned field lies on the latter, summed
    # here beyond double precision, to the rounding of the double sum
    # that puts it there (up to 1.1e-12 at n = 64).  The stencil as
    # applied is the float entries of L composed, -L, L L + E or
    # L L - L + E, with E = (2/h^4) diag(edges) the plate's boundary term
    g = make_grid(2, n)
    L = reference_L(g).tocoo()
    entries = L.data.astype(np.longdouble)
    ends = np.zeros(n)
    ends[[0, -1]] += 1.0
    edge_term = ((2.0 / g.h**4)
                 * (ends[:, None] + ends[None, :]).ravel()).astype(np.longdouble)
    for q in (3.5, 7.0):
        C, u = embedding_constant(g, q, name)
        v = u.astype(np.longdouble)
        Lv = np.zeros_like(v)
        np.add.at(Lv, L.row, entries * v[L.col])
        quad = {"grad": -np.sum(v * Lv),
                "lap": np.sum(Lv * Lv) + np.sum(edge_term * v * v),
                "H": (np.sum(Lv * Lv) - np.sum(v * Lv)
                      + np.sum(edge_term * v * v))}[name]
        quad = float(quad)
        assert abs(g.weight * quad - 1.0) <= tol
        assert norm_lq(g, u, q) == pytest.approx(C, rel=1e-14)


def test_embedding_constant_keeps_the_best_value_of_any_run(monkeypatch):
    # an unconverged run's value is reached by its field on the
    # ellipsoid, so it counts; only a constant no run converged to fails
    g = make_grid(1, 9)
    sweep = spectra._extremal_sweep
    unconverged = []

    def first_unconverged(grid, q, apply, solve, u0, known):
        val, u, converged = sweep(grid, q, apply, solve, u0, known)
        if unconverged:
            return val, u, converged
        unconverged.append(2.0 * val)
        return 2.0 * val, u, False

    monkeypatch.setattr(spectra, "_extremal_sweep", first_unconverged)
    operators.cache_clear()
    C, _ = embedding_constant(g, 5.0, "lap")
    assert C == unconverged[0]

    def never_converged(grid, q, apply, solve, u0, known):
        return sweep(grid, q, apply, solve, u0, known)[:2] + (False,)

    monkeypatch.setattr(spectra, "_extremal_sweep", never_converged)
    operators.cache_clear()
    with pytest.raises(ConvergenceFailure):
        embedding_constant(g, 5.0, "lap")


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
    # rebuilt from the kept eigenpair and embedding constants: the
    # same values on a repeat call
    assert compute_constants(grid128, params) == consts


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
    plate = operators(g).form("lap")[0]
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


def test_constants_make_one_capacitance_factorization_per_form(monkeypatch):
    # no sparse LU or ILU and no banded factor is made in 2d; B and B - L
    # each get one capacitance factorization (Cholesky), however many
    # parameter sets share the grid
    def refuse(*args, **kwargs):
        raise AssertionError("sparse LU or banded factorization in 2d")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "spilu", refuse)
    monkeypatch.setattr(beamblow.operators, "solve_spd_banded", refuse)
    cholesky = np.linalg.cholesky
    sizes = []

    def counted(a, *args, **kwargs):
        sizes.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    operators.cache_clear()
    g = make_grid(2, 24)
    for p in (2.5, 3.0, 4.0):
        compute_constants(g, ModelParams(p=p, r=2.0, gamma=0.5, beta=1.0))
    assert sizes == [(4 * 24, 4 * 24)] * 2
