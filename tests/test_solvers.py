"""The sine-basis structure of the operators and the solves built on it."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from beamblow import make_grid
from beamblow.dynamics import coefficients
from beamblow.operators import FORMS, operators
from beamblow.solvers import conjugate_gradient


@pytest.mark.parametrize("n", [1, 7, 32, 64])
def test_sine_matrix_is_orthonormal_and_symmetric(n):
    S = operators(make_grid(1, n)).sine
    assert np.allclose(S, S.T, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(S @ S - np.eye(n))) < 1e-13


@pytest.mark.parametrize("n", [5, 32, 64])
def test_sine_basis_diagonalizes_the_1d_laplacian(n):
    g = make_grid(1, n)
    ops = operators(g)
    S = ops.sine
    D = S @ ops.L.toarray() @ S
    k = np.arange(1, n + 1)
    mu = -(4.0 / g.h**2) * np.sin(k * np.pi * g.h / 2.0)**2
    scale = 4.0 / g.h**2
    assert np.max(np.abs(D - np.diag(mu))) < 1e-12 * scale
    assert np.max(np.abs(ops.mu - mu)) < 1e-12 * scale


@pytest.mark.parametrize("n", [3, 16, 64])
def test_clamped_fourth_difference_is_squared_laplacian_plus_corners(n):
    g = make_grid(1, n)
    ops = operators(g)
    L1 = ops.L.toarray()
    corner = np.zeros((n, n))
    corner[0, 0] = corner[-1, -1] = 2.0 / g.h**4
    gap = ops.B.toarray() - L1 @ L1 - corner
    assert np.max(np.abs(gap)) < 1e-14 / g.h**4


@pytest.mark.parametrize("n", [4, 12])
def test_plate_minus_squared_laplacian_is_low_rank_psd_in_2d(n):
    ops = operators(make_grid(2, n))
    L = ops.L.toarray()
    E = ops.B.toarray() - L @ L
    assert np.allclose(E, E.T, rtol=0.0, atol=1e-12 * np.max(np.abs(E)))
    eig = np.linalg.eigvalsh(E)
    tol = 1e-10 * eig[-1]
    assert eig[0] > -tol
    assert np.count_nonzero(eig > tol) <= 4 * n


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0])
def test_sine_solve_inverts_the_shifted_laplacian(dim, n, c):
    g = make_grid(dim, n)
    ops = operators(g)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(g.size)
    A = sp.identity(g.size) - c * ops.L
    got = ops.sine_solve(0.0, c, A @ x)
    assert np.linalg.norm(got - x) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 16), (2, 32)])
@pytest.mark.parametrize("name", FORMS)
def test_form_solve_is_the_exact_inverse_of_its_product(name, dim, n):
    g = make_grid(dim, n)
    ops = operators(g)
    apply, solve = ops.form(name)
    A = {"grad": -ops.L, "lap": ops.B, "H": ops.B - ops.L,
         "l2": sp.identity(g.size)}[name].tocsc()
    rng = np.random.default_rng(5)
    x = rng.standard_normal(g.size)
    assert np.linalg.norm(apply(x) - A @ x) <= 1e-14 * np.linalg.norm(A @ x)
    got = solve(A @ x)
    assert np.linalg.norm(got - x) <= 1e-6 * np.linalg.norm(x)
    ref = spla.spsolve(A, x)
    assert np.linalg.norm(solve(x) - ref) <= 1e-6 * np.linalg.norm(ref)
    if dim == 1:
        assert "sine" not in vars(ops)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("dt", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_sine_preconditioned_cg_solves_the_2d_step_system(n, dt):
    g = make_grid(2, n)
    ops = operators(g)
    a, c = coefficients(dt, mbar=5.0)
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(g.size)
    # raises ConvergenceFailure if rtol is not met within max_iter
    x = conjugate_gradient(ops.matvec(a, c), rhs, np.zeros(g.size),
                           rtol=1e-10, max_iter=30,
                           M=lambda r: ops.sine_solve(a, c, r),
                           a_norm=1.0 + a * ops.norm_B + c * ops.norm_L)
    A = (sp.identity(g.size) + a * ops.B - c * ops.L).tocsc()
    ref = spla.spsolve(A, rhs)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 24)])
def test_step_solve_matches_a_direct_solve(dim, n):
    g = make_grid(dim, n)
    ops = operators(g)
    a, c = coefficients(1e-3, mbar=5.0)
    rhs = np.random.default_rng(13).standard_normal(g.size)
    x = ops.solve(a, c, rhs, np.zeros(g.size), 1e-12)
    A = (sp.identity(g.size) + a * ops.B - c * ops.L).tocsc()
    ref = spla.spsolve(A, rhs)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
    assert np.linalg.norm(ops.matvec(a, c)(x) - A @ x) <= (
        1e-14 * np.linalg.norm(A @ x))
