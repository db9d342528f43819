"""The sine-basis structure of the operators and the solves built on it."""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from beamblow import make_grid
from beamblow.dynamics import StepCounts, coefficients
from beamblow.errors import ConvergenceFailure
from beamblow.operators import FORMS, GRIDS_KEPT, operators
from beamblow.solvers import (CG_REFRESH, conjugate_gradient,
                              operator_norm_estimate, solve_spd_banded)

from conftest import reference_B, reference_form, reference_L, stencil_1d


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
    D = S @ reference_L(g).toarray() @ S
    k = np.arange(1, n + 1)
    mu = -(4.0 / g.h**2) * np.sin(k * np.pi * g.h / 2.0)**2
    scale = 4.0 / g.h**2
    assert np.max(np.abs(D - np.diag(mu))) < 1e-12 * scale
    assert np.max(np.abs(ops.mu - mu)) < 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 16, 48, 64])
def test_clamped_fourth_difference_is_squared_laplacian_plus_corners(n):
    g = make_grid(1, n)
    ops = operators(g)
    L1 = reference_L(g).toarray()
    B1 = reference_B(g).toarray()
    corner = np.zeros((n, n))
    corner[0, 0] += 2.0
    corner[-1, -1] += 2.0  # the same node when n = 1
    gap = B1 - L1 @ L1 - corner / g.h**4
    assert np.max(np.abs(gap)) < 1e-14 / g.h**4
    # every entry is its integer stencil value divided by h^4, to the
    # last bit: a product with 1/h^4 rounds 6/h^4 differently on some
    # grids (n = 48 among them)
    T = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1))
    assert np.array_equal(B1, (T @ T + corner) / g.h**4)


@pytest.mark.parametrize("n", [4, 12])
def test_plate_minus_squared_laplacian_is_low_rank_psd_in_2d(n):
    ops = operators(make_grid(2, n))
    L = reference_L(ops.grid).toarray()
    E = reference_B(ops.grid).toarray() - L @ L
    assert np.allclose(E, E.T, rtol=0.0, atol=1e-12 * np.max(np.abs(E)))
    eig = np.linalg.eigvalsh(E)
    tol = 1e-10 * eig[-1]
    assert eig[0] > -tol
    assert np.count_nonzero(eig > tol) <= 4 * n
    # the term is diagonal: 2/h^4 per boundary line next to the node
    edges = np.diag(E) * ops.grid.h**4 / 2.0
    assert np.max(np.abs(E - np.diag(np.diag(E)))) <= 1e-12 * eig[-1]
    assert np.allclose(edges, ops.edges, rtol=0.0, atol=1e-12)
    assert sorted(set(ops.edges)) == [0.0, 1.0, 2.0]
    # so the diagonal of B is (20 + edges)/h^4
    assert np.allclose(reference_B(ops.grid).diagonal() * ops.grid.h**4,
                       20.0 + ops.edges,
                       rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dim,n", [(2, 32)])
@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0])
def test_sine_solve_inverts_the_shifted_laplacian(dim, n, c):
    g = make_grid(dim, n)
    ops = operators(g)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(g.size)
    A = sp.identity(g.size) - c * reference_L(g)
    got = ops.sine_inverse(0.0, c)(A @ x)
    assert np.linalg.norm(got - x) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 16), (2, 32), (2, 47)])
@pytest.mark.parametrize("name", FORMS)
def test_form_solve_is_the_exact_inverse_of_its_product(name, dim, n):
    g = make_grid(dim, n)
    ops = operators(g)
    apply, solve = ops.form(name)
    A = reference_form(g, name).tocsc()
    rng = np.random.default_rng(5)
    x = rng.standard_normal(g.size)
    assert np.linalg.norm(apply(x) - A @ x) <= 1e-14 * np.linalg.norm(A @ x)
    got = solve(A @ x)
    assert np.linalg.norm(got - x) <= 1e-6 * np.linalg.norm(x)
    ref = spla.spsolve(A, x)
    assert np.linalg.norm(solve(x) - ref) <= 1e-6 * np.linalg.norm(ref)
    if dim == 1:
        assert "sine" not in vars(ops)
    elif name in ("lap", "H"):
        # the capacitance solve is backward stable in the infinity norm
        b = rng.standard_normal(g.size)
        got = solve(b)
        a_norm = float(np.abs(A).sum(axis=1).max())
        assert np.linalg.norm(A @ got - b) <= (
            1e-14 * a_norm * np.linalg.norm(got))


@pytest.mark.parametrize("n", [1, 2, 64, 96])
@pytest.mark.parametrize("name", ["lap", "H"])
def test_capacitance_solve_is_backward_stable(name, n):
    # n = 1 and 2 are the grids where the four boundary lines coincide
    # or touch; 64 and 96 are the benchmark's grids
    g = make_grid(2, n)
    ops = operators(g)
    _, solve = ops.form(name)
    A = reference_form(g, name)
    a_norm = float(np.abs(A).sum(axis=1).max())
    rng = np.random.default_rng(11)
    # a random right-hand side, and the image of a random field, whose
    # residual carries the rounding of A @ x at the scale of ||A||
    for b, tol in ((rng.standard_normal(g.size), 1e-15),
                   (A @ rng.standard_normal(g.size), 1e-14)):
        got = solve(b)
        assert np.linalg.norm(A @ got - b) <= (
            tol * a_norm * np.linalg.norm(got))


def test_an_evicted_grid_releases_its_operators():
    operators.cache_clear()
    ops = weakref.ref(operators(make_grid(2, 8)))
    assert ops() is operators(make_grid(2, 8))
    for n in range(1, GRIDS_KEPT + 1):
        operators(make_grid(1, n))
    gc.collect()
    assert ops() is None
    assert operators.cache_info().currsize == GRIDS_KEPT


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("dt", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_sine_preconditioned_cg_solves_the_2d_step_system(n, dt):
    g = make_grid(2, n)
    ops = operators(g)
    a, c = coefficients(dt, mbar=5.0)
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(g.size)
    A = (sp.identity(g.size) + a * reference_B(g) - c * reference_L(g)).tocsc()
    # raises ConvergenceFailure if rtol is not met within max_iter
    x, _ = conjugate_gradient(A.dot, rhs, np.zeros(g.size),
                              rtol=1e-10, max_iter=30,
                              M=ops.sine_inverse(a, c),
                              a_norm=1.0 + a * ops.norm_B + c * ops.norm_L)
    ref = spla.spsolve(A, rhs)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


def test_cg_fails_fast_on_a_non_finite_operator():
    # a Kirchhoff coefficient that overflowed makes the 2d step operator
    # non-finite; CG must give up at the first curvature, not after
    # max_iter iterations on NaN vectors
    g = make_grid(2, 32)
    ops = operators(g)
    a, c = 1e-6, math.inf
    rhs = np.random.default_rng(17).standard_normal(g.size)
    products = []

    def counted(x):
        products.append(1)
        return apply(x)

    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            ConvergenceFailure, match="not finite"):
        apply = (sp.identity(g.size) + a * reference_B(g)
                 - c * reference_L(g)).dot
        conjugate_gradient(counted, rhs, np.zeros(g.size), rtol=1e-10,
                           max_iter=500, M=ops.sine_inverse(a, c),
                           a_norm=1.0 + a * ops.norm_B + c * ops.norm_L)
    assert len(products) <= 2


def test_cg_reports_the_iterations_it_made():
    # an unpreconditioned Laplacian solve passes two true-residual
    # refreshes; a converged CG applies M once per iteration.  Handed
    # the part of A that M = I does not invert, it applies A only to the
    # initial residual and at the refreshes, and reaches the same x.
    # Started at zero with no x0, it makes no product for the initial
    # residual and reaches the same x bit for bit
    ops = operators(make_grid(2, 32))
    A = -reference_L(ops.grid)
    products, preconditions = [], []

    def apply(x):
        products.append(1)
        return A @ x

    def identity(r):
        preconditions.append(1)
        return r.copy()

    rhs = np.random.default_rng(23).standard_normal(A.shape[0])
    cg = dict(x0=np.zeros_like(rhs), rtol=1e-10, max_iter=500, M=identity,
              a_norm=operator_norm_estimate(A))
    x, iterations = conjugate_gradient(apply, rhs, **cg)
    assert iterations > 2 * CG_REFRESH
    assert iterations == len(preconditions)
    assert len(products) == 1 + iterations + iterations // CG_REFRESH

    products.clear()
    x_none, iterations_none = conjugate_gradient(
        apply, rhs, **{**cg, "x0": None})
    assert iterations_none == iterations
    assert x_none.tobytes() == x.tobytes()
    assert len(products) == iterations + iterations // CG_REFRESH

    def rest(p):
        return A @ p - p

    products.clear()
    y, iterations_rest = conjugate_gradient(apply, rhs, rest=rest, **cg)
    assert abs(iterations_rest - iterations) <= 2
    assert len(products) == 1 + iterations_rest // CG_REFRESH
    assert np.linalg.norm(y - x) <= 1e-8 * np.linalg.norm(x)

    products.clear()
    y_none, iterations_none = conjugate_gradient(
        apply, rhs, rest=rest, **{**cg, "x0": None})
    assert iterations_none == iterations_rest
    assert y_none.tobytes() == y.tobytes()
    assert len(products) == iterations_rest // CG_REFRESH

    with pytest.raises(ConvergenceFailure, match="stalled") as failure:
        conjugate_gradient(apply, rhs, **{**cg, "max_iter": 7})
    assert failure.value.iterations == 7


@pytest.mark.parametrize("dt,sign,rank_one", [
    (1e-3, 1.0, False), (1e-3, 1.0, True), (1e-3, -1.0, False),
    (1e-3, -1.0, True), (1e-2, 1.0, True)])
def test_step_solve_on_the_sine_path_matches_a_direct_solve(dt, sign,
                                                             rank_one):
    # d below the switch, max(d) <= a ||B|| + c ||L||, positive up to the
    # switch or negative down to -0.9; the larger step's plate and
    # damping need more than CG_REFRESH iterations, so a refresh runs
    g = make_grid(2, 24)
    ops = operators(g)
    a, c = coefficients(dt, mbar=5.0)
    rng = np.random.default_rng(13)
    top = a * ops.norm_B + c * ops.norm_L
    d = top * rng.uniform(0.0, 1.0, g.size) if sign > 0 else (
        -rng.uniform(0.0, 0.9, g.size))
    w = rng.standard_normal(g.size)
    rho = 1.0 / (w @ w) if rank_one else 0.0
    rhs = rng.standard_normal(g.size)
    counts = StepCounts()
    x = ops.solve(a, c, d, rho, w, rhs, 1e-12, counts)
    A = (sp.identity(g.size) + a * reference_B(g)
         - c * reference_L(g)).toarray()
    ref = np.linalg.solve(A + np.diag(d) + rho * np.outer(w, w), rhs)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
    assert counts.diagonal_solves == 0
    assert counts.cg_iters > 0
    if dt == 1e-2:
        assert counts.cg_iters > CG_REFRESH


def test_step_solve_takes_the_diagonal_once_the_damping_dominates():
    # just above the switch the diagonal preconditions CG, and the
    # solve still matches a direct one
    g = make_grid(2, 16)
    ops = operators(g)
    a, c = coefficients(1e-3, mbar=5.0)
    rng = np.random.default_rng(29)
    d = rng.uniform(0.0, 1.0, g.size)
    d[7] = 1.01 * (a * ops.norm_B + c * ops.norm_L)
    rhs = rng.standard_normal(g.size)
    counts = StepCounts()
    x = ops.solve(a, c, d, 0.0, rhs, rhs, 1e-12, counts)
    A = (sp.identity(g.size) + a * reference_B(g)
         - c * reference_L(g)).toarray() + np.diag(d)
    assert counts.diagonal_solves == 1
    assert np.linalg.norm(x - np.linalg.solve(A, rhs)) <= (
        1e-9 * np.linalg.norm(rhs))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 24)])
def test_step_solve_matches_a_direct_solve(dim, n):
    # the Newton matrix I + a B - c L + diag(d) + rho w w^T, with d
    # spread over six decades and a rank-1 term as large as the rest
    g = make_grid(dim, n)
    ops = operators(g)
    a, c = coefficients(1e-3, mbar=5.0)
    rng = np.random.default_rng(13)
    rhs = rng.standard_normal(g.size)
    d = 10.0**rng.uniform(-3.0, 3.0, g.size)
    w = rng.standard_normal(g.size)
    rho = 1.0 / (w @ w)
    counts = StepCounts()
    x = ops.solve(a, c, d, rho, w, rhs, 1e-12, counts)
    A = (sp.identity(g.size) + a * reference_B(g)
         - c * reference_L(g)).tocsc()
    ref = np.linalg.solve(A.toarray() + np.diag(d) + rho * np.outer(w, w),
                          rhs)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
    # CG iterations are counted in 2d; the 1d solve makes none
    assert (counts.cg_iters > 0) == (dim == 2)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 24])
def test_newton_matrix_is_the_explicit_newton_matrix(n, monkeypatch):
    # every entry of the Newton matrix that CG applies, read off its
    # columns, equals I + a B - c L + diag(d) built term by term from
    # the assembled L and B, on the Jacobi path (d past the switch) and
    # on the sine path (d below it); the Jacobi path inverts its
    # diagonal: the dense diagonal in the assembly's order of
    # operations, bit for bit.  n <= 3 puts nodes on two or four
    # boundary lines at once
    g = make_grid(2, n)
    ops = operators(g)
    a, c = coefficients(1e-3, mbar=5.0)
    rng = np.random.default_rng(19)
    d = rng.choice((-1.0, 1.0), g.size) * 10.0**rng.uniform(-3.0, 3.0, g.size)
    switch = a * ops.norm_B + c * ops.norm_L
    B, L = reference_B(g).toarray(), reference_L(g).toarray()
    x = rng.standard_normal(g.size)

    recorded = []

    def record(apply, rhs, **kwargs):
        recorded.append((apply, kwargs["M"]))
        return np.zeros_like(rhs), 0

    monkeypatch.setattr("beamblow.operators.conjugate_gradient", record)
    counts = StepCounts()
    # past the switch, so that ``solve`` takes the Jacobi path, then
    # scaled below it onto the sine path
    d[0] = 1e3 + switch
    ops.solve(a, c, d, 0.0, x, x, 1e-12, counts)
    sine_d = d * (0.5 * switch / np.abs(d).max())
    ops.solve(a, c, sine_d, 0.0, x, x, 1e-12, counts)
    assert counts.diagonal_solves == 1
    for (apply, _), dd in zip(recorded, (d, sine_d)):
        A = np.eye(g.size) + a * B - c * L + np.diag(dd)
        got = np.column_stack([apply(e) for e in np.eye(g.size)])
        assert np.max(np.abs(got - A)) <= 1e-14 * np.max(np.abs(A))
        assert np.linalg.norm(apply(x) - A @ x) <= (
            1e-14 * np.linalg.norm(A @ x))
    diagonal = (np.diag(L) * (-c / a) + np.diag(B)) * a + (1.0 + d)
    assert np.array_equal(recorded[0][1](np.ones(g.size)), 1.0 / diagonal)


@pytest.mark.parametrize("n", [8, 24])
@pytest.mark.parametrize("rank_one", [False, True])
def test_newton_product_is_the_explicit_newton_matrix(n, rank_one,
                                                      monkeypatch):
    # every entry of the one-product Newton matrix that a Jacobi-path CG
    # iteration applies, read off its columns, equals
    # I + a B - c L + diag(d) + rho w w^T assembled term by term
    g = make_grid(2, n)
    ops = operators(g)
    a, c = coefficients(1e-3, mbar=5.0)
    rng = np.random.default_rng(19)
    d = rng.choice((-1.0, 1.0), g.size) * 10.0**rng.uniform(-3.0, 3.0, g.size)
    d[0] = 1e3 + a * ops.norm_B + c * ops.norm_L
    w = rng.standard_normal(g.size)
    rho = 1.0 / (w @ w) if rank_one else 0.0
    A = ((sp.identity(g.size) + a * reference_B(g)
          - c * reference_L(g)).toarray()
         + np.diag(d) + rho * np.outer(w, w))

    products = []

    def record(apply, rhs, **kwargs):
        assert kwargs["rest"] is None
        products.append(apply)
        return np.zeros_like(rhs), 0

    monkeypatch.setattr("beamblow.operators.conjugate_gradient", record)
    counts = StepCounts()
    ops.solve(a, c, d, rho, w, w, 1e-12, counts)
    assert counts.diagonal_solves == 1
    apply = products[0]
    got = np.column_stack([apply(e) for e in np.eye(g.size)])
    assert np.max(np.abs(got - A)) <= 1e-14 * np.max(np.abs(A))
    x = rng.standard_normal(g.size)
    assert np.linalg.norm(apply(x) - A @ x) <= 1e-14 * np.linalg.norm(A @ x)


@pytest.mark.parametrize("dt,mbar", [(1e-3, 1.0), (1e-4, 30.0),
                                     (1e-6, 1e4), (2.5e-2, 0.0)])
def test_banded_solve_equals_solveh_banded_bit_for_bit(dt, mbar):
    ops = operators(make_grid(1, 128))
    eye_band, B_band, L_band = ops.bands
    a, c = coefficients(dt, mbar)
    ab = eye_band + a * B_band - c * L_band
    kept = ab.copy()
    b = np.random.default_rng(5).standard_normal(128)
    x = solve_spd_banded(ab, b)
    assert np.array_equal(x, sla.solveh_banded(ab, b))
    assert np.array_equal(ab, kept)
    # the fixed forms' solves are the same call; on bands read off each
    # form's own matrix they equal solveh_banded and a kept banded
    # Cholesky factor bit for bit
    for name in FORMS:
        A = reference_form(ops.grid, name)
        ab = np.zeros((3, 128))
        for k in range(3):
            ab[2 - k, k:] = A.diagonal(k)
        x = ops.form(name)[1](b)
        assert np.array_equal(x, sla.solveh_banded(ab, b))
        assert np.array_equal(x, sla.cho_solve_banded(
            (sla.cholesky_banded(ab), False), b))


def test_banded_solve_breakdown_is_a_convergence_failure():
    ab = operators(make_grid(1, 16)).bands[1].copy()
    ab[2, 6] = -1.0  # the 7th leading minor is negative
    kept = ab.copy()
    with pytest.raises(ConvergenceFailure, match="7th leading minor"):
        solve_spd_banded(ab, np.ones(16))
    assert np.array_equal(ab, kept)
    with pytest.raises(ValueError):
        solve_spd_banded(ab, np.ones(17))
