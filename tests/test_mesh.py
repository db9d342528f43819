"""Discrete operators: stencil values, Green identities, convergence."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beamblow import (
    biharmonic_matrix,
    grad_norm_sq,
    inner,
    lap_norm_sq,
    laplacian_matrix,
    make_grid,
    norm_l2,
    norm_lq,
    max_norm,
    smallest_eigen,
)

from beamblow.mesh import lap_form
from beamblow.operators import operators

from conftest import (rel_err, reference_B, reference_L, stencil_1d)

STENCIL_GRIDS = [(1, 1), (1, 2), (1, 5), (1, 128),
                 (2, 1), (2, 2), (2, 8), (2, 64)]


def test_grid_geometry():
    g = make_grid(1, 64)
    assert g.dim == 1
    assert g.size == 64
    assert g.h == pytest.approx(1.0 / 65)
    assert g.weight == pytest.approx(g.h)
    g2 = make_grid(2, 16, extent=2.0)
    assert g2.size == 256
    assert g2.shape == (16, 16)
    assert g2.h == pytest.approx(2.0 / 17)
    assert g2.weight == pytest.approx(g2.h**2)


def test_single_node_stencil():
    # One interior node with h = 1/2: the clamped reflection closes the
    # stencil in closed form.  Lu = -8a, Bu = 128a, |grad|^2 = 4a^2,
    # |lap|^2 = 64a^2 for u = (a,).
    g = make_grid(1, 1)
    assert g.h == pytest.approx(0.5)
    a = 1.7
    u = np.array([a])
    assert (laplacian_matrix(g) @ u)[0] == pytest.approx(-8.0 * a)
    assert (biharmonic_matrix(g) @ u)[0] == pytest.approx(128.0 * a)
    assert grad_norm_sq(g, u) == pytest.approx(4.0 * a**2)
    assert lap_norm_sq(g, u) == pytest.approx(64.0 * a**2)


def test_biharmonic_is_not_laplacian_squared():
    # Clamped plate closure differs from composing two Dirichlet
    # Laplacians at the boundary rows.
    g = make_grid(1, 16)
    L = laplacian_matrix(g).toarray()
    B = biharmonic_matrix(g).toarray()
    diff = abs(B - L @ L).max()
    assert diff > 1.0


@pytest.mark.parametrize("dim,n", STENCIL_GRIDS)
def test_stencils_match_the_assembled_matrices(dim, n):
    # the matrix-free products against the CSR Kronecker assembly of the
    # 1d stencils, to the rounding of a product: 4 eps ||A|| ||u||, in
    # the max norm, on random fields and on the unit vectors of the
    # first and last nodes
    g = make_grid(dim, n)
    ops = operators(g)
    rng = np.random.default_rng(31 * n + dim)
    fields = [rng.standard_normal(g.size) for _ in range(5)]
    fields += list(np.eye(g.size)[[0, -1]])
    eps = np.finfo(float).eps
    for apply, A in ((ops.laplacian, reference_L(g)),
                     (ops.biharmonic, reference_B(g))):
        a_norm = float(np.abs(A).sum(axis=1).max())
        for u in fields:
            gap = np.max(np.abs(apply(u) - A @ u))
            assert gap <= 4.0 * eps * a_norm * np.max(np.abs(u))


@pytest.mark.parametrize("dim,n", STENCIL_GRIDS)
def test_closed_form_norms_are_the_assembled_norms(dim, n):
    # they enter the Newton solve's stopping rule and its preconditioner
    # switch, so they equal the assembled matrices' infinity norms to
    # the last bit
    g = make_grid(dim, n)
    ops = operators(g)
    for got, A in ((ops.norm_L, reference_L(g)), (ops.norm_B, reference_B(g))):
        assert got == float(np.abs(A).sum(axis=1).max())


@pytest.mark.parametrize("n", [1, 2, 5, 128])
def test_bands_are_the_1d_stencils(n):
    # the banded storage of the 1d solves is the upper three diagonals of
    # the 1d stencils, bit for bit
    g = make_grid(1, n)
    eye_band, B_band, L_band = operators(g).bands
    assert np.array_equal(B_band, stencil_1d(n, g.h, 4).data[:3])
    assert np.array_equal(L_band, stencil_1d(n, g.h, 2).data[:3])
    assert np.array_equal(eye_band, np.vstack((np.zeros((2, n)),
                                               np.ones(n))))


def test_plate_form_scales_without_cancellation():
    # the plate form is a sum of squares, so scaling a field scales it
    # to rounding; u @ (B u) lost up to 1.1e-10 here to cancellation in
    # the clamped fourth differences
    g = make_grid(1, 128)
    _, phi = smallest_eigen(g, "biharmonic")
    ops = operators(g)
    base = lap_form(ops, phi)
    for k in range(5):
        a = 43.7 + k * 1e-12
        assert abs(lap_form(ops, a * phi) / (a * a * base) - 1.0) <= 1e-14


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 12)])
def test_green_identities_random_fields(dim, n):
    local = np.random.default_rng(7 * n + dim)
    g = make_grid(dim, n)
    L = laplacian_matrix(g)
    B = biharmonic_matrix(g)
    for _ in range(25):
        u = local.standard_normal(g.size)
        w = local.standard_normal(g.size)
        # Symmetry of both forms.  The cross pairs <u, Aw> vs <Au, w>
        # cancel almost completely on random fields, so the achievable
        # relative agreement sits a few ulps above the diagonal case.
        assert rel_err(g.weight * (u @ (L @ w)), g.weight * (w @ (L @ u))) < 5e-13
        assert rel_err(g.weight * (u @ (B @ w)), g.weight * (w @ (B @ u))) < 5e-13
        # integration by parts against the energy norms
        assert rel_err(-g.weight * (u @ (L @ u)), grad_norm_sq(g, u)) < 1e-13
        assert rel_err(g.weight * (u @ (B @ u)), lap_norm_sq(g, u)) < 1e-13


def test_polynomial_energy_norms():
    # u = x^2 (1-x)^2 is clamped at both ends with exact integrals
    # int (u')^2 = 2/105 and int (u'')^2 = 4/5.
    g = make_grid(1, 512)
    x = (1 + np.arange(g.size)) * g.h
    u = x**2 * (1 - x) ** 2
    assert grad_norm_sq(g, u) == pytest.approx(2.0 / 105.0, rel=1e-4)
    assert lap_norm_sq(g, u) == pytest.approx(0.8, rel=1e-3)


def test_laplacian_convergence_order():
    # Second-order accuracy of the Dirichlet Laplacian on sin(pi x).
    errs = []
    for n in (32, 64, 128):
        g = make_grid(1, n)
        x = (1 + np.arange(g.size)) * g.h
        u = np.sin(np.pi * x)
        err = max_norm(laplacian_matrix(g) @ u + np.pi**2 * u)
        errs.append(err)
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 == pytest.approx(2.0, abs=0.1)
    assert order2 == pytest.approx(2.0, abs=0.1)


def test_norms_against_quadrature():
    g = make_grid(1, 200)
    x = (1 + np.arange(g.size)) * g.h
    u = np.sin(np.pi * x)
    # ||sin(pi x)||_2^2 = 1/2, ||sin||_4^4 = 3/8, sup = 1
    assert norm_l2(g, u) ** 2 == pytest.approx(0.5, rel=1e-4)
    assert norm_lq(g, u, 4.0) ** 4 == pytest.approx(0.375, rel=1e-4)
    assert max_norm(u) == pytest.approx(1.0, abs=1e-3)
    v = np.cos(np.pi * x)
    # int sin cos = 0 by symmetry of the interior nodes
    assert abs(inner(g, u, v)) < 1e-12


@given(scale=st.floats(0.1, 10.0), q=st.floats(1.5, 6.0))
def test_norm_homogeneity(scale, q):
    g = make_grid(1, 24)
    u = np.sin(np.pi * (1 + np.arange(g.size)) * g.h)
    assert norm_lq(g, scale * u, q) == pytest.approx(scale * norm_lq(g, u, q), rel=1e-12)
    assert grad_norm_sq(g, scale * u) == pytest.approx(scale**2 * grad_norm_sq(g, u), rel=1e-12)
