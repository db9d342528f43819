"""Uniform interior grids and discrete clamped-boundary operators.

Fields live on the interior nodes of a uniform grid over (0, extent)^dim
with spacing h = extent/(n+1).  The boundary condition is clamped: the
field vanishes on the boundary and its normal derivative vanishes too,
which the fourth-order stencil encodes through mirror ghost values
(the ghost node one spacing outside equals the interior node one
spacing inside).

All integral quantities are quadrature sums weighted by h^dim, and the
gradient/Laplacian seminorms are sums of squares, which lose nothing to
cancellation and equal the operators' forms by summation by parts:

    grad_norm_sq(u) = h^dim sum over edges (difference/h)^2 = h^dim u^T (-L u)
    lap_norm_sq(u) = h^dim (|L u|^2 + (2/h^4) sum edges u^2) = h^dim u^T (B u)

with L the Dirichlet Laplacian, B the clamped biharmonic operator and
the edges to the boundary (where u is zero) included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import GridOperators, MatrixFree, operators


@dataclass(frozen=True)
class Grid:
    """Interior grid of an axis-aligned box with clamped boundary."""

    dim: int
    n_interior: int
    extent: float
    h: float
    weight: float

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_interior,) * self.dim

    @property
    def size(self) -> int:
        return self.n_interior**self.dim

    @property
    def volume(self) -> float:
        return self.extent**self.dim

    def axis_coords(self) -> np.ndarray:
        """Coordinates of interior nodes along one axis."""
        return self.h * np.arange(1, self.n_interior + 1)


def make_grid(dim: int, n_interior: int, extent: float = 1.0) -> Grid:
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if n_interior < 1:
        raise ValueError(f"n_interior must be positive, got {n_interior}")
    if not extent > 0:
        raise ValueError(f"extent must be positive, got {extent}")
    h = extent / (n_interior + 1)
    return Grid(dim=dim, n_interior=n_interior, extent=float(extent),
                h=h, weight=h**dim)


def laplacian_matrix(grid: Grid) -> MatrixFree:
    """Dirichlet Laplacian (negative definite), matrix-free."""
    return MatrixFree(operators(grid).laplacian, grid.size)


def biharmonic_matrix(grid: Grid) -> MatrixFree:
    """Clamped biharmonic operator (symmetric positive definite),
    matrix-free; in 2d the 13-point clamped plate stencil."""
    return MatrixFree(operators(grid).biharmonic, grid.size)


def check_field(grid: Grid, u) -> np.ndarray:
    """u as a float array, after checking that it has the grid's size
    and only finite entries; the ValueError names which check failed.

    The public functions below check their argument here and then run
    an unchecked kernel.  Code that already knows its fields are sound,
    such as the time stepper (which rejects every non-finite state),
    calls the kernels ``grad_form`` and ``lap_form`` directly.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.size,):
        raise ValueError(f"field shape {u.shape} does not match grid "
                         f"size ({grid.size},)")
    if not np.isfinite(u).all():
        raise ValueError("field contains non-finite values")
    return u


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Weighted L2 inner product."""
    return grid.weight * float(np.dot(u, v))


def norm_l2(grid: Grid, u: np.ndarray) -> float:
    return float(np.sqrt(grid.weight) * np.linalg.norm(u))


def norm_lq(grid: Grid, u: np.ndarray, q: float) -> float:
    """Weighted L^q norm, 1 <= q < inf."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return float((grid.weight * (np.abs(u)**q).sum())**(1.0 / q))


def max_norm(u: np.ndarray) -> float:
    return float(np.abs(u).max()) if len(u) else 0.0


def grad_form(ops: GridOperators, u: np.ndarray) -> float:
    """``grad_norm_sq`` on the grid of ``ops`` without checking u."""
    g, e, U = ops.grid, u[ops.boundary], u.reshape(ops.grid.shape)
    d = U[1:] - U[:-1]
    total = float(e @ e) + float(np.vdot(d, d))
    if g.dim == 2:
        d = U[:, 1:] - U[:, :-1]
        total += float(np.vdot(d, d))
    return g.weight * total / g.h**2


def lap_form(ops: GridOperators, u: np.ndarray) -> float:
    """``lap_norm_sq`` on the grid of ``ops`` without checking u."""
    g, Lu, e = ops.grid, ops.laplacian(u), u[ops.boundary]
    return g.weight * (float(Lu @ Lu) + 2.0 / g.h**4 * float(e @ e))


def grad_norm_sq(grid: Grid, u: np.ndarray) -> float:
    """Squared H^1_0 seminorm, the discrete Green identity
    (grad u, grad u) = -(lap u, u) holding by summation by parts."""
    return grad_form(operators(grid), check_field(grid, u))


def lap_norm_sq(grid: Grid, u: np.ndarray) -> float:
    """Squared L2 norm of the Laplacian with its clamped boundary term,
    so that (lap u, lap u) = (bih u, u)."""
    return lap_form(operators(grid), check_field(grid, u))
