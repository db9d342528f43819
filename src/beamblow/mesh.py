"""Uniform interior grids and discrete clamped-boundary operators.

Fields live on the interior nodes of a uniform grid over (0, extent)^dim
with spacing h = extent/(n+1).  The boundary condition is clamped: the
field vanishes on the boundary and its normal derivative vanishes too,
which the fourth-order stencil encodes through mirror ghost values
(the ghost node one spacing outside equals the interior node one
spacing inside).

All integral quantities are quadrature sums weighted by h^dim, and the
gradient/Laplacian seminorms are defined through the operator matrices
themselves so that summation by parts is exact:

    grad_norm_sq(u) = h^dim * u^T (-L u)
    lap_norm_sq(u)  = h^dim * u^T (B u)

with L the Dirichlet Laplacian and B the clamped biharmonic matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .operators import operators


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


def laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Dirichlet Laplacian on the interior nodes (negative definite)."""
    return operators(grid).L


def biharmonic_matrix(grid: Grid) -> sp.csr_matrix:
    """Clamped biharmonic operator (symmetric positive definite); in 2d
    the 13-point clamped plate stencil."""
    return operators(grid).B


def _check_field(grid: Grid, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.size,):
        raise ValueError(f"field shape {u.shape} does not match grid "
                         f"size ({grid.size},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("field contains non-finite values")
    return u


def apply_laplacian(grid: Grid, u: np.ndarray) -> np.ndarray:
    return laplacian_matrix(grid) @ _check_field(grid, u)


def apply_biharmonic(grid: Grid, u: np.ndarray) -> np.ndarray:
    return biharmonic_matrix(grid) @ _check_field(grid, u)


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Weighted L2 inner product."""
    return grid.weight * float(np.dot(u, v))


def norm_l2(grid: Grid, u: np.ndarray) -> float:
    return float(np.sqrt(grid.weight) * np.linalg.norm(u))


def norm_lq(grid: Grid, u: np.ndarray, q: float) -> float:
    """Weighted L^q norm, 1 <= q < inf."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return float((grid.weight * np.sum(np.abs(u)**q))**(1.0 / q))


def max_norm(u: np.ndarray) -> float:
    return float(np.max(np.abs(u))) if len(u) else 0.0


def grad_norm_sq(grid: Grid, u: np.ndarray) -> float:
    """Squared H^1_0 seminorm, computed through the Laplacian so the
    discrete Green identity (grad u, grad u) = -(lap u, u) is exact."""
    u = _check_field(grid, u)
    return grid.weight * float(u @ (-(laplacian_matrix(grid) @ u)))


def lap_norm_sq(grid: Grid, u: np.ndarray) -> float:
    """Squared L2 norm of the Laplacian, computed through the clamped
    biharmonic matrix so that (lap u, lap u) = (bih u, u) exactly."""
    u = _check_field(grid, u)
    return grid.weight * float(u @ (biharmonic_matrix(grid) @ u))
