"""Shared fixtures: small grids, the standard parameter set, cached
variational constants, and the assembled operators that the tests hold
the program's matrix-free ones against.  Heavy trajectory fixtures live
in the modules that use them so unit tests stay fast."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings, HealthCheck

from beamblow import ModelParams, compute_constants, make_grid

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def params():
    """Reference parameter set used throughout: p=3, r=2, gamma=0.5, beta=1."""
    return ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0)


@pytest.fixture(scope="session")
def grid48():
    return make_grid(1, 48)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(1, 64)


@pytest.fixture(scope="session")
def grid128():
    return make_grid(1, 128)


@pytest.fixture(scope="session")
def grid2d16():
    return make_grid(2, 16)


@pytest.fixture(scope="session")
def consts48(grid48, params):
    return compute_constants(grid48, params)


@pytest.fixture(scope="session")
def consts64(grid64, params):
    return compute_constants(grid64, params)


@pytest.fixture(scope="session")
def consts128(grid128, params):
    return compute_constants(grid128, params)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def stencil_1d(n: int, h: float, order: int) -> sp.dia_matrix:
    """The 1d Dirichlet Laplacian L1 (order 2: diagonals 1, -2, 1 over
    h^2) or clamped fourth difference B1 (order 4) on n interior nodes,
    as constant diagonals in DIA storage.

    The physical boundary nodes carry zero and drop out, and a second
    neighbour one node outside the boundary folds back onto the first
    interior node (mirror ghost), so B1 = L1^2 + (2/h^4)(e_1 e_1^T +
    e_n e_n^T): diagonals 1, -4, 6, -4, 1 over h^4 with 7 at both ends
    (8 when n = 1).  The rows of the offsets 2, 1, 0 are the upper
    banded storage that LAPACK's pbsv reads.
    """
    c = {2: (0.0, 1.0, -2.0), 4: (1.0, -4.0, 6.0)}[order]
    rows = np.repeat(np.array(c + c[1::-1])[:, None], n, axis=1)
    if order == 4:
        rows[2, 0] += 1.0
        rows[2, -1] += 1.0
    return sp.dia_matrix((rows / h**order, (2, 1, 0, -1, -2)), shape=(n, n))


def reference_L(grid) -> sp.csr_matrix:
    """The Dirichlet Laplacian assembled as a CSR matrix: L1 in 1d, the
    Kronecker sum kron(L1, I) + kron(I, L1) in 2d."""
    L1 = stencil_1d(grid.n_interior, grid.h, 2).tocsr()
    if grid.dim == 1:
        return L1
    eye = sp.identity(grid.n_interior, format="csr")
    return (sp.kron(L1, eye) + sp.kron(eye, L1)).tocsr()


def reference_B(grid) -> sp.csr_matrix:
    """The clamped biharmonic operator assembled as a CSR matrix: B1 in
    1d, and in 2d kron(B1, I) + 2 kron(L1, L1) + kron(I, B1), the
    13-point clamped plate stencil."""
    B1 = stencil_1d(grid.n_interior, grid.h, 4).tocsr()
    if grid.dim == 1:
        return B1
    L1 = stencil_1d(grid.n_interior, grid.h, 2).tocsr()
    eye = sp.identity(grid.n_interior, format="csr")
    return (sp.kron(B1, eye) + 2.0 * sp.kron(L1, L1)
            + sp.kron(eye, B1)).tocsr()


def reference_form(grid, name: str) -> sp.csr_matrix:
    """The assembled matrix of the fixed form ``name``: -L, B or B - L."""
    L, B = reference_L(grid), reference_B(grid)
    return {"grad": -L, "lap": B, "H": B - L}[name]
