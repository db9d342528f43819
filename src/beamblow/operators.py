"""Per-grid operators and the solves built on their structure.

One ``GridOperators`` object per grid owns everything derived from the
grid alone: the Dirichlet Laplacian ``L`` and the clamped biharmonic
``B`` with their infinity norms, the banded storage of the 1d stencils,
the orthonormal sine basis that diagonalizes ``L`` and its closed-form
eigenpairs, the implicit solve of the time step, the fixed quadratic
forms of the embedding sweeps with their exact solves, and the results
of ``spectra`` once they are computed.  Every member is built on first
use, so asking for ``L`` does not pay for the sine basis.

The sine basis is what makes the 2d solves cheap.  With the orthonormal
matrix S (S = S^T = S^{-1}) the 1d Laplacian is S diag(mu) S, and the
clamped fourth difference is its square plus a corner term,

    B1 = L1^2 + (2/h^4) (e_1 e_1^T + e_n e_n^T),

so on the square ``B`` is the squared Laplacian plus a positive
semidefinite boundary term of rank at most 4n.  Hence every operator
s I + a Lap_h^2 - c Lap_h is diagonal in the sine basis and is applied
or inverted with four dense matrix products, and with s = 1 it lies
below I + a B - c L, which makes it a preconditioner whose error is
confined to the boundary (Bjorstad, SIAM J. Numer. Anal. 20, 1983).

The fixed forms B and B - L are banded, with half-bandwidth 2 in 1d and
2n in 2d (lexicographic order, 13-point stencil), so one banded
Cholesky factorization per form and grid gives their exact solve; it is
the only factorization in the package.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .solvers import (conjugate_gradient, operator_norm_estimate,
                      solve_spd_banded, upper_bands)

if TYPE_CHECKING:
    from .mesh import Grid
    from .spectra import VariationalConstants

# the fixed quadratic forms of the embedding sweeps: -L, B, B - L and I
FORMS = ("grad", "lap", "H", "l2")


def _lap_1d(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, -2.0)
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2


def _bih_1d(n: int, h: float) -> sp.csr_matrix:
    """Pentadiagonal fourth-difference with clamped (mirror ghost) closure.

    Interior indices 0..n-1 sit at x = h..nh; the physical boundary nodes
    carry zero and drop out, while second neighbours that land one node
    outside the boundary fold back onto the first interior node.
    """
    A = sp.lil_matrix((n, n))
    for i in range(n):
        A[i, i] += 6.0
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                A[i, j] += -4.0
        for j in (i - 2, i + 2):
            jj = j
            if jj == -2:
                jj = 0
            elif jj == n + 1:
                jj = n - 1
            if 0 <= jj < n:
                A[i, jj] += 1.0
    return (A / h**4).tocsr()


class GridOperators:
    """Operators, transforms, solves and spectral results of one grid."""

    def __init__(self, grid: Grid):
        self.grid = grid
        # results of ``spectra``: eigenpairs by operator name, embedding
        # constants by (q, denominator, seed), bundles by (params, seed)
        self.eigenpairs: dict[str, tuple[float, np.ndarray]] = {}
        self.embeddings: dict[tuple, tuple[float, np.ndarray]] = {}
        self.constants: dict[tuple, VariationalConstants] = {}
        # (product, exact solve) of each fixed form, by name in FORMS
        self.forms: dict[str, tuple[Callable, Callable]] = {}

    @cached_property
    def L(self) -> sp.csr_matrix:
        """Dirichlet Laplacian on the interior nodes (negative definite)."""
        g = self.grid
        L1 = _lap_1d(g.n_interior, g.h)
        if g.dim == 1:
            return L1
        eye = sp.identity(g.n_interior, format="csr")
        return (sp.kron(L1, eye) + sp.kron(eye, L1)).tocsr()

    @cached_property
    def B(self) -> sp.csr_matrix:
        """Clamped biharmonic operator (symmetric positive definite).

        In 2d the mixed term pairs the two 1d Dirichlet Laplacians, and
        the pure fourth differences use the mirror-ghost closure, giving
        the 13-point clamped plate stencil.
        """
        g = self.grid
        B1 = _bih_1d(g.n_interior, g.h)
        if g.dim == 1:
            return B1
        L1 = _lap_1d(g.n_interior, g.h)
        eye = sp.identity(g.n_interior, format="csr")
        return (sp.kron(B1, eye) + 2.0 * sp.kron(L1, L1)
                + sp.kron(eye, B1)).tocsr()

    @cached_property
    def norm_L(self) -> float:
        return operator_norm_estimate(self.L)

    @cached_property
    def norm_B(self) -> float:
        return operator_norm_estimate(self.B)

    @cached_property
    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper banded storage (bandwidth 2) of I, B and L in 1d."""
        B_band = upper_bands(self.B, 2)
        eye_band = np.zeros_like(B_band)
        eye_band[2] = 1.0
        return eye_band, B_band, upper_bands(self.L, 2)

    @cached_property
    def sine(self) -> np.ndarray:
        """Orthonormal sine matrix S_jk = sqrt(2/(n+1)) sin(pi j k/(n+1))."""
        n = self.grid.n_interior
        k = np.arange(1, n + 1)
        return (np.sqrt(2.0 / (n + 1))
                * np.sin(np.pi * np.outer(k, k) / (n + 1)))

    @cached_property
    def mu(self) -> np.ndarray:
        """Eigenvalues of the Laplacian in the sine basis: the 1d
        symbols mu_k = -(4/h^2) sin^2(k pi / (2(n+1))), and in 2d the
        n-by-n array of sums mu_i + mu_j."""
        g = self.grid
        n = g.n_interior
        k = np.arange(1, n + 1)
        mu = -(4.0 / g.h**2) * np.sin(0.5 * np.pi * k / (n + 1))**2
        if g.dim == 1:
            return mu
        return mu[:, None] + mu[None, :]

    def laplacian_mode(self, k: tuple[int, ...]) -> tuple[float, np.ndarray]:
        """Eigenpair of -L for the sine mode with index k[d] along axis d:
        the eigenvalue -(mu_k1 + mu_k2 ...) and the product of the 1d
        modes sin(pi k_d j / (n+1)), j = 1..n, at unit weighted L2 norm."""
        g = self.grid
        n = g.n_interior
        if not all(1 <= kd <= n for kd in k):
            raise ValueError(f"no sine mode {k} with n = {n}")
        j = np.arange(1, n + 1)
        x = np.ones(1)
        for kd in k:
            x = np.outer(x, np.sin(np.pi * kd * j / (n + 1))).ravel()
        lam = -float(self.mu[tuple(kd - 1 for kd in k)])
        return lam, x / (np.sqrt(g.weight) * np.linalg.norm(x))

    def sine_solve(self, a: float, c: float, r: np.ndarray, *,
                   shift: float = 1.0) -> np.ndarray:
        """Apply (shift I + a Lap_h^2 - c Lap_h)^{-1} to r through the
        sine basis; the operator must be definite on every mode."""
        S, mu = self.sine, self.mu
        diag = shift + a * mu * mu - c * mu
        if self.grid.dim == 1:
            return S @ ((S @ r) / diag)
        n = self.grid.n_interior
        R = r.reshape(n, n)
        return (S @ ((S @ R @ S) / diag) @ S).ravel()

    def matvec(self, a: float, c: float):
        """A function applying I + a B - c L, the time-step matrix."""
        B, L = self.B, self.L
        return lambda x: x + a * (B @ x) - c * (L @ x)

    def solve(self, a: float, c: float, rhs: np.ndarray, x0: np.ndarray,
              rtol: float) -> np.ndarray:
        """Solve (I + a B - c L) x = rhs: banded Cholesky in 1d; in 2d
        conjugate gradients from x0 preconditioned by ``sine_solve``,
        which misses only the clamped boundary term, so no factorization
        is ever made."""
        if self.grid.dim == 1:
            eye_band, B_band, L_band = self.bands
            return solve_spd_banded(eye_band + a * B_band - c * L_band, rhs)
        return conjugate_gradient(
            self.matvec(a, c), rhs, x0=x0, rtol=rtol, max_iter=500,
            M=lambda r: self.sine_solve(a, c, r),
            a_norm=1.0 + a * self.norm_B + c * self.norm_L)

    def form(self, name: str) -> tuple[Callable, Callable]:
        """Matrix product and exact solve of the fixed quadratic form
        ``name``: ``grad`` (-L), ``lap`` (B), ``H`` (B - L) or ``l2``
        (I).  Each form is built, and factored, once, on first use."""
        if name not in self.forms:
            self.forms[name] = self._make_form(name)
        return self.forms[name]

    def _make_form(self, name: str) -> tuple[Callable, Callable]:
        if name == "l2":
            return np.copy, np.copy
        if name == "grad":
            A = -self.L
            if self.grid.dim == 2:
                # exact: the sine basis diagonalizes the Laplacian
                return A.dot, lambda r: self.sine_solve(0.0, 1.0, r,
                                                        shift=0.0)
        elif name == "lap":
            A = self.B
        elif name == "H":
            A = self.B - self.L
        else:
            raise ValueError(f"unknown form {name!r}, "
                             f"expected one of {FORMS}")
        g = self.grid
        width = 2 if g.dim == 1 else 2 * g.n_interior
        # neither call scans for non-finite entries: that scan would read
        # the whole factor (14 MB on the 2d N = 96 grid) on every solve
        factor = sla.cholesky_banded(upper_bands(A, width), overwrite_ab=True,
                                     check_finite=False)
        return A.dot, lambda r: sla.cho_solve_banded((factor, False), r,
                                                     check_finite=False)


@lru_cache(maxsize=None)
def operators(grid: Grid) -> GridOperators:
    """The one operator object of ``grid``; equal grids share it."""
    return GridOperators(grid)
