"""Per-grid operators and the solves built on their structure.

One ``GridOperators`` object per grid owns everything derived from the
grid alone: the products with the Dirichlet Laplacian ``L`` and the
clamped biharmonic ``B`` with their infinity norms, the banded storage
of the 1d stencils, the orthonormal sine basis that diagonalizes ``L``
and its closed-form eigenpairs, the Newton solve of the time step, the
fixed quadratic forms of the embedding sweeps with their exact solves,
and the costly results of ``spectra`` (the plate eigenpair and the
embedding constants) once they are computed.  Every member is built on
first use, so a product does not pay for the sine basis.

No matrix is assembled.  With the orthonormal sine matrix S (S = S^T =
S^{-1}) the 1d Laplacian is S diag(mu) S, and the clamped fourth
difference is its square plus a corner term,

    B1 = L1^2 + (2/h^4) (e_1 e_1^T + e_n e_n^T),

so on the square ``B`` is the squared Laplacian plus a diagonal
boundary term, (2/h^4) times the number of boundary lines next to each
node (``edges``): B u = L (L u) + (2/h^4) edges u.  Every operator
s I + a Lap_h^2 - c Lap_h is diagonal in the sine basis and is inverted
with four dense matrix products, and with s = 1 it lies below
I + a B - c L, which makes it a preconditioner whose error is
confined to the boundary (Bjorstad, SIAM J. Numer. Anal. 20, 1983).

The fixed forms -L, B and B - L have exact solves.  In 1d they are
banded with half-bandwidth 2, and every solve, like the time step's,
is one LAPACK ``pbsv`` call (banded Cholesky factor and solve) at O(n)
cost on the stencils' constant diagonals (``_bands_1d``); no 1d factor
is kept, and LAPACK is imported when the operators of a 1d grid are
built, so that a 2d grid needs numpy alone.  In 2d -L is
diagonal in the sine basis, and B and B - L are the sine-diagonal
Lap_h^2 - c Lap_h plus the boundary term.  The Woodbury identity
(the capacitance method of Buzbee & Dorr, SIAM J. Numer. Anal. 11,
1974) then solves them in the sine basis: one transform there and one
back, four dense n-by-n products, with the boundary terms read off and
put back as rank-4 products, and one matrix-vector product with the
inverse of the 4n-by-4n capacitance matrix.  That matrix is formed
once per form and grid in the sine basis of the four boundary lines,
where its blocks are diagonal or scaled arrays of inverse symbols,
and inverted from its Cholesky factor.  The Newton matrix of the time
step adds a diagonal and a rank-1 term to I + a B - c L: in 1d both
enter the banded solve, and in 2d it is solved by conjugate gradients
from zero, which apply it as L (a L x - c x) plus a diagonal and the
rank-1 term.  While the plate dominates the diagonal, they are
preconditioned by the sine-basis inverse of I + a Lap_h^2 - c Lap_h,
and an iteration makes no stencil product: it applies the diagonal
rest and the rank-1 term to a vector, and the matrix only at the
refreshes (``solve``).  Once the damping dominates, every iteration
applies the matrix, and CG is preconditioned by its diagonal.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceFailure
from .solvers import conjugate_gradient, lapack, solve_spd_banded

if TYPE_CHECKING:
    from .dynamics import StepCounts
    from .mesh import Grid

# the fixed quadratic forms of the embedding sweeps: -L, B and B - L
FORMS = ("grad", "lap", "H")


def _bands_1d(n: int, h: float, order: int) -> np.ndarray:
    """The 1d Dirichlet Laplacian L1 (order 2: diagonals 1, -2, 1 over
    h^2) or clamped fourth difference B1 (order 4) on n nodes, in upper
    banded storage (row 2 - k the k-th superdiagonal) as LAPACK's pbsv
    reads it.  A second neighbour outside the boundary folds back onto
    the first interior node (mirror ghost), so B1 = L1^2 + (2/h^4)(e_1
    e_1^T + e_n e_n^T): 1, -4, 6, -4, 1 over h^4 with 7 at both ends (8
    when n = 1), each entry its value divided by h^order."""
    c = {2: (0.0, 1.0, -2.0), 4: (1.0, -4.0, 6.0)}[order]
    rows = np.repeat(np.array(c)[:, None], n, axis=1)
    if order == 4:
        rows[2, 0] += 1.0
        rows[2, -1] += 1.0
    return rows / h**order


def _band_rows(band: np.ndarray) -> np.ndarray:
    """Row i of the symmetric banded ``band`` at columns i-2 .. i+2."""
    n = band.shape[1]
    rows = np.zeros((n, 5))
    for k in (0, 1, 2):
        rows[:n - k, 2 + k] = rows[k:, 2 - k] = band[2 - k, k:]
    return rows


def _lower_inverse(T: np.ndarray) -> np.ndarray:
    """Inverse of the lower triangular T = [[A, 0], [C, D]] by halves."""
    k = len(T) // 2
    if k < 16:
        return np.linalg.inv(T)
    A, D = _lower_inverse(T[:k, :k]), _lower_inverse(T[k:, k:])
    inverse = np.zeros_like(T)
    inverse[:k, :k], inverse[k:, k:] = A, D
    inverse[k:, :k] = -D @ (T[k:, :k] @ A)
    return inverse


class MatrixFree:
    """A grid operator given by its product ``A @ u``, with ``toarray()``."""

    def __init__(self, apply: Callable[[np.ndarray], np.ndarray], size: int):
        self.apply, self.shape = apply, (size, size)

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)

    def toarray(self) -> np.ndarray:
        return np.column_stack([self.apply(e) for e in np.eye(self.shape[0])])


class GridOperators:
    """Operators, transforms and solves of one grid, with the plate
    eigenpair and the embedding constants that ``spectra`` computes on
    it; closed forms and constant bundles are rebuilt, not kept."""

    def __init__(self, grid: Grid):
        self.grid = grid
        # results of ``spectra``: the plate eigenpair, and embedding
        # constants with their maximizers by (q, denominator, seed)
        self.plate_eigenpair: tuple[float, np.ndarray] | None = None
        self.embeddings: dict[tuple, tuple[float, np.ndarray]] = {}
        # (product, exact solve) of each fixed form, by name in FORMS
        self.forms: dict[str, tuple[Callable, Callable]] = {}
        n, self.inv_h2 = grid.n_interior, 1.0 / grid.h**2
        self.edge_term = (2.0 / grid.h**4) * self.edges  # B - Lap_h^2
        self.row_mask = None if grid.dim == 1 else (  # see ``laplacian``
            np.arange(1, grid.size) % n != 0).astype(float)
        if grid.dim == 1:
            lapack()  # here, so that a run's first solve does not pay it

    def laplacian(self, u: np.ndarray, a: float = 1.0,
                  c: float = 0.0) -> np.ndarray:
        """a L u - c u: the neighbours less (2 dim + c h^2/a) u, times a/h^2;
        in 2d the row mask drops the flat pairs k, k + 1 on two rows."""
        n, mask, scale = self.grid.n_interior, self.row_mask, a * self.inv_h2
        s = u * (-2.0 * self.grid.dim - c / scale)
        if mask is None:
            s[1:] += u[:-1]
            s[:-1] += u[1:]
        else:
            s[n:] += u[:-n]
            s[:-n] += u[n:]
            t = u[1:] * mask
            s[:-1] += t
            s[1:] += np.multiply(u[:-1], mask, out=t)
        s *= scale
        return s

    def biharmonic(self, u: np.ndarray, c: float = 0.0) -> np.ndarray:
        """B u - c L u = L (L u - c u) + (2/h^4) edges u: the plate."""
        Bu = self.laplacian(self.laplacian(u, 1.0, c))
        Bu += self.edge_term * u
        return Bu

    def assembled(self, order: int) -> np.ndarray:
        """The rows of L (order 2) or B (order 4), assembled as the 2d kron(A1,
        I) + m kron(L1, L1) + kron(I, A1), m = order - 2, rounds them: each
        row's entries in the stencil's reach, in column order."""
        _, B_band, L_band = self.bands
        A = _band_rows(B_band if order == 4 else L_band)
        if self.grid.dim == 1:
            return A
        L, centre = _band_rows(L_band), np.eye(5)[2]
        return ((A[:, None, :, None] * centre
                 + (order - 2.0) * (L[:, None, :, None] * L[None, :, None, :]))
                + centre[:, None] * A[None, :, None, :]).reshape(-1, 25)

    # the infinity norms as an assembled sparse matrix's row sums give
    # them, each row's |entries| added in column order
    @cached_property
    def norm_L(self) -> float:
        return float(np.cumsum(abs(self.assembled(2)), 1)[:, -1].max())

    @cached_property
    def norm_B(self) -> float:
        return float(np.cumsum(abs(self.assembled(4)), 1)[:, -1].max())

    @cached_property
    def assembled_diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """The diagonals of the ``assembled`` L and B."""
        mid = 2 if self.grid.dim == 1 else 12
        return tuple(self.assembled(k)[:, mid].copy() for k in (2, 4))

    @cached_property
    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper banded storage of I, B1 and L1 along an axis of the grid
        (``_bands_1d``)."""
        g = self.grid
        B_band = _bands_1d(g.n_interior, g.h, 4)
        eye_band = np.zeros_like(B_band)
        eye_band[2] = 1.0
        return eye_band, B_band, _bands_1d(g.n_interior, g.h, 2)

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

    def sine_inverse(self, a: float, c: float, shift: float = 1.0
                     ) -> Callable[[np.ndarray], np.ndarray]:
        """A function applying (shift I + a Lap_h^2 - c Lap_h)^{-1} on a
        2d grid through the sine basis, its diagonal there computed
        once; the operator must be definite on every mode."""
        S, mu = self.sine, self.mu
        diag = shift + a * mu * mu - c * mu
        n = self.grid.n_interior
        return lambda r: (S @ ((S @ r.reshape(n, n) @ S) / diag) @ S).ravel()

    @cached_property
    def boundary(self) -> np.ndarray:
        """Flat indices of the first and last line along each axis."""
        n, k = self.grid.n_interior, np.arange(self.grid.n_interior)
        if self.grid.dim == 1:
            return np.array([0, n - 1])
        return np.concatenate((k, k + n * (n - 1), n * k, n * k + n - 1))

    @cached_property
    def edges(self) -> np.ndarray:
        """The number of boundary lines next to each node, so that
        B - Lap_h^2 = (2/h^4) diag(edges) (``_bands_1d``)."""
        return np.bincount(self.boundary, minlength=self.grid.size) * 1.0

    def solve(self, a: float, c: float, d: np.ndarray, rho: float,
              w: np.ndarray, rhs: np.ndarray, rtol: float,
              counts: StepCounts) -> np.ndarray:
        """Solve (I + a B - c L + diag(d) + rho w w^T) x = rhs, the
        Newton matrix of the time step (rho >= 0).

        In 1d one banded Cholesky call takes the band with d on its
        diagonal against the two right-hand sides rhs and w, and the
        Sherman-Morrison formula adds the rank-1 term.  In 2d the matrix
        is K + diag(e) + rho w w^T, with K = I + a Lap_h^2 - c Lap_h
        diagonal in the sine basis and e = (2a/h^4) edges + d, and
        conjugate gradients solve it from zero, starting at r = rhs
        with no product; the iterations they make, converged or not,
        are added to ``counts.cg_iters``.  Both paths hand CG one
        operator, the matrix applied as L (a L x - c x) + (1 + e) x plus
        the rank-1 term.  While the plate dominates, max(d) <= a ||B||
        + c ||L||, CG is preconditioned by ``sine_inverse``, the
        inverse of K, and an iteration applies only diag(e) and the
        rank-1 term (``conjugate_gradient``'s ``rest``); the matrix is
        applied only at the refreshes.  Once the damping dominates, as
        it does near blow-up, K^{-1} misses what matters: every
        iteration applies the matrix, and CG is preconditioned by its
        diagonal; these solves are counted in
        ``counts.diagonal_solves``.  No factorization is ever made."""
        if self.grid.dim == 1:
            eye_band, B_band, L_band = self.bands
            ab = eye_band + a * B_band - c * L_band
            ab[2] += d
            x, y = solve_spd_banded(ab, np.column_stack((rhs, w))).T
            return x - (rho * (w @ x) / (1.0 + rho * (w @ y))) * y
        a_norm = (1.0 + a * self.norm_B + c * self.norm_L + np.abs(d)
                  + rho * np.abs(w) * np.abs(w).sum())
        e = (2.0 * a / self.grid.h**4) * self.edges + d
        lap, shift = self.laplacian, 1.0 + e

        def rank1(x: np.ndarray) -> np.ndarray:
            return (rho * (w @ x)) * w

        def apply(x: np.ndarray) -> np.ndarray:
            return lap(lap(x, a, c)) + shift * x + rank1(x)

        if d.max() <= a * self.norm_B + c * self.norm_L:
            rest = lambda x: e * x + rank1(x)
            M = self.sine_inverse(a, c)
        else:
            rest = None
            dL, dB = self.assembled_diagonals
            diagonal = (dL * (-c / a) + dB) * a + (1.0 + d)
            M = lambda r: r / diagonal
            counts.diagonal_solves += 1
        try:
            x, iterations = conjugate_gradient(
                apply, rhs, rtol=rtol, max_iter=500, M=M, a_norm=a_norm,
                rest=rest)
        except ConvergenceFailure as failure:
            counts.cg_iters += failure.iterations
            raise
        counts.cg_iters += iterations
        return x

    def form(self, name: str) -> tuple[Callable, Callable]:
        """Product and exact solve of the fixed quadratic form ``name``:
        ``grad`` (-L), ``lap`` (B) or ``H`` (B - L).  Each form is built
        once, on first use, with the 2d capacitance inverse of ``lap``
        and ``H``."""
        if name not in self.forms:
            self.forms[name] = self._make_form(name)
        return self.forms[name]

    def _make_form(self, name: str) -> tuple[Callable, Callable]:
        if name not in FORMS:
            raise ValueError(f"unknown form {name!r}, "
                             f"expected one of {FORMS}")
        apply = {"grad": lambda u: self.laplacian(u, -1.0),
                 "lap": self.biharmonic,
                 "H": lambda u: self.biharmonic(u, 1.0)}[name]
        if self.grid.dim == 1:
            # one LAPACK pbsv, factor and solve, on the form's bands
            _, B_band, L_band = self.bands
            ab = {"grad": -L_band, "lap": B_band, "H": B_band - L_band}[name]
            return apply, lambda r: solve_spd_banded(ab, r)
        if name == "grad":
            # exact: the sine basis diagonalizes the Laplacian
            return apply, self.sine_inverse(0.0, 1.0, shift=0.0)
        # B - c L with c = 0 (lap) or 1 (H)
        return apply, self._capacitance_solve(float(name == "H"))

    def _capacitance_solve(self, c: float) -> Callable:
        """Exact solve of B - c L in 2d by the Woodbury identity, worked
        in the sine basis.

        B - c L = K + U (2/h^4) U^T, where K = Lap_h^2 - c Lap_h is
        diagonal in the sine basis and U holds the 4n unit columns of
        the nodes on the first and last grid rows and grid columns (in
        that order; the corners appear twice).  With y = K^{-1} r,

            x = y - K^{-1} U Cap^{-1} U^T y,  Cap = (h^4/2) I + U^T K^{-1} U.

        The solve stays in the sine basis, the boundary lines too.  It
        transforms r once, Y^ = (S R S) / k with k the symbols of K,
        reads the lines U^T y of y = S Y^ S, in the sine basis of each
        line, as e Y^ and (Y^ e^T)^T with e the first and last rows of
        S, and puts the correction back as a rank-4 product of e and
        z = Cap^{-1} U^T y: four dense n-by-n products in all and one
        matrix-vector product with Cap^{-1}.

        In that basis the n-by-n blocks of Cap are diag(sum_i e_ai e_bi
        / k_ij) between lines a, b of the same direction, and 1 / k
        times the outer product of e_b and e_a between row a and column
        b: no block takes a dense product.  Cap is factored once per
        form and grid (Cholesky, Cap = F F^T), and its inverse is formed
        from the factor as F^{-T} F^{-1} (``_lower_inverse``).  Cap is well
        conditioned, about 0.6 N (condition number 9.8, 37 and 56 at
        N = 16, 64 and 96), so applying the inverse costs no accuracy:
        the normwise backward error is about 2e-16.

        The solve inverts the exact symbols of K, while the product
        applies the stencil with each entry rounded to a float.  On
        smooth fields the two operators differ by up to about
        eps * cond(B - c L), 5.7e-11 relative at N = 64, so ``spectra``
        puts its results on the ellipsoid of the product.
        """
        g = self.grid
        n = g.n_interior
        S = self.sine
        inv = 1.0 / (self.mu * self.mu - c * self.mu)
        ends = S[[0, -1]]
        # same[a][b]: rows a, b (or columns a, b); cross[a][b]: row a,
        # column b; a, b = 0 for the first line and 1 for the last
        same = [[np.diag((ends[a] * ends[b]) @ inv) for b in (0, 1)]
                for a in (0, 1)]
        cross = [[np.outer(ends[b], ends[a]) * inv for b in (0, 1)]
                 for a in (0, 1)]
        cap = np.block([same[a] + cross[a] for a in (0, 1)]
                       + [[cross[b][a].T for b in (0, 1)] + same[a]
                          for a in (0, 1)])
        cap[np.diag_indices_from(cap)] += 0.5 * g.h**4
        inverse_factor = _lower_inverse(np.linalg.cholesky(cap))
        cap_inverse = inverse_factor.T @ inverse_factor

        def solve(r: np.ndarray) -> np.ndarray:
            Y = S @ r.reshape(n, n) @ S
            Y *= inv
            # the first and last rows of S Y S, then its first and last
            # columns, each in the sine basis of its line
            lines = np.concatenate((ends @ Y, (Y @ ends.T).T))
            z = (cap_inverse @ lines.ravel()).reshape(4, n)
            # S (U z) S in the sine basis: the rows of z on the end rows
            # and its columns on the end columns, as outer products with
            # the end rows of S
            Y -= inv * (np.vstack((ends, z[2:])).T @ np.vstack((z[:2], ends)))
            return (S @ Y @ S).ravel()

        return solve


# grids whose operator objects are kept; the least recently used one
# beyond these is dropped with its factors and spectral results
GRIDS_KEPT = 4


@lru_cache(maxsize=GRIDS_KEPT)
def operators(grid: Grid) -> GridOperators:
    """The one operator object of ``grid``; equal grids share it while
    the grid is among the ``GRIDS_KEPT`` most recently used."""
    return GridOperators(grid)
