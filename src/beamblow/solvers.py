"""Linear algebra helpers; scipy is imported only where it is used.

Fixed symmetric positive definite forms are solved exactly, by one
banded Cholesky call (``solve_spd_banded``) per solve in 1d and by a
capacitance (Woodbury) solve on the sine basis in 2d (see
``operators``).  The 1d time step makes the same banded call.  The one
iterative solve is the Newton correction of the 2d time integrator:
conjugate gradients, preconditioned by a sine-basis solve or by the
diagonal, with a row-wise backward-error stopping rule

    |r_i| <= rtol * (|b_i| + ||A_i||_1 * ||x||_inf)   for every row i

(Arioli, Demmel & Duff, SIAM J. Matrix Anal. Appl. 10, 1989).  Unlike a
plain relative-residual test it stays attainable when the operator is
badly conditioned (fourth-order stencils reach condition numbers around
1e9 on fine grids, so eps * cond can exceed any fixed relative residual
target).  Unlike a normwise test against ||A|| it keeps every row
accurate when the row norms spread over many decades, as the step's
damping diagonal does near blow-up: there a normwise test lets the
rows of small norm carry errors of order one.

When the preconditioner is the exact inverse of a part of the operator,
as the sine-basis solve is of the plate part, ``conjugate_gradient``
takes the rest of the operator and carries the product of that part
with the search direction along the recurrence, so an iteration applies
only the rest.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from types import ModuleType
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceFailure

if TYPE_CHECKING:
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator


@cache
def lapack() -> ModuleType:
    """scipy's LAPACK wrappers, imported on the first call, which the
    operators of a 1d grid make when they are built."""
    import scipy.linalg.lapack
    return scipy.linalg.lapack


def operator_norm_estimate(A: sp.spmatrix) -> float:
    """Infinity norm of a matrix, for perfbench/tracing.py."""
    return float(np.abs(A).sum(axis=1).max())


def solve_spd_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve of ``ab`` against b; breakdown surfaces as
    ConvergenceFailure so callers can retry at a smaller step.

    ``ab`` is in upper banded storage: row ``w - k`` of its w + 1 rows
    holds the k-th superdiagonal, whose first k entries are never read.
    Every 1d solve, the time step's and the fixed forms', is this call.

    One call of LAPACK ``dpbsv``, the routine scipy.linalg.solveh_banded
    reaches, on copies of both arguments; of that wrapper's validation
    only the shape check is kept.  Its two scans for non-finite entries
    cost more than the solve itself on a 1d step system; a non-finite
    entry gives a breakdown or a non-finite solution, both of which the
    time stepper rejects.
    """
    if len(b) != ab.shape[-1]:
        raise ValueError("shapes of ab and b are not compatible.")
    _, x, info = lapack().dpbsv(ab, b)
    if info > 0:
        raise ConvergenceFailure(f"banded Cholesky breakdown: {info}th "
                                 "leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbsv")
    return x


def lu_preconditioner(A: sp.spmatrix) -> LinearOperator:
    """Exact sparse LU wrapped as a linear operator applying A^{-1}.
    No caller in the package; kept for code that looks it up by name,
    such as the benchmark's tracer (perfbench/tracing.py).  It imports
    scipy.sparse.linalg itself, so importing the package does not."""
    import scipy.sparse.linalg as spla

    lu = spla.splu(A.tocsc())
    return spla.LinearOperator(A.shape, matvec=lu.solve)


def ilu_preconditioner(A: sp.spmatrix, drop_tol: float = 1e-5,
                       fill_factor: float = 20.0) -> LinearOperator:
    """Incomplete LU wrapped as a preconditioner.  Nothing in the
    package calls it; it is kept for code that looks it up by name,
    such as the benchmark's tracer (perfbench/tracing.py), and it
    imports scipy.sparse.linalg itself, like ``lu_preconditioner``."""
    import scipy.sparse.linalg as spla

    ilu = spla.spilu(A.tocsc(), drop_tol=drop_tol, fill_factor=fill_factor)
    return spla.LinearOperator(A.shape, matvec=ilu.solve)


# conjugate_gradient replaces its recurrence residual by the true one
# every CG_REFRESH iterations
CG_REFRESH = 50


def conjugate_gradient(A: Callable[[np.ndarray], np.ndarray],
                       b: np.ndarray, x0: np.ndarray | None = None, *,
                       rtol: float, max_iter: int,
                       M: Callable[[np.ndarray], np.ndarray],
                       a_norm: float | np.ndarray,
                       rest: Callable[[np.ndarray], np.ndarray] | None = None
                       ) -> tuple[np.ndarray, int]:
    """Preconditioned CG from x0 with row-wise backward-error stopping;
    returns the solution and the iterations made.  With ``x0`` None it
    starts from zero at r = b, without applying the operator.

    ``A`` and ``M`` are functions applying the operator and the
    preconditioner; ``a_norm`` bounds the 1-norms of the operator's rows
    in the stopping rule: an array with one bound per row, or one number
    for every row.

    ``rest``, when given, applies the part of the operator that ``M``
    does not invert, A = M^{-1} + rest.  Since M^{-1} z = r, the product
    M^{-1} p of each new search direction p = z + beta p follows as
    r + beta M^{-1} p, and an iteration applies ``rest`` instead of
    ``A``; ``A`` itself is applied only at the refreshes, and to x0
    when one is given.

    Raises ConvergenceFailure (with the iterations made in
    ``iterations``) if the budget runs out, or at once on a curvature
    ``p^T A p`` that is not positive, NaN included.  The recurrence
    residual is replaced by the true residual every CG_REFRESH
    iterations to stop rounding drift from masking stagnation.  The
    updates and the stopping test write into buffers made once per
    call.
    """
    if x0 is None:
        x = np.zeros(b.shape)
        r = np.array(b, dtype=float)
    else:
        x = np.array(x0, dtype=float)
        r = b - A(x)
    b_abs = np.abs(b)
    denom = np.empty_like(x)
    work = np.empty_like(x)

    def backward_error(res_vec: np.ndarray) -> float:
        np.multiply(a_norm, np.abs(x, out=work).max(), out=denom)
        np.add(denom, b_abs, out=denom)
        np.maximum(denom, 1e-300, out=denom)
        np.abs(res_vec, out=work)
        return float(np.divide(work, denom, out=work).max())

    z = M(r)
    p = z.copy()
    # M^{-1} p, carried along when the iterations apply only ``rest``
    Mp = None if rest is None else r.copy()
    rz = float(np.dot(r, z))
    err = backward_error(r)
    if err <= rtol:
        return x, 0

    for k in range(1, max_iter + 1):
        if rest is None:
            Ap = A(p)
        else:
            Ap = rest(p)
            Ap += Mp
        pAp = float(np.dot(p, Ap))
        if not pAp > 0.0:
            raise ConvergenceFailure(
                "conjugate gradient hit a curvature that is non-positive "
                f"or not finite (p^T A p = {pAp:g}); the operator is not "
                "SPD or not finite", iterations=k)
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=work)
        if k % CG_REFRESH == 0:
            r = b - A(x)
        else:
            r -= np.multiply(Ap, alpha, out=work)
        err = backward_error(r)
        if err <= rtol:
            return x, k
        z = M(r)
        rz_next = float(np.dot(r, z))
        beta = rz_next / rz
        rz = rz_next
        p *= beta
        p += z
        if Mp is not None:
            Mp *= beta
            Mp += r

    raise ConvergenceFailure(
        f"conjugate gradient stalled after {max_iter} iterations "
        f"(backward error {err:.3e}, target {rtol:.3e})",
        iterations=max_iter)
