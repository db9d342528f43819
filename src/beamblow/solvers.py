"""Sparse linear algebra helpers.

Fixed symmetric positive definite forms are solved exactly by banded
Cholesky (see ``operators``).  The one iterative solve is the implicit
step of the 2d time integrator: conjugate gradients preconditioned by
a sine-basis solve, with a normwise backward-error stopping rule

    ||r|| <= rtol * (||b|| + ||A|| * ||x||)

which, unlike a plain relative-residual test, stays attainable when the
operator is badly conditioned (fourth-order stencils reach condition
numbers around 1e9 on fine grids, so eps * cond can exceed any fixed
relative residual target).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure


def operator_norm_estimate(A) -> float:
    """Infinity norm for sparse matrices, 0.0 for abstract operators."""
    if sp.issparse(A):
        return float(np.abs(A).sum(axis=1).max())
    return 0.0


def upper_bands(A: sp.spmatrix, width: int) -> np.ndarray:
    """Upper banded storage of a symmetric banded matrix, in the layout
    scipy.linalg.solveh_banded expects: row ``width - k`` holds the k-th
    superdiagonal, left-padded with zeros."""
    n = A.shape[0]
    ab = np.zeros((width + 1, n))
    d = A.todia()
    for off, row in zip(d.offsets, d.data):
        if off > width:
            raise ValueError(f"bandwidth {off} exceeds declared {width}")
        if off >= 0:
            ab[width - off] = row
    return ab


def solve_spd_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve; breakdown surfaces as ConvergenceFailure
    so callers can retry at a smaller step."""
    try:
        return sla.solveh_banded(ab, b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"banded Cholesky breakdown: {exc}")


def lu_preconditioner(A: sp.spmatrix) -> spla.LinearOperator:
    """Exact sparse LU wrapped as a linear operator applying A^{-1}.
    No caller in the package; kept for code that looks it up by name,
    such as the benchmark's tracer (perfbench/tracing.py)."""
    lu = spla.splu(A.tocsc())
    return spla.LinearOperator(A.shape, matvec=lu.solve)


def ilu_preconditioner(A: sp.spmatrix, drop_tol: float = 1e-5,
                       fill_factor: float = 20.0) -> spla.LinearOperator:
    """Incomplete LU wrapped as a preconditioner.  Nothing in the
    package calls it; it is kept for code that looks it up by name,
    such as the benchmark's tracer (perfbench/tracing.py)."""
    ilu = spla.spilu(A.tocsc(), drop_tol=drop_tol, fill_factor=fill_factor)
    return spla.LinearOperator(A.shape, matvec=ilu.solve)


def conjugate_gradient(A: Callable[[np.ndarray], np.ndarray],
                       b: np.ndarray, x0: np.ndarray, *, rtol: float,
                       max_iter: int, M: Callable[[np.ndarray], np.ndarray],
                       a_norm: float) -> np.ndarray:
    """Preconditioned CG from x0 with backward-error stopping.

    ``A`` and ``M`` are functions applying the operator and the
    preconditioner; ``a_norm`` is the operator's norm in the stopping
    rule.

    Raises ConvergenceFailure (with the final relative backward error in
    ``residual``) if the budget runs out.  The recurrence residual is
    replaced by the true residual every 50 iterations to stop rounding
    drift from masking stagnation.
    """
    x = np.array(x0, dtype=float)
    b_norm = float(np.linalg.norm(b))

    r = b - A(x)
    z = M(r)
    p = z.copy()
    rz = float(np.dot(r, z))

    def backward_error(res_vec: np.ndarray, xv: np.ndarray) -> float:
        denom = b_norm + a_norm * float(np.linalg.norm(xv))
        return float(np.linalg.norm(res_vec)) / max(denom, 1e-300)

    err = backward_error(r, x)
    if err <= rtol:
        return x

    for k in range(1, max_iter + 1):
        Ap = A(p)
        pAp = float(np.dot(p, Ap))
        if pAp <= 0.0:
            raise ConvergenceFailure(
                "conjugate gradient hit a non-positive curvature "
                f"direction (p^T A p = {pAp:g}); matrix is not SPD",
                residual=err)
        alpha = rz / pAp
        x += alpha * p
        if k % 50 == 0:
            r = b - A(x)
        else:
            r -= alpha * Ap
        err = backward_error(r, x)
        if err <= rtol:
            return x
        z = M(r)
        rz_next = float(np.dot(r, z))
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p

    raise ConvergenceFailure(
        f"conjugate gradient stalled after {max_iter} iterations "
        f"(backward error {err:.3e}, target {rtol:.3e})",
        residual=err)
