"""Spectral quantities and sharp discrete embedding constants.

Everything downstream of the well-depth and blow-up chains consumes
constants computed here, always for the discrete operators actually
used by the time stepper, so every inequality the bound chains rely on
holds exactly for the semi-discrete flow:

  * smallest eigenvalues of the Dirichlet Laplacian and the clamped
    plate operator (inverse power iteration with preconditioned CG
    inner solves, banded in 1d and sine-basis in 2d, optional deflation
    for the second pair);
  * best constants of the discrete embeddings ||u||_q <= C * Q(u)^{1/2}
    for the quadratic forms Q built from the gradient, the Laplacian,
    or their sum (extremal fixed-point sweeps with seeded restarts);
  * the mountain-pass level d of the potential well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import mesh
from .errors import ConvergenceFailure
from .functionals import ModelParams
from .mesh import Grid
from .operators import operators
from .solvers import conjugate_gradient

_OPERATORS = ("laplacian", "biharmonic")


def _operator(grid: Grid, operator: str):
    """Matrix-vector product, infinity norm and preconditioner of a
    positive operator.  The preconditioner is exact for the Laplacian
    and, in 1d, for the plate; in 2d it is the sine-basis inverse of
    Lap_h^2, which differs from the plate by the boundary term."""
    ops = operators(grid)
    if operator == "laplacian":
        L = ops.L
        return ((lambda x: -(L @ x)), ops.norm_L,
                ops.preconditioner(0.0, 1.0, shift=0.0))
    if operator == "biharmonic":
        return (ops.B.dot, ops.norm_B,
                ops.preconditioner(1.0, 0.0, shift=0.0))
    raise ValueError(f"unknown operator {operator!r}, "
                     f"expected one of {_OPERATORS}")


def smallest_eigen(grid: Grid, operator: str = "biharmonic", *,
                   deflate: np.ndarray | None = None, tol: float = 1e-10,
                   max_outer: int = 500,
                   inner_rtol: float = 1e-12) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of the (positive) operator by inverse iteration.

    ``deflate`` projects a previously computed eigenfield out of every
    iterate, yielding the next eigenpair up.  The returned field has
    unit weighted L2 norm and its largest-magnitude entry positive.
    The inner solves are conjugate gradients preconditioned by
    ``GridOperators.preconditioner``;
    undeflated pairs are kept on the grid's operator object.
    """
    A, a_norm, M = _operator(grid, operator)
    pairs = operators(grid).eigenpairs
    key = (operator, tol, max_outer, inner_rtol)
    if deflate is None and key in pairs:
        lam, x = pairs[key]
        return lam, x.copy()

    rng = np.random.default_rng(12345)
    x = rng.standard_normal(grid.size)
    if deflate is not None:
        d = deflate / np.linalg.norm(deflate)
        x -= np.dot(d, x) * d
    x /= np.linalg.norm(x)

    lam = float(x @ A(x))
    for _ in range(max_outer):
        y = conjugate_gradient(A, x, x0=x / lam, rtol=inner_rtol,
                               M=M, a_norm=a_norm)
        if deflate is not None:
            y -= np.dot(d, y) * d
        x = y / np.linalg.norm(y)
        lam_new = float(x @ A(x))
        if abs(lam_new - lam) <= tol * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    else:
        raise ConvergenceFailure(
            f"inverse iteration for {operator} eigenpair did not settle "
            f"in {max_outer} sweeps",
            residual=abs(lam_new - lam) / abs(lam_new))

    i = int(np.argmax(np.abs(x)))
    if x[i] < 0:
        x = -x
    x = x / mesh.norm_l2(grid, x)
    if deflate is None:
        pairs[key] = (lam, x.copy())
    return lam, x


_DENOMINATORS = ("grad", "lap", "H", "l2")


def _quad_form(grid: Grid, denominator: str):
    """Matrix-vector product and exact solve of a quadratic form."""
    if denominator == "grad":
        apply, _, solve = _operator(grid, "laplacian")
        return apply, solve
    ops = operators(grid)
    if denominator == "lap":
        return ops.B.dot, ops.plate_factor.matvec
    if denominator == "H":
        return ops.graph_form.dot, ops.graph_factor.matvec
    if denominator == "l2":
        return np.copy, np.copy
    raise ValueError(f"unknown denominator {denominator!r}, "
                     f"expected one of {_DENOMINATORS}")


def _extremal_sweep(grid: Grid, q: float, apply, solve,
                    u0: np.ndarray, max_iter: int, patience: int,
                    ftol: float) -> tuple[float, np.ndarray, bool]:
    """Maximize ||u||_q on the ellipsoid Q(u) = weight * u^T A u = 1.

    Fixed-point sweeps on the stationarity condition
    |u|^{q-1} sgn(u) = lam A u: each sweep applies A^{-1} to the
    current q-gradient and renormalizes on the ellipsoid, so one
    exact solve replaces the many small steps a gradient method
    would need against a stiff quadratic form.
    """
    w = grid.weight

    def q_normalize(v: np.ndarray) -> np.ndarray | None:
        s = np.sqrt(w * float(v @ apply(v)))
        if not np.isfinite(s) or s == 0.0:
            return None
        return v / s

    u = q_normalize(u0)
    if u is None:
        return -np.inf, u0, False
    val = mesh.norm_lq(grid, u, q)
    stall = 0
    for _ in range(max_iter):
        grad = np.abs(u)**(q - 1.0) * np.sign(u)
        u_new = q_normalize(solve(grad))
        if u_new is None:
            return val, u, False
        new_val = mesh.norm_lq(grid, u_new, q)
        gain = new_val - val
        u = u_new
        val = max(val, new_val)
        if abs(gain) < ftol * max(1.0, val):
            stall += 1
            if stall >= patience:
                return val, u, True
        else:
            stall = 0
    return val, u, False


def embedding_constant(grid: Grid, q: float, denominator: str, *,
                       seed: int = 0, n_restarts: int = 4,
                       max_iter: int = 2000, patience: int = 20,
                       ftol: float = 1e-11) -> tuple[float, np.ndarray]:
    """Best constant C in ||u||_q <= C * Q(u)^{1/2} and its maximizer.

    Runs the extremal fixed-point sweep from several seeded random
    starts plus the smallest eigenfield of the quadratic form, and
    keeps the best converged run.
    """
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    apply, solve = _quad_form(grid, denominator)
    rng = np.random.default_rng(seed)

    starts = [rng.standard_normal(grid.size) for _ in range(n_restarts)]
    if denominator == "grad":
        starts.append(smallest_eigen(grid, "laplacian")[1])
    elif denominator in ("lap", "H"):
        starts.append(smallest_eigen(grid, "biharmonic")[1])
    else:
        starts.append(np.ones(grid.size))

    best_val, best_u, any_ok = -np.inf, None, False
    for u0 in starts:
        val, u, ok = _extremal_sweep(grid, q, apply, solve, u0,
                                     max_iter, patience, ftol)
        any_ok = any_ok or ok
        if val > best_val:
            best_val, best_u = val, u
    if not any_ok:
        raise ConvergenceFailure(
            f"no extremal sweep for embedding constant (q={q}, "
            f"denominator={denominator}) converged within {max_iter} "
            "sweeps")
    return best_val, best_u


def well_depth(C: float, params: ModelParams) -> tuple[float, float]:
    """Critical scale lambda* and mountain-pass level d from the
    embedding constant of ||u||_{p+1} against the full graph norm."""
    lam_star = C**(-(params.p - 1.0) / (params.p + 1.0))
    depth = (params.p - 1.0) / (2.0 * (params.p + 1.0)) * lam_star**2
    return lam_star, depth


@dataclass(frozen=True)
class VariationalConstants:
    """Spectral and embedding constants of one grid/parameter pairing."""

    lam1_lap: float
    lam1_bih: float
    B1: float
    C: float
    C_a: float
    C_b: float
    B_star: float
    lam_star: float
    depth: float


@lru_cache(maxsize=None)
def compute_constants(grid: Grid, params: ModelParams,
                      seed: int = 0) -> VariationalConstants:
    """All constants the bound chains need, computed once per pairing.

    B1 is the Poincare constant ||u|| <= B1 ||grad u||; C, C_a, C_b
    bound ||u||_{p+1} by the graph, gradient and Laplacian norms; and
    B_star bounds ||u||_{2p} by the Laplacian norm.
    """
    lam1_lap, _ = smallest_eigen(grid, "laplacian")
    lam1_bih, _ = smallest_eigen(grid, "biharmonic")
    q = params.p + 1.0
    C, _ = embedding_constant(grid, q, "H", seed=seed)
    C_a, _ = embedding_constant(grid, q, "grad", seed=seed)
    C_b, _ = embedding_constant(grid, q, "lap", seed=seed)
    B_star, _ = embedding_constant(grid, 2.0 * params.p, "lap", seed=seed)
    lam_star, depth = well_depth(C, params)
    return VariationalConstants(
        lam1_lap=lam1_lap, lam1_bih=lam1_bih, B1=lam1_lap**-0.5,
        C=C, C_a=C_a, C_b=C_b, B_star=B_star,
        lam_star=lam_star, depth=depth)
