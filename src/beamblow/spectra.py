"""Spectral quantities and sharp discrete embedding constants.

Everything downstream of the well-depth and blow-up chains consumes
constants computed here, always for the discrete operators actually
used by the time stepper, so every inequality the bound chains rely on
holds exactly for the semi-discrete flow:

  * smallest eigenpairs of the Dirichlet Laplacian (the first sine
    mode, in closed form) and of the clamped plate operator (inverse
    iteration with the exact banded solve of the plate, stopped on its
    residual);
  * best constants of the discrete embeddings ||u||_q <= C * Q(u)^{1/2}
    for the quadratic forms Q built from the gradient, the Laplacian,
    or their sum (extremal fixed-point sweeps with seeded restarts);
  * the mountain-pass level d of the potential well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh
from .errors import ConvergenceFailure
from .functionals import ModelParams
from .mesh import Grid
from .operators import operators

_OPERATORS = ("laplacian", "biharmonic")

# inverse iteration: sweep budget
_EIGEN_MAX_OUTER = 500
# extremal sweeps: random starts besides the eigenfield, sweep budget,
# and the stop after _SWEEP_PATIENCE sweeps gaining less than _SWEEP_FTOL
_SWEEP_RESTARTS, _SWEEP_MAX_ITER = 4, 2000
_SWEEP_PATIENCE, _SWEEP_FTOL = 20, 1e-11


def _plate_inverse_iteration(grid: Grid) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of B by inverse iteration with the exact solve
    of the plate form.  The residual ||Bx - lam x|| (||x|| = 1) then
    contracts by about lam1/lam2 per sweep until it reaches rounding, so
    the iteration stops at the first sweep whose residual is not below
    half the best one so far and returns the best iterate."""
    apply, solve = operators(grid).form("lap")
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(grid.size)
    best_res, lam, best_x = np.inf, 0.0, x
    for _ in range(_EIGEN_MAX_OUTER):
        y = solve(x)
        x = y / np.linalg.norm(y)
        Bx = apply(x)
        lam_x = float(x @ Bx)
        res = float(np.linalg.norm(Bx - lam_x * x))
        if not res < 0.5 * best_res:
            break
        best_res, lam, best_x = res, lam_x, x
    else:
        raise ConvergenceFailure(
            f"inverse iteration for biharmonic eigenpair did not settle "
            f"in {_EIGEN_MAX_OUTER} sweeps", residual=best_res / lam)

    x = best_x
    i = int(np.argmax(np.abs(x)))
    if x[i] < 0:
        x = -x
    return lam, x / mesh.norm_l2(grid, x)


def smallest_eigen(grid: Grid,
                   operator: str = "biharmonic") -> tuple[float, np.ndarray]:
    """Smallest eigenpair of the (positive) operator -L or B.

    The returned field has unit weighted L2 norm and its largest entry
    positive.  For the Laplacian it is the first sine mode in closed
    form; the plate pair comes from inverse iteration.  Pairs are kept
    on the grid's operator object and handed out as copies.
    """
    pairs = operators(grid).eigenpairs
    if operator not in pairs:
        if operator == "laplacian":
            pairs[operator] = operators(grid).laplacian_mode((1,) * grid.dim)
        elif operator == "biharmonic":
            pairs[operator] = _plate_inverse_iteration(grid)
        else:
            raise ValueError(f"unknown operator {operator!r}, "
                             f"expected one of {_OPERATORS}")
    lam, x = pairs[operator]
    return lam, x.copy()


def _extremal_sweep(grid: Grid, q: float, apply, solve,
                    u0: np.ndarray) -> tuple[float, np.ndarray, bool]:
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
    for _ in range(_SWEEP_MAX_ITER):
        grad = np.abs(u)**(q - 1.0) * np.sign(u)
        u_new = q_normalize(solve(grad))
        if u_new is None:
            return val, u, False
        new_val = mesh.norm_lq(grid, u_new, q)
        gain = new_val - val
        u = u_new
        val = max(val, new_val)
        if abs(gain) < _SWEEP_FTOL * max(1.0, val):
            stall += 1
            if stall >= _SWEEP_PATIENCE:
                return val, u, True
        else:
            stall = 0
    return val, u, False


def embedding_constant(grid: Grid, q: float, denominator: str, *,
                       seed: int = 0) -> tuple[float, np.ndarray]:
    """Best constant C in ||u||_q <= C * Q(u)^{1/2} and its maximizer.

    Runs the extremal fixed-point sweep from several seeded random
    starts plus the smallest eigenfield of the quadratic form, and
    keeps the best converged run.  Results are kept on the grid's
    operator object by (q, denominator, seed).
    """
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    memo = operators(grid).embeddings
    key = (float(q), denominator, seed)
    if key in memo:
        val, u = memo[key]
        return val, u.copy()
    apply, solve = operators(grid).form(denominator)
    rng = np.random.default_rng(seed)

    starts = [rng.standard_normal(grid.size) for _ in range(_SWEEP_RESTARTS)]
    if denominator == "grad":
        starts.append(smallest_eigen(grid, "laplacian")[1])
    elif denominator in ("lap", "H"):
        starts.append(smallest_eigen(grid, "biharmonic")[1])
    else:
        starts.append(np.ones(grid.size))

    best_val, best_u, any_ok = -np.inf, None, False
    for u0 in starts:
        val, u, ok = _extremal_sweep(grid, q, apply, solve, u0)
        any_ok = any_ok or ok
        if val > best_val:
            best_val, best_u = val, u
    if not any_ok:
        raise ConvergenceFailure(
            f"no extremal sweep for embedding constant (q={q}, "
            f"denominator={denominator}) converged within "
            f"{_SWEEP_MAX_ITER} sweeps")
    memo[key] = (best_val, best_u)
    return best_val, best_u.copy()


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


def compute_constants(grid: Grid, params: ModelParams,
                      seed: int = 0) -> VariationalConstants:
    """All constants the bound chains need, computed once per pairing
    and kept on the grid's operator object by (params, seed).

    B1 is the Poincare constant ||u|| <= B1 ||grad u||; C, C_a, C_b
    bound ||u||_{p+1} by the graph, gradient and Laplacian norms; and
    B_star bounds ||u||_{2p} by the Laplacian norm.  ``seed`` seeds the
    random starts of the embedding sweeps.
    """
    memo = operators(grid).constants
    if (params, seed) not in memo:
        lam1_lap, _ = smallest_eigen(grid, "laplacian")
        lam1_bih, _ = smallest_eigen(grid, "biharmonic")
        q = params.p + 1.0
        C, _ = embedding_constant(grid, q, "H", seed=seed)
        C_a, _ = embedding_constant(grid, q, "grad", seed=seed)
        C_b, _ = embedding_constant(grid, q, "lap", seed=seed)
        B_star, _ = embedding_constant(grid, 2.0 * params.p, "lap",
                                       seed=seed)
        lam_star, depth = well_depth(C, params)
        memo[params, seed] = VariationalConstants(
            lam1_lap=lam1_lap, lam1_bih=lam1_bih, B1=lam1_lap**-0.5,
            C=C, C_a=C_a, C_b=C_b, B_star=B_star,
            lam_star=lam_star, depth=depth)
    return memo[params, seed]
