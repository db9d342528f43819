"""Spectral quantities and sharp discrete embedding constants.

Everything downstream of the well-depth and blow-up chains consumes
constants computed here, always for the discrete operators actually
used by the time stepper, so every inequality the bound chains rely on
holds exactly for the semi-discrete flow:

  * smallest eigenpairs of the Dirichlet Laplacian (the first sine
    mode, in closed form) and of the clamped plate operator (inverse
    iteration with the exact solve of the plate form, stopped on its
    residual);
  * best-of-ascent estimates, from below, of the constants of the
    discrete embeddings ||u||_q <= C * Q(u)^{1/2} for the quadratic
    forms Q built from the gradient, the Laplacian, or their sum
    (extremal fixed-point sweeps from the eigenfield and then from
    seeded random starts, each stopped, like the inverse iteration, at
    its first sweep that does not improve on the best one, and a random
    start also as soon as it comes within _BASIN_RTOL of a maximizer an
    earlier start converged to);
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
# the stop at the first sweep gaining less than _SWEEP_FTOL*max(1, value),
# and the stop within _BASIN_RTOL (relative, up to sign) of a known maximizer
_SWEEP_RESTARTS, _SWEEP_MAX_ITER = 4, 2000
_SWEEP_FTOL = 1e-11
_BASIN_RTOL = 1e-2


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
            f"in {_EIGEN_MAX_OUTER} sweeps (relative residual "
            f"{best_res / lam:.3e})")

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
    form; the plate pair comes from inverse iteration, is kept on the
    grid's operator object and is handed out as a copy.
    """
    ops = operators(grid)
    if operator == "laplacian":
        return ops.laplacian_mode((1,) * grid.dim)
    if operator != "biharmonic":
        raise ValueError(f"unknown operator {operator!r}, "
                         f"expected one of {_OPERATORS}")
    if ops.plate_eigenpair is None:
        ops.plate_eigenpair = _plate_inverse_iteration(grid)
    lam, x = ops.plate_eigenpair
    return lam, x.copy()


def _extremal_sweep(grid: Grid, q: float, apply, solve, u0: np.ndarray,
                    known=()) -> tuple[float, np.ndarray, bool]:
    """Maximize ||u||_q on the ellipsoid Q(u) = weight * u^T A u = 1.

    Fixed-point sweeps on the stationarity condition
    |u|^{q-1} sgn(u) = lam A u: each sweep applies A^{-1} to the
    current q-gradient g and renormalizes on the ellipsoid, so one
    exact solve replaces the many small steps a gradient method
    would need against a stiff quadratic form.  The normalization
    comes from the solve itself, Q(A^{-1} g) = weight * (A^{-1} g)^T g,
    so a sweep makes no product with A, and one power a = |u|^{q-1}
    per sweep gives both the value, from the sum of a |u|, and the next
    gradient copysign(a, u).  One product normalizes the start, and one
    puts the returned field on the ellipsoid of the product: the 2d
    solves invert the form's exact symbols, the product its stencil as
    rounded, and on smooth fields the two ellipsoids lie up to about
    eps * cond(A) apart (5.7e-11 at N = 64).

    Each sweep raises the value until the ascent has converged; after
    that the value only jitters by rounding that grows like cond(A).
    So, like the plate iteration, the sweep stops at the first sweep
    that gains less than _SWEEP_FTOL * max(1, value), which is an
    absolute tolerance for values below 1, and returns the best value
    with the field that reaches it.  It also stops after any sweep that
    leaves its field within _BASIN_RTOL of a maximizer b in ``known``,
    min(||u - b||, ||u + b||) < _BASIN_RTOL * ||b||: the ascent has
    joined that maximizer's basin and would only find it again.

    Returns the value, the field, and whether the sweep converged; a
    sweep that joined a known basin, ran out of budget or left the
    ellipsoid did not.
    """
    w = grid.weight
    basins = [(b, _BASIN_RTOL * np.linalg.norm(b)) for b in known]

    def on_ellipsoid(v: np.ndarray, quad: float):
        """v scaled to the ellipsoid, given quad = v^T A v, with the
        power |v|^{q-1} and the value ||v||_q there; None if quad is
        not a positive number."""
        s = np.sqrt(w * quad)
        if not np.isfinite(s) or s == 0.0:
            return None
        v = v / s
        a = np.abs(v)**(q - 1.0)
        return v, a, float((w * (a @ np.abs(v)))**(1.0 / q))

    start = on_ellipsoid(u0, float(u0 @ apply(u0)))
    if start is None:
        return -np.inf, u0, False
    u, a, val = start
    converged = False
    for _ in range(_SWEEP_MAX_ITER):
        g = np.copysign(a, u)
        y = solve(g)
        new = on_ellipsoid(y, float(y @ g))
        if new is None:
            break
        gain = new[2] - val
        if gain > 0.0:
            u, a, val = new
        if not gain >= _SWEEP_FTOL * max(1.0, val):
            converged = True
            break
        if any(min(np.linalg.norm(u - b), np.linalg.norm(u + b)) < tol
               for b, tol in basins):
            break
    u, _, val = on_ellipsoid(u, float(u @ apply(u)))
    return val, u, converged


def embedding_constant(grid: Grid, q: float, denominator: str, *,
                       seed: int = 0) -> tuple[float, np.ndarray]:
    """Best-of-ascent estimate C in ||u||_q <= C * Q(u)^{1/2} and its
    maximizer.

    Runs the extremal fixed-point sweep from the smallest eigenfield of
    the quadratic form and then from several seeded random starts, and
    keeps the best value over all runs.  Each converged field joins the
    known maximizers, and a later random start stops once it enters the
    basin of one of them (``_extremal_sweep``); a start that heads for
    another maximizer runs on to its own convergence.  Every run's
    value, converged or not, is reached by its field on the ellipsoid,
    so it is a lower estimate of the best constant and competes.  The
    result is the best local maximum found, not a bound from above.
    Raises ConvergenceFailure only when no run converged.  Results are
    kept on the grid's operator object by (q, denominator, seed).
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

    starts = [smallest_eigen(
        grid, "laplacian" if denominator == "grad" else "biharmonic")[1]]
    starts += [rng.standard_normal(grid.size) for _ in range(_SWEEP_RESTARTS)]

    best_val, best_u, maximizers = -np.inf, None, []
    for u0 in starts:
        val, u, converged = _extremal_sweep(grid, q, apply, solve, u0,
                                            maximizers)
        if converged:
            maximizers.append(u)
        if val > best_val:
            best_val, best_u = val, u
    if not maximizers:
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
    """All constants the bound chains need, built from the plate
    eigenpair and embedding constants kept on the grid's operator object.

    B1 is the Poincare constant ||u|| <= B1 ||grad u||; C, C_a, C_b
    bound ||u||_{p+1} by the graph, gradient and Laplacian norms; and
    B_star bounds ||u||_{2p} by the Laplacian norm.  ``seed`` seeds the
    random starts of the embedding sweeps.
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
