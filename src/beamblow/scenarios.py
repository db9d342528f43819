"""Initial-data factories: presets and the arbitrary-energy construction.

The two-mode construction builds data u0 = r1 v1, u1 = r1 v1 + r2 v2
on the first two Dirichlet eigenfields of the (negative) Laplacian,
which are sine modes known in closed form.
The radial amplitude r1 is pushed out until the single-mode energy
chi(r1) drops below the requested level R while the correlation
inner(u0, u1) = r1^2 clears B*R; the second mode then tops the energy
up to R exactly.  Every amplitude search is a geometric walk, then
bisection to adjacent floats, so the construction is bit-for-bit
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _boundary, _walk, thm31_constants
from .errors import ConstructionFailure
from .functionals import ModelParams, potential_J
from .mesh import Grid, inner, norm_l2
from .operators import operators
from .spectra import smallest_eigen

PRESET_NAMES = ("sine_bump", "negative_energy", "high_energy")


@dataclass(frozen=True)
class InitialData:
    """Initial displacement u0 and velocity u1 on the interior nodes."""

    u0: np.ndarray
    u1: np.ndarray


def eigen_pair_basis(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """First two Dirichlet-Laplacian eigenfields at unit weighted L2
    norm, x scaled to the unit interval: sin(pi x) and sin(2 pi x) in
    1d.  In 2d v1 is sin(pi x) sin(pi y) and v2 is the fixed (1,2)
    member sin(pi x) sin(2 pi y) of the degenerate (1,2)/(2,1) pair,
    x along the first (slow) index of the flattened field.  A grid with
    one interior node per axis has no second mode."""
    if grid.n_interior < 2:
        raise ConstructionFailure("the two-mode construction needs at least "
                                  "2 interior nodes per axis, got "
                                  f"{grid.n_interior}")
    ops = operators(grid)
    _, v1 = ops.laplacian_mode((1,) * grid.dim)
    _, v2 = ops.laplacian_mode((1,) * (grid.dim - 1) + (2,))
    return v1, v2


def chi(r1: float, grid: Grid, v1: np.ndarray, params: ModelParams) -> float:
    """Single-mode energy of the pair (r1 v1, r1 v1).

    Equals r1^2/2 (||v1||^2 + ||grad v1||^2 + ||lap v1||^2)
    + beta r1^{2(gamma+1)}/(2(gamma+1)) ||grad v1||^{2(gamma+1)}
    - r1^{p+1}/(p+1) ||v1||_{p+1}^{p+1}, evaluated through the same
    discrete norms as the energy functional so that assembled data
    reproduce the requested level without cancellation error.
    """
    return 0.5 * r1**2 * norm_l2(grid, v1) ** 2 + potential_J(grid, r1 * v1, params)


def construct_energy_level(grid: Grid, params: ModelParams, R: float,
                           B: float) -> InitialData:
    """Blow-up data with E(0) = R exactly and inner(u0, u1) > B*R.

    Doubles r1 from 1 until chi(r1) < R and r1^2 > B*R both hold, then
    bisects inside the final power-of-two bracket down to adjacent
    floats, keeping the admissible end.  The second-mode amplitude r2
    solves the quadratic that lands the assembled energy on R.
    """
    if B <= 0.0:
        raise ConstructionFailure("energy weight B must be positive")
    v1, v2 = eigen_pair_basis(grid)
    l2_v1_sq = norm_l2(grid, v1) ** 2
    l2_v2_sq = norm_l2(grid, v2) ** 2
    cross = inner(grid, v1, v2)

    def admissible(r1: float) -> bool:
        return chi(r1, grid, v1, params) < R and r1 * r1 * l2_v1_sq > B * R

    hi, found = _walk(admissible, 1.0, 2.0, 61)
    if not found:
        raise ConstructionFailure(
            f"no admissible amplitude below 2^60 for R = {R}")
    r1 = _boundary(admissible, hi, 0.5 * hi)

    u0 = r1 * v1
    J0 = potential_J(grid, u0, params)
    # E(0) = ||r1 v1 + r2 v2||^2 / 2 + J(u0) = R, solved for r2 > 0
    b_lin = 2.0 * r1 * cross
    c_const = r1**2 * l2_v1_sq - 2.0 * (R - J0)
    disc = b_lin**2 - 4.0 * l2_v2_sq * c_const
    if disc <= 0.0:
        raise ConstructionFailure("second-mode amplitude has no real solution")
    r2 = (-b_lin + np.sqrt(disc)) / (2.0 * l2_v2_sq)
    return InitialData(u0=u0, u1=r1 * v1 + r2 * v2)


def _negative_energy_amplitude(grid: Grid, params: ModelParams,
                               phi: np.ndarray) -> float:
    """Amplitude at which the potential energy of a*phi crosses zero."""

    def J_of(a: float) -> float:
        return potential_J(grid, a * phi, params)

    hi, found = _walk(lambda a: J_of(a) < 0.0, 1.0, 2.0, 80)
    if not found:
        raise ConstructionFailure("potential energy never turns negative")
    lo, found = _walk(lambda a: J_of(a) > 0.0, 1.0, 0.5, 80)
    if not found:
        raise ConstructionFailure("potential energy has no positive branch")
    return _boundary(lambda a: J_of(a) < 0.0, hi, lo)


def growth_weight(grid: Grid, params: ModelParams) -> float:
    """The energy weight B of the concavity chain, with the first
    Dirichlet-Laplacian eigenvalue giving B1 = lambda_1^{-1/2}."""
    lam1_lap, _ = smallest_eigen(grid, "laplacian")
    chain = thm31_constants(params, lam1_lap**-0.5)
    if not chain.feasible:
        raise ConstructionFailure("growth chain infeasible; "
                                  "cannot pick the energy weight B")
    return chain.B


def preset(name: str, grid: Grid, params: ModelParams,
           amplitude: float = 1.0, *, energy_R: float = 1.0) -> InitialData:
    """Named initial-data families.

    ``sine_bump``: amplitude times the first clamped-plate eigenfield,
    zero velocity.  ``negative_energy``: the same eigenfield scaled
    1.25x past its zero-potential amplitude (times ``amplitude``), so
    E(0) < 0 strictly.  ``high_energy``: two-mode construction at
    energy level ``energy_R`` with the growth weight B of the
    concavity chain.
    """
    if name not in PRESET_NAMES:
        raise ConstructionFailure(f"unknown preset {name!r}; "
                                  f"expected one of {PRESET_NAMES}")
    if name == "high_energy":
        return construct_energy_level(grid, params, energy_R,
                                      growth_weight(grid, params))

    _, phi = smallest_eigen(grid, "biharmonic")
    if name == "sine_bump":
        u0 = amplitude * phi
        return InitialData(u0=u0, u1=np.zeros_like(u0))

    root = _negative_energy_amplitude(grid, params, phi)
    a = 1.25 * root * amplitude
    u0 = a * phi
    if potential_J(grid, u0, params) >= 0.0:
        raise ConstructionFailure(
            f"amplitude {a} leaves E(0) >= 0; increase the amplitude factor")
    return InitialData(u0=u0, u1=np.zeros_like(u0))
