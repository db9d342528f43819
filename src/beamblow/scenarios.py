"""Initial-data factories: presets and the arbitrary-energy construction.

The two-mode construction builds data u0 = r1 v1, u1 = r1 v1 + r2 v2
on the first two Dirichlet eigenfields of the (negative) Laplacian,
which are sine modes known in closed form.
The radial amplitude r1 is pushed out until the single-mode energy
E(r1 v1, r1 v1) drops below the requested level R while the correlation
inner(u0, u1) = r1^2 clears B*R; the second mode then tops the energy
up to R.  Every amplitude search here (a geometric walk, then bisection
to adjacent floats) runs on ``functionals.ray_energy``, the energy
along a ray in closed form; the fields only confirm the result, and in
the construction r2 and J(u0) come from the fields, so E(0) lands on R
to the rounding of the field energy.  Near its crossing, the
single-mode energy on the fields is rounding noise about 1e-12 relative
wide: regula falsi (Illinois) on the fields was tried and stopped 50 to
4000 ulps from the closed-form crossing after 13 to 24 field
evaluations, where the confirmation takes 1 to 6.  Every search is
deterministic, so the data are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _boundary, _walk, thm31_constants
from .errors import ConstructionFailure
from .functionals import ModelParams, potential_J, ray_energy
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


def construct_energy_level(grid: Grid, params: ModelParams, R: float,
                           B: float) -> InitialData:
    """Blow-up data with E(0) = R, to the rounding of the field energy,
    and inner(u0, u1) > B*R.

    r1 is the first admissible amplitude, E(r1 v1, r1 v1) < R and
    r1^2 ||v1||^2 > B*R, of a doubling walk from 1 and a bisection of
    its last power-of-two bracket down to adjacent floats.  The search
    runs on ``ray_energy(grid, v1, params, ||v1||^2)``, the single-mode
    energy in closed form from the parts of v1, taken once from the
    field.
    The fields then confirm r1: u0 = r1 v1 must pass both tests, and
    with the second-mode amplitude r2, which solves the quadratic that
    lands the field energy on R, inner(u0, u1) must exceed B*R, which
    the rounding of r1 r2 inner(v1, v2) breaks at large R.  Until they
    pass, r1 moves outward by a relative step that doubles from 2^-44;
    past 2^-20 the construction fails.
    """
    if B <= 0.0:
        raise ConstructionFailure("energy weight B must be positive")
    v1, v2 = eigen_pair_basis(grid)
    l2_v1_sq = norm_l2(grid, v1) ** 2
    l2_v2_sq = norm_l2(grid, v2) ** 2
    cross = inner(grid, v1, v2)
    single_mode = ray_energy(grid, v1, params, l2_v1_sq)

    def admissible(r1: float) -> bool:
        return single_mode(r1) < R and r1 * r1 * l2_v1_sq > B * R

    hi, found = _walk(admissible, 1.0, 2.0, 61)
    if not found:
        raise ConstructionFailure(
            f"no admissible amplitude below 2^60 for R = {R}")
    r1 = _boundary(admissible, hi, 0.5 * hi)

    def confirmed(r1: float) -> InitialData | None:
        """The data at r1, or None when the fields miss a test; the
        test that costs nothing first."""
        if not r1 * r1 * l2_v1_sq > B * R:
            return None
        u0 = r1 * v1
        J0 = potential_J(grid, u0, params)
        if not 0.5 * r1**2 * l2_v1_sq + J0 < R:  # E(u0, u0), sharing J0
            return None
        # E(0) = ||r1 v1 + r2 v2||^2 / 2 + J(u0) = R, solved for r2 > 0
        b_lin = 2.0 * r1 * cross
        c_const = r1**2 * l2_v1_sq - 2.0 * (R - J0)
        disc = b_lin**2 - 4.0 * l2_v2_sq * c_const
        if not disc > 0.0:
            return None
        r2 = (-b_lin + np.sqrt(disc)) / (2.0 * l2_v2_sq)
        u1 = r1 * v1 + r2 * v2
        if not inner(grid, u0, u1) > B * R:
            return None
        return InitialData(u0=u0, u1=u1)

    step = 2.0**-44
    while step <= 2.0**-20:
        data = confirmed(r1)
        if data is not None:
            return data
        r1 *= 1.0 + step
        step *= 2.0
    raise ConstructionFailure(
        f"the fields at r1 = {r1} still miss E(u0, u0) < R or "
        f"inner(u0, u1) > B*R for R = {R}")


def _negative_energy_amplitude(grid: Grid, params: ModelParams,
                               phi: np.ndarray) -> float:
    """Amplitude at which the potential energy of a*phi crosses zero,
    searched on J(a phi) in closed form."""
    J_of = ray_energy(grid, phi, params)
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
