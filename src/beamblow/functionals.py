"""Energy functionals for the damped extensible beam model.

The model couples a clamped plate operator with an extensible-beam
nonlinearity M(s) = 1 + beta * s^gamma acting on the Laplacian, strong
damping, a power velocity damping of exponent r, and a focusing source
of exponent p.  Throughout, G = ||grad u||^2, Bq = ||lap u||^2 and
F = ||u||_{p+1}^{p+1}; the functionals of interest are

    J(u) = G/2 + Bq/2 + beta/(2(gamma+1)) G^{gamma+1} - F/(p+1)
    I(u) = G + Bq + beta G^{gamma+1} - F
    E(u, v) = ||v||^2 / 2 + J(u)

and the exact dissipation identity E'(t) = -||v||_{r+1}^{r+1}
- ||grad v||^2, which holds for the spatial discretization because all
norms are the quadratic forms of the operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh
from .mesh import Grid
from .operators import GridOperators, operators

# the relative band around I = 0 (and, for `lemma21_verdict`, around
# lambda* and the well depth) inside which no side is asserted
NEHARI_BAND = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Exponents and coefficients of the model.

    The admissible regime for the blow-up theory is 1 <= r < p and
    1 < 2*gamma + 1 < p with beta >= 0.  The dataclass allows gamma = 0
    (pure linear stiffness) so that individual functionals stay usable
    outside the full regime; the run-configuration layer enforces the
    strict regime for end-to-end runs.
    """

    p: float
    r: float
    gamma: float
    beta: float
    dim: int = 1

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not (1 <= self.r < self.p):
            raise ValueError(f"need 1 <= r < p, got r={self.r}, p={self.p}")
        if not self.beta >= 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not 2 * self.gamma + 1 < self.p:
            raise ValueError(
                f"need 2*gamma + 1 < p, got gamma={self.gamma}, p={self.p}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")

    @property
    def blowup_exponent(self) -> float:
        """Exponent k of the blow-up law |u| ~ (T* - t)^(-k): the
        inertial rate 2/(p-1) or the damping rate r/(p-r), whichever
        is larger."""
        return max(2.0 / (self.p - 1.0), self.r / (self.p - self.r))


def kirchhoff(params: ModelParams, s: float) -> float:
    """Stiffness coefficient M(s) = 1 + beta * s^gamma for s >= 0
    (1 + beta at gamma = 0, where 0.0**0.0 == 1.0)."""
    if s < 0:
        raise ValueError(f"stiffness argument must be nonnegative, got {s}")
    return 1.0 + params.beta * s**params.gamma


def _power(x: float, y: float) -> float:
    """x**y for x >= 0, inf where it overflows: a Python float power
    raises OverflowError there, and the diagnostics of a large finite
    field must come out non-finite instead of raising."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _parts(grid: Grid, u: np.ndarray,
           params: ModelParams) -> tuple[float, float, float]:
    """G = ||grad u||^2, Bq = ||lap u||^2 and F = ||u||_{p+1}^{p+1},
    after checking u once (ValueError if it is mis-shaped or not
    finite)."""
    u = mesh.check_field(grid, u)
    ops = operators(grid)
    return (mesh.grad_form(ops, u), mesh.lap_form(ops, u),
            _power(mesh.norm_lq(grid, u, params.p + 1), params.p + 1))


def potential_J(grid: Grid, u: np.ndarray, params: ModelParams) -> float:
    return potential_from_parts(*_parts(grid, u, params), params)


def potential_from_parts(G: float, Bq: float, F: float,
                         params: ModelParams) -> float:
    return (0.5 * (G + Bq)
            + params.beta / (2.0 * (params.gamma + 1.0))
            * _power(G, params.gamma + 1.0)
            - F / (params.p + 1.0))


def ray_energy(grid: Grid, u: np.ndarray, params: ModelParams,
               m: float = 0.0):
    """s -> E(s u, s w), ||w||^2 = m, from the parts of u (checked once):
    s^2/2 (m + G + Bq) + beta/(2(gamma+1)) (s^2 G)^(gamma+1)
    - s^(p+1) F/(p+1), inf where a power overflows.  At m = 0 it is
    s -> J(s u), for searches along a ray that never touch the field."""
    G, Bq, F = _parts(grid, u, params)
    p1, g1 = params.p + 1.0, params.gamma + 1.0
    stiff = params.beta / (2.0 * g1)

    def energy(s: float) -> float:
        s_sq = s * s
        return (0.5 * s_sq * (m + G + Bq) + stiff * _power(s_sq * G, g1)
                - _power(s, p1) * F / p1)
    return energy


def nehari_from_parts(G: float, Bq: float, F: float,
                      params: ModelParams) -> float:
    return G + Bq + params.beta * _power(G, params.gamma + 1.0) - F


@dataclass(frozen=True)
class FunctionalSnapshot:
    """All scalar diagnostics of a state (u, v) at one instant;
    ``dissipation_rate`` is the energy loss -E'(t) >= 0."""

    E: float
    J: float
    I: float
    l2_u: float
    lp1_u: float
    linf_u: float
    l2_v: float
    grad_u_sq: float
    lap_u_sq: float
    dissipation_rate: float


def snapshot(grid: Grid, u: np.ndarray, v: np.ndarray,
             params: ModelParams) -> FunctionalSnapshot:
    """Every diagnostic of (u, v).  Both fields are checked once, on
    entry (ValueError if either is mis-shaped or not finite); the
    kernels after that run unchecked."""
    return diagnostics(operators(grid), mesh.check_field(grid, u),
                       mesh.check_field(grid, v), params)


def diagnostics(ops: GridOperators, u: np.ndarray, v: np.ndarray,
                params: ModelParams) -> FunctionalSnapshot:
    """``snapshot`` on the grid of ``ops`` without checking u and v,
    for code that already knows both are sound, such as the time
    stepper, whose states are finite by construction."""
    grid = ops.grid
    G = mesh.grad_form(ops, u)
    Bq = mesh.lap_form(ops, u)
    lp1 = mesh.norm_lq(grid, u, params.p + 1)
    F = _power(lp1, params.p + 1)
    J = potential_from_parts(G, Bq, F, params)
    l2_v = mesh.norm_l2(grid, v)
    return FunctionalSnapshot(
        E=0.5 * _power(l2_v, 2) + J,
        J=J,
        I=nehari_from_parts(G, Bq, F, params),
        l2_u=mesh.norm_l2(grid, u),
        lp1_u=lp1,
        linf_u=mesh.max_norm(u),
        l2_v=l2_v,
        grad_u_sq=G,
        lap_u_sq=Bq,
        dissipation_rate=(_power(mesh.norm_lq(grid, v, params.r + 1),
                                 params.r + 1) + mesh.grad_form(ops, v)),
    )


def classify(grid: Grid, u: np.ndarray, params: ModelParams,
             depth: float) -> str:
    """Place a displacement field relative to the potential well.

    Returns one of ``stable_W`` (J < d and I > 0), ``unstable_V``
    (J < d and I < 0), ``near_nehari`` (I within ``NEHARI_BAND`` of
    zero, relative to the field's scale, while J < d) or
    ``indeterminate`` (J >= d, where the sign of I carries no stability
    information, or J not a number, as for a field whose norms
    overflow).
    """
    G, Bq, F = _parts(grid, u, params)
    J = potential_from_parts(G, Bq, F, params)
    I = nehari_from_parts(G, Bq, F, params)
    scale = G + Bq + F
    if not J < depth:
        return "indeterminate"
    if abs(I) <= NEHARI_BAND * max(scale, 1.0):
        return "near_nehari"
    return "stable_W" if I > 0 else "unstable_V"


def lemma21_verdict(H_norm: float, I_val: float, J_val: float,
                    lam_star: float, depth: float, scale: float) -> str:
    """Consistency verdict for the potential-well dichotomy.

    For states with J <= d the dichotomy is an equivalence: I < 0
    exactly when the graph norm exceeds lambda*.  Both failure modes
    (small norm with negative I, large norm with positive I) are
    therefore violations.  Comparisons within ``NEHARI_BAND``, relative,
    of the dividing values are reported as ``near_boundary`` rather than
    asserted either way.

    Returns ``outside_well``, ``near_boundary``, ``violation``,
    ``consistent_interior`` (H below lambda*, I positive) or
    ``consistent_exterior`` (I negative, H above lambda*).
    """
    tol_I = NEHARI_BAND * max(scale, 1.0)
    if J_val > depth + NEHARI_BAND * max(abs(depth), 1.0):
        return "outside_well"
    small_H = H_norm <= lam_star * (1.0 - NEHARI_BAND)
    large_H = H_norm >= lam_star * (1.0 + NEHARI_BAND)
    neg_I = I_val < -tol_I
    pos_I = I_val > tol_I
    if small_H and neg_I:
        return "violation"
    if large_H and pos_I:
        return "violation"
    if small_H and pos_I:
        return "consistent_interior"
    if neg_I and large_H:
        return "consistent_exterior"
    return "near_boundary"
