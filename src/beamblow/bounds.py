"""Blow-up certificates: growth laws and two-sided bounds on the blow-up time.

Each chain reads one state (u, u_t) only through the scalars a run's
``Record`` holds, its ``FunctionalSnapshot`` and inner(u, u_t), and
the grid only for its volume.  The concavity chain (`thm31_*`) classifies the data and produces the
exponential growth law for inner(u, u_t) - B*E(t).  Two differential
inequality chains (`thm32_upper`, `thm33_upper`) give upper bounds on
the blow-up time for positive and negative initial energy.  Two
quadrature chains (`thm34_lower`, `thm35_lower`) give lower bounds.
The Theorem 3.4 integral over [F0, inf) is a fixed Gauss-Legendre rule
on uniform panels in ln y, evaluated as numpy arrays, so no adaptive
quadrature (and no scipy.integrate) is needed.

Every abstract constant entering a chain (B1, lambda_1, C, B*, C_a,
C_b) is the discrete grid constant from :mod:`beamblow.spectra`, so
each inequality is evaluated for the semi-discrete system the
integrator actually advances, not for the continuum limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dynamics import BlowupEstimate, Trajectory
from .errors import ConfigError, ConvergenceFailure
from .functionals import FunctionalSnapshot, ModelParams, _power
from .mesh import Grid
from .spectra import VariationalConstants


def _boundary(pred, good: float, bad: float) -> float:
    """The end of the bracket (good, bad), in either order, at which
    ``pred`` holds, after halving the bracket until its ends are
    adjacent floats.

    ``pred`` must hold at ``good`` and fail at ``bad``, both finite.
    With a single changeover between them the result is the last float
    on the passing side."""
    while True:
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            return good
        if pred(mid):
            good = mid
        else:
            bad = mid


def _walk(pred, x: float, factor: float, tries: int) -> tuple[float, bool]:
    """The first of x * factor^k, k < ``tries``, at which ``pred``
    holds, with True; x * factor^tries with False when none does."""
    for _ in range(tries):
        if pred(x):
            return x, True
        x *= factor
    return x, False


def _largest_admissible(pred, hi: float) -> float:
    """Largest x in (0, hi] passing ``pred``: a halving walk down from
    hi to the first passing point, then bisection of (point, hi) to
    adjacent floats.

    Assumes ``pred`` holds near 0 and fails past a single changeover
    point.  Returns 0.0 when the predicate fails even at hi / 2^80
    (infeasible chain).  The returned point itself passes the
    predicate.
    """
    lo, found = _walk(pred, hi, 0.5, 81)
    return _boundary(pred, lo, hi) if found else 0.0


# ---------------------------------------------------------------------------
# concavity chain


@dataclass(frozen=True)
class Thm31Chain:
    """Constants of the exponential-growth certificate.

    The free parameter eps is walked down through nested admissible
    intervals (delta0 >= delta1 >= delta2 >= delta3) and finally fixed
    at eps0 = delta3/2.  A is the growth rate, B the energy weight in
    the growth functional inner(u, u_t) - B*E(t).
    """

    p: float
    r: float
    B1: float
    s: float
    delta0: float
    delta1: float
    delta2: float
    delta3: float
    eps0: float
    A: float
    B: float
    feasible: bool
    note: str = ""

    def theta(self, eps: float) -> float:
        return eps**self.r * (1.0 - self.s) / (self.r + 1.0)

    def g(self, eps: float) -> float:
        return (self.p + 1.0) * (1.0 - self.theta(eps)) - 2.0 - eps

    def h(self, eps: float) -> float:
        return 0.5 * self.g(eps) / self.B1**2 - self.theta(eps)

    def A_of(self, eps: float) -> float:
        hval = self.h(eps)
        if hval <= 0.0:
            return 0.0
        return math.sqrt(2.0 * ((self.p + 1.0) * (1.0 - self.theta(eps)) + 2.0) * hval)

    def B_of(self, eps: float) -> float:
        aval = self.A_of(eps)
        if aval <= 0.0:
            return math.inf
        return (self.p + 1.0) * (1.0 - self.theta(eps)) / aval

    def self_consistent(self) -> bool:
        """Re-verify the defining inequalities at the final eps0."""
        if not self.feasible:
            return False
        ok = self.g(self.eps0) > 0.0 and self.h(self.eps0) > 0.0
        return ok and self.B_of(self.eps0) <= self.r / ((self.r + 1.0) * self.eps0)


def thm31_constants(params: ModelParams, B1: float) -> Thm31Chain:
    """Resolve the admissible eps window and the growth constants A, B.

    delta0 caps eps a priori; delta1 keeps g positive, delta2 keeps h
    positive, delta3 keeps the energy weight B(eps) below
    r/((r+1) eps).  Each restriction is located by bisection on its
    predicate.  eps0 = delta3/2 sits strictly inside every window.
    """
    if B1 <= 0.0:
        raise ValueError("B1 must be positive")
    p, r, gam = params.p, params.r, params.gamma
    s = (p - r) / (p - 1.0)
    one_minus_s = (r - 1.0) / (p - 1.0)

    if one_minus_s == 0.0:
        delta0 = 1.0
    else:
        cap = ((p - 2.0 * gam - 1.0) * (r + 1.0) / ((p + 1.0) * one_minus_s)) ** (1.0 / r)
        delta0 = min(1.0, cap)

    probe = Thm31Chain(p=p, r=r, B1=B1, s=s, delta0=delta0, delta1=0.0,
                       delta2=0.0, delta3=0.0, eps0=0.0, A=0.0,
                       B=math.inf, feasible=False)

    delta1 = _largest_admissible(lambda e: probe.g(e) > 0.0, delta0)
    delta2 = _largest_admissible(lambda e: probe.h(e) > 0.0, delta1) if delta1 > 0 else 0.0
    if delta2 > 0:
        weight_cap = lambda e: probe.B_of(e) <= r / ((r + 1.0) * e)
        delta3 = _largest_admissible(weight_cap, delta2)
    else:
        delta3 = 0.0

    if delta3 <= 0.0:
        return replace(probe, delta1=delta1, delta2=delta2,
                       note="no admissible eps window")

    eps0 = 0.5 * delta3
    chain = replace(probe, delta1=delta1, delta2=delta2, delta3=delta3,
                    eps0=eps0, A=probe.A_of(eps0), B=r / ((r + 1.0) * eps0),
                    feasible=True)
    if not chain.self_consistent():
        return replace(chain, feasible=False,
                       note="post-hoc consistency check failed")
    return chain


def thm31_check(E0: float, inner_uv: float, chain: Thm31Chain) -> str:
    """Classify a state for the growth certificate.

    ``case_i``: negative energy.  ``case_ii``: nonnegative energy
    dominated by the velocity correlation, E0 < inner(u, u_t)/B.
    Anything else is ``not-applicable``.
    """
    if E0 < 0.0:
        return "case_i"
    if not chain.feasible:
        return "not-applicable"
    if E0 < inner_uv / chain.B:
        return "case_ii"
    return "not-applicable"


def growth_series(traj: Trajectory, chain: Thm31Chain) -> np.ndarray:
    """The growth functional F(t) = inner(u, u_t) - B*E(t), which grows
    at least like F(0) e^{At}, along a recorded trajectory."""
    return np.array([rec.inner_uv - chain.B * rec.snap.E for rec in traj.records])


# ---------------------------------------------------------------------------
# upper bound, positive energy


@dataclass(frozen=True)
class Thm32Chain:
    """Constant chain for the positive-energy upper bound."""

    alpha: float = math.nan
    mu: float = math.nan
    M: float = math.nan
    mu0: float = math.nan
    zeta: float = math.nan
    eps: float = math.nan
    C1: float = math.nan
    s0: float = math.nan
    C2: float = math.nan
    mu1: float = math.nan
    mu2: float = math.nan
    L0: float = math.nan
    T_upper: float | None = None
    T_upper_as_printed: float | None = None
    applicable: bool = False
    note: str = ""


def _grad_interpolation_constant(alpha: float, gamma: float) -> float:
    """Best constant C2 with x^{2/(1-a)} <= C2 (x^2 + x^{2(g+1)}) for x >= 0.

    C2 is the supremum of f(x) = x^m / (x^2 + x^{2(g+1)}), m = 2/(1-a).
    Whenever 2 < m < 2(g+1) the ratio vanishes at both ends of (0, inf)
    and its one critical point, x^{2g} = (m-2)/(2(g+1)-m), is the
    maximum, so C2 = f there in closed form, evaluated in logarithms
    (y = log x).  At either degenerate limit the supremum is 1
    (approached at 0 or at infinity).
    """
    m = 2.0 / (1.0 - alpha)
    hi = 2.0 * (gamma + 1.0)
    if m <= 2.0 + 1e-12 or m >= hi - 1e-12:
        return 1.0
    y = math.log((m - 2.0) / (hi - m)) / (2.0 * gamma)
    return math.exp((m - hi) * y - math.log1p(math.exp(-(hi - 2.0) * y)))


def _override(name: str, value: float | None, default: float,
              cap: float) -> float:
    """``value`` (``default`` when None) after checking it lies in (0, cap]."""
    x = default if value is None else float(value)
    if not 0.0 < x <= cap:
        raise ConfigError(f"{name} override must lie in (0, {cap}]")
    return x


def _chain_tail(chain, L0: float, alpha: float, grow: float, split: float):
    """Close an upper-bound chain on L' >= (grow/split) L^{1/(1-alpha)}.

    Both chains end in that inequality: it needs L(0) > 0 and grow > 0,
    and then bounds the blow-up time by (split/grow) L0^{-alpha/(1-alpha)}
    (1-alpha)/alpha; the variant with the prefactor inverted, as the
    source prints it, is reported alongside."""
    if L0 <= 0.0:
        return replace(chain, note="L(0) <= 0")
    if grow <= 0.0:
        return replace(chain, note="vanishing growth coefficient")
    decay = L0 ** (-alpha / (1.0 - alpha)) * (1.0 - alpha) / alpha
    return replace(chain, T_upper=split / grow * decay,
                   T_upper_as_printed=grow / split * decay, applicable=True)


def _c1_constant(alpha: float, p: float, volume: float) -> float:
    q = 2.0 * (1.0 - alpha) - 1.0
    return (q / (2.0 * (1.0 - alpha))) * volume ** ((p - 1.0) / (p + 1.0) / q)


def thm32_upper(grid: Grid, snap: FunctionalSnapshot, inner_uv: float,
                params: ModelParams, consts: VariationalConstants,
                mu: float = 1.0, *, m_safety: float = 2.0,
                alpha_override: float | None = None,
                eps_override: float | None = None) -> Thm32Chain:
    """Upper bound on the blow-up time from a state of positive energy.

    The auxiliary functional L = H^{1-alpha} + eps(inner(u,u_t) +
    ||grad u||^2/2), H = E(0) - E(t), satisfies L' >= (mu1/mu2)
    L^{1/(1-alpha)} once M (the damping absorber) and eps are fixed.
    M is set to ``m_safety`` times the smallest value keeping both
    absorbed coefficients mu0 and zeta positive; eps to half its
    admissible cap (1-alpha)/M.  T_upper integrates that inequality;
    the as-printed variant with the inverted prefactor is reported
    alongside.
    """
    p, r, gam, beta = params.p, params.r, params.gamma, params.beta
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if gam <= 0.0 or beta <= 0.0:
        return Thm32Chain(mu=mu, note="needs gamma > 0 and beta > 0")
    E0 = snap.E
    alpha_cap = min((p - 1.0) / (2.0 * (p + 1.0)), gam / (gam + 1.0))
    if not E0 > 0.0:
        return Thm32Chain(mu=mu, alpha=alpha_cap,
                          note="needs E(0) > 0 (coefficient mu/2 E(0) degenerates)")
    alpha = _override("alpha", alpha_override, alpha_cap, alpha_cap)

    s = (p - r) / (p - 1.0)
    lam1 = consts.lam1_bih
    coef_mu0 = 0.25 * (p + 2.0 * gam - 1.0) * lam1
    kappa = (p - (2.0 * gam + 1.0)) / (2.0 * (p + 1.0))
    base = r**r * E0 ** (alpha * r) / (r + 1.0) ** (r + 1.0)
    m_crit = (base * s / coef_mu0) ** (1.0 / r)
    if s < 1.0:
        m_crit = max(m_crit, (base * (1.0 - s) / kappa) ** (1.0 / r))
    M = m_safety * m_crit
    mu0 = coef_mu0 - base * s / M**r
    zeta = kappa - base * (1.0 - s) / M**r

    eps_cap = (1.0 - alpha) / M
    eps = _override("eps", eps_override, 0.5 * eps_cap, eps_cap)

    mu1 = eps * min(0.25 * (p + 2.0 * gam - 1.0),
                    (p - (2.0 * gam + 1.0)) / (2.0 * (gam + 1.0)) * beta,
                    0.5 * (p + 2.0 * gam + 3.0),
                    zeta,
                    0.5 * mu * E0)

    s0 = 2.0 / (2.0 * (1.0 - alpha) - 1.0)
    C1 = _c1_constant(alpha, p, grid.volume)
    C2 = _grad_interpolation_constant(alpha, gam)
    l = 1.0 / (1.0 - alpha)
    # the unit coefficient of H in the split of L^{1/(1-alpha)} belongs
    # in the max alongside the eps-weighted entries
    mu2 = 2.0 ** (2.0 * alpha / (1.0 - alpha)) * max(
        eps**l / (2.0 * (1.0 - alpha)),
        eps**l * C1 * s0 / (p + 1.0),
        eps**l * C1 * (p + 1.0 - s0) / (p + 1.0),
        (0.5 * eps) ** l * C2,
        1.0)

    L0 = eps * (inner_uv + 0.5 * snap.grad_u_sq)
    norm_condition = snap.l2_u ** 2 >= (p + 2.0 * gam + 3.0 + mu) / (2.0 * mu0) * E0

    chain = Thm32Chain(alpha=alpha, mu=mu, M=M, mu0=mu0, zeta=zeta, eps=eps,
                       C1=C1, s0=s0, C2=C2, mu1=mu1, mu2=mu2, L0=L0)
    if not norm_condition:
        return replace(chain, note="initial mass condition fails")
    return _chain_tail(chain, L0, alpha, mu1, mu2)


# ---------------------------------------------------------------------------
# upper bound, negative energy


@dataclass(frozen=True)
class Thm33Chain:
    """Constant chain for the negative-energy upper bound."""

    alpha: float = math.nan
    H0: float = math.nan
    delta: float = math.nan
    C3: float = math.nan
    eps: float = math.nan
    mu3: float = math.nan
    mu4: float = math.nan
    L0: float = math.nan
    T_upper: float | None = None
    T_upper_as_printed: float | None = None
    applicable: bool = False
    note: str = ""


def thm33_upper(grid: Grid, snap: FunctionalSnapshot, inner_uv: float,
                params: ModelParams, *, alpha_override: float | None = None,
                eps_override: float | None = None) -> Thm33Chain:
    """Upper bound on the blow-up time from a state of negative energy.

    Here H = -E(t) >= H0 > 0 and no mass condition is needed.  delta
    is fixed so the binding positivity margin v1 - C3 delta^r equals
    half its delta -> 0 value; eps takes half the tighter of its two
    caps (the damping-absorption cap and, when inner(u0,u1) +
    ||grad u0||^2/2 < 0, the cap keeping L(0) positive).
    """
    p, r, gam, beta = params.p, params.r, params.gamma, params.beta
    if gam <= 0.0 or beta <= 0.0:
        return Thm33Chain(note="needs gamma > 0 and beta > 0")
    E0 = snap.E
    alpha_cap = min((p - r) / ((p + 1.0) * r),
                    (p - 1.0) / (2.0 * (p + 1.0)),
                    gam / (gam + 1.0))
    if not E0 < 0.0:
        return Thm33Chain(alpha=alpha_cap, note="needs E(0) < 0")
    H0 = -E0
    alpha = _override("alpha", alpha_override, alpha_cap, alpha_cap)

    v1 = (p - (2.0 * gam + 1.0)) / (2.0 * (p + 1.0))
    # conservative measure factor: the printed exponent and the one the
    # Hoelder step actually produces coincide on unit volume; off unit
    # volume take whichever is larger
    e_printed = (p - r - (p + 1.0) * alpha * r) / (p + 1.0)
    e_derived = ((p + 1.0) * alpha * r + r + 1.0) * (p - r) / ((r + 1.0) * (p + 1.0))
    vol_factor = max(grid.volume**e_printed, grid.volume**e_derived)
    C3 = (1.0 + 1.0 / H0) / (r + 1.0) * (p + 1.0) ** (-alpha * r) * vol_factor

    delta = (v1 / (2.0 * C3)) ** (1.0 / r)
    m1 = v1 - C3 * delta**r
    m2 = 0.5 * (p + 2.0 * gam + 3.0) - C3 * delta**r

    correlation = inner_uv + 0.5 * snap.grad_u_sq
    eps_cap = (1.0 - alpha) * (r + 1.0) * delta / r
    if correlation < 0.0:
        eps_cap = min(eps_cap, H0 ** (1.0 - alpha) / (-correlation))
    eps = _override("eps", eps_override, 0.5 * eps_cap, eps_cap)

    mu3 = eps * min(0.25 * (p + 2.0 * gam - 1.0),
                    (p - (2.0 * gam + 1.0)) / (2.0 * (gam + 1.0)) * beta,
                    m1,
                    m2)

    C1 = _c1_constant(alpha, p, grid.volume)
    C2 = _grad_interpolation_constant(alpha, gam)
    l = 1.0 / (1.0 - alpha)
    mu4 = 2.0 ** (2.0 * alpha / (1.0 - alpha)) * max(
        eps**l / (2.0 * (1.0 - alpha)),
        1.0 + eps**l * C1 * (1.0 + 1.0 / H0),
        (0.5 * eps) ** l * C2)

    L0 = H0 ** (1.0 - alpha) + eps * correlation
    chain = Thm33Chain(alpha=alpha, H0=H0, delta=delta, C3=C3, eps=eps,
                       mu3=mu3, mu4=mu4, L0=L0)
    return _chain_tail(chain, L0, alpha, mu3, mu4)


# ---------------------------------------------------------------------------
# lower bounds


@dataclass(frozen=True)
class Thm34Result:
    """Lower bound from the source-dominated growth of F = ||u||_{p+1}^{p+1}."""

    F0: float
    varpi: float
    K1: float
    K2: float
    T_lower_34_truncated: float
    T_lower_34_with_tail: float


@dataclass(frozen=True)
class Thm35Result:
    """Lower bound from the strong-damping smoothing of the quadratic energy."""

    G0: float
    C_eff: float
    T_lower_35: float


@dataclass(frozen=True)
class LowerBounds(Thm35Result, Thm34Result):
    """Merged view of both lower-bound chains: the fields of
    Thm34Result, then those of Thm35Result (dataclasses collect fields
    in reverse method resolution order)."""


# the Theorem 3.4 integral in s = ln y: a 20-node Gauss-Legendre rule on
# each panel.  A panel is ln 2 wide up to p = 5 and 4 ln 2/(p - 1)
# beyond, so that it stays as far, relative to its width, from the
# integrand's poles at Im s = pi/(p - 1).
_GAUSS_X, _GAUSS_W = leggauss(20)
_MAX_PANELS = 1 << 16


def _lower_34_integral(F0: float, K1: float, K2: float, p: float) -> tuple[float, float]:
    """Integrate 1/(K1 + y + K2 y^p) from F0 to infinity.

    In s = ln y the integrand is 1/(K1 e^-s + 1 + K2 e^((p-1)s)), which
    is bounded by 1 and smooth on the scale of a panel.  A fixed
    Gauss-Legendre rule runs over uniform panels (width ln 2, narrower
    for p > 5) from ln F0 until the analytic overestimate of the
    remaining tail, Y^(1-p)/((p-1) K2), drops to 1e-8 of the
    accumulated value.  Returns (truncated, truncated + tail); the
    truncated value is the certified bound.  An exponential that
    overflows only makes its term 0, so data too large for float powers
    give a finite bound (0 once both the integrand and the tail
    underflow).  An infinite F0 or K1 makes the integrand vanish, and
    the integral is 0.
    """
    if F0 <= 0.0 and K1 <= 0.0:
        return math.inf, math.inf
    if math.isinf(F0) or math.isinf(K1):
        return 0.0, 0.0
    # F0 = 0 starts at the smallest normal float: the piece dropped is
    # below tiny / K1
    s0 = math.log(max(F0, np.finfo(float).tiny))
    width = math.log(2.0) * min(1.0, 4.0 / (p - 1.0))
    nodes, weights = 0.5 * width * (_GAUSS_X + 1.0), 0.5 * width * _GAUSS_W
    total = 0.0
    with np.errstate(over="ignore", under="ignore"):
        for k in range(_MAX_PANELS):
            s = s0 + k * width + nodes
            total += weights @ (1.0 / (K1 * np.exp(-s) + 1.0
                                       + K2 * np.exp((p - 1.0) * s)))
            tail = np.exp((1.0 - p) * (s0 + (k + 1) * width)) / ((p - 1.0) * K2)
            if tail <= 1e-8 * total:
                return float(total), float(total + tail)
            if not math.isfinite(total):
                break
    raise ConvergenceFailure("lower-bound quadrature did not reach its tail target")


def thm34_lower(snap: FunctionalSnapshot, params: ModelParams,
                b_star: float) -> Thm34Result:
    """Lower bound via F' <= K1 + F + K2 F^p for F = ||u||_{p+1}^{p+1}.

    varpi is the state's energy; for varpi <= 0 the energy terms in K1
    are dropped entirely (a conservative weakening, since the energy
    inequality only improves).  Zero data with K1 = 0 yields an
    infinite bound: no blow-up can start from rest.
    """
    if b_star <= 0.0:
        raise ValueError("b_star must be positive")
    p = params.p
    F0 = snap.lp1_u ** (p + 1.0)
    varpi = snap.E
    w = max(varpi, 0.0)
    K1 = (p + 1.0) * (w + b_star ** (2.0 * p) * 2.0 ** (p - 2.0) * (2.0 * w) ** p)
    K2 = b_star ** (2.0 * p) * 2.0 ** (2.0 * p - 2.0) * (p + 1.0) ** (-p)
    truncated, with_tail = _lower_34_integral(F0, K1, K2, p)
    return Thm34Result(F0=F0, varpi=varpi, K1=K1, K2=K2,
                       T_lower_34_truncated=truncated,
                       T_lower_34_with_tail=with_tail)


def thm35_lower(snap: FunctionalSnapshot, params: ModelParams,
                embed_ca: float, embed_cb: float) -> Thm35Result:
    """Lower bound via G' <= C_eff (2G)^p / 2^p for the quadratic energy G.

    G collects every quadratic piece of the energy plus the Kirchhoff
    well; the source term is absorbed through ||u_t||_{p+1} ||u||_{p+1}^p
    <= C_a C_b^p ||grad u_t|| ||lap u||^p and one Young split against
    the dissipation, leaving C_eff = (C_a C_b^p)^2 2^{p-2}.
    """
    if embed_ca <= 0.0 or embed_cb <= 0.0:
        raise ValueError("embedding constants must be positive")
    p, gam, beta = params.p, params.gamma, params.beta
    G = snap.grad_u_sq
    G0 = (0.5 * snap.l2_v ** 2 + 0.5 * G + 0.5 * snap.lap_u_sq
          + beta / (2.0 * (gam + 1.0)) * _power(G, gam + 1.0))
    C_eff = (embed_ca * embed_cb**p) ** 2 * 2.0 ** (p - 2.0)
    if G0 == 0.0:
        return Thm35Result(G0=0.0, C_eff=C_eff, T_lower_35=math.inf)
    return Thm35Result(G0=G0, C_eff=C_eff,
                       T_lower_35=G0 ** (1.0 - p) / ((p - 1.0) * C_eff))


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class BoundReport:
    """Everything the certificate machinery can say about one run.

    The field order is the order of ``report_lines``: the four verdicts
    follow ``thm31_verdict``, and a nested chain contributes its fields
    under its own prefix."""

    E0: float
    thm31_verdict: str
    thm31_case_i: bool
    thm31_case_ii: bool
    thm32_applicable: bool
    thm33_applicable: bool
    thm31: Thm31Chain
    thm32: Thm32Chain
    thm33: Thm33Chain
    lowers: LowerBounds = field(metadata={"key": "lower"})
    T_upper: float | None = None
    T_num: float | None = None
    T_num_uncertainty: float | None = None
    blowup_detected: bool = False
    sandwich_ok: bool = True


def full_report(grid: Grid, snap: FunctionalSnapshot, inner_uv: float,
                params: ModelParams, consts: VariationalConstants,
                estimate: BlowupEstimate | None, *, mu: float = 1.0,
                m_safety: float = 2.0, alpha_override: float | None = None,
                eps_override: float | None = None) -> BoundReport:
    """Evaluate every chain from one state and check the bound sandwich.

    A run reports from its first record's ``snap`` and ``inner_uv``.
    ``estimate`` is the run's ``detect_blowup`` result, or None without
    a run.  Chain failures become not-applicable verdicts rather than
    errors.  sandwich_ok is vacuously true when no blow-up was detected;
    otherwise it requires every certified lower bound at or below
    T_num and, when an upper chain applies, T_num at or below T_upper.
    """
    chain31 = thm31_constants(params, consts.B1)
    verdict31 = thm31_check(snap.E, inner_uv, chain31)
    chain32 = thm32_upper(grid, snap, inner_uv, params, consts, mu,
                          m_safety=m_safety, alpha_override=alpha_override,
                          eps_override=eps_override)
    chain33 = thm33_upper(grid, snap, inner_uv, params,
                          alpha_override=alpha_override,
                          eps_override=eps_override)
    lowers = LowerBounds(
        **vars(thm34_lower(snap, params, consts.B_star)),
        **vars(thm35_lower(snap, params, consts.C_a, consts.C_b)))

    thm32_applicable = chain32.applicable and verdict31 == "case_ii"
    uppers = []
    if thm32_applicable:
        uppers.append(chain32.T_upper)
    if chain33.applicable:
        uppers.append(chain33.T_upper)
    T_upper = min(uppers) if uppers else None

    detected = bool(estimate is not None and estimate.detected)
    T_num = estimate.T_num if estimate is not None else None
    uncertainty = estimate.uncertainty if estimate is not None else None

    sandwich_ok = True
    if detected and T_num is not None:
        # phrased so that a NaN bound fails the sandwich
        for low in (lowers.T_lower_34_truncated, lowers.T_lower_35):
            if not low <= T_num:
                sandwich_ok = False
        if T_upper is not None and not T_num <= T_upper:
            sandwich_ok = False

    return BoundReport(E0=snap.E, thm31=chain31, thm32=chain32, thm33=chain33,
                       lowers=lowers, thm31_verdict=verdict31,
                       thm31_case_i=verdict31 == "case_i",
                       thm31_case_ii=verdict31 == "case_ii",
                       thm32_applicable=thm32_applicable,
                       thm33_applicable=chain33.applicable,
                       T_upper=T_upper, T_num=T_num,
                       T_num_uncertainty=uncertainty,
                       blowup_detected=detected, sandwich_ok=sandwich_ok)


def fmt(value) -> str:
    """Canonical scalar formatting for reports, CSV cells and config
    files: integers exactly, other numbers round-trip at 17 digits."""
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, tuple):
        return ", ".join(map(fmt, value))
    return "%.17g" % float(value)


def scalar_items(obj, prefix: str = "") -> list[tuple[str, str]]:
    """Flatten a dataclass into ordered (key, value) string pairs.

    Keys follow the field order.  A nested dataclass contributes its
    own fields under ``<field>.`` (or the field's ``key`` metadata), and
    an empty ``note`` reads ``ok``."""
    items: list[tuple[str, str]] = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        key = prefix + f.metadata.get("key", f.name)
        if is_dataclass(value):
            items += scalar_items(value, key + ".")
        else:
            items.append((key, fmt(value or "ok") if f.name == "note"
                          else fmt(value)))
    return items


def report_lines(report: BoundReport) -> list[str]:
    """Render a BoundReport as `key = value` lines: every field of every
    chain, under ``thm31.``, ``thm32.``, ``thm33.`` and ``lower.``."""
    return [f"{key} = {value}" for key, value in scalar_items(report)]


# columns of sweep tables and the bounds CSV; a ``lower.`` report key
# appears without its prefix
SUMMARY_COLUMNS = (
    "E0", "thm31_verdict", "thm31_case_i", "thm31_case_ii",
    "thm32_applicable", "thm33_applicable", "T_num", "T_upper",
    "T_lower_34_truncated", "T_lower_34_with_tail", "T_lower_35",
    "sandwich_ok")


def summary_row(report: BoundReport) -> dict[str, str]:
    """Compact per-run row for sweep tables and the bounds CSV, keyed
    and ordered by SUMMARY_COLUMNS."""
    items = dict(scalar_items(report))
    return {col: items[col] if col in items else items["lower." + col]
            for col in SUMMARY_COLUMNS}
