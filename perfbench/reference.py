"""An independent discrete model of the clamped extensible beam.

Nothing here imports beamblow.  The operators are built from first
principles on the full node grid, boundary nodes included:

* the gradient form is the sum of squared first differences over every
  edge of the grid (boundary values are zero), so ``-L = Dg^T Dg``;
* the bending form is the trapezoid-weighted sum of the squared
  five-point Laplacian over every node, where the clamped condition
  enters through mirror ghosts (the node one spacing outside equals the
  node one spacing inside), so ``B = D^T W D``.

The program assembles its operators differently (a folded pentadiagonal
stencil and Kronecker sums), so agreement between the two is a check of
the program, not a copy of it.

Run as a script, the module integrates the default 1D blow-up run with
``scipy.integrate.solve_ivp(method="Radau")`` and rewrites the cached
reference time in ``reference_blowup_1d.json``::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_blowup_1d.json"


@dataclass(frozen=True)
class Model:
    p: float
    r: float
    gamma: float
    beta: float


class Grid:
    """Uniform interior grid of (0, extent)^dim with its own operators."""

    def __init__(self, dim: int, n: int, extent: float = 1.0):
        self.dim, self.n, self.extent = dim, n, extent
        self.h = extent / (n + 1)
        self.w = self.h**dim
        self.size = n**dim
        self.Dg = _gradient_operator(dim, n, self.h)
        self.D, self.W = _laplacian_on_all_nodes(dim, n, self.h)
        self.neg_lap = (self.Dg.T @ self.Dg).tocsr()
        self.plate = (self.D.T @ sp.diags(self.W) @ self.D).tocsr()

    def grad_sq(self, u: np.ndarray) -> float:
        g = self.Dg @ u
        return self.w * float(g @ g)

    def lap_sq(self, u: np.ndarray) -> float:
        d = self.D @ u
        return self.w * float(self.W @ (d * d))

    def lq(self, u: np.ndarray, q: float) -> float:
        return (self.w * float(np.sum(np.abs(u)**q)))**(1.0 / q)

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.w * float(u @ v)


def _axis_index(n: int):
    """Map a node coordinate in -1..n+2 to its interior index, or -1 for
    a boundary node (value zero).  Ghosts mirror across the boundary."""
    def index(i: np.ndarray) -> np.ndarray:
        out = np.where((i >= 1) & (i <= n), i - 1, -1)
        out = np.where(i == -1, 0, out)
        return np.where(i == n + 2, n - 1, out)
    return index


def _laplacian_on_all_nodes(dim: int, n: int, h: float):
    """Five-point (three-point in 1D) Laplacian evaluated at every node
    0..n+1 of the full grid, with mirror ghosts; plus trapezoid weights."""
    index = _axis_index(n)
    nodes = np.arange(n + 2)
    coords = np.meshgrid(*([nodes] * dim), indexing="ij")
    coords = [c.ravel() for c in coords]
    n_rows = coords[0].size
    rows, cols, vals = [], [], []

    def add(shift_axis: int, shift: int, coef: float):
        idx = []
        ok = np.ones(n_rows, dtype=bool)
        for a in range(dim):
            c = coords[a] + (shift if a == shift_axis else 0)
            ia = index(c)
            ok &= ia >= 0
            idx.append(ia)
        flat = np.zeros(n_rows, dtype=int)
        for a in range(dim):
            flat = flat * n + idx[a]
        rows.append(np.nonzero(ok)[0])
        cols.append(flat[ok])
        vals.append(np.full(int(ok.sum()), coef / h**2))

    for a in range(dim):
        add(a, -1, 1.0)
        add(a, 0, -2.0)
        add(a, 1, 1.0)
    D = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_rows, n**dim))
    w1 = np.ones(n + 2)
    w1[[0, -1]] = 0.5
    W = w1
    for _ in range(dim - 1):
        W = np.outer(W, w1).ravel()
    return D, W


def _gradient_operator(dim: int, n: int, h: float) -> sp.csr_matrix:
    """First differences over every grid edge (boundary values zero)."""
    e = np.ones(n + 1)
    d1 = sp.diags([-e, e], [0, 1], shape=(n + 1, n + 1)).tocsr()[:, 1:] / h
    if dim == 1:
        return d1.tocsr()
    eye = sp.identity(n)
    return sp.vstack([sp.kron(d1, eye), sp.kron(eye, d1)]).tocsr()


# functionals ---------------------------------------------------------------

def potential(g: Grid, u: np.ndarray, m: Model) -> float:
    G = g.grad_sq(u)
    return (0.5 * (G + g.lap_sq(u))
            + m.beta / (2.0 * (m.gamma + 1.0)) * G**(m.gamma + 1.0)
            - g.lq(u, m.p + 1.0)**(m.p + 1.0) / (m.p + 1.0))


def energy(g: Grid, u: np.ndarray, v: np.ndarray, m: Model) -> float:
    return 0.5 * g.inner(v, v) + potential(g, u, m)


def energy_scale(g: Grid, u: np.ndarray, v: np.ndarray, m: Model) -> float:
    """Sum of the magnitudes of the energy's terms: the size against
    which rounding in E is judged."""
    G = g.grad_sq(u)
    return (0.5 * g.inner(v, v) + 0.5 * (G + g.lap_sq(u))
            + m.beta * G**(m.gamma + 1.0)
            + g.lq(u, m.p + 1.0)**(m.p + 1.0))


def dissipation(g: Grid, v: np.ndarray, m: Model) -> float:
    return g.lq(v, m.r + 1.0)**(m.r + 1.0) + g.grad_sq(v)


# spectra -------------------------------------------------------------------

def lam1_laplacian(g: Grid) -> float:
    """Closed-form smallest eigenvalue of the Dirichlet difference
    Laplacian: dim * (4/h^2) sin^2(pi h / (2 extent))."""
    return g.dim * 4.0 / g.h**2 * math.sin(math.pi * g.h / (2.0 * g.extent))**2


def lam1_plate(g: Grid) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of the clamped plate matrix by shift-invert
    Lanczos; the field has unit weighted L2 norm, largest entry positive."""
    lam, vec = spla.eigsh(g.plate.tocsc(), k=1, sigma=0.0, which="LM")
    x = vec[:, 0]
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return float(lam[0]), x / math.sqrt(g.inner(x, x))


def _sine_modes(g: Grid):
    """Orthonormal eigenvectors (columns) and eigenvalues of the 1D
    Dirichlet difference Laplacian, in closed form."""
    n, h = g.n, g.h
    k = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, k) * np.pi / (n + 1))
    lam = 4.0 / h**2 * np.sin(k * np.pi * h / (2.0 * g.extent))**2
    return S, lam


def max_inverse_diagonal(g: Grid, kind: str) -> float:
    """Rigorous upper bound on max_i (A^{-1})_ii for the quadratic form
    ``kind`` in {"grad", "lap", "H"}.

    With -L = sum of the sine modes, (-L)^{-1} has a closed-form
    diagonal.  The plate satisfies B >= L^2 (B = L^2 plus positive
    boundary terms), so B^{-1} <= L^{-2} in the Loewner order and the
    diagonal of L^{-2} bounds that of B^{-1}; likewise -L + B >= -L + L^2.
    """
    S, lam = _sine_modes(g)
    if g.dim == 1:
        mu = lam
    else:
        mu = np.add.outer(lam, lam)
    f = {"grad": 1.0 / mu, "lap": 1.0 / mu**2, "H": 1.0 / (mu + mu**2)}[kind]
    S2 = S**2
    if g.dim == 1:
        diag = S2 @ f
    else:
        diag = S2 @ f @ S2.T
    return float(diag.max())


def quad_matrix(g: Grid, kind: str) -> sp.csr_matrix:
    return {"grad": g.neg_lap, "lap": g.plate,
            "H": (g.neg_lap + g.plate).tocsr()}[kind]


class Enclosure:
    """Enclosure of the best constant C in ||u||_q <= C Q(u)^{1/2},
    Q(u) = w u^T A u, for the quadratic form ``kind`` and any q >= 2.

    Upper: ||u||_inf^2 <= max_i (A^{-1})_ii Q(u)/w, ||u||_q^q <=
    ||u||_inf^(q-2) ||u||_2^2 and ||u||_2^2 <= Q(u)/lam_min(A) give
    C^q <= (max_i (A^{-1})_ii / w)^((q-2)/2) / lam_min(A).
    Lower: the quotient ||u||_q / Q(u)^{1/2} of two trial fields, the
    smallest eigenfield of A and the discrete Green's function A^{-1} e_c
    at the centre node.
    """

    def __init__(self, g: Grid, kind: str):
        A = quad_matrix(g, kind).tocsc()
        lam, vec = spla.eigsh(A, k=1, sigma=0.0, which="LM")
        centre = np.zeros(g.size)
        centre[g.size // 2] = 1.0
        self.g = g
        self.lam_min = float(lam[0])
        self.max_inv_diag = max_inverse_diagonal(g, kind)
        self.trials = [(u, math.sqrt(g.w * float(u @ (A @ u))))
                       for u in (vec[:, 0], spla.spsolve(A, centre))]

    def bounds(self, q: float) -> tuple[float, float]:
        upper = ((self.max_inv_diag / self.g.w)**((q - 2.0) / 2.0)
                 / self.lam_min)**(1.0 / q)
        lower = max(self.g.lq(u, q) / norm for u, norm in self.trials)
        return lower, upper


# the 1D blow-up reference ---------------------------------------------------

def negative_energy_data(g: Grid, m: Model, factor: float = 1.25) -> np.ndarray:
    """First plate eigenfield scaled ``factor`` times past the amplitude
    at which the potential energy turns negative."""
    _, phi = lam1_plate(g)
    f = lambda a: potential(g, a * phi, m)
    lo = hi = 1.0
    while f(hi) >= 0.0:
        hi *= 2.0
    while f(lo) <= 0.0:
        lo *= 0.5
    root = brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return factor * root * phi


def crossing_times(g: Grid, m: Model, u0: np.ndarray, v0: np.ndarray,
                   thresholds: tuple[float, ...], rtol: float) -> list[float]:
    """Times at which max|u| first reaches each of the increasing
    ``thresholds`` for the method-of-lines system
    u' = v, v' = -B u + M(G) L u + L v - |v|^{r-1} v + |u|^{p-1} u,
    integrated by Radau IIA with an exact dense Jacobian; the run stops
    at the last threshold."""
    n = g.size
    L = -g.neg_lap.toarray()
    B = g.plate.toarray()
    Lsp, Bsp = -g.neg_lap, g.plate

    def rhs(_, y):
        u, v = y[:n], y[n:]
        M = 1.0 + m.beta * g.grad_sq(u)**m.gamma
        acc = (-(Bsp @ u) + M * (Lsp @ u) + Lsp @ v
               - np.abs(v)**(m.r - 1.0) * v + np.abs(u)**(m.p - 1.0) * u)
        return np.concatenate([v, acc])

    def jac(_, y):
        u, v = y[:n], y[n:]
        G = g.grad_sq(u)
        Lu = L @ u
        dG = -2.0 * g.w * Lu
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = np.eye(n)
        J[n:, :n] = (-B + (1.0 + m.beta * G**m.gamma) * L
                     + np.outer(Lu, m.beta * m.gamma * G**(m.gamma - 1.0) * dG)
                     + np.diag(m.p * np.abs(u)**(m.p - 1.0)))
        J[n:, n:] = L - np.diag(m.r * np.abs(v)**(m.r - 1.0))
        return J

    def event(level: float, terminal: bool):
        def hit(_, y):
            return np.max(np.abs(y[:n])) - level
        hit.terminal = terminal
        hit.direction = 1
        return hit

    events = [event(th, th == thresholds[-1]) for th in thresholds]
    sol = solve_ivp(rhs, (0.0, 10.0), np.concatenate([u0, v0]),
                    method="Radau", jac=jac, events=events, rtol=rtol,
                    atol=rtol)
    if sol.status != 1 or not all(len(t) for t in sol.t_events):
        raise RuntimeError(f"reference run did not reach {thresholds[-1]:g}: "
                           f"{sol.message}")
    return [float(t[0]) for t in sol.t_events]


@dataclass(frozen=True)
class BlowupReference:
    """Inputs and result of the cached Radau reference run: the time
    max|u| reaches the workload's ``blow_threshold`` and the time it
    reaches ``blowup_level`` (the program's default blow threshold),
    at two tolerances."""

    N: int
    p: float
    r: float
    gamma: float
    beta: float
    blow_threshold: float
    blowup_level: float
    rtol: float
    T_threshold: float
    T_blowup: float
    rtol_tight: float
    T_threshold_tight: float
    T_blowup_tight: float
    seconds: float


def load_reference() -> BlowupReference:
    return BlowupReference(**json.loads(REFERENCE_FILE.read_text()))


def make_reference(N: int, m: Model, threshold: float, blowup_level: float,
                   rtol: float = 1e-8, rtol_tight: float = 1e-9) -> BlowupReference:
    g = Grid(1, N)
    u0 = negative_energy_data(g, m)
    v0 = np.zeros_like(u0)
    levels = (threshold, blowup_level)
    start = time.perf_counter()
    T_th, T_bu = crossing_times(g, m, u0, v0, levels, rtol)
    seconds = time.perf_counter() - start
    T_th_tight, T_bu_tight = crossing_times(g, m, u0, v0, levels, rtol_tight)
    return BlowupReference(
        N=N, p=m.p, r=m.r, gamma=m.gamma, beta=m.beta,
        blow_threshold=threshold, blowup_level=blowup_level, rtol=rtol,
        T_threshold=T_th, T_blowup=T_bu, rtol_tight=rtol_tight,
        T_threshold_tight=T_th_tight, T_blowup_tight=T_bu_tight,
        seconds=seconds)


if __name__ == "__main__":
    from workloads import BLOWUP_1D

    cfg = BLOWUP_1D
    ref = make_reference(cfg["N"], Model(p=cfg["p"], r=cfg["r"],
                                         gamma=cfg["gamma"], beta=cfg["beta"]),
                         cfg["blow_threshold"], 1e9)
    REFERENCE_FILE.write_text(json.dumps(asdict(ref), indent=1) + "\n")
    print(json.dumps(asdict(ref), indent=1))
