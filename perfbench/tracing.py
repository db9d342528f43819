"""Spans and counts around beamblow's public functions, installed from
outside the package.

Every module namespace that binds a traced function (its home module,
the modules that imported it by name, and the package itself) gets the
same wrapper, so calls are seen however the program reaches them.  A
wrapper adds the call's duration and its self time (duration less the
spans of traced calls made inside it) to its function's totals; the
durations of steps and snapshots are kept for percentiles.  Everything
stays in memory and is reduced to the per-layer metrics at the end of
the repetition.

The high-frequency helpers of ``mesh`` and ``functionals`` (norms,
inner products, the Kirchhoff coefficient) are deliberately left
unwrapped: they run several times per time step, and wrapping them
would cost more than the work they do.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "spectra": ("compute_constants", "smallest_eigen", "embedding_constant"),
    "scenarios": ("preset", "eigen_pair_basis", "construct_energy_level"),
    "dynamics": ("simulate", "step", "adapt_dt", "detect_blowup"),
    "functionals": ("snapshot",),
    "solvers": ("solve_spd_banded", "conjugate_gradient",
                "lu_preconditioner", "ilu_preconditioner"),
    "bounds": ("full_report",),
    "harness": ("write_artifacts",),
}

# per-call durations are kept for these, to give percentiles
_KEEP_DURATIONS = {"dynamics.step", "functionals.snapshot"}
_CG_RESTART = 50  # solvers.conjugate_gradient refreshes the true residual


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self.cg_iters = 0
        self.cg_iters_in_spectra = 0
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        tracer = self
        keep = name in _KEEP_DURATIONS

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.calls[name] += 1
                if keep:
                    tracer.durations[name].append(duration)
                if tracer._stack:
                    tracer._stack[-1][1] += duration

        return traced

    def count_cg(self, fn, operator_norm_estimate):
        """Count CG iterations through the operator: the solver applies
        A once for the initial residual, once per iteration and once
        more per true-residual refresh."""
        tracer = self

        def counted(A, b, x0=None, **kwargs):
            if kwargs.get("a_norm") is None:
                kwargs["a_norm"] = operator_norm_estimate(A)
            apply = A.dot if hasattr(A, "dot") else A
            products = [0]

            def matvec(x):
                products[0] += 1
                return apply(x)
            try:
                return fn(matvec, b, x0, **kwargs)
            finally:
                m = max(products[0] - 1, 0)
                iters = m - m // (_CG_RESTART + 1)
                tracer.cg_iters += iters
                if any(f[0].startswith("spectra.") for f in tracer._stack):
                    tracer.cg_iters_in_spectra += iters

        return counted

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        for short, names in TRACED.items():
            home = sys.modules[f"{package.__name__}.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = original
                if short == "solvers" and fname == "conjugate_gradient":
                    wrapped = self.count_cg(original,
                                            home.operator_norm_estimate)
                wrapped = self.wrap(f"{short}.{fname}", wrapped)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def metrics(self, assembly_s: float, accepted_steps: int,
                artifact_bytes: int) -> dict[str, tuple[float, str]]:
        t, st, n = self.total, self.self_time, self.calls
        step_us = np.array(self.durations["dynamics.step"]) * 1e6
        snap_us = np.array(self.durations["functionals.snapshot"]) * 1e6
        attempts = n["dynamics.step"]

        def pct(a: np.ndarray, q: float) -> float:
            return float(np.percentile(a, q)) if len(a) else 0.0

        return {
            "mesh.assembly_s": (assembly_s, "s"),
            "spectra.compute_constants_s": (t["spectra.compute_constants"], "s"),
            "spectra.smallest_eigen_s": (t["spectra.smallest_eigen"], "s"),
            "spectra.smallest_eigen_calls": (n["spectra.smallest_eigen"], "count"),
            "spectra.embedding_constant_s": (t["spectra.embedding_constant"], "s"),
            "spectra.embedding_constant_calls": (n["spectra.embedding_constant"], "count"),
            "spectra.cg_iters": (self.cg_iters_in_spectra, "count"),
            "scenarios.preset_s": (t["scenarios.preset"], "s"),
            "scenarios.eigen_pair_basis_s": (t["scenarios.eigen_pair_basis"], "s"),
            "scenarios.construct_s": (t["scenarios.construct_energy_level"], "s"),
            "scenarios.construct_calls": (n["scenarios.construct_energy_level"], "count"),
            "dynamics.simulate_s": (t["dynamics.simulate"], "s"),
            "dynamics.step_s": (t["dynamics.step"], "s"),
            "dynamics.step_self_s": (st["dynamics.step"], "s"),
            "dynamics.step_us_p50": (pct(step_us, 50), "us"),
            "dynamics.step_us_p99": (pct(step_us, 99), "us"),
            "dynamics.step_attempts": (attempts, "count"),
            "dynamics.accepted_steps": (accepted_steps, "count"),
            "dynamics.accept_ratio": (accepted_steps / attempts if attempts else 0.0, "ratio"),
            "dynamics.adapt_dt_s": (t["dynamics.adapt_dt"], "s"),
            "dynamics.detect_blowup_s": (t["dynamics.detect_blowup"], "s"),
            "functionals.snapshot_s": (t["functionals.snapshot"], "s"),
            "functionals.snapshot_us_p50": (pct(snap_us, 50), "us"),
            "functionals.snapshot_calls": (n["functionals.snapshot"], "count"),
            "solvers.banded_solve_s": (t["solvers.solve_spd_banded"], "s"),
            "solvers.banded_solves": (n["solvers.solve_spd_banded"], "count"),
            "solvers.cg_s": (t["solvers.conjugate_gradient"], "s"),
            "solvers.cg_solves": (n["solvers.conjugate_gradient"], "count"),
            "solvers.cg_iters": (self.cg_iters, "count"),
            "solvers.lu_factor_s": (t["solvers.lu_preconditioner"]
                                    + t["solvers.ilu_preconditioner"], "s"),
            "solvers.lu_factorizations": (n["solvers.lu_preconditioner"]
                                          + n["solvers.ilu_preconditioner"], "count"),
            "bounds.full_report_s": (t["bounds.full_report"], "s"),
            "harness.write_artifacts_s": (t["harness.write_artifacts"], "s"),
            "harness.artifact_bytes": (artifact_bytes, "bytes"),
        }
