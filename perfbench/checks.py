"""Checks on the program's outputs.

Each check takes plain numbers (the program's output and a value made
apart from it, or the property the method must have) and returns a
``Check``.  They hold no reference to beamblow, so the negative-control
tests can feed them corrupted outputs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A brake-only run (no energy governor) reaches T_num = 0.12 against the
# Radau reference 0.249; the governed default run is about 6% early.
T_REFERENCE_RTOL = 0.10
# E(0) - E(T) against the trapezoid rule on the recorded dissipation
# rate plus the reported residuals, relative to E(0) - E(T); the record
# spacing alone costs up to 1e-4.
ENERGY_BALANCE_RTOL = 1e-3
# Rounding of the energy relative to the sum of its terms' magnitudes;
# the program and the benchmark agree to 2e-12 or better.
ENERGY_RTOL = 1e-11
# Inverse iteration in beamblow stops on a 1e-10 eigenvalue change.
EIGEN_RTOL = 1e-8


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def relative(got: float, want: float, scale: float | None = None) -> float:
    base = abs(want) if scale is None else scale
    return abs(got - want) / max(base, 1e-300)


def close(name: str, got: float, want: float, rtol: float,
          scale: float | None = None) -> Check:
    err = relative(got, want, scale)
    return Check(name, bool(err <= rtol),
                 f"{got!r} vs {want!r}: relative gap {err:.2e} (tol {rtol:g})")


def time_against_reference(name: str, got: float, reference: float) -> Check:
    return close(name, got, reference, T_REFERENCE_RTOL)


def reached_threshold(termination: str, linf_final: float,
                      threshold: float) -> Check:
    ok = termination == "blowup_threshold" and linf_final >= threshold
    return Check("ends_at_blowup_threshold", bool(ok),
                 f"termination {termination}, max|u(T)| {linf_final:.6g} "
                 f"vs threshold {threshold:g}")


def energy_nonincreasing(E: np.ndarray, residual_target: float,
                         steps_per_record: int) -> Check:
    """Between two records E may rise by at most the controller's
    per-step allowance, residual_target * max(1, |E|), on each step."""
    E = np.asarray(E, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(E[:-1]), np.abs(E[1:])))
    rise = np.diff(E) / (scale * residual_target * steps_per_record)
    worst = float(rise.max()) if len(rise) else 0.0
    return Check("energy_nonincreasing", worst <= 1.0,
                 f"largest rise {worst:.3g} of the allowance over "
                 f"{len(rise)} record intervals")


def energy_balance(E0: float, ET: float, t: np.ndarray,
                   dissipation_rate: np.ndarray, residuals: np.ndarray,
                   E: np.ndarray, residual_target: float,
                   steps_per_record: int) -> Check:
    """E(0) - E(T) equals the trapezoid integral of the dissipation rate
    less the energy-identity residuals the run reports, and those
    residuals stay inside the controller's budget of residual_target *
    max(1, |E|) per step."""
    t = np.asarray(t, dtype=float)
    d = np.asarray(dissipation_rate, dtype=float)
    E = np.asarray(E, dtype=float)
    integral = float(np.sum(0.5 * np.diff(t) * (d[1:] + d[:-1])))
    drop = E0 - ET
    defect = drop - integral
    reported = -float(np.sum(residuals))
    budget = residual_target * steps_per_record * float(np.sum(
        np.maximum(1.0, np.maximum(np.abs(E[:-1]), np.abs(E[1:])))))
    err = relative(defect, reported, abs(drop))
    ok = err <= ENERGY_BALANCE_RTOL and abs(defect) <= budget
    return Check("energy_balance", bool(ok),
                 f"E(0)-E(T) = {drop:.10g}, trapezoid of dissipation "
                 f"{integral:.10g}, reported residuals {reported:.6g} "
                 f"(gap {err:.1e} of the drop, tol {ENERGY_BALANCE_RTOL:g}), "
                 f"defect {abs(defect):.4g} within budget {budget:.4g}")


def sandwich(T_lowers: list[float], T_num: float | None,
             T_uppers: list[float]) -> Check:
    ok = (T_num is not None and math.isfinite(T_num)
          and max(T_lowers) <= T_num <= min(T_uppers, default=math.inf))
    return Check("sandwich", bool(ok),
                 f"max(T_lower) {max(T_lowers):.6g} <= T_num {T_num} <= "
                 f"min(T_upper) {min(T_uppers, default=math.inf):.6g}")


def enclosed(name: str, lower: float, value: float, upper: float) -> Check:
    # the lower end comes from trial fields, which the program's sweep
    # starts from, so equality up to rounding is allowed
    ok = lower * (1.0 - 1e-12) <= value <= upper
    return Check(name, bool(ok), f"{lower:.10g} <= {value:.10g} <= {upper:.10g}")


def energy_level(name: str, E0: float, R: float, scale: float,
                 correlation: float, B: float) -> Check:
    """E(0) = R to rounding, and inner(u0, u1) > B*R.  The construction
    bisects r1 onto the edge of the correlation condition, so there the
    margin is a few ulps and the comparison allows rounding."""
    err = relative(E0, R, scale)
    ok = (err <= ENERGY_RTOL
          and correlation > B * R - 1e-10 * abs(B * R))
    return Check(name, bool(ok),
                 f"E(0) {E0!r} vs R {R!r} (gap {err:.1e} of the term "
                 f"scale), inner(u0,u1) {correlation:.6g} vs B*R {B * R:.6g}")
