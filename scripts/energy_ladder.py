#!/usr/bin/env python3
"""Scan prescribed initial-energy levels and report the certificate
landscape: which growth case applies, the growth constants, and
(with --simulate) the observed blow-up time at each level.

Levels are given in units of the potential-well depth d, so the ladder
crosses the well rim at R/d = 1 and continues into the supercritical
range where only the correlation condition keeps the certificate alive.
"""

import argparse
import sys
from dataclasses import replace

from beamblow import (RunConfig, compute_constants, construct_energy_level,
                      evaluate, inner, snapshot, thm31_check,
                      thm31_constants)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=48, help="grid size (default 48)")
    ap.add_argument("--levels", type=float, nargs="+",
                    default=[-2.0, -0.5, 0.5, 1.0, 2.0, 5.0, 10.0],
                    help="energy levels in units of the well depth")
    ap.add_argument("--simulate", action="store_true",
                    help="also run each level through blow-up")
    args = ap.parse_args()

    base = RunConfig(N=args.n, preset="high_energy", t_max=5.0,
                     blow_threshold=1e6, thresholds=(1e1, 1e2, 1e3, 1e4, 1e5))
    grid, params = base.grid(), base.model_params()
    consts = compute_constants(grid, params)
    chain = thm31_constants(params, consts.B1)
    d = consts.depth
    print(f"well depth d = {d:.6f}, growth rate A = {chain.A:.6f}, "
          f"energy weight B = {chain.B:.6f}")

    header = f"{'R/d':>6} {'E0':>13} {'corr - B*R':>12} {'case':>16}"
    if args.simulate:
        header += f" {'T_num':>12}"
    print(header)
    print("-" * len(header))

    for level in args.levels:
        R = level * d
        data = construct_energy_level(grid, params, R, chain.B)
        E0 = snapshot(grid, data.u0, data.u1, params).E
        corr = inner(grid, data.u0, data.u1)
        margin = corr - chain.B * R
        verdict = thm31_check(E0, corr, chain)
        row = f"{level:6.2f} {E0:13.6e} {margin:12.4e} {verdict:>16}"
        if args.simulate:
            est = evaluate(replace(base, energy_R=R)).estimate
            row += (f" {est.T_num:12.6f}" if est.detected
                    else f" {'-':>12}")
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
