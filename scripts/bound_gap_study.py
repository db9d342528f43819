#!/usr/bin/env python3
"""Measure how tight the certified bounds are across source exponents.

For each p the negative-energy scenario is driven through blow-up and
the observed time is compared with the certified lower bounds and the
negative-energy upper bound.  Gaps are reported in decades
(log10 T_num - log10 bound), so 0 means sharp and positive means slack.
"""

import argparse
import math
import sys

from beamblow import RunArtifacts, RunConfig, evaluate


def run_cell(p: float, n: int, r: float) -> RunArtifacts:
    return evaluate(RunConfig(N=n, p=p, r=r, t_max=5.0, blow_threshold=1e6,
                              thresholds=(1e1, 1e2, 1e3, 1e4, 1e5)))


def decades(a: float, b: float) -> float:
    return math.log10(a) - math.log10(b)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=48, help="grid size (default 48)")
    ap.add_argument("--r", type=float, default=2.0,
                    help="damping exponent (default 2)")
    ap.add_argument("--p", type=float, nargs="+", default=[2.5, 3.0, 4.0],
                    help="source exponents to scan")
    args = ap.parse_args()

    header = (f"{'p':>5} {'E0':>13} {'T_num':>12} {'lower34':>9} "
              f"{'lower35':>9} {'upper':>9} {'steps':>8}")
    print(header)
    print("-" * len(header))
    for p in args.p:
        art = run_cell(p, args.n, args.r)
        rep = art.report
        if not rep.blowup_detected:
            print(f"{p:5.2f}  no blow-up detected")
            continue
        low34 = rep.lowers.T_lower_34_truncated
        low35 = rep.lowers.T_lower_35
        print(f"{p:5.2f} {rep.E0:13.4e} {rep.T_num:12.6f} "
              f"{decades(rep.T_num, low34):9.2f} "
              f"{decades(rep.T_num, low35):9.2f} "
              f"{decades(rep.T_upper, rep.T_num):9.2f} "
              f"{art.traj.n_steps:8d}")
    print("\ngaps in decades: lower columns are log10(T_num / T_lower), "
          "upper is log10(T_upper / T_num)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
