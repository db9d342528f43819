#!/usr/bin/env python3
"""Drive one configuration through blow-up and print the full portrait:
variational constants, certificate chains, threshold crossings, and the
estimated blow-up time against its certified sandwich.

Defaults reproduce the negative-energy benchmark at a coarse grid so a
run takes a few seconds; pass --config for anything else.
"""

import argparse
import sys
from pathlib import Path

from beamblow import RunConfig, evaluate, parse_config, report_lines
from beamblow.bounds import scalar_items
from beamblow.harness import write_artifacts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path, help="run configuration file")
    ap.add_argument("--out", type=Path, default=Path("portrait_out"),
                    help="artifact directory (default portrait_out)")
    ap.add_argument("--n", type=int, default=64,
                    help="grid size when no config is given (default 64)")
    args = ap.parse_args()

    if args.config is not None:
        config = parse_config(args.config.read_text())
    else:
        config = RunConfig(N=args.n, t_max=5.0, blow_threshold=1e6,
                           thresholds=(1e1, 1e2, 1e3, 1e4, 1e5))

    art = evaluate(config)

    print("# constants")
    for key, value in scalar_items(art.consts, "constants."):
        print(f"{key} = {value}")

    print("\n# certificate report")
    for line in report_lines(art.report):
        print(line)

    print("\n# threshold crossings of ||u||_{p+1}")
    print(f"{'threshold':>12}  {'t_cross':>20}")
    for c in art.estimate.crossings:
        print(f"{c.threshold:12.3e}  {c.t_cross:20.12f}")

    traj = art.traj
    print(f"\nrun: {traj.termination} after {traj.n_steps} steps, "
          f"{len(traj.records)} rows, t_final = {traj.final_state.t:.9f}")

    args.out.mkdir(parents=True, exist_ok=True)
    write_artifacts(args.out, art)
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
