"""Command line entry point.

Every subcommand reads a flat key = value configuration file and writes
its outputs under --out (default ./beamblow_out).  Exit codes follow
the run convention: 0 success, 2 configuration error, 3 integrator
failure, 4 construction failure, 5 linear-solver breakdown, 1 anything
else.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bounds import fmt, report_items, summary_row, thm31_constants
from .config import parse_config, parse_sweep_config
from .errors import BeamblowError
from .functionals import snapshot
from .harness import (SWEEP_RESULT_KEYS, FAILURE_MARKER, _evaluate,
                      constants_items, exit_code_for, integrator_failure,
                      run, sweep, verify, write_artifacts)
from .mesh import inner
from .scenarios import construct_energy_level
from .spectra import compute_constants


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamblow",
        description="blow-up laboratory for a damped extensible beam")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, config_required: bool = True,
            energy: bool = False, jobs: bool = False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=config_required,
                         help="path to a key = value configuration file")
        cmd.add_argument("--out", default="beamblow_out",
                         help="output directory (default: beamblow_out)")
        if energy:
            cmd.add_argument("--energy", type=float, default=None,
                             help="override the configured energy_R level")
        if jobs:
            cmd.add_argument("--jobs", type=int, default=1,
                             help="concurrent worker processes (default 1)")
        return cmd

    add("spectra", "compute the variational constants for a configuration")
    add("simulate", "run one configuration end to end and write artifacts",
        energy=True)
    add("bounds", "simulate, evaluate every certificate, print the report",
        energy=True)
    add("construct", "build initial data at a prescribed energy level",
        energy=True)
    add("sweep", "evaluate a cartesian grid of configurations", jobs=True)
    add("verify", "run the internal consistency suites",
        config_required=False)
    return parser


def _load(args) -> tuple:
    config = parse_config(Path(args.config).read_text())
    if getattr(args, "energy", None) is not None:
        config = replace(config, energy_R=args.energy)
    return config, Path(args.out)


def _cmd_spectra(args) -> int:
    config, out = _load(args)
    consts = compute_constants(config.grid(), config.model_params())
    lines = [f"{k} = {v}" for k, v in constants_items(consts)]
    print("\n".join(lines))
    out.mkdir(parents=True, exist_ok=True)
    (out / "spectra.txt").write_text("\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    config, out = _load(args)
    code = run(config, out)
    marker = out / FAILURE_MARKER
    if marker.exists():
        print(f"run failed: {marker.read_text().strip()}", file=sys.stderr)
    else:
        print(f"artifacts written to {out}")
    return code


def _cmd_bounds(args) -> int:
    config, out = _load(args)
    artifacts = _evaluate(config)
    for key, value in report_items(artifacts.report):
        print(f"{key} = {value}")
    out.mkdir(parents=True, exist_ok=True)
    write_artifacts(out, artifacts)
    row = summary_row(artifacts.report)
    table = (",".join(SWEEP_RESULT_KEYS) + "\n"
             + ",".join(row[k] for k in SWEEP_RESULT_KEYS) + "\n")
    (out / "bounds.csv").write_text(table)
    failure = integrator_failure(artifacts.traj)
    if failure is not None:
        print(f"run failed: {type(failure).__name__}: {failure}",
              file=sys.stderr)
        return exit_code_for(failure)
    return 0


def _cmd_construct(args) -> int:
    config, out = _load(args)
    grid = config.grid()
    params = config.model_params()
    consts = compute_constants(grid, params)
    chain = thm31_constants(params, consts.B1)
    data = construct_energy_level(grid, params, config.energy_R, chain.B)
    snap = snapshot(grid, data.u0, data.u1, params)
    corr = inner(grid, data.u0, data.u1)
    lines = [
        f"energy_R = {fmt(config.energy_R)}",
        f"E0 = {fmt(snap.E)}",
        f"energy_gap = {fmt(snap.E - config.energy_R)}",
        f"inner_u0_u1 = {fmt(corr)}",
        f"B = {fmt(chain.B)}",
        f"correlation_margin = {fmt(corr - chain.B * snap.E)}",
    ]
    print("\n".join(lines))
    out.mkdir(parents=True, exist_ok=True)
    (out / "construct.txt").write_text("\n".join(lines) + "\n")
    with (out / "u0.csv").open("w") as fh:
        fh.writelines("%.17g\n" % x for x in data.u0)
    with (out / "u1.csv").open("w") as fh:
        fh.writelines("%.17g\n" % x for x in data.u1)
    return 0


def _cmd_sweep(args) -> int:
    text = Path(args.config).read_text()
    sweep_config = parse_sweep_config(text)
    table = sweep(sweep_config, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(table)
    rows = table.count("\n") - 1
    print(f"{rows} rows written to {out / 'sweep.csv'}")
    return 0


def _cmd_verify(args) -> int:
    if args.config is not None:
        parse_config(Path(args.config).read_text())
    report = verify()
    print("\n".join(report.lines()))
    return 0 if report.ok else 1


_COMMANDS = {
    "spectra": _cmd_spectra,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "construct": _cmd_construct,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BeamblowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
