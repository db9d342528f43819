"""Command line entry point.

Every subcommand but ``verify`` reads a flat key = value configuration
file and writes its outputs under --out (default ./beamblow_out).  Exit
codes follow the run convention: 0 success, 2 configuration error, 3
integrator failure, 4 construction failure, 5 linear-solver breakdown,
1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bounds import (SUMMARY_COLUMNS, fmt, report_lines, scalar_items,
                     summary_row)
from .config import parse_config, parse_sweep_config
from .errors import BeamblowError, ConfigError
from .functionals import snapshot
from .harness import (FAILURE_MARKER, exit_code_for, _write_vector, run,
                      run_with_artifacts, sweep, verify)
from .mesh import inner
from .scenarios import construct_energy_level, growth_weight
from .spectra import compute_constants


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamblow",
        description="blow-up laboratory for a damped extensible beam")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, energy: bool = False,
            jobs: bool = False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
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
    sub.add_parser("verify", help="run the internal consistency suites")
    return parser


def _load(args) -> tuple:
    config = parse_config(Path(args.config).read_text())
    if getattr(args, "energy", None) is not None:
        if args.command != "construct" and config.preset != "high_energy":
            raise ConfigError(f"--energy changes nothing under preset "
                              f"{config.preset!r}; only high_energy reads it")
        config = replace(config, energy_R=args.energy)
    return config, Path(args.out)


def _cmd_spectra(args) -> int:
    config, out = _load(args)
    consts = compute_constants(config.grid(), config.model_params(),
                               config.seed)
    lines = [f"{k} = {v}" for k, v in scalar_items(consts, "constants.")]
    print("\n".join(lines))
    out.mkdir(parents=True, exist_ok=True)
    (out / "spectra.txt").write_text("\n".join(lines) + "\n")
    return 0


def _report_failure(out: Path) -> bool:
    """Print the FAILED marker of a run to stderr; False if it has none."""
    marker = out / FAILURE_MARKER
    if not marker.exists():
        return False
    print(f"run failed: {marker.read_text().strip()}", file=sys.stderr)
    return True


def _cmd_simulate(args) -> int:
    config, out = _load(args)
    code = run(config, out)
    if not _report_failure(out):
        print(f"artifacts written to {out}")
    return code


def _cmd_bounds(args) -> int:
    config, out = _load(args)
    code, artifacts = run_with_artifacts(config, out)
    if artifacts is not None:
        print("\n".join(report_lines(artifacts.report)))
        table = (",".join(SUMMARY_COLUMNS) + "\n"
                 + ",".join(summary_row(artifacts.report).values()) + "\n")
        (out / "bounds.csv").write_text(table)
    _report_failure(out)
    return code


def _cmd_construct(args) -> int:
    config, out = _load(args)
    grid = config.grid()
    params = config.model_params()
    B = growth_weight(grid, params)
    data = construct_energy_level(grid, params, config.energy_R, B)
    snap = snapshot(grid, data.u0, data.u1, params)
    # the sum of the magnitudes of E(0)'s terms, which its rounding scales
    G, g1, p1 = snap.grad_u_sq, params.gamma + 1.0, params.p + 1.0
    terms = (0.5 * (snap.l2_v**2 + G + snap.lap_u_sq)
             + params.beta / (2.0 * g1) * G**g1 + snap.lp1_u**p1 / p1)
    corr = inner(grid, data.u0, data.u1)
    lines = [
        f"energy_R = {fmt(config.energy_R)}",
        f"E0 = {fmt(snap.E)}",
        f"energy_gap_over_terms = {fmt((snap.E - config.energy_R) / terms)}",
        f"inner_u0_u1 = {fmt(corr)}",
        f"B = {fmt(B)}",
        f"correlation_margin = {fmt(corr - B * config.energy_R)}",
    ]
    print("\n".join(lines))
    out.mkdir(parents=True, exist_ok=True)
    (out / "construct.txt").write_text("\n".join(lines) + "\n")
    _write_vector(out / "u0.csv", data.u0)
    _write_vector(out / "u1.csv", data.u1)
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
