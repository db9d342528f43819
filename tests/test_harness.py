"""Run harness, sweep driver, self-check suites, and the CLI."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import beamblow.bounds as bounds
import beamblow.cli as cli
import beamblow.dynamics as dynamics
import beamblow.harness as harness
from beamblow import (
    ConfigError,
    ConstructionFailure,
    ConvergenceFailure,
    RunConfig,
    SolverFailure,
    SweepConfig,
    parse_config,
    run,
    serialize_config,
    sweep,
    verify,
)
from beamblow.cli import main

from conftest import reference_L

QUIET = RunConfig(N=48, preset="sine_bump", amplitude=0.0, t_max=0.02,
                  thresholds=(10.0, 100.0, 1000.0))

FAST_BLOWUP = RunConfig(N=48, preset="negative_energy", t_max=5.0,
                        blow_threshold=1e4,
                        thresholds=(10.0, 100.0, 1000.0))


def test_exit_code_mapping():
    assert harness.exit_code_for(ConfigError("x")) == 2
    assert harness.exit_code_for(SolverFailure("x")) == 3
    assert harness.exit_code_for(ConstructionFailure("x")) == 4
    assert harness.exit_code_for(ConvergenceFailure("x")) == 5
    assert harness.exit_code_for(RuntimeError("x")) == 1


def test_run_quiet_artifacts(tmp_path):
    out = tmp_path / "quiet"
    assert run(QUIET, out) == 0
    assert not (out / harness.FAILURE_MARKER).exists()
    # config round-trips through the written copy
    assert parse_config((out / "config.txt").read_text()) == QUIET
    # one value per line in the state vectors
    u0_lines = (out / "u0.csv").read_text().splitlines()
    assert len(u0_lines) == QUIET.N
    assert all(float(line) == 0.0 for line in u0_lines)
    # timeseries: exact header, full rows
    ts = (out / "timeseries.csv").read_text().splitlines()
    assert ts[0] == ",".join(harness.TIMESERIES_COLUMNS)
    assert len(ts) >= 3
    assert all(len(row.split(",")) == len(harness.TIMESERIES_COLUMNS)
               for row in ts[1:])
    report = (out / "report.txt").read_text()
    assert "run.termination = time_limit" in report
    assert "thm31_verdict = not-applicable" in report
    assert "T_num = none" in report
    assert "constants.lam1_bih = " in report


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(QUIET, a)
    run(QUIET, b)
    for name in ("config.txt", "u0.csv", "u1.csv", "timeseries.csv",
                 "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_times_its_stages_outside_the_report(tmp_path):
    out = tmp_path / "blow"
    assert run(FAST_BLOWUP, out) == 0
    lines = (out / "timing.txt").read_text().splitlines()
    timing = dict(line.split(" = ") for line in lines)
    assert list(timing) == [f"timing.{key}" for key in (
        "constants_s", "data_s", "simulate_s", "step_s", "diagnostics_s",
        "bounds_s")]
    seconds = {key: float(value) for key, value in timing.items()}
    assert all(math.isfinite(s) and s >= 0.0 for s in seconds.values())
    assert (seconds["timing.step_s"] + seconds["timing.diagnostics_s"]
            <= seconds["timing.simulate_s"])
    assert "timing." not in (out / "report.txt").read_text()


def test_run_detects_blowup(tmp_path):
    out = tmp_path / "blow"
    assert run(FAST_BLOWUP, out) == 0
    report = (out / "report.txt").read_text()
    assert "run.termination = blowup_threshold" in report
    assert "blowup_detected = true" in report
    assert "sandwich_ok = true" in report
    assert "thm31_verdict = case_i" in report
    items = dict(line.split(" = ", 1) for line in report.splitlines() if line)
    assert float(items["T_num"]) > 0.0
    assert float(items["lower.T_lower_34_truncated"]) <= float(items["T_num"])
    assert float(items["T_num"]) <= float(items["T_upper"])


def test_report_lists_every_chain_field_once(tmp_path):
    art = harness.evaluate(FAST_BLOWUP)
    harness.write_artifacts(tmp_path, art)
    lines = (tmp_path / "report.txt").read_text().splitlines()
    keys = [line.split(" = ", 1)[0] for line in lines]
    items = dict(line.split(" = ", 1) for line in lines)
    report = art.report
    for prefix, obj in (("constants", art.consts), ("thm31", report.thm31),
                        ("thm32", report.thm32), ("thm33", report.thm33),
                        ("lower", report.lowers)):
        for f in fields(obj):
            key = f"{prefix}.{f.name}"
            assert keys.count(key) == 1, key
            value, text = getattr(obj, f.name), items[key]
            if isinstance(value, bool):
                assert text == ("true" if value else "false"), key
            elif isinstance(value, str):
                assert text == (value or "ok"), key
            elif value is None:
                assert text == "none", key
            elif math.isnan(value):
                assert math.isnan(float(text)), key
            else:
                assert float(text) == value, key
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("dim", [1, 2])
def test_report_counts_cg_iterations(tmp_path, dim):
    # the 2d step solves by conjugate gradients, the 1d one by a banded
    # call that makes no CG iteration
    assert run(replace(QUIET, dim=dim, N=16, amplitude=1.0), tmp_path) == 0
    items = dict(line.split(" = ", 1) for line in
                 (tmp_path / "report.txt").read_text().splitlines() if line)
    cg_iters = int(items["run.cg_iters"])
    assert cg_iters > 0 if dim == 2 else cg_iters == 0


def test_run_failure_leaves_marker(tmp_path, monkeypatch):
    def boom(config):
        raise ConstructionFailure("no admissible amplitude")

    monkeypatch.setattr(harness, "evaluate", boom)
    out = tmp_path / "fail"
    assert run(QUIET, out) == 4
    marker = out / harness.FAILURE_MARKER
    assert marker.exists()
    assert "ConstructionFailure" in marker.read_text()
    # the config echo is still written for post-mortem use
    assert (out / "config.txt").exists()
    # a later successful run clears the marker
    monkeypatch.undo()
    assert run(QUIET, out) == 0
    assert not marker.exists()


@pytest.fixture(scope="module")
def small_sweep_text():
    return """
N = 48
preset = sine_bump
amplitude = 0.0
t_max = 0.02
thresholds = 10, 100, 1000
sweep.p = 3.0, 4.0
sweep.r = 1.0, 2.0
"""


def test_sweep_rows(small_sweep_text):
    from beamblow import parse_sweep_config

    sw = parse_sweep_config(small_sweep_text)
    csv = sweep(sw)
    lines = csv.splitlines()
    header = lines[0].split(",")
    assert header == ["p", "r", *harness.SUMMARY_COLUMNS, "status", "message"]
    assert len(lines) == 5
    cells = [line.split(",") for line in lines[1:]]
    assert [(c[0], c[1]) for c in cells] == [
        ("3", "1"), ("3", "2"), ("4", "1"), ("4", "2")]
    assert all(c[-2:] == ["ok", ""] for c in cells)
    # quiet runs never detect blow-up: T_num column is none
    t_num_col = header.index("T_num")
    assert all(c[t_num_col] == "none" for c in cells)


def test_sweep_jobs_invariance(small_sweep_text):
    from beamblow import parse_sweep_config

    sw = parse_sweep_config(small_sweep_text)
    assert sweep(sw, jobs=1) == sweep(sw, jobs=2)


@pytest.mark.parametrize("cpus,jobs,sizes", [
    (64, 10_000, [2]),   # no more workers than cells
    (64, 2, [2]),
    (1, 10_000, []),     # one CPU runs in this process
    (None, 10_000, []),  # an unknown CPU count counts as one
])
def test_sweep_worker_count_is_clamped(monkeypatch, cpus, jobs, sizes):
    started = []

    class SerialPool:
        """Records the worker count asked for and maps in this process,
        so no pool is started."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    sw = SweepConfig(base=QUIET, axes={"p": (3.0, 4.0)})
    serial = sweep(sw)
    assert started == []
    assert sweep(sw, jobs=jobs) == serial
    assert started == sizes


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_sweep_needs_at_least_one_job(tmp_path, capsys,
                                         small_sweep_text, jobs):
    cfg = tmp_path / "sweep.txt"
    cfg.write_text(small_sweep_text)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--jobs", jobs]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("exc,status", [
    (ConfigError("x"), "config_error"),
    (SolverFailure("x"), "solver_failure"),
    (ConstructionFailure("x"), "construction_failure"),
    (ConvergenceFailure("x"), "convergence_failure"),
    (RuntimeError("x"), "error"),
])
def test_sweep_cell_status_tokens(monkeypatch, exc, status):
    def fail(config):
        raise exc

    monkeypatch.setattr(harness, "evaluate", fail)
    assert harness._sweep_cell(QUIET) == (
        status, f"{type(exc).__name__}: x", None)


def test_cli_sweep(tmp_path, capsys, small_sweep_text):
    cfg = tmp_path / "sweep.txt"
    cfg.write_text(small_sweep_text)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 5
    assert "4 rows written" in capsys.readouterr().out


@pytest.mark.parametrize("passed,code", [(True, 0), (False, 1)])
def test_cli_verify_exit_code(monkeypatch, capsys, passed, code):
    report = harness.VerifyReport(suites=(
        harness.SuiteResult("stub", passed, "stubbed", 0.0),))
    monkeypatch.setattr(cli, "verify", lambda: report)
    assert main(["verify"]) == code
    assert capsys.readouterr().out.splitlines() == report.lines()


def test_sweep_prints_integer_axes_exactly(monkeypatch):
    def fail(config):
        raise ConstructionFailure("x")

    monkeypatch.setattr(harness, "evaluate", fail)
    big = 2**53 + 1
    sw = SweepConfig(base=QUIET, axes={"seed": (big,)})
    row = sweep(sw).splitlines()[1].split(",")
    assert row[0] == str(big)
    assert row[-2:] == ["construction_failure", "ConstructionFailure: x"]


def test_sweep_keeps_failures_in_row(monkeypatch):
    calls = {"n": 0}
    real = harness.evaluate

    def flaky(config):
        calls["n"] += 1
        if config.p == 4.0:
            raise ConvergenceFailure("stalled")
        return real(config)

    monkeypatch.setattr(harness, "evaluate", flaky)
    sw = SweepConfig(base=QUIET, axes={"p": (3.0, 4.0)})
    lines = sweep(sw).splitlines()
    assert len(lines) == 3
    ok_row, bad_row = lines[1], lines[2]
    assert ok_row.endswith(",ok,")
    assert bad_row.endswith(",convergence_failure,ConvergenceFailure: stalled")
    # failed cell still fills every column
    assert len(bad_row.split(",")) == len(lines[0].split(","))


def test_sweep_row_keeps_the_failure_message(monkeypatch):
    # the message column is CSV-quoted, so commas and quotes in an
    # exception's text stay in one field, and a line break becomes a
    # space, so each cell stays one line of the table
    import csv

    def fail(config):
        raise ConvergenceFailure('no sweep converged (q=5.0, "lap")\nstop')

    monkeypatch.setattr(harness, "evaluate", fail)
    sw = SweepConfig(base=QUIET, axes={"p": (3.0,)})
    table = sweep(sw)
    assert len(table.splitlines()) == 2
    header, row = csv.reader(table.splitlines())
    assert len(row) == len(header)
    assert dict(zip(header, row))["message"] == (
        'ConvergenceFailure: no sweep converged (q=5.0, "lap") stop')
    assert row[header.index("status")] == "convergence_failure"


def test_sweep_row_of_a_run_that_ends_in_solver_failure():
    # the one attempt, clipped to t_max, fails at dt_min: the run ends
    # without raising, so its row keeps the report's summary values
    import csv

    base = RunConfig(N=32, dt_max=0.1, dt_min=0.1, t_max=0.05)
    table = sweep(SweepConfig(base=base, axes={"N": (32,)}))
    header, row = csv.reader(table.splitlines())
    cell = dict(zip(header, row))
    assert cell["status"] == "solver_failure"
    assert cell["message"] == (
        "SolverFailure: adapted step collapsed to dt_min = 0.1 at t = 0, "
        "where the step clipped to t_max failed")
    summary = harness.summary_row(harness.evaluate(base).report)
    assert {key: cell[key] for key in summary} == summary
    assert float(cell["E0"]) < 0.0
    assert cell["thm31_verdict"] == "case_i"


@pytest.fixture(scope="module")
def verify_report():
    return verify()


def test_verify_all_suites_pass(verify_report):
    assert verify_report.ok
    assert len(verify_report.suites) == 6
    for suite in verify_report.suites:
        assert suite.passed, f"{suite.name}: {suite.detail}"


def test_verify_line_format(verify_report):
    lines = verify_report.lines()
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "all suites passed"


def test_lemma21_suite_walks_without_field_potentials(monkeypatch):
    # the walks along each ray run on the closed form; only the
    # snapshots of the tested points touch the fields
    calls = []
    real = harness.functionals.potential_J
    monkeypatch.setattr(harness.functionals, "potential_J",
                        lambda *args: calls.append(args) or real(*args))
    passed, _ = harness._suite_lemma21()
    assert passed
    assert calls == []


def test_verify_negative_control(monkeypatch):
    # One off-diagonal entry of the Laplacian is corrupted; the other
    # suites are stubbed to pass so the aggregate verdict hangs on the
    # Green-identity suite alone.
    for name in ("_suite_eigen_benchmark", "_suite_energy_residual_order",
                 "_suite_lemma21", "_suite_chain_consistency",
                 "_suite_sandwich"):
        monkeypatch.setattr(harness, name, lambda: (True, "stubbed"))
    def corrupted(grid):
        L = reference_L(grid).tolil()
        L[0, 1] += 1e-8
        return L.tocsr()

    monkeypatch.setattr(harness.mesh, "laplacian_matrix", corrupted)
    bad = verify()
    assert not bad.ok
    by_name = {s.name: s for s in bad.suites}
    assert not by_name["green-identity"].passed
    # detected, not crashed: a suite that raises reads "raised ..."
    assert by_name["green-identity"].detail.startswith(
        "worst relative identity gap")
    assert all(s.passed for s in bad.suites if s.name != "green-identity")
    assert bad.lines()[-1] == "one or more suites FAILED"


def test_cli_simulate_and_bounds(tmp_path, capsys):
    cfg = tmp_path / "run.txt"
    cfg.write_text(serialize_config(QUIET))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "timeseries.csv").exists()
    outb = tmp_path / "bounds"
    assert main(["bounds", "--config", str(cfg), "--out", str(outb)]) == 0
    assert (outb / "bounds.csv").exists()
    text = (outb / "bounds.csv").read_text().splitlines()
    assert text[0].split(",") == list(harness.SUMMARY_COLUMNS)
    assert len(text) == 2
    # bounds writes every artifact simulate writes, byte for byte
    for name in ("config.txt", "u0.csv", "u1.csv", "timeseries.csv",
                 "report.txt"):
        assert (out / name).read_bytes() == (outb / name).read_bytes(), name
    assert not (outb / harness.FAILURE_MARKER).exists()


def test_cli_bounds_fails_when_the_run_failed(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 3)
    cfg = tmp_path / "run.txt"
    cfg.write_text(serialize_config(QUIET))
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "sim")]) == 3
    simulate_err = capsys.readouterr().err
    assert "step budget of 3 exhausted" in simulate_err
    out = tmp_path / "bounds"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == simulate_err
    assert (out / "bounds.csv").exists()
    assert "step budget of 3 exhausted" in (
        out / harness.FAILURE_MARKER).read_text()


@pytest.mark.parametrize("threshold,code,termination", [
    (1e9, 0, "blowup_threshold"), (1e300, 3, "solver_failure")])
def test_cli_simulate_with_non_finite_initial_energy(tmp_path, capsys,
                                                     threshold, code,
                                                     termination):
    # the norms of this field overflow, so E(0) is nan: both upper
    # chains report themselves not applicable instead of raising, the
    # lower bounds are 0, and the run
    # ends on its own terms (the field already exceeds the default blow
    # threshold 1e9; short of 1e300 the step collapses)
    cfg = tmp_path / "run.txt"
    cfg.write_text("N = 32\npreset = sine_bump\namplitude = 1e110\n"
                   f"blow_threshold = {threshold!r}\n")
    out = tmp_path / "sim"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(out)]) == code
    report = (out / "report.txt").read_text().splitlines()
    assert "E0 = nan" in report
    assert f"run.termination = {termination}" in report
    assert "thm32.T_upper = none" in report
    assert "lower.T_lower_34_truncated = 0" in report



def test_cli_simulate_with_overflowing_lower_bound_integrand(tmp_path,
                                                            capsys):
    # F0 = ||u0||_4^4 is about 1.8e240, so F0^3 overflows a float; the
    # Theorem 3.4 integral is 0 instead of raising OverflowError
    cfg = tmp_path / "run.txt"
    cfg.write_text("N = 32\npreset = sine_bump\namplitude = 1e60\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = dict(line.split(" = ", 1) for line in
                  (out / "report.txt").read_text().splitlines())
    assert float(report["lower.F0"]) > 1e240
    assert math.isfinite(float(report["lower.T_lower_34_truncated"]))


def test_cli_simulate_ends_when_the_clipped_step_fails_at_dt_min(
        tmp_path, capsys, monkeypatch):
    # the request is held at dt_min = 0.1, so every attempt is clipped
    # to the time left, 0.05, and would repeat the failed one: the run
    # ends as a solver failure after that one attempt instead of
    # retrying it forever (the bound turns such a loop into a failure)
    from beamblow import dynamics

    attempts = []
    step = dynamics.step

    def bounded_step(*args, **kwargs):
        attempts.append(1)
        assert len(attempts) < 100, "the clipped step repeats forever"
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", bounded_step)
    cfg = tmp_path / "run.txt"
    cfg.write_text("N = 32\ndt_max = 0.1\ndt_min = 0.1\nt_max = 0.05\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    report = dict(line.split(" = ", 1) for line in
                  (out / "report.txt").read_text().splitlines())
    assert report["run.termination"] == "solver_failure"
    assert "clipped" in report["run.note"]
    assert report["run.attempts"] == "1"
    assert "run failed: SolverFailure" in capsys.readouterr().err


def test_cli_simulate_runs_at_dt_min_equal_to_dt_max(tmp_path):
    # a request equal to dt_min is taken, not read as a collapse: the
    # run steps at dt_max = dt_min to t_max
    cfg = tmp_path / "run.txt"
    cfg.write_text("N = 32\npreset = sine_bump\namplitude = 0.5\n"
                   "dt_max = 1e-4\ndt_min = 1e-4\nt_max = 1e-3\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = dict(line.split(" = ", 1) for line in
                  (out / "report.txt").read_text().splitlines())
    assert report["run.termination"] == "time_limit"
    assert report["run.n_steps"] == report["run.attempts"] == "10"


def test_a_nan_lower_bound_fails_the_sandwich(monkeypatch):
    # a Theorem 3.5 lower bound that comes out nan certifies nothing, and
    # the sandwich is phrased so that it fails
    thm35_lower = bounds.thm35_lower
    monkeypatch.setattr(bounds, "thm35_lower", lambda *args: replace(
        thm35_lower(*args), T_lower_35=math.nan))
    cfg = RunConfig(N=32, preset="sine_bump", amplitude=1e200)
    with np.errstate(all="ignore"):
        report = harness.evaluate(cfg).report
    assert report.blowup_detected
    assert math.isnan(report.lowers.T_lower_35)
    assert not report.sandwich_ok


def test_an_overflowing_field_has_an_infinite_gradient_energy(tmp_path):
    # at amplitude 1e200 the squared differences overflow: ||grad u0||^2
    # is inf, where u . (-L u) gave inf - inf = nan, so the Theorem 3.5
    # bound is the trivial T >= 0; the run exits 0, as it did with nan
    cfg = RunConfig(N=32, preset="sine_bump", amplitude=1e200)
    out = tmp_path / "big"
    with np.errstate(all="ignore"):
        assert run(cfg, out) == 0
        artifacts = harness.evaluate(cfg)
    report = artifacts.report
    assert artifacts.traj.records[0].snap.grad_u_sq == math.inf
    assert report.blowup_detected
    assert report.lowers.G0 == math.inf
    assert report.lowers.T_lower_35 == 0.0
    assert report.sandwich_ok
    lines = (out / "report.txt").read_text().splitlines()
    assert "lower.G0 = inf" in lines

def test_cli_spectra(tmp_path, capsys):
    cfg = tmp_path / "run.txt"
    cfg.write_text(serialize_config(QUIET))
    out = tmp_path / "spec"
    assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "constants.lam1_bih" in captured.out
    assert (out / "spectra.txt").exists()


def test_cli_spectra_refuses_a_negative_seed(tmp_path, capsys):
    # numpy's generator takes no negative seed; the parser refuses it
    # before any constant is computed or any output is written
    cfg = tmp_path / "run.txt"
    cfg.write_text("N = 16\nseed = -1\n")
    out = tmp_path / "spec"
    assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_construct_refuses_an_infeasible_growth_chain(tmp_path, capsys,
                                                         monkeypatch):
    import beamblow.scenarios as scenarios

    real = scenarios.thm31_constants
    monkeypatch.setattr(scenarios, "thm31_constants",
                        lambda params, B1: replace(real(params, B1),
                                                   feasible=False))
    cfg = tmp_path / "run.txt"
    cfg.write_text(serialize_config(QUIET))
    out = tmp_path / "con"
    assert main(["construct", "--config", str(cfg), "--out", str(out),
                 "--energy", "-5"]) == 4
    assert "growth chain infeasible" in capsys.readouterr().err
    assert not out.exists()


def test_cli_construct(tmp_path, capsys):
    cfg = tmp_path / "run.txt"
    cfg.write_text(serialize_config(QUIET))
    out = tmp_path / "con"
    assert main(["construct", "--config", str(cfg), "--out", str(out),
                 "--energy", "-5"]) == 0
    text = (out / "construct.txt").read_text()
    assert "energy_R = -5" in text
    items = dict(line.split(" = ", 1) for line in text.splitlines() if line)
    assert abs(float(items["E0"]) + 5.0) < 1e-9
    assert float(items["correlation_margin"]) > 0.0
    assert (out / "u0.csv").exists() and (out / "u1.csv").exists()


def test_cli_construct_gap_is_relative_to_the_energy_terms(tmp_path):
    # at R = 1e6 the energy's terms are near 1e22, so E0 - R is large in
    # absolute terms while the data meet R to the rounding of the terms
    cfg = tmp_path / "run.txt"
    cfg.write_text(serialize_config(replace(QUIET, N=128, p=6.0)))
    out = tmp_path / "con"
    assert main(["construct", "--config", str(cfg), "--out", str(out),
                 "--energy", "1e6"]) == 0
    items = dict(line.split(" = ", 1)
                 for line in (out / "construct.txt").read_text().splitlines())
    assert "energy_gap" not in items
    assert abs(float(items["energy_gap_over_terms"])) <= 1e-15


class _SeedSeen(Exception):
    pass


def _seed_spy(seen: list):
    def spy(grid, params, seed=0):
        seen.append(seed)
        raise _SeedSeen
    return spy


def test_evaluate_passes_the_configured_seed(monkeypatch):
    seen = []
    monkeypatch.setattr(harness, "compute_constants", _seed_spy(seen))
    with pytest.raises(_SeedSeen):
        harness.evaluate(replace(QUIET, seed=7))
    assert seen == [7]


@pytest.mark.parametrize("command", ["spectra"])
def test_cli_passes_the_configured_seed(tmp_path, monkeypatch, command):
    seen = []
    monkeypatch.setattr(cli, "compute_constants", _seed_spy(seen))
    cfg = tmp_path / "run.txt"
    cfg.write_text(serialize_config(replace(QUIET, seed=7)))
    with pytest.raises(_SeedSeen):
        main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert seen == [7]


@pytest.mark.parametrize("command", ["construct", "simulate", "bounds"])
def test_cli_one_node_grid_is_a_construction_failure(tmp_path, capsys,
                                                     command):
    cfg = tmp_path / "run.txt"
    cfg.write_text("N = 1\npreset = high_energy\n")
    out = tmp_path / "o"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 4
    assert "2 interior nodes" in capsys.readouterr().err
    if command != "construct":
        # a run leaves its configuration and the FAILED marker
        assert parse_config((out / "config.txt").read_text()) == replace(
            RunConfig(), N=1, preset="high_energy")
        assert "ConstructionFailure" in (
            out / harness.FAILURE_MARKER).read_text()


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_cli_energy_flag_needs_the_high_energy_preset(tmp_path, capsys,
                                                      command):
    # energy_R is read only by the high_energy preset: under any other
    # the flag would change nothing, so the run is refused
    cfg = tmp_path / "run.txt"
    cfg.write_text(serialize_config(QUIET))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--energy", "3"]) == 2
    err = capsys.readouterr().err
    assert "'sine_bump'" in err and "high_energy" in err
    assert not out.exists()
    cfg.write_text(serialize_config(replace(QUIET, preset="high_energy")))
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--energy", "3"]) == 0
    assert parse_config((out / "config.txt").read_text()).energy_R == 3.0


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("no_such_key = 1\n")
    code = main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "x")])
    assert code == 2
    captured = capsys.readouterr()
    assert "unknown key" in captured.err


def test_cli_missing_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
