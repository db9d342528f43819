"""Run harness, sweep driver, self-check suites, and the CLI."""

import pytest

import beamblow.harness as harness
from beamblow import (
    ConfigError,
    ConstructionFailure,
    ConvergenceFailure,
    RunConfig,
    SolverFailure,
    StepControls,
    SweepConfig,
    parse_config,
    run,
    serialize_config,
    sweep,
    verify,
)
from beamblow.cli import main

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


def test_run_failure_leaves_marker(tmp_path, monkeypatch):
    def boom(config):
        raise ConstructionFailure("no admissible amplitude")

    monkeypatch.setattr(harness, "_evaluate", boom)
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
    assert header == ["p", "r", *harness.SWEEP_RESULT_KEYS, "status"]
    assert len(lines) == 5
    cells = [line.split(",") for line in lines[1:]]
    assert [(c[0], c[1]) for c in cells] == [
        ("3", "1"), ("3", "2"), ("4", "1"), ("4", "2")]
    assert all(c[-1] == "ok" for c in cells)
    # quiet runs never detect blow-up: T_num column is none
    t_num_col = header.index("T_num")
    assert all(c[t_num_col] == "none" for c in cells)


def test_sweep_jobs_invariance(small_sweep_text):
    from beamblow import parse_sweep_config

    sw = parse_sweep_config(small_sweep_text)
    assert sweep(sw, jobs=1) == sweep(sw, jobs=2)


def test_sweep_keeps_failures_in_row(monkeypatch):
    calls = {"n": 0}
    real = harness._evaluate

    def flaky(config):
        calls["n"] += 1
        if config.p == 4.0:
            raise ConvergenceFailure("stalled")
        return real(config)

    monkeypatch.setattr(harness, "_evaluate", flaky)
    sw = SweepConfig(base=QUIET, axes={"p": (3.0, 4.0)})
    lines = sweep(sw).splitlines()
    assert len(lines) == 3
    ok_row, bad_row = lines[1], lines[2]
    assert ok_row.endswith(",ok")
    assert bad_row.endswith(",convergence_failure")
    # failed cell still fills every column
    assert len(bad_row.split(",")) == len(lines[0].split(","))


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


def test_verify_negative_control(monkeypatch):
    # Only the Green-identity suite sees the perturbation; the others
    # are stubbed to pass so the aggregate verdict hangs on it alone.
    for name in ("_suite_eigen_benchmark", "_suite_energy_residual_order",
                 "_suite_lemma21", "_suite_chain_consistency",
                 "_suite_sandwich"):
        monkeypatch.setattr(harness, name, lambda: (True, "stubbed"))
    bad = verify(stencil_perturbation=1e-8)
    assert not bad.ok
    by_name = {s.name: s for s in bad.suites}
    assert not by_name["green-identity"].passed
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
    assert text[0].split(",") == list(harness.SWEEP_RESULT_KEYS)
    assert len(text) == 2


def test_cli_bounds_fails_when_the_run_failed(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setattr(RunConfig, "step_controls",
                        lambda self: StepControls(max_steps=3))
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


def test_cli_spectra(tmp_path, capsys):
    cfg = tmp_path / "run.txt"
    cfg.write_text(serialize_config(QUIET))
    out = tmp_path / "spec"
    assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "constants.lam1_bih" in captured.out
    assert (out / "spectra.txt").exists()


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
    assert (out / "u0.csv").exists() and (out / "u1.csv").exists()


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
