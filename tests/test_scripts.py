"""Every research script imports against the current package, the
three research scripts run end to end on a coarse grid, the runner of
``scripts/bench.py`` reads a run's own counts and stage times, spreads
every measured value, requires the counts to agree, alternates the
sides and counts the after side's pair wins, every function the
benchmark's tracer wraps by name exists, and every benchmark workload
runs and passes its checks at a reduced size, so a renamed helper, a
removed field or a changed signature fails here instead of at its next
run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TIMING_KEYS = ("constants_s", "data_s", "simulate_s", "step_s",
               "diagnostics_s", "bounds_s")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    module = _load(path, f"script_{path.stem}")
    assert callable(getattr(module, "main", None))


def _run_main(monkeypatch, capsys, name: str, *argv: str) -> str:
    module = _load(ROOT / "scripts" / f"{name}.py", f"script_{name}")
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert module.main() == 0
    return capsys.readouterr().out


def test_bound_gap_study_runs(monkeypatch, capsys):
    out = _run_main(monkeypatch, capsys, "bound_gap_study", "--n", "16")
    rows = out.splitlines()[2:5]
    assert [row.split()[0] for row in rows] == ["2.50", "3.00", "4.00"]
    assert all(len(row.split()) == 7 for row in rows)


def test_energy_ladder_simulates_every_level(monkeypatch, capsys):
    out = _run_main(monkeypatch, capsys, "energy_ladder", "--n", "16",
                    "--simulate", "--levels", "-1", "1", "10")
    rows = out.splitlines()[3:]
    assert len(rows) == 3
    # the last column is the detected T_num, "-" when none was found
    assert all(float(row.split()[-1]) > 0.0 for row in rows)


def test_blowup_portrait_writes_its_artifacts(monkeypatch, capsys, tmp_path):
    out = _run_main(monkeypatch, capsys, "blowup_portrait", "--n", "16",
                    "--out", str(tmp_path))
    assert "blowup_detected = true" in out
    assert "sandwich_ok = true" in out
    for name in ("u0.csv", "u1.csv", "timeseries.csv", "report.txt"):
        assert (tmp_path / name).exists(), name


def test_bench_runner_reads_the_counts_of_the_run(tmp_path):
    import beamblow as bb

    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    text = "N = 16\nblow_threshold = 1e3\nthresholds = 10, 100, 1000\n"
    result = bench.measure({"tiny": bench.simulate(text)},
                           {"after": ROOT / "src"}, 1)
    assert bb.run(bb.parse_config(text), tmp_path) == 0
    own = bench.read_report(tmp_path / "report.txt")
    tiny = result["after"]["tiny"]
    # every run.* line of the report is a count, with T_num and its
    # uncertainty, so a counter added to the report needs no edit here
    keys = [line.split(" = ", 1)[0] for line in
            (tmp_path / "report.txt").read_text().splitlines()]
    assert set(own) == ({key for key in keys if key.startswith("run.")}
                        | {"T_num", "T_num_uncertainty"})
    assert {key: tiny[key] for key in own} == own
    assert own["run.termination"] == "blowup_threshold"
    assert own["run.n_steps"] > 0
    assert tiny["wall_s"]["runs"] == [tiny["wall_s"]["median"]]


def test_bench_runner_alternates_the_side_that_runs_first(monkeypatch):
    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    order = []

    def run_once(run, src):
        order.append(src.name)
        return {"wall_s": 1.0}, {}

    monkeypatch.setattr(bench, "run_once", run_once)
    sides = {"before": Path("old"), "after": Path("new")}
    result = bench.measure({"a": bench.Run(("-c", "pass"))}, sides, 3)
    assert order == ["old", "new", "new", "old", "old", "new"]
    assert result["before"]["a"]["wall_s"]["runs"] == [1.0] * 3


def test_bench_runner_counts_the_pair_wins_of_the_after_side(monkeypatch):
    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    # (after, before) by index: (3, 2) lost, (2, 2) a tie, (1, 3) and
    # (1, 4) won
    walls = {"old": iter((2.0, 2.0, 3.0, 4.0)),
             "new": iter((3.0, 2.0, 1.0, 1.0))}

    def run_once(run, src):
        measured = {"wall_s": next(walls[src.name])}
        if src.name == "new":
            measured["timing.step_s"] = 0.5  # the before side has none
        return measured, {}

    monkeypatch.setattr(bench, "run_once", run_once)
    sides = {"before": Path("old"), "after": Path("new")}
    result = bench.measure({"a": bench.Run(("-c", "pass"))}, sides, 4)
    after = result["after"]["a"]
    assert after["wall_s"]["runs"] == [3.0, 2.0, 1.0, 1.0]
    assert (after["wall_s"]["won"], after["wall_s"]["lost"]) == (2, 1)
    assert "won" not in after["timing.step_s"]
    assert "lost" not in after["timing.step_s"]
    assert "won" not in result["before"]["a"]["wall_s"]
    walls["new"] = iter((1.0, 2.0))
    alone = bench.measure({"a": bench.Run(("-c", "pass"))},
                          {"after": Path("new")}, 2)["after"]["a"]
    assert set(alone["wall_s"]) == {"median", "q1", "q3", "runs"}


def test_bench_runner_spreads_every_measured_value(monkeypatch):
    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    runs = iter(range(1, 4))

    def run_once(run, src):
        k = next(runs)
        return ({"wall_s": float(k), "timing.step_s": 0.1 * k},
                {"run.n_steps": 7})

    monkeypatch.setattr(bench, "run_once", run_once)
    result = bench.measure({"a": bench.Run(("-c", "pass"))},
                           {"after": Path("new")}, 3)["after"]["a"]
    assert result["run.n_steps"] == 7
    assert result["wall_s"]["runs"] == [1.0, 2.0, 3.0]
    assert result["timing.step_s"]["runs"] == [0.1, 0.2, 0.1 * 3]
    assert result["timing.step_s"]["median"] == 0.2


def test_bench_runner_requires_the_counts_to_agree(monkeypatch):
    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    steps = iter((7, 8))
    monkeypatch.setattr(bench, "run_once", lambda run, src: (
        {"wall_s": 1.0}, {"run.n_steps": next(steps)}))
    with pytest.raises(RuntimeError, match="counts"):
        bench.measure({"a": bench.Run(("-c", "pass"))},
                      {"after": Path("new")}, 2)


def test_bench_runner_reports_none_for_a_run_without_T_num(monkeypatch):
    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    T_num = {"old": 0.25, "new": "none"}
    monkeypatch.setattr(bench, "run_once", lambda run, src: (
        {"wall_s": 1.0}, {"T_num": T_num[src.name]}))
    sides = {"before": Path("old"), "after": Path("new")}
    result = bench.measure({"1d": bench.simulate("", T_star=0.2)}, sides, 1)
    assert result["after"]["1d"]["T_num_rel_gap"] == "none"
    assert result["before"]["1d"]["T_num_rel_gap"] == pytest.approx(0.25)
    assert result["T_num_rel_change"] == {"1d": "none"}


def test_bench_runner_reads_timing_txt_when_the_side_writes_it(tmp_path):
    import beamblow as bb

    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    text = "N = 16\nblow_threshold = 1e3\nthresholds = 10, 100, 1000\n"
    out = tmp_path / "out"
    assert bb.run(bb.parse_config(text), out) == 0
    # a side whose runs write no timing.txt, as before the file existed
    (out / "timing.txt").unlink()
    copy = bench.Run(("-c", f"import shutil; shutil.copytree({str(out)!r}, "
                            "'out')"), config=text)
    measured, counts = bench.run_once(copy, ROOT / "src")
    assert list(measured) == ["wall_s"]
    assert counts == bench.read_report(out / "report.txt")
    measured, _ = bench.run_once(bench.simulate(text), ROOT / "src")
    assert sorted(measured) == sorted(
        ["wall_s"] + [f"timing.{key}" for key in TIMING_KEYS])


def test_bench_forms_row_keeps_factor_bytes_as_a_count():
    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    result = bench.measure({"16": bench.measure_run("2d_forms", 16)},
                           {"after": ROOT / "src"}, 1)["after"]["16"]
    for form in ("lap", "H"):
        assert result[f"{form}.factor_bytes"] > 0
        for key in ("setup_ms", "us_per_solve"):
            assert result[f"{form}.{key}"]["runs"][0] > 0.0
    assert set(result) == {"wall_s"} | {
        f"{form}.{key}" for form in ("lap", "H")
        for key in ("setup_ms", "us_per_solve", "factor_bytes")}


def test_bench_energy_levels_row_keeps_the_field_probes_as_a_count():
    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    result = bench.measure({"16": bench.measure_run("energy_levels", 16)},
                           {"after": ROOT / "src"}, 2)["after"]["16"]
    assert set(result) == {"wall_s", "ms_per_level", "field_probes"}
    # 3 source exponents times 7 levels, at least one probe each
    assert result["field_probes"] >= 21
    assert len(result["ms_per_level"]["runs"]) == 2
    assert min(result["ms_per_level"]["runs"]) > 0.0


def test_bench_constants_row_keeps_the_sweeps_as_a_count():
    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    result = bench.measure({"16": bench.measure_run("constants", 16)},
                           {"after": ROOT / "src"}, 2)["after"]["16"]
    assert set(result) == {"wall_s", "ms_per_constants", "sweeps"}
    # 3 source exponents, 4 constants each, one shared: 11 embedding
    # constants of at least one sweep from each of five starts
    assert result["sweeps"] >= 55
    assert len(result["ms_per_constants"]["runs"]) == 2
    assert min(result["ms_per_constants"]["runs"]) > 0.0


def test_closure_bytes_leave_out_shared_arrays():
    # a form's factor_bytes count what the form owns, not the grid's
    # sine matrix that its solve shares with every other form
    bench = _load(ROOT / "scripts" / "bench.py", "script_bench")
    owned, shared = np.zeros(10), np.zeros(3)

    def solve():
        return owned, (shared,)

    assert bench.closure_bytes(solve) == 104
    assert bench.closure_bytes(solve, (shared,)) == 80


def test_every_traced_function_exists():
    # perfbench/tracing.py looks each name up with getattr when
    # ``--trace 1`` starts, and its CG counter calls
    # solvers.operator_norm_estimate; a missing one stops the run
    tracing = _load(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")
    names = [(short, fname) for short, fnames in tracing.TRACED.items()
             for fname in fnames] + [("solvers", "operator_norm_estimate")]
    missing = [f"{short}.{fname}" for short, fname in names
               if not callable(getattr(importlib.import_module(
                   f"beamblow.{short}"), fname, None))]
    assert not missing


def test_benchmark_workloads_run_and_pass_their_checks(monkeypatch,
                                                       tmp_path):
    # the benchmark's workloads, checks and reference model import each
    # other by their bare module names
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import beamblow as bb
    import workloads as W

    reduced = {
        "blowup_1d": W.Blowup({**W.BLOWUP_1D, "N": 32}, False),
        "blowup_2d": W.Blowup({**W.BLOWUP_2D, "N": 16}, False),
        "constants_2d": W.Constants({**W.CONSTANTS_2D, "N": 16}, (3.0,)),
    }
    assert set(reduced) == set(W.WORKLOADS)
    for name, workload in reduced.items():
        cfg = bb.parse_config(workload.config_text(0))
        outcome = workload.work(bb, cfg, cfg.grid(), tmp_path / name)
        assert outcome.attempted > 0 and outcome.failed == 0, (
            name, outcome.outputs.get("errors"))
        checks = workload.check(bb, cfg, cfg.grid(), outcome)
        checks += workload.parent_check([outcome.outputs])
        assert checks
        failed = [(c.name, c.detail) for c in checks if not c.ok]
        assert not failed, (name, failed)
