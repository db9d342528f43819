"""Negative controls: every check of the benchmark passes on the
program's real output and fails on a deliberately corrupted one.

    python3 -m pytest perfbench/test_negative_controls.py -q
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import beamblow as bb  # noqa: E402
import checks as C  # noqa: E402
import reference as ref  # noqa: E402
from workloads import BLOWUP_1D, config_text  # noqa: E402

MODEL = ref.Model(p=3.0, r=2.0, gamma=0.5, beta=1.0)
PARAMS = bb.ModelParams(p=3.0, r=2.0, gamma=0.5, beta=1.0)


@pytest.fixture(scope="module")
def run_1d():
    """A short 1D blow-up run (N=48, to max|u| = 1e3)."""
    grid = bb.make_grid(1, 48)
    data = bb.preset("negative_energy", grid, PARAMS)
    traj = bb.simulate(grid, PARAMS, data.u0, data.u1, bb.StepControls(),
                       t_max=10.0, blow_threshold=1e3)
    return grid, data, traj


def brake_only_T_num() -> float:
    cfg = bb.parse_config(config_text(BLOWUP_1D))
    grid, params = cfg.grid(), cfg.model_params()
    data = bb.preset(cfg.preset, grid, params)
    controls = replace(cfg.step_controls(), residual_target=math.inf)
    traj = bb.simulate(grid, params, data.u0, data.u1, controls,
                       t_max=cfg.t_max, blow_threshold=cfg.blow_threshold)
    return bb.detect_blowup(traj.times(), traj.series("lp1_u"),
                            cfg.thresholds).T_num


def test_T_num_reference_rejects_brake_only_run():
    r = ref.load_reference()
    assert C.time_against_reference("T", 0.2395, r.T_blowup).ok
    T_brake = brake_only_T_num()
    assert T_brake < 0.2
    assert not C.time_against_reference("T", T_brake, r.T_blowup).ok


def test_energy_check_rejects_perturbed_stencil(run_1d):
    grid, data, traj = run_1d
    g = ref.Grid(1, 48)
    u, v = traj.final_state.u, traj.final_state.v
    E_prog = traj.records[-1].snap.E

    def check(g):
        return C.close("E", E_prog, ref.energy(g, u, v, MODEL), C.ENERGY_RTOL,
                       scale=ref.energy_scale(g, u, v, MODEL))

    assert check(g).ok
    g.D = g.D.tolil()
    g.D[1, 0] *= 1.0 + 1e-6
    g.D = g.D.tocsr()
    assert not check(g).ok


def test_plate_eigenvalue_rejects_perturbed_stencil():
    grid = bb.make_grid(2, 16)
    lam_prog, _ = bb.smallest_eigen(grid, "biharmonic")
    g = ref.Grid(2, 16)
    assert C.close("lam", lam_prog, ref.lam1_plate(g)[0], C.EIGEN_RTOL).ok
    g.plate = (g.plate * (1.0 + 1e-6)).tocsr()
    assert not C.close("lam", lam_prog, ref.lam1_plate(g)[0], C.EIGEN_RTOL).ok
    lam_lap, _ = bb.smallest_eigen(grid, "laplacian")
    assert C.close("lap", lam_lap, ref.lam1_laplacian(g), C.EIGEN_RTOL).ok
    assert not C.close("lap", lam_lap * (1 + 1e-6), ref.lam1_laplacian(g),
                       C.EIGEN_RTOL).ok


def test_embedding_enclosure_rejects_values_outside():
    grid = bb.make_grid(2, 16)
    consts = bb.compute_constants(grid, replace(PARAMS, dim=2))
    enc = ref.Enclosure(ref.Grid(2, 16), "H")
    lo, hi = enc.bounds(PARAMS.p + 1.0)
    assert C.enclosed("C", lo, consts.C, hi).ok
    assert not C.enclosed("C", lo, 0.95 * lo, hi).ok
    assert not C.enclosed("C", lo, 1.05 * hi, hi).ok


def test_energy_level_rejects_wrong_level():
    grid = bb.make_grid(1, 48)
    g = ref.Grid(1, 48)
    consts = bb.compute_constants(grid, PARAMS)
    B = bb.thm31_constants(PARAMS, consts.B1).B
    R = 3.0 * consts.depth
    d = bb.construct_energy_level(grid, PARAMS, R, B)
    E0 = ref.energy(g, d.u0, d.u1, MODEL)
    scale = ref.energy_scale(g, d.u0, d.u1, MODEL)
    corr = g.inner(d.u0, d.u1)
    assert C.energy_level("R", E0, R, scale, corr, B).ok
    assert not C.energy_level("R", E0, R * 1.001, scale, corr, B).ok
    assert not C.energy_level("R", E0, R, scale, 0.5 * B * R, B).ok


def test_threshold_check_rejects_unfinished_run(run_1d):
    _, _, traj = run_1d
    linf = float(np.max(np.abs(traj.final_state.u)))
    assert C.reached_threshold(traj.termination, linf, 1e3).ok
    assert not C.reached_threshold("time_limit", linf, 1e3).ok
    assert not C.reached_threshold(traj.termination, linf, 2e3).ok


def test_energy_checks_reject_corrupted_series(run_1d):
    grid, data, traj = run_1d
    g = ref.Grid(1, 48)
    E = traj.series("E")
    target, every = bb.StepControls().residual_target, 10
    assert C.energy_nonincreasing(E, target, every).ok
    bumped = E.copy()
    bumped[len(E) // 2] += 0.1 * abs(E[len(E) // 2]) + 1.0
    assert not C.energy_nonincreasing(bumped, target, every).ok

    E0 = ref.energy(g, data.u0, data.u1, MODEL)
    ET = ref.energy(g, traj.final_state.u, traj.final_state.v, MODEL)
    args = (traj.times(), traj.series("dissipation_rate"),
            [rec.energy_residual for rec in traj.records], E, target, every)
    assert C.energy_balance(E0, ET, *args).ok
    assert not C.energy_balance(E0, ET + 0.01 * (E0 - ET), *args).ok


def test_sandwich_rejects_T_num_outside_bounds():
    assert C.sandwich([1e-5, 2e-5], 0.24, [80.0]).ok
    assert not C.sandwich([1e-5, 0.3], 0.24, [80.0]).ok
    assert not C.sandwich([1e-5], 0.24, [0.2]).ok
    assert not C.sandwich([1e-5], None, []).ok
