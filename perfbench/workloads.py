"""The three workloads: their inputs, the timed work, and their checks.

Module-level imports are standard library only, so that a worker's
set-up time measures the program's imports and not the benchmark's.
``work`` runs inside the timed region; ``check`` runs after it, in the
same process, against the benchmark's own model in ``reference.py``;
``parent_check`` runs once per benchmark run, in the driver process,
for references too costly to rebuild in every repetition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

# RunConfig keys of the default 1D run; the blow threshold is lowered
# from 1e9 because every decade of growth costs the same per-step mix.
BLOWUP_1D = {"dim": 1, "N": 128, "p": 3.0, "r": 2.0, "gamma": 0.5,
             "beta": 1.0, "blow_threshold": 1e4,
             "thresholds": (1e2, 3e2, 1e3, 3e3)}
# 2D N=64 from max|u(0)| = 187 through the onset of blow-up at 500.
BLOWUP_2D = {"dim": 2, "N": 64, "blow_threshold": 500.0,
             "thresholds": (110.0, 130.0, 160.0, 200.0)}
CONSTANTS_2D = {"dim": 2, "N": 96, "preset": "high_energy"}
CONSTANTS_P = (2.5, 3.0, 4.0)


def config_text(keys: dict) -> str:
    def value(v):
        if isinstance(v, tuple):
            return ", ".join(repr(x) for x in v)
        return repr(v) if isinstance(v, float) else str(v)
    return "".join(f"{k} = {value(v)}\n" for k, v in keys.items())


@dataclass
class Outcome:
    attempted: int
    failed: int
    result: object = None
    outputs: dict = field(default_factory=dict)
    accepted_steps: int = 0


class Workload:
    def parent_check(self, outputs: list[dict]) -> list:
        return []


# -- blow-up runs -------------------------------------------------------------

class Blowup(Workload):
    """One ``harness.run`` to the blow threshold, artifacts written."""

    ops_per_rep = 1

    def __init__(self, keys: dict, with_reference: bool):
        self.keys = keys
        self.with_reference = with_reference

    def config_text(self, seed: int) -> str:
        # the program's RNG seed; the blow-up pipeline does not draw on it
        return config_text({**self.keys, "seed": seed})

    def work(self, bb, cfg, grid, out: Path) -> Outcome:
        captured = []
        write = bb.harness.write_artifacts

        def capture(path, artifacts):
            captured.append(artifacts)
            return write(path, artifacts)

        bb.harness.write_artifacts = capture
        try:
            code = bb.harness.run(cfg, out)
        finally:
            bb.harness.write_artifacts = write
        if code != 0 or len(captured) != 1:
            return Outcome(1, 1, outputs={"errors": [f"exit code {code}"]})
        return Outcome(1, 0, captured[0],
                       accepted_steps=captured[0].traj.n_steps)

    def check(self, bb, cfg, grid, outcome: Outcome) -> list:
        import numpy as np

        import checks as C
        import reference as ref

        arts = outcome.result
        if arts is None:  # the failed run is counted, not checked
            return []
        traj, report = arts.traj, arts.report
        g = ref.Grid(cfg.dim, cfg.N, cfg.extent)
        m = ref.Model(cfg.p, cfg.r, cfg.gamma, cfg.beta)
        u0, u1 = arts.data.u0, arts.data.u1
        uT, vT = traj.final_state.u, traj.final_state.v
        E0, ET = ref.energy(g, u0, u1, m), ref.energy(g, uT, vT, m)
        t = traj.times()
        own_u0 = ref.negative_energy_data(g, m)
        T_num = report.T_num
        out = [
            C.close("initial_data", float(np.max(np.abs(u0 - own_u0))), 0.0,
                    1e-5, scale=float(np.max(np.abs(own_u0)))),
            C.close("initial_energy", traj.records[0].snap.E, E0,
                    C.ENERGY_RTOL, scale=ref.energy_scale(g, u0, u1, m)),
            C.close("final_energy", traj.records[-1].snap.E, ET,
                    C.ENERGY_RTOL, scale=ref.energy_scale(g, uT, vT, m)),
            C.reached_threshold(traj.termination, float(np.max(np.abs(uT))),
                                cfg.blow_threshold),
            C.energy_nonincreasing(traj.series("E"),
                                   cfg.step_controls().residual_target,
                                   cfg.output_every),
            C.energy_balance(E0, ET, t, traj.series("dissipation_rate"),
                             [rec.energy_residual for rec in traj.records],
                             traj.series("E"),
                             cfg.step_controls().residual_target,
                             cfg.output_every),
            C.sandwich([report.lowers.T_lower_34_truncated,
                        report.lowers.T_lower_35], T_num,
                       [] if report.T_upper is None else [report.T_upper]),
        ]
        if self.with_reference:
            r = ref.load_reference()
            same = ((r.N, r.p, r.r, r.gamma, r.beta, r.blow_threshold)
                    == (cfg.N, cfg.p, cfg.r, cfg.gamma, cfg.beta,
                        cfg.blow_threshold) and cfg.dim == 1)
            out.append(C.Check("reference_matches_config", same,
                               "cached Radau reference made for this run"))
            linf = traj.series("linf_u")
            frac = ((np.log(cfg.blow_threshold) - np.log(linf[-2]))
                    / (np.log(linf[-1]) - np.log(linf[-2])))
            T_hit = float(t[-2] + frac * (t[-1] - t[-2]))
            out.append(C.time_against_reference("threshold_time_vs_radau",
                                                T_hit, r.T_threshold))
            out.append(C.time_against_reference("T_num_vs_radau",
                                                T_num, r.T_blowup))
        return out


# -- constants ---------------------------------------------------------------

class Constants(Workload):
    """Variational constants over a ladder of source exponents on one 2D
    grid, then energy-level constructions over an energy ladder."""

    def __init__(self, keys: dict, ps: tuple[float, ...]):
        self.keys = keys
        self.ps = ps

    def ladder(self, seed: int) -> tuple[list[float], float]:
        """Energy levels as multiples of the well depth d, from -2d to
        100d, and the preset's energy level; drawn from the seed."""
        rng = random.Random(seed)
        factors = [-2.0, -rng.uniform(0.1, 1.0), rng.uniform(0.01, 0.5),
                   1.0, rng.uniform(2.0, 20.0), 100.0]
        return factors, rng.uniform(10.0, 40.0)

    @property
    def ops_per_rep(self) -> int:
        return len(self.ps) * (len(self.ladder(0)[0]) + 2)

    def config_text(self, seed: int) -> str:
        return config_text({**self.keys, "seed": seed,
                            "energy_R": self.ladder(seed)[1]})

    def work(self, bb, cfg, grid, out: Path) -> Outcome:
        factors, _ = self.ladder(cfg.seed)
        per_block = len(factors) + 2
        outcome = Outcome(0, 0, [], {"constants": []})
        for p in self.ps:
            outcome.attempted += per_block
            try:
                params = replace(cfg, p=p).model_params()
                consts = bb.compute_constants(grid, params)
                B = bb.thm31_constants(params, consts.B1).B
                levels = [f * consts.depth for f in factors]
                data = [bb.construct_energy_level(grid, params, R, B)
                        for R in levels]
                data.append(bb.preset(cfg.preset, grid, params,
                                      energy_R=cfg.energy_R))
            except Exception as exc:  # counted as failed operations
                outcome.failed += per_block
                outcome.outputs.setdefault("errors", []).append(
                    f"p={p:g}: {type(exc).__name__}: {exc}")
                continue
            outcome.result.append((params, B, levels + [cfg.energy_R], data))
            outcome.outputs["constants"].append(
                {"p": p, **{k: float(getattr(consts, k)) for k in
                            ("lam1_lap", "lam1_bih", "C", "C_a", "C_b",
                             "B_star")}})
        return outcome

    def check(self, bb, cfg, grid, outcome: Outcome) -> list:
        import checks as C
        import reference as ref

        g = ref.Grid(cfg.dim, cfg.N, cfg.extent)
        out = []
        for params, B, levels, data in outcome.result:
            m = ref.Model(params.p, params.r, params.gamma, params.beta)
            for R, d in zip(levels, data):
                out.append(C.energy_level(
                    f"p={params.p:g} R={R:.6g}", ref.energy(g, d.u0, d.u1, m),
                    R, ref.energy_scale(g, d.u0, d.u1, m),
                    g.inner(d.u0, d.u1), B))
        return out

    def parent_check(self, outputs: list[dict]) -> list:
        """Eigenvalues against a closed form and an eigensolver on the
        benchmark's own plate matrix; embedding constants inside their
        enclosures."""
        import checks as C
        import reference as ref

        g = ref.Grid(self.keys["dim"], self.keys["N"])
        lam_lap = ref.lam1_laplacian(g)
        lam_bih, _ = ref.lam1_plate(g)
        enclosures = {k: ref.Enclosure(g, k) for k in ("H", "grad", "lap")}
        out = []
        for rep in outputs:
            for c in rep["constants"]:
                p = c["p"]

                def within(name: str, kind: str, q: float):
                    lower, upper = enclosures[kind].bounds(q)
                    return C.enclosed(f"p={p:g} {name}", lower, c[name], upper)

                out += [
                    C.close(f"p={p:g} lam1_lap", c["lam1_lap"], lam_lap,
                            C.EIGEN_RTOL),
                    C.close(f"p={p:g} lam1_bih", c["lam1_bih"], lam_bih,
                            C.EIGEN_RTOL),
                    within("C", "H", p + 1.0),
                    within("C_a", "grad", p + 1.0),
                    within("C_b", "lap", p + 1.0),
                    within("B_star", "lap", 2.0 * p),
                ]
        return out


WORKLOADS = {
    "blowup_1d": Blowup(BLOWUP_1D, with_reference=True),
    "blowup_2d": Blowup(BLOWUP_2D, with_reference=False),
    "constants_2d": Constants(CONSTANTS_2D, CONSTANTS_P),
}
