"""The package's import set: numpy alone, and scipy.linalg for the 1d
banded solves.

Importing beamblow loads no scipy module, and neither does a 2D run or
the 2D constants: the 2D operators are numpy stencils and the 2D solves
numpy products.  A 1D run loads scipy.linalg, for LAPACK's banded
Cholesky solve, and not scipy.sparse.  scipy.integrate pulls
scipy.special and scipy.optimize in with it, and together they cost
more start-up time than a default 1D run spends integrating, so no run
may load them.  Each fresh interpreter below imports beamblow and runs a
short pipeline with its bound report, then the 2D constants."""

import json
import os
import subprocess
import sys
from pathlib import Path

import beamblow

SRC = Path(beamblow.__file__).resolve().parent.parent
KEPT_OUT = ("scipy.integrate", "scipy.special", "scipy.optimize",
            "scipy.sparse.linalg")

PROGRAM = """
import json, sys
kept_out = {kept_out!r}

def loaded():
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    return {{"kept_out": [m for m in kept_out if m in sys.modules],
             "scipy": scipy != [], "linalg": "scipy.linalg" in scipy,
             "sparse": "scipy.sparse" in scipy}}

import beamblow as bb
seen = {{"import": loaded()}}
config = bb.parse_config({config!r})
code = bb.run(config, {out!r})
report = open({out!r} + "/report.txt").read()
seen["run"] = loaded()
bb.compute_constants(bb.make_grid(2, 8), config.model_params())
seen["constants"] = loaded()
print(json.dumps({{"code": code, "lower": "lower.T_lower_34_truncated"
                  in report, "seen": seen}}))
"""

NOTHING = {"kept_out": [], "scipy": False, "linalg": False, "sparse": False}


def _pipeline(config: str, out: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c",
         PROGRAM.format(kept_out=KEPT_OUT, config=config, out=str(out))],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0 and result["lower"]
    return result["seen"]


def test_2d_pipeline_loads_no_scipy(tmp_path):
    seen = _pipeline("dim = 2\nN = 16\nblow_threshold = 1e2\n"
                     "thresholds = 5, 10, 20, 50\n", tmp_path / "run")
    assert seen == {"import": NOTHING, "run": NOTHING, "constants": NOTHING}


def test_pipeline_loads_no_scipy_integrate_special_optimize(tmp_path):
    # a 1D run, then the 2D constants in the same process
    seen = _pipeline("N = 32\nblow_threshold = 1e2\n"
                     "thresholds = 5, 10, 20, 50\n", tmp_path / "run")
    linalg_only = {"kept_out": [], "scipy": True, "linalg": True,
                   "sparse": False}
    assert seen == {"import": NOTHING, "run": linalg_only,
                    "constants": linalg_only}
