"""The package's import set: numpy, scipy.sparse and scipy.linalg only.

scipy.integrate pulls scipy.special and scipy.optimize in with it, and
together they cost more start-up time than a default 1D run spends
integrating.  A fresh interpreter imports beamblow, runs a short 1D
pipeline with its bound report and the 2D constants, and must not have
loaded any of them."""

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
import beamblow as bb
loaded = {{"import": [m for m in kept_out if m in sys.modules]}}
config = bb.parse_config("N = 32\\nblow_threshold = 1e2\\n"
                         "thresholds = 5, 10, 20, 50\\n")
code = bb.run(config, {out!r})
report = open({out!r} + "/report.txt").read()
loaded["run"] = [m for m in kept_out if m in sys.modules]
bb.compute_constants(bb.make_grid(2, 8), config.model_params())
loaded["constants"] = [m for m in kept_out if m in sys.modules]
print(json.dumps({{"code": code, "lower": "lower.T_lower_34_truncated"
                  in report, "loaded": loaded}}))
"""


def test_pipeline_loads_no_scipy_integrate_special_optimize(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c",
         PROGRAM.format(kept_out=KEPT_OUT, out=str(tmp_path / "run"))],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0 and result["lower"]
    assert result["loaded"] == {"import": [], "run": [], "constants": []}
