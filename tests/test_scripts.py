"""Every research script imports against the current package, and every
function the benchmark's tracer wraps by name exists, so a renamed
helper fails here instead of at its next run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
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
