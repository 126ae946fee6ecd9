"""The demos import only names that ttalab has, and the quick ones run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ttalab

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
# each runs in 1-2 s; the other demos train or sweep for longer
QUICK_DEMOS = ["01_entropy_descent.py", "02_minibatch_kmeans.py",
               "06_feature_density.py"]


def ttalab_imports(path):
    """(module, name) for every ``from ttalab... import name`` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "ttalab"
            for alias in node.names]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_exist(demo):
    imports = ttalab_imports(demo)
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name, tmp_path):
    src = str(Path(ttalab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMO_DIR / name)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
