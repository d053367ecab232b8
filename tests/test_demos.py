"""The demo scripts run against the current API.

The four fast demos run as subprocesses and must exit 0 without a
traceback.  cotangent_transform.py repeats acceptance criterion 6 and takes
about 14 s, so only its orbiflip imports are checked to resolve.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbiflip

DEMOS = Path(__file__).resolve().parent.parent / "demos"
FAST = (
    "cohomology_oracle.py",
    "flop_roundtrips.py",
    "threshold_resolutions.py",
    "weights_and_charts.py",
)


@pytest.mark.parametrize("name", FAST)
def test_fast_demo_runs(name):
    src = str(Path(orbiflip.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout


def test_slow_demo_imports_resolve():
    tree = ast.parse((DEMOS / "cotangent_transform.py").read_text())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "orbiflip"
        for alias in node.names
    ]
    assert imports
    missing = [
        (module, name)
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
