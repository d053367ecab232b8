"""The demo scripts run against the current API.

Every demo runs as a subprocess and must exit 0 without a traceback; each
takes well under a second.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbiflip

DEMOS = Path(__file__).resolve().parent.parent / "demos"
FAST = (
    "cohomology_oracle.py",
    "cotangent_transform.py",
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
