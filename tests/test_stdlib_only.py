"""orbiflip runs on the standard library alone.

The package declares no runtime dependency, so importing it (and the CLI)
must load no third-party module, even where one happens to be installed.
A fresh interpreter is used so that modules the test runner already loaded
do not hide an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import orbiflip, orbiflip.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded)))
"""


def test_import_loads_only_stdlib_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(done.stdout)
    assert "orbiflip" in loaded
    stdlib = sys.stdlib_module_names
    assert [name for name in loaded if name != "orbiflip" and name not in stdlib] == []
