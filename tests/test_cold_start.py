"""A fresh ``import kwall.cli`` loads neither ``dataclasses`` nor ``inspect``.

kwall's records are named tuples, which generate no methods at import; a
``dataclass`` declaration would ``exec`` its generated methods and import
``dataclasses``, which imports ``inspect``.  The probe compares the module
set before and after the import, because a site ``.pth`` file may preload
modules before any kwall code runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json, sys
before = set(sys.modules)
import kwall.cli
added = set(sys.modules) - before
print(json.dumps({"cli": "kwall.cli" in added, "added": sorted({"dataclasses", "inspect"} & added)}))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=env, cwd=ROOT, check=True, timeout=60)
    assert json.loads(proc.stdout) == {"cli": True, "added": []}
