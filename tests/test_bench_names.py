"""The benchmark's tracer looks kwall functions up by name: every name it lists
must resolve after ``import kwall.cli``, in a fresh interpreter."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in a fresh interpreter, so no module another test imported can hide a lazy import
_PROBE = """
import importlib.util, json, sys
import kwall.cli
loaded = "kwall.acceptance" in sys.modules
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
pairs = [entry[:2] for entry in tracer.SPANS.values()] + list(tracer.COUNTS.values())
missing = [f"{mod}.{attr}" for mod, attr in pairs
           if mod not in sys.modules or not callable(getattr(sys.modules[mod], attr, None))]
if loaded and not isinstance(getattr(sys.modules["kwall.acceptance"], "CRITERIA", None), list):
    missing.append("kwall.acceptance.CRITERIA")
print(json.dumps({"acceptance_loaded": loaded, "pairs": len(pairs), "missing": missing}))
"""


def test_tracer_names_resolve_after_importing_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "bench" / "tracer.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    got = json.loads(proc.stdout)
    # the tracer reads sys.modules["kwall.acceptance"].CRITERIA: cli must import acceptance eagerly
    assert got["acceptance_loaded"]
    assert got["pairs"] > 0
    assert got["missing"] == []
