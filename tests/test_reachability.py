"""Every function, method and property defined in ``src/kwall`` is reached by a
command or by the verification checklist.

A fresh interpreter installs a profile hook before ``import kwall.cli``, so calls
made at import time count.  It then sends through ``cli.main`` every invocation
of the recorded CLI snapshot (``verify-all`` among them), every valid scenario
document of the fuzz suite as a ``--file``, and the few invalid inputs that
reach helpers only an error path runs.  A definition whose code never ran fails
the test, unless it is listed in ``EXEMPT``.  Dunder methods count when their
code is written in the module's own file; those a dataclass generates do not,
and ``__repr__`` is left out, because a failing assertion prints it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli_snapshot import load
from test_scenario_fuzz import VALID

ROOT = Path(__file__).resolve().parent.parent

# bench/tracer.py looks exact.clip up by name, and the two vector helpers serve only clip
EXEMPT = {"exact.clip", "exact.v2_add", "exact.v2_scale"}

# the command whose --file reads each scenario kind of the fuzz suite
_FILE_COMMAND = {
    "two-ray": ["volume"],
    "toric": ["volume"],
    "wall-case": ["wall"],
    "centroid": ["centroid"],
    "git-binary": ["git", "binary"],
    "git-plane": ["git", "plane"],
    "lct": ["lct"],
}

_PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

called = set()


def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


argvs = json.load(sys.stdin)
sys.setprofile(hook)
import kwall.cli

for argv in argvs:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        kwall.cli.main(argv)
sys.setprofile(None)


def codes(member):
    if isinstance(member, property):
        return [f.__code__ for f in (member.fget, member.fset, member.fdel) if f is not None]
    code = getattr(getattr(member, "__func__", member), "__code__", None)
    return [] if code is None else [code]


modules = sys.argv[1:]
unreached = [name for name in modules if name not in sys.modules]  # never imported
for modname in (name for name in modules if name in sys.modules):
    short = modname.removeprefix("kwall.")
    source = sys.modules[modname].__file__
    for name, obj in vars(sys.modules[modname]).items():
        if getattr(obj, "__module__", None) != modname:
            continue  # imported from elsewhere
        members = vars(obj).items() if isinstance(obj, type) else [(None, obj)]
        for key, member in members:
            if key == "__repr__":
                continue  # a failing assertion prints it
            # code generated for the class (a dataclass's __init__, __eq__, ...) lives in no source file
            if any(code not in called for code in codes(member) if code.co_filename == source):
                unreached.append(short + "." + name + ("" if key is None else "." + key))
print(json.dumps(unreached))
"""


def _invocations(tmp_path: Path) -> list[list[str]]:
    argvs = [entry["argv"] for entry in load()]
    valid = dict(VALID)
    docs = [
        *VALID,
        # a floating-point literal, rejected while the JSON is read
        ("wall-case", {**valid["wall-case"], "A0": 0.5}),
        # u1 = 0 makes the centroid system singular, which reports its rank
        ("centroid", {**valid["centroid"], "u1": ["0", "0", "0"]}),
    ]
    for i, (kind, payload) in enumerate(docs):
        path = tmp_path / f"scenario-{i}.json"
        path.write_text(json.dumps({"kind": kind, "payload": payload}), encoding="utf-8")
        argvs.append([*_FILE_COMMAND[kind], "--file", str(path)])
    return argvs


def test_every_definition_is_reached_by_a_command_or_the_gate(tmp_path):
    # __main__ only calls cli.main, and importing it would run it
    modules = sorted(
        "kwall" if p.stem == "__init__" else f"kwall.{p.stem}"
        for p in (ROOT / "src" / "kwall").glob("*.py") if p.stem != "__main__"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *modules],
        input=json.dumps(_invocations(tmp_path)), capture_output=True, text=True,
        env=env, cwd=ROOT, check=True, timeout=300,
    )
    unreached = set(json.loads(proc.stdout))
    assert sorted(unreached - EXEMPT) == [], "defined in src/kwall but never called"
    # an exemption whose definition is now reached, or gone, must leave the list
    assert sorted(EXEMPT - unreached) == []
