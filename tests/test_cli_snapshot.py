"""Replay of a recorded CLI output snapshot.

``tests/data/cli_snapshot.json`` holds stdout, stderr and the exit code of
every registry name under each command that takes it (text and ``--json``),
every README command, and the unknown-fixture error of every command that
takes ``--fixture``.  The replay requires byte-identical output.  The README
commands are kept by hand here and in the CI workflow; a test parses the
README's ``## Command line`` block and requires both copies to match it.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

from __future__ import annotations

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kwall import cli, fixtures

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "data" / "cli_snapshot.json"

README_COMMANDS = (
    ("walls", "quintic"),
    ("wall", "--fixture", "a12"),
    ("first-wall", "--degree", "7"),
    ("volume", "--fixture", "p114-w31"),
    ("lct", "--germ", "2,0 0,13"),
    ("lct", "--quasihomog", "2,1,5"),
    ("index-bound", "--degree", "5", "--coeff", "57/100"),
    ("centroid", "--fixture", "centroid-a10-case1"),
    ("git", "binary", "--fixture", "quartic-binary-unstable"),
    ("git", "plane", "--fixture", "q5-double-conic-line"),
    ("cm", "--n", "2", "--degree", "5", "--coeff", "1/5"),
    ("stratum", "--coords", "0,1,0,1"),
    ("stratum", "--fixture", "quintic-strata"),
    ("verify-all",),
)

FIXTURE_COMMANDS = (
    ("wall",), ("volume",), ("centroid",), ("lct",),
    ("git", "binary"), ("git", "plane"), ("stratum",),
)


def registry_commands(name: str) -> list[tuple[str, ...]]:
    """Every command that takes ``--fixture name``."""
    commands = [command for table, command in (
        (fixtures.CENTROID_FIXTURES, ("centroid",)),
        (fixtures.VOLUME_FIXTURES, ("volume",)),
        (fixtures.LCT_FIXTURES, ("lct",)),
        ({**fixtures.BINARY_FIXTURES, "quartic-binary": None}, ("git", "binary")),
        (fixtures.PLANE_GIT_FIXTURES, ("git", "plane")),
        ({"quintic-strata": None}, ("stratum",)),
        (fixtures.WALL_FIXTURES, ("wall",)),
    ) if name in table]
    return commands or [("wall",)]  # the first-wall aliases and the delta bounds


def snapshot_argvs() -> list[list[str]]:
    commands = [(*command, "--fixture", n) for n in fixtures.REGISTRY_NAMES for command in registry_commands(n)]
    commands += README_COMMANDS
    commands += [(*c, "--fixture", "no-such-fixture") for c in FIXTURE_COMMANDS]
    return [[*prefix, *c] for c in commands for prefix in ((), ("--json",))]


def capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> list[dict]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_covers_every_registry_name():
    assert [e["argv"] for e in load()] == snapshot_argvs()


def test_readme_commands_are_the_ones_the_snapshot_and_ci_run():
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    readme = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "kwall" for argv in readme)
    assert [tuple(argv[1:]) for argv in readme] == list(README_COMMANDS)
    # the CI job runs the checklist in steps of its own and each other README command in one
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    ci = [shlex.split(line)[3:] for line in workflow.splitlines() if line.strip().startswith("python -m kwall ")]
    assert ci == [argv[1:] for argv in readme if argv[1:] != ["verify-all"]]
    assert "run: PYTHONPATH=src python -m kwall verify-all\n" in workflow


# a missing file fails the coverage test above, not collection
@pytest.mark.parametrize("entry", load() if SNAPSHOT.exists() else [], ids=lambda e: " ".join(e["argv"]))
def test_output_matches_snapshot(entry):
    assert capture(entry["argv"]) == entry


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    entries = [capture(argv) for argv in snapshot_argvs()]
    SNAPSHOT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} invocations in {SNAPSHOT}")
