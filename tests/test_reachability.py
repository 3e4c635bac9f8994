"""Every function, method and property defined in ``src/kwall`` is reached by a
command or by the verification checklist, and so is every ``raise`` statement
above the exact kernels.

A fresh interpreter installs a trace hook before ``import kwall.cli``, so calls
made at import time count.  It then sends through ``cli.main`` every invocation
of the recorded CLI snapshot (``verify-all`` among them), every valid scenario
document of the fuzz suite as a ``--file``, two invalid documents of that suite,
and every invocation of ``INVALID``.  The hook records the code objects called
and the lines run in ``src/kwall``.

A definition whose code never ran fails the test, unless it is listed in
``EXEMPT``.  Dunder methods count when their code is written in the module's own
file; those a dataclass generates do not, and ``__repr__`` is left out, because
a failing assertion prints it.

A ``raise`` statement counts as reached when a line of its span ran.  Every
module is in scope but two: the ``CheckFailed`` raises of ``acceptance`` are the
gate itself, which the mutant tests of ``test_acceptance.py`` reach, and the
raises of ``exact`` are the kernels' input contracts, which the kernel property
tests compare raise for raise with ``tests/oracles.py``.  No raise is exempt.

``INVALID`` holds an invocation for each reachable raise in scope, with the
exact error line it prints; the CLI snapshot pins those of the unknown-fixture
raises.  It also pins the lines of the ``exact`` raises that a scenario file
reaches through a rational field or a moment polygon.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kwall import cli
from test_cli_snapshot import load
from test_scenario_fuzz import VALID

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kwall"

# bench/tracer.py looks exact.clip up by name, and the two vector helpers serve only clip
EXEMPT = {"exact.clip", "exact.v2_add", "exact.v2_scale"}

# the modules whose raise statements are not in scope, and why: see the module docstring
RAISE_SCOPE_EXCLUDED = {"acceptance.py", "exact.py"}

# the command whose --file reads each scenario kind
_FILE_COMMAND = {
    kind: command.split("-", 1) if command.startswith("git-") else [command]
    for command, kinds in cli._FILE_KINDS.items() for kind in kinds
}


def _file(command: str, kind: str, payload: dict, **doc) -> tuple[list[str], dict]:
    """The argv and document of a --file invocation of a scenario of this kind."""
    return [*command.split(), "--file"], {"kind": kind, "payload": payload, **doc}


_A12 = {"h2": "1", "e2": "1/26", "neg_curve": ["5", "26"], "L": ["1", "0"], "anti_k": ["3", "5"]}
_WALL = {"A0": "7", "ordD": "12", "S0": "49/30", "alpha": "3", "beta": "5"}
_CONE = {"generators": [["0", "0", "-1"], ["-1", "1", "-2"], ["1", "0", "6"]],
         "xi0": ["0", "1", "0"], "eta0star": ["0", "0", "1"], "u1": ["12", "10", "-1"]}
_OCTIC = {"parity": "even", "degree": 4, "forms": {"2": [[5, 3]]}}
_QUINTIC = {"parity": "odd", "degree": 5}
_PLANE = {"degree": 5, "monomials": [[1, 4, 0]], "lambda": [-1, 2, -1]}
_DIGITS = sys.get_int_max_str_digits()

# (argv, --file document or None, error line): an invocation for each reachable raise in scope but the
# unknown-fixture ones, whose lines the CLI snapshot pins; a document given as bytes is written as is
INVALID: list[tuple[list[str], object, str]] = [
    # cli: reading a scenario file
    (["lct", "--file", "no-such-scenario.json"], None,
     "cannot read scenario file 'no-such-scenario.json': "
     "[Errno 2] No such file or directory: 'no-such-scenario.json'"),
    (["lct", "--file"], b"\xff",
     "field '<root>': scenario file is not UTF-8: "
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (["lct", "--file"], b"", "field '<root>': empty scenario file"),
    (["lct", "--file"], b"nope", "field '<root>': invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    (*_file("wall", "wall-case", {**_WALL, "A0": 0.5}),
     "field '<root>': floating-point literal '0.5' rejected; encode rationals as 'p/q'"),
    (["lct", "--file"], [], "field '<root>': scenario document must be a JSON object"),
    (*_file("lct", "nope", {}),
     "field 'kind': unknown scenario kind 'nope'; expected one of ['centroid', 'cm', 'git-binary', "
     "'git-plane', 'index', 'lct', 'stratum', 'toric', 'two-ray', 'wall-case']"),
    (["lct", "--file"], {"kind": "lct", "payload": []}, "field 'payload': expected a JSON object"),
    (*_file("lct", "lct", {"germ": [[1, 0]]}, provenance=5), "field 'provenance': expected a string"),
    (*_file("wall", "lct", {"germ": [[1, 0]]}), "field 'kind': command expects one of ['wall-case'], got 'lct'"),
    # cli: the payload schema
    (*_file("lct", "lct", {"germ": [[1, 0]], "nmae": "x"}),
     "field 'nmae': unknown field; kind 'lct' reads ['germ', 'quasihomog']"),
    (*_file("wall", "wall-case", {"A0": "7"}), "field 'ordD': missing"),
    (*_file("wall", "wall-case", {**_WALL, "name": 5}), "field 'name': expected a string, got 5"),
    (*_file("volume", "two-ray", {**_A12, "h2": "x"}), "field 'h2': malformed rational 'x'; expected 'p/q' or an integer"),
    (*_file("git plane", "git-plane", {**_PLANE, "degree": "5"}), "field 'degree': expected an integer, got '5'"),
    (*_file("volume", "two-ray", {**_A12, "L": "1"}), "field 'L': expected a list"),
    (*_file("volume", "two-ray", {**_A12, "L": ["1"]}), "field 'L': expected 2 entries, got 1"),
    (*_file("git binary", "git-binary", {**_OCTIC, "forms": []}),
     "field 'forms': expected an object mapping block index to monomials"),
    (*_file("git binary", "git-binary", {**_OCTIC, "forms": {"x": [[5, 3]]}}),
     "field 'forms.x': block index must be an integer in canonical digits"),
    (*_file("lct", "lct", {"germ": [[1, 0]], "quasihomog": [2, 1, 5]}),
     "field 'germ': give the germ as 'germ' or as 'quasihomog', not both"),
    # cli: inline flags
    (["lct", "--germ", "1,2,3"], None, "field 'germ': expected 'i,j' pairs, got '1,2,3'"),
    (["lct", "--germ", "a,b"], None, "field 'germ': non-integer exponent in 'a,b'"),
    (["lct", "--germ", ""], None, "field 'germ': no monomials given"),
    (["lct", "--quasihomog", "a,b,c"], None, "field 'quasihomog': expected 'w1,w2,degree' integers, got 'a,b,c'"),
    # git
    (["cm", "--n", "0", "--degree", "5", "--coeff", "1/5"], None, "dimension and degree must be positive"),
    (["cm", "--n", "2", "--degree", "1", "--coeff", "1/5"], None, "degree must be at least 2"),
    # decided from bit lengths, before the power (n + 1 - cd)^n is taken: the base 10^9, then 1/2
    (["cm", "--n", "1000000000", "--degree", "5", "--coeff", "1/5"], None,
     f"value too large to print: its numerator has more than {_DIGITS} digits"),
    (["cm", "--n", "1000000000", "--degree", "5", "--coeff", "2000000001/10"], None,
     f"value too large to print: its denominator has more than {_DIGITS} digits"),
    (*_file("git plane", "git-plane", {**_PLANE, "monomials": []}), "curve support must be nonempty"),
    (*_file("git plane", "git-plane", {**_PLANE, "monomials": [[-1, 6, 0]]}), "exponents must be nonnegative"),
    (*_file("git plane", "git-plane", {**_PLANE, "monomials": [[1, 1, 1]]}), "monomial (1, 1, 1) does not have degree 5"),
    (*_file("git plane", "git-plane", {**_PLANE, "lambda": [0, 0, 0]}), "one-parameter subgroup must be nontrivial"),
    (*_file("git plane", "git-plane", {**_PLANE, "lambda": [1, 0, 0]}), "torus weights must sum to zero"),
    (*_file("git binary", "git-binary", {**_OCTIC, "parity": "none"}), "parity must be 'even' or 'odd'"),
    (*_file("git binary", "git-binary", {**_OCTIC, "degree": 5}), "even-parity system needs even degree"),
    (*_file("git binary", "git-binary", {**_OCTIC, "parity": "odd"}), "odd-parity system needs odd degree"),
    (*_file("git binary", "git-binary", {**_OCTIC, "forms": {}}), "all-zero system is the excluded cone point"),
    (*_file("git binary", "git-binary", {**_OCTIC, "forms": {"3": [[6, 6]]}}), "even block index 3 out of range"),
    (*_file("git binary", "git-binary", {**_QUINTIC, "forms": {"3": [[7, 7]]}}), "odd block index 3 out of range"),
    (*_file("git binary", "git-binary", {**_OCTIC, "forms": {"2": [[1, 1]]}}),
     "monomial (1, 1) invalid in block 2 of degree 8"),
    (*_file("git binary", "git-binary", {**_QUINTIC, "forms": {"1": [[3, 3]]}}),
     "the odd degree-6 block only carries x^6 and y^6"),
    # toric_kps
    (*_file("centroid", "centroid", {**_CONE, "generators": [["0", "0", "-2"], *_CONE["generators"][1:]]}),
     "field 'generators[0]': (0, 0, -2) is not a primitive integer vector"),
    (*_file("centroid", "centroid", {**_CONE, "generators": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]}),
     "field 'generators': cone generators are linearly dependent"),
    (*_file("centroid", "centroid", {**_CONE, "xi0": ["0", "-1", "0"]}), "field 'xi0': Reeb vector must lie in the interior of the cone"),
    (*_file("centroid", "centroid", {**_CONE, "eta0star": ["0", "1", "0"]}), "field 'eta0star': eta0* must pair to zero with the Reeb vector"),
    # valuations
    (["lct", "--germ", "0,0"], None, "field 'germ': lct undefined for a unit germ"),
    (*_file("lct", "lct", {"germ": []}), "field 'germ': germ support must be nonempty"),
    (*_file("lct", "lct", {"germ": [[-1, 2]]}), "field 'germ': exponents must be nonnegative"),
    (["lct", "--quasihomog", "0,1,5"], None, "field 'quasihomog': weights and degree must be positive"),
    # gcd(2, 2) does not divide 5, so no monomial has weighted degree 5
    (["lct", "--quasihomog", "2,2,5"], None, "field 'quasihomog': no monomial x^i y^j has 2 i + 2 j = 5"),
    (["index-bound", "--degree", "0", "--coeff", "1/5"], None, "field 'degree': degree must be positive"),
    (["index-bound", "--degree", "5", "--coeff", "3/5"], None, "field 'coeff': coefficient must lie in (0, 3/5)"),
    # volumes: the two-ray model
    (*_file("volume", "two-ray", {**_A12, "h2": "0"}), "field 'h2': (H^2) must be positive"),
    (*_file("volume", "two-ray", {**_A12, "e2": "0"}), "field 'e2': -(E^2) must be positive"),
    (*_file("volume", "two-ray", {**_A12, "e2": "1", "neg_curve": ["2", "1"]}),
     "field 'neg_curve': declared negative curve has (Cbar^2) > 0"),
    (*_file("volume", "two-ray", {**_A12, "e2": "1", "neg_curve": ["-1", "3"]}),
     "field 'neg_curve': H.Cbar < 0, so Cbar = aH - bE is not effective"),
    (*_file("volume", "two-ray", {**_A12, "e2": "1", "neg_curve": ["1", "-1"]}),
     "field 'neg_curve': E.Cbar <= 0, so Cbar = aH - bE is not a curve other than E"),
    (*_file("volume", "two-ray", {**_A12, "e2": "1", "neg_curve": ["0", "1"]}),
     "field 'neg_curve': a = 0, so Cbar = -bE is not a curve other than E"),
    # with no curve the second ray is the isotropic class, irrational on h2 = 2, e2 = 1
    (*_file("volume", "two-ray", {"h2": "2", "e2": "1", "L": ["1", "0"]}),
     "field 'neg_curve': pseudoeffective threshold is irrational; supply the negative curve"),
    # volumes: the two-ray engine, with no curve (its second ray the isotropic class R = H - E on
    # h2 = e2 = 1: L = E lies on the ray of E, L = -2H + E outside the cone) and with Cbar = 5H - 26E
    (*_file("volume", "two-ray", {"h2": "1", "e2": "1", "L": ["0", "1"]}),
     "field 'L': L is not a positive combination of E and Cbar, so it is not big"),
    (*_file("volume", "two-ray", {"h2": "1", "e2": "1", "L": ["-2", "1"]}),
     "field 'L': L is not a positive combination of E and Cbar, so it is not big"),
    (*_file("volume", "two-ray", {**_A12, "L": ["-1", "0"]}),
     "field 'L': L is not a positive combination of E and Cbar, so it is not big"),
    (*_file("volume", "two-ray", {**_A12, "anti_k": ["0", "5"]}),
     "field 'anti_k': anti-canonical scale must be positive at c = 0"),
    # volumes: the moment polygon
    (*_file("volume", "toric", {"polygon": [["0", "0"], ["1", "0"], ["2", "0"]], "w": ["1", "2"]}),
     "field 'polygon': moment polygon must be non-degenerate"),
    (*_file("volume", "toric", {"polygon": [["0", "0"], ["1", "0"], ["0", "1"]], "w": ["0", "0"]}),
     "field 'w': valuation direction must be nonzero"),
    # walls
    (["first-wall", "--degree", "3"], None, "field 'degree': degrees below 4 are out of scope"),
    (*_file("wall", "wall-case", {**_WALL, "range": ["1/2", "1/4"]}),
     "field 'range': range (1/2, 1/4) is inverted: its low end exceeds its high end"),
    (*_file("wall", "wall-case", {**_WALL, "range": ["1/2", "1/2"]}), "field 'range': range (1/2, 1/2) is empty"),
    (*_file("wall", "wall-case", {**_WALL, "alpha": "0"}),
     "field 'alpha': anti-canonical degree must be positive at the low end of the range"),
    (*_file("wall", "wall-case", {**_WALL, "alpha": "1"}),
     "field 'alpha': anti-canonical degree must stay nonnegative on the range"),
    (["stratum", "--coords", "1,2,3"], None,
     "field 'coords': stratum point needs 4 coordinates [s,r,h,u] or 2 [s1,s2]"),
    (["stratum", "--coords", "0,0"], None, "field 'coords': stratum point cannot be the zero vector"),
    # exact: rationals, and the vertex cycle of a moment polygon
    (*_file("volume", "two-ray", {**_A12, "h2": True}),
     "field 'h2': rationals must be 'p/q' strings or integers, got True"),
    (*_file("volume", "two-ray", {**_A12, "h2": ["1"]}), "field 'h2': expected a rational, got list"),
    (*_file("volume", "toric", {"polygon": [["0", "0"], ["4", "0"], ["2", "0"], ["4", "4"], ["0", "4"]],
                                "w": ["1", "2"]}),
     "vertex cycle is not simple: it turns back on itself"),
    (*_file("volume", "toric", {"polygon": [["0", "0"], ["4", "0"], ["1", "1"], ["0", "4"]], "w": ["1", "2"]}),
     "vertex list is not strictly convex"),
    (*_file("volume", "toric", {"polygon": [["0", "0"], ["2", "4"], ["4", "16"], ["1", "1"], ["3", "9"]],
                                "w": ["1", "2"]}),
     "vertex cycle is not simple: its edges wind around more than once"),
]

_PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

package = sys.argv[1]
called = set()
lines = {}


def line_hook(frame, event, arg):
    if event == "line":
        lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return line_hook


def hook(frame, event, arg):
    # the global hook sees only "call" events; lines are traced in the package's own frames
    called.add(frame.f_code)
    return line_hook if frame.f_code.co_filename.startswith(package) else None


argvs = json.load(sys.stdin)
sys.settrace(hook)
import kwall.cli

for argv in argvs:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        kwall.cli.main(argv)
sys.settrace(None)


def codes(member):
    if isinstance(member, property):
        return [f.__code__ for f in (member.fget, member.fset, member.fdel) if f is not None]
    code = getattr(getattr(member, "__func__", member), "__code__", None)
    return [] if code is None else [code]


modules = sys.argv[2:]
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
print(json.dumps({"unreached": unreached, "lines": {f: sorted(ls) for f, ls in lines.items()}}))
"""


def _write_doc(path: Path, doc: object) -> None:
    """A scenario file: raw bytes as given, anything else as its JSON text."""
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc), encoding="utf-8")


def _argv(argv: list[str], doc: object, path: Path) -> list[str]:
    """An INVALID invocation, its --file pointed at ``path`` holding ``doc``."""
    if doc is None:
        return argv
    _write_doc(path, doc)
    return [*argv, str(path)]


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
        _write_doc(path, {"kind": kind, "payload": payload})
        argvs.append([*_FILE_COMMAND[kind], "--file", str(path)])
    for i, (argv, doc, _) in enumerate(INVALID):
        argvs.append(_argv(argv, doc, tmp_path / f"invalid-{i}.json"))
    return argvs


def _raises(path: Path) -> list[ast.Raise]:
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Raise)]


def test_every_definition_and_raise_is_reached_by_a_command_or_the_gate(tmp_path):
    # __main__ only calls cli.main, and importing it would run it
    modules = sorted(
        "kwall" if p.stem == "__init__" else f"kwall.{p.stem}"
        for p in PACKAGE.glob("*.py") if p.stem != "__main__"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(PACKAGE), *modules],
        input=json.dumps(_invocations(tmp_path)), capture_output=True, text=True,
        env=env, cwd=ROOT, check=True, timeout=300,
    )
    result = json.loads(proc.stdout)
    unreached = set(result["unreached"])
    assert sorted(unreached - EXEMPT) == [], "defined in src/kwall but never called"
    # an exemption whose definition is now reached, or gone, must leave the list
    assert sorted(EXEMPT - unreached) == []
    ran = {Path(f).resolve(): set(ls) for f, ls in result["lines"].items()}
    unraised = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in RAISE_SCOPE_EXCLUDED
        for node in _raises(path)
        if ran.get(path.resolve(), set()).isdisjoint(range(node.lineno, node.end_lineno + 1))
    ]
    assert unraised == [], "a raise in src/kwall that no command reaches"


@pytest.mark.parametrize("argv,doc,message", INVALID, ids=[message for _, _, message in INVALID])
def test_each_invalid_invocation_ends_in_its_error_line(tmp_path, monkeypatch, argv, doc, message):
    monkeypatch.chdir(tmp_path)  # where no-such-scenario.json is missing
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(_argv(argv, doc, tmp_path / "scenario.json"))
    assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {message}\n")
