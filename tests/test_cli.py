from __future__ import annotations

import io
import json
import re
import time
from contextlib import redirect_stdout

import pytest

from kwall import cli, fixtures, git, toric_kps, valuations, volumes, walls
from kwall.exact import KwallError, SingularSystemError, StructuralError, rat
from kwall.valuations import SMOOTH_POINT, MonomialVal
from kwall.volumes import ModelError


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def scenario_json(kind: str, payload: dict, provenance: str = "") -> str:
    """A scenario document in the ``--file`` format."""
    return json.dumps({"kind": kind, "payload": payload, "provenance": provenance}, indent=2, sort_keys=True)


def test_walls_quintic_table():
    code, out = run_cli("walls", "quintic")
    assert code == 0
    assert out.rstrip().splitlines()[-1].endswith("54/95")
    for w in ("3/7", "8/15", "6/11", "63/115", "54/95"):
        assert w in out


def test_wall_fixture_report():
    code, out = run_cli("wall", "--fixture", "a12")
    assert code == 0
    assert "8/15" in out and "15 - 26 c" in out and "17/5" in out


def test_determinism_byte_identical():
    outs = {run_cli("--json", "centroid", "--fixture", "centroid-a10-case1")[1] for _ in range(3)}
    assert len(outs) == 1
    outs = {run_cli("walls", "quintic")[1] for _ in range(3)}
    assert len(outs) == 1


def test_unknown_fixture_lists_available(capsys):
    code = cli.main(["wall", "--fixture", "nope"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown fixture" in captured.err
    assert "a11red" in captured.err  # the listing is printed


def test_json_output_is_exact_rationals():
    code, out = run_cli("--json", "wall", "--fixture", "a10")
    doc = json.loads(out)
    assert doc["wall"] == "54/95"
    assert "." not in doc["wall"]


def test_first_wall_command():
    code, out = run_cli("first-wall", "--degree", "7")
    assert code == 0 and "3/11" in out


def test_centroid_fixture_command():
    code, out = run_cli("centroid", "--fixture", "centroid-a12-case1")
    assert code == 0
    assert "(3/5, 8/15, 1/30)" in out
    assert "(9, 1, -49/150)" in out


def test_lct_command_variants():
    code, out = run_cli("lct", "--germ", "2,0 0,10")
    assert code == 0 and "3/5" in out
    code, out = run_cli("lct", "--quasihomog", "2,1,5")
    assert code == 0 and "3/5" in out
    # y^2 (y^5 + x): the generic germ of weighted degree 7, not an isolated singularity
    code, out = run_cli("lct", "--quasihomog", "5,1,7")
    assert code == 0 and "lct : 1/2\n" in out
    code, out = run_cli("lct", "--fixture", "p1425-d20")
    assert code == 0 and "1/4" in out


def test_index_and_cm_commands():
    code, out = run_cli("index-bound", "--degree", "5", "--coeff", "57/100")
    assert code == 0 and "5" in out
    code, out = run_cli("cm", "--n", "2", "--degree", "5", "--coeff", "3/5")
    assert code == 0 and "cm degree" in out and ": 0" in out


def test_stratum_command():
    code, out = run_cli("stratum", "--coords", "0,1,0,1")
    assert code == 0 and "Sigma5" in out and "54/95" in out
    code, out = run_cli("stratum", "--coords", "1,0")
    assert code == 0 and "Sigma1" in out


def test_stratum_fixture_listing():
    code, out = run_cli("stratum", "--fixture", "quintic-strata")
    assert code == 0
    for s in ("Sigma2", "Sigma6", "63/115"):
        assert s in out


def test_whole_range_unstable_verdict():
    code, out = run_cli("wall", "--fixture", "x26-through-sing")
    assert code == 0 and "K-unstable on the whole range" in out
    code, out = run_cli("wall", "--fixture", "p114-nondeg")
    assert code == 0 and "K-unstable on the whole range" in out


def test_scenario_two_ray_roundtrip(tmp_path):
    payload = {
        "name": "a12-scenario",
        "h2": "1", "e2": "1/26", "cross": "0",
        "neg_curve": ["5", "26"],
        "L": ["1", "0"],
        "anti_k": ["3", "5"],
    }
    text = scenario_json("two-ray", payload, provenance="test")
    path = tmp_path / "a12.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli("--json", "volume", "--file", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["S0"] == "17/5"
    # re-ingest the serialized document: identical report
    kind, payload2 = cli.load_scenario(json.loads(text))
    assert cli.run_scenario(kind, payload2) == json.loads(out)


def test_scenario_wall_case(tmp_path):
    payload = {
        "name": "a11irr-scenario",
        "A0": "7", "ordD": "12", "S0": "49/30",
        "alpha": "3", "beta": "5",
        "range": ["0", "3/5"],
    }
    path = tmp_path / "wall.json"
    path.write_text(scenario_json("wall-case", payload), encoding="utf-8")
    code, out = run_cli("--json", "wall", "--file", str(path))
    assert code == 0
    assert json.loads(out)["wall"] == "63/115"


def test_scenario_centroid(tmp_path):
    payload = {
        "name": "a11red-scenario",
        "generators": [["0", "0", "-1"], ["-1", "1", "-2"], ["1", "0", "6"]],
        "xi0": ["0", "1", "0"],
        "eta0star": ["0", "0", "1"],
        "u1": ["12", "10", "-1"],
    }
    path = tmp_path / "cent.json"
    path.write_text(scenario_json("centroid", payload), encoding="utf-8")
    code, out = run_cli("--json", "centroid", "--file", str(path))
    assert code == 0
    assert json.loads(out)["(a, c, b)"] == "(11/6, 6/11, 3/4)"


def test_scenario_git_binary(tmp_path):
    payload = {"name": "octic", "parity": "even", "degree": 4, "forms": {"2": [[5, 3]]}}
    path = tmp_path / "git.json"
    path.write_text(scenario_json("git-binary", payload), encoding="utf-8")
    code, out = run_cli("--json", "git", "binary", "--file", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "unstable"


@pytest.mark.parametrize("kind,payload", [
    ("toric", {"polygon": [["0", "0"], ["1", "0"], ["0", "1/4"]],
               "w": ["-2", "-12"], "anti_k": ["6", "10"]}),
    ("lct", {"germ": [[2, 0], [0, 10]]}),
    ("lct", {"quasihomog": [2, 1, 5]}),
    ("index", {"degree": 5, "coeff": "57/100"}),
    ("cm", {"n": 3, "degree": 4, "coeff": "1/2"}),
    ("stratum", {"coords": ["0", "1", "0", "1"]}),
    ("git-plane", {"degree": 5, "monomials": [[1, 4, 0]], "lambda": [-1, 2, -1]}),
])
def test_every_scenario_kind_roundtrips(kind, payload):
    text = scenario_json(kind, payload)
    kind2, payload2 = cli.load_scenario(json.loads(text))
    assert (kind2, payload2) == (kind, payload)
    first = cli.run_scenario(kind, payload)
    second = cli.run_scenario(kind2, payload2)
    assert first == second


def test_delta_fixtures_reachable():
    code, out = run_cli("wall", "--fixture", "x26-delta")
    assert code == 0 and "1/9" in out
    code, out = run_cli("wall", "--fixture", "p1425-delta")
    assert code == 0 and "1/10" in out and "x: 1/10" in out


def test_scenario_rejects_floats(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "index", "payload": {"degree": 5, "coeff": 0.5}}', encoding="utf-8")
    code = cli.main(["index-bound", "--degree", "5", "--coeff", "1/2"])
    assert code == 0
    capsys.readouterr()
    code = cli.main(["wall", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "rejected" in captured.err or "rational" in captured.err


def test_empty_scenario_file(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    code = cli.main(["wall", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and "empty scenario" in captured.err


def test_schema_diagnostic_names_offending_field(tmp_path, capsys):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"kind": "wall-case", "payload": {"A0": "1"}}), encoding="utf-8")
    code = cli.main(["wall", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and "field 'ordD'" in captured.err


def test_wrong_kind_for_command(tmp_path, capsys):
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({"kind": "cm", "payload": {"n": 2, "degree": 5, "coeff": "1/5"}}), encoding="utf-8")
    code = cli.main(["wall", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and "kind" in captured.err


@pytest.mark.parametrize(
    "verts,reason",
    [
        # parabola points in star order: every turn is a left turn, but the
        # edges wind around twice
        ([[0, 0], [2, 4], [4, 16], [1, 1], [3, 9]], "wind around more than once"),
        # the cycle runs out to (4, 0) and straight back to (2, 0)
        ([[0, 0], [4, 0], [2, 0], [4, 4], [0, 4]], "turns back on itself"),
    ],
    ids=["pentagram", "spike-cycle"],
)
def test_non_simple_moment_polygon_rejected(tmp_path, capsys, verts, reason):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"kind": "toric", "payload": {"polygon": verts, "w": [1, 2]}}), encoding="utf-8")
    code = cli.main(["volume", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error:") and reason in captured.err


def test_annotations_never_consulted(monkeypatch):
    # wiping a fixture's expected values does not change computed output
    base = run_cli("--json", "wall", "--fixture", "a12")[1]
    fx = fixtures.WALL_FIXTURES["a12"]
    monkeypatch.setitem(fixtures.WALL_FIXTURES, "a12", type(fx)(
        name=fx.name, curve_germ=fx.curve_germ, volume=fx.volume, provenance=fx.provenance,
        expected={},
    ))
    assert run_cli("--json", "wall", "--fixture", "a12")[1] == base


def test_corrupted_fixture_fails_verification(monkeypatch):
    from fractions import Fraction as F
    from kwall import acceptance

    # the a12 blow-up with a wrong valuation: its (E^2) and Cbar are derived from it
    fx = fixtures.VOLUME_FIXTURES["a12"]

    def blow_up(weights):
        return fixtures._blow_up(fx.name, fixtures._P2, MonomialVal(SMOOTH_POINT, weights),
                                 (5, fixtures._A12_QUINTIC), fx.expected["S0"], fx.provenance)

    # weights (13, 3) give (E^2) = -1/39 and Cbar = 5H - 26E with (Cbar^2) > 0: refused as built
    with pytest.raises(ModelError, match="field 'neg_curve'"):
        blow_up((F(13), F(3)))
    # weights (26, 4) give (E^2) = -1/104 and Cbar = 5H - 52E, a valid model with the wrong profile
    monkeypatch.setitem(fixtures.VOLUME_FIXTURES, "a12", blow_up((F(26), F(4))))
    results = acceptance.run_all()
    failed = {r.cid: r.detail for r in results if not r.passed}
    # criterion 3 reads the profile alone, not A0, so the derived model is what it catches
    assert failed.get(3) == "CheckFailed: a12: two-ray profile differs from the printed formula"


def test_verify_all_exit_code():
    code, out = run_cli("verify-all")
    assert code == 0
    assert "11/11 criteria passed" in out


def test_every_registry_name_is_reachable():
    commands = {
        **{name: ("wall", "--fixture") for name in fixtures.WALL_FIXTURES},
        **{n: ("wall", "--fixture") for n in
           ("firstwall-even", "firstwall-odd", "firstwall-d5", "x26-delta", "p1425-delta")},
        **{name: ("centroid", "--fixture") for name in fixtures.CENTROID_FIXTURES},
        **{name: ("volume", "--fixture") for name in fixtures.VOLUME_FIXTURES},
        **{name: ("lct", "--fixture") for name in fixtures.LCT_FIXTURES},
        **{name: ("git", "binary", "--fixture") for name in fixtures.BINARY_FIXTURES},
        "quartic-binary": ("git", "binary", "--fixture"),
        **{name: ("git", "plane", "--fixture") for name in fixtures.PLANE_GIT_FIXTURES},
        "quintic-strata": ("stratum", "--fixture"),
    }
    assert set(commands) == set(fixtures.REGISTRY_NAMES)
    for name, argv in sorted(commands.items()):
        code, out = run_cli(*argv, name)
        assert code == 0 and out.strip(), name


@pytest.mark.parametrize("name", [
    "firstwall-even-d5",   # parity does not match the degree
    "firstwall-odd-d4",
    "firstwall-odd-d3",    # below the d >= 4 scope of walls.first_wall
    "firstwall-odd-d1",
    "firstwall-even-d2",
    "firstwall-even-dx",   # not a degree
    "firstwall-even-d",
    "firstwall-even-d06",  # not the canonical spelling of d = 6
    pytest.param("firstwall-even-d" + "6" * 5000, id="firstwall-even-d<5000 digits>"),
])
def test_malformed_first_wall_names_are_unknown_fixtures(capsys, name):
    code = cli.main(["wall", "--fixture", name])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith(f"error: unknown fixture {name!r}")


def test_unlisted_first_wall_names_run_their_degree():
    assert json.loads(run_cli("--json", "wall", "--fixture", "firstwall-even-d6")[1])["wall"] == "1/4"
    assert json.loads(run_cli("--json", "wall", "--fixture", "firstwall-odd-d7")[1])["wall"] == "3/11"


def test_quasihomog_flag_rejects_non_integers(capsys):
    code = cli.main(["lct", "--quasihomog", "a,b,c"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error: field 'quasihomog'")


@pytest.mark.parametrize("argv", [
    ["first-wall", "--degree", "{}"],
    ["index-bound", "--degree", "{}", "--coeff", "1/5"],
    ["cm", "--n", "{}", "--degree", "5", "--coeff", "1/5"],
], ids=["first-wall-degree", "index-bound-degree", "cm-n"])
@pytest.mark.parametrize("text", ["1_0", "\u0665", " 5", "5 "])
def test_integer_flags_read_ascii_digits_only(capsys, argv, text):
    # a malformed integer takes the route of a non-numeric value: argparse, exit 2
    outcomes = []
    for value in (text, "x"):
        with pytest.raises(SystemExit) as exc:
            cli.main([a.format(value) for a in argv])
        captured = capsys.readouterr()
        assert not captured.out
        outcomes.append((exc.value.code, captured.err.replace(repr(value), "<value>")))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 2


@pytest.mark.parametrize("flag,value", [
    ("--germ", "2_0,0 0,13"),
    ("--germ", "\u0662,0 0,13"),
    ("--quasihomog", "2_0,1,50"),
    ("--quasihomog", "2, 1, 5"),
], ids=["germ-underscore", "germ-non-ascii", "quasihomog-underscore", "quasihomog-space"])
def test_integer_exponents_read_ascii_digits_only(capsys, flag, value):
    code = cli.main(["lct", flag, value])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith(f"error: field '{flag[2:]}'")


def test_inverted_wall_range_rejected(tmp_path, capsys):
    payload = {"A0": "7", "ordD": "12", "S0": "49/30", "alpha": "3", "beta": "5", "range": ["1/2", "1/4"]}
    path = tmp_path / "inverted.json"
    path.write_text(scenario_json("wall-case", payload), encoding="utf-8")
    code = cli.main(["wall", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error:") and "range (1/2, 1/4) is inverted" in captured.err


@pytest.mark.parametrize("text", ["1e-3", "0.5", ".5", "1/2.0", "1_000", " 1/2", "1/0", "1/-2", "½"])
def test_decimal_and_malformed_rational_strings_rejected(tmp_path, capsys, text):
    # the flag route
    code = cli.main(["index-bound", "--degree", "5", "--coeff", text])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith(f"error: field 'coeff': malformed rational {text!r}")
    # the file route
    path = tmp_path / "coeff.json"
    path.write_text(scenario_json("cm", {"n": 2, "degree": 5, "coeff": text}), encoding="utf-8")
    kind, payload = cli._read_scenario_file(str(path))
    with pytest.raises(cli.SchemaError, match="field 'coeff': malformed rational"):
        cli.run_scenario(kind, payload)
    # the library route: the same rule, without a field name
    with pytest.raises(StructuralError, match="^malformed rational"):
        rat(text)


@pytest.mark.parametrize("text", ["57/100", "-3/7", "+2", "0", "12"])
def test_integer_and_ratio_strings_accepted(text):
    assert cli.run_scenario("cm", {"n": 2, "degree": 5, "coeff": text})["coeff"] == cli.fmt(cli.F(text))


@pytest.mark.parametrize("argv,field", [
    (["wall", "--fixture", ""], "unknown fixture ''"),
    (["lct", "--fixture", ""], "unknown fixture ''"),
    (["lct", "--quasihomog", ""], "field 'quasihomog'"),
    (["lct", "--germ", ""], "field 'germ'"),
], ids=["wall-fixture", "lct-fixture", "lct-quasihomog", "lct-germ"])
def test_empty_flag_values_end_in_named_errors(capsys, argv, field):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith(f"error: {field}")


def test_every_input_error_is_a_kwall_error():
    classes = (StructuralError, SingularSystemError, volumes.ModelError,
               volumes.InvalidValuationError, valuations.DomainError, walls.WallError, toric_kps.ConeError,
               git.GitError, cli.SchemaError)
    assert all(issubclass(cls, KwallError) for cls in classes)


@pytest.mark.parametrize("d", range(4, 13))
def test_first_wall_prints_the_text_of_its_wall_report(d):
    first = json.loads(run_cli("--json", "first-wall", "--degree", str(d))[1])
    name = f"firstwall-{'even' if d % 2 == 0 else 'odd'}-d{d}"
    wall = json.loads(run_cli("--json", "wall", "--fixture", name)[1])
    assert (first["A(c)"], first["S(c)"]) == (wall["A(c)"], wall["S(c)"])


@pytest.mark.parametrize("command,kind,payload,key,right", [
    (("wall",), "wall-case",
     {"A0": "7", "ordD": "12", "S0": "49/30", "alpha": "3", "beta": "5", "rnge": ["1/4", "1/2"]}, "rnge", "range"),
    (("volume",), "two-ray",
     {"h2": "1", "e2": "1/26", "crosss": "0", "neg_curve": ["5", "26"], "L": ["1", "0"]}, "crosss", "cross"),
    (("volume",), "toric", {"polygon": [["0", "0"], ["1", "0"], ["0", "1/4"]], "w": ["-2", "-12"],
                            "antik": ["6", "10"]}, "antik", "anti_k"),
    (("centroid",), "centroid", {
        "generators": [["0", "0", "-1"], ["-1", "1", "-2"], ["1", "0", "6"]], "xi0": ["0", "1", "0"],
        "eta0_star": ["0", "0", "1"], "u1": ["12", "10", "-1"]}, "eta0_star", "eta0star"),
    (("git", "binary"), "git-binary", {"nmae": "octic", "parity": "even", "degree": 4, "forms": {"2": [[5, 3]]}},
     "nmae", "name"),
    (("git", "plane"), "git-plane", {"degree": 5, "monomials": [[1, 4, 0]], "lamda": [-1, 2, -1]}, "lamda", "lambda"),
    (("lct",), "lct", {"gmer": [[2, 0], [0, 10]]}, "gmer", "germ"),
    # the report prints no name, so a name is not read either
    (("git", "plane"), "git-plane",
     {"name": "xy4", "degree": 5, "monomials": [[1, 4, 0]], "lambda": [-1, 2, -1]}, "name", None),
    # a germ given twice: one of the two would be ignored
    (("lct",), "lct", {"germ": [[2, 0], [0, 10]], "quasihomog": [2, 1, 5]}, "germ", None),
    # u0 is always the anticanonical vector: another one would place a different wall
    (("centroid",), "centroid", {
        "generators": [["0", "0", "-1"], ["-1", "1", "-2"], ["1", "0", "6"]], "xi0": ["0", "1", "0"],
        "eta0star": ["0", "0", "1"], "u1": ["12", "10", "-1"], "u0_override": ["14", "12", "-2"]},
     "u0_override", None),
], ids=["wall-case", "two-ray", "toric", "centroid", "git-binary", "git-plane", "lct",
        "git-plane-name", "lct-germ-and-quasihomog", "centroid-u0-override"])
def test_unknown_payload_field_rejected(tmp_path, capsys, command, kind, payload, key, right):
    path = tmp_path / "doc.json"
    path.write_text(scenario_json(kind, payload), encoding="utf-8")
    code = cli.main([*command, "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith(f"error: field '{key}': ")
    # spelled right, or left out where it has no right spelling, the document runs
    fixed = dict(payload)
    value = fixed.pop(key)
    if right is not None:
        fixed[right] = value
    path.write_text(scenario_json(kind, fixed), encoding="utf-8")
    assert cli.main([*command, "--file", str(path)]) == 0


@pytest.mark.parametrize("data,message", [
    (b"\xff\xfe{}", "field '<root>': scenario file is not UTF-8"),
    (b'{"kind": "lct", "payload": {"germ": [[' + b"1" * 5000 + b', 0]]}}', "field '<root>': invalid JSON: Exceeds"),
], ids=["not-utf8", "5000-digit-integer"])
def test_unreadable_scenario_files_end_in_named_errors(tmp_path, capsys, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code = cli.main(["lct", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith(f"error: {message}")


_OCTIC = {"name": "octic", "parity": "even", "degree": 4}


@pytest.mark.parametrize("key", ["2_0", " 2", "02", "+2", "٢", "-2"],
                         ids=["underscore", "space", "leading-zero", "sign", "arabic-indic-digit", "negative"])
def test_git_binary_block_keys_must_be_canonical_digits(key):
    # int() reads each of these as a block index: 20, 2, 2, 2, 2, -2
    with pytest.raises(cli.SchemaError, match=re.escape(f"field 'forms.{key}': block index must be an integer")):
        cli.run_scenario("git-binary", {**_OCTIC, "forms": {key: [[5, 3]]}})
    # "02" next to "2" no longer overwrites it
    with pytest.raises(cli.SchemaError, match=re.escape(f"field 'forms.{key}': ")):
        cli.run_scenario("git-binary", {**_OCTIC, "forms": {"2": [[4, 4]], key: [[5, 3]]}})
    assert cli.run_scenario("git-binary", {**_OCTIC, "forms": {"2": [[5, 3]]}})["verdict"] == "unstable"


@pytest.mark.parametrize("kind,payload", [
    ("two-ray", {"h2": "1", "e2": "1/26", "neg_curve": ["5", "26"], "L": ["1", "0"]}),
    ("toric", {"polygon": [["0", "0"], ["1", "0"], ["0", "1/4"]], "w": ["-2", "-12"]}),
    ("wall-case", {"A0": "7", "ordD": "12", "S0": "49/30", "alpha": "3", "beta": "5"}),
    ("centroid", {"generators": [["0", "0", "-1"], ["-1", "1", "-2"], ["1", "0", "6"]], "xi0": ["0", "1", "0"],
                  "eta0star": ["0", "0", "1"], "u1": ["12", "10", "-1"]}),
    ("git-binary", {"parity": "even", "degree": 4, "forms": {"2": [[5, 3]]}}),
], ids=["two-ray", "toric", "wall-case", "centroid", "git-binary"])
def test_scenario_name_must_be_a_string(kind, payload):
    for name in ({"x": [1]}, 5, None, ["a"]):
        with pytest.raises(cli.SchemaError, match="^field 'name': expected a string"):
            cli.run_scenario(kind, {**payload, "name": name})
    assert "my-scenario" in cli.run_scenario(kind, {**payload, "name": "my-scenario"}).values()


def test_a_value_too_large_to_print_ends_in_an_error_line(tmp_path, capsys):
    # a triangle with legs 1/p and 1/q has volume 1/(pq): a denominator of more digits than str() converts
    p, q = 10**2200 + 1, 10**2200 + 3
    path = tmp_path / "tiny.json"
    path.write_text(scenario_json("toric", {"polygon": [["0", "0"], [f"1/{p}", "0"], ["0", f"1/{q}"]],
                                            "w": ["1", "0"]}), encoding="utf-8")
    code = cli.main(["volume", "--file", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: value too large to print: 1-bit numerator, 14617-bit denominator\n"


def test_cm_at_a_billion_decides_from_bit_lengths_before_taking_the_power():
    # the base n + 1 - cd = 10^9: refused at once, before a power of 3 10^10 bits is taken
    start = time.perf_counter()
    assert run_cli("cm", "--n", "1000000000", "--degree", "5", "--coeff", "1/5") == (1, "")
    assert time.perf_counter() - start < 1
    # the base 1: the power is cheap at any n, and the value prints
    code, out = run_cli("cm", "--n", "1000000000", "--degree", "5", "--coeff", "200000000")
    assert code == 0 and "cm degree        : 200000000200000000\n" in out
    # c = 0: the value 0, without the power of (n + 1)^n
    code, out = run_cli("cm", "--n", "1000000000", "--degree", "5", "--coeff", "0")
    assert code == 0 and "cm degree        : 0\n" in out
