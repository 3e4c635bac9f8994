"""Fixed-seed fuzz of the scenario path: a document built from a valid payload
with fields dropped, retyped, misspelled or given out-of-range values must end
in a report or in a ``KwallError``, never in any other exception.

The documents are of the seven kinds a ``--file`` accepts (two-ray, toric,
wall-case, centroid, git-binary, git-plane, lct).  ``index``, ``cm`` and
``stratum`` are kinds that only the inline flags build, so no scenario file
reaches them and they are left out.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwall import cli
from kwall.exact import KwallError

VALID = [
    ("two-ray", {"name": "a12", "h2": "1", "e2": "1/26", "cross": "0", "neg_curve": ["5", "26"],
                 "L": ["1", "0"], "anti_k": ["3", "5"]}),
    ("toric", {"name": "p114", "polygon": [["0", "0"], ["1", "0"], ["0", "1/4"]], "w": ["-2", "-12"],
               "anti_k": ["6", "10"]}),
    ("wall-case", {"name": "a11irr", "A0": "7", "ordD": "12", "S0": "49/30", "alpha": "3", "beta": "5",
                   "range": ["0", "3/5"]}),
    ("centroid", {"name": "a11red", "generators": [["0", "0", "-1"], ["-1", "1", "-2"], ["1", "0", "6"]],
                  "xi0": ["0", "1", "0"], "eta0star": ["0", "0", "1"], "u1": ["12", "10", "-1"]}),
    ("git-binary", {"name": "octic", "parity": "even", "degree": 6, "forms": {"2": [[5, 3]], "3": [[6, 6]]}}),
    ("git-plane", {"degree": 5, "monomials": [[1, 4, 0], [0, 0, 5]], "lambda": [-1, 2, -1]}),
    ("lct", {"germ": [[2, 0], [0, 10], [3, 3]]}),
    ("lct", {"quasihomog": [2, 1, 5]}),
]

# centroid-a12-case1 with its first generator (6, -6, -13) doubled and halved: the same rays,
# but no longer the primitive lattice vectors on them, which moved c off 8/15 with exit 0
NON_LATTICE_GENERATORS = [
    ("centroid", {"name": name, "generators": [first, ["-1", "1", "2"], ["1", "1", "2"]],
                  "xi0": ["0", "1", "0"], "eta0star": ["0", "0", "1"], "u1": ["-1", "25", "-12"]})
    for name, first in (("a12-doubled", ["12", "-12", "-26"]), ("a12-halved", ["3", "-3", "-13/2"]))
]

# a declared curve Cbar = -H - 3E, which is not effective (H.Cbar = -1), and L = -H, which is not big:
# this printed a two-piece profile and S0 = 10/9 with exit 0
NOT_EFFECTIVE_CURVE = ("two-ray", {"name": "not-effective", "h2": "1", "e2": "1", "neg_curve": ["-1", "3"],
                                   "L": ["-1", "0"], "anti_k": ["3", "5"]})

# the a12 model with L = E + 3 Cbar = 15H - 77E: big, as a positive combination of E and Cbar, but
# (L^2) = -79/26, so not nef at t = 0; this was refused, first as "L is not big at t = 0"
BIG_NOT_NEF = ("two-ray", {"name": "big-not-nef", "h2": "1", "e2": "1/26", "neg_curve": ["5", "26"],
                           "L": ["15", "-77"], "anti_k": ["3", "5"]})

# well-formed rationals at and around the edges of each field's range
EDGE_RATIONALS = ["0", "-1", "1", "1/2", "-3/7", "7/3", "100", "-12"]
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-60, 60), st.sampled_from([0.5, -1.0]),
    st.sampled_from(EDGE_RATIONALS + ["1/0", "0.5", "1e3", " 1", "", "x", "even", "odd"]), st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


def _paths(value, prefix=()):
    """Every (container path, key or index) in a JSON value, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _mutate(data, doc) -> None:
    # hypothesis leans to the first choice: payload fields before the document's own keys
    paths = [(("payload",) + where, key) for where, key in _paths(doc.get("payload"))] + [((), key) for key in doc]
    where, key = data.draw(st.sampled_from(paths))
    parent = doc
    for step in where:
        parent = parent[step]
    action = data.draw(st.sampled_from(["out-of-range"] * 3 + ["retype", "drop", "misspell"]))
    if action == "drop":
        del parent[key]
    elif action == "misspell" and isinstance(parent, dict):
        new = data.draw(st.sampled_from([key + key[-1:], key[:-1], key.upper(), key + "_", "nmae"]))
        parent[new] = parent.pop(key)
    elif action == "out-of-range" and isinstance(parent[key], (int, str)):
        # same type, other value: such a document gets past the schema to the engine
        same_type = st.integers(-60, 60) if isinstance(parent[key], int) else st.sampled_from(EDGE_RATIONALS)
        parent[key] = data.draw(same_type)
    else:
        parent[key] = data.draw(json_values)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(data=st.data())
def test_mutated_scenarios_end_in_a_report_or_a_kwall_error(data):
    kind, payload = data.draw(st.sampled_from(VALID))
    doc = {"kind": kind, "payload": copy.deepcopy(payload), "provenance": "fuzz"}
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    try:
        report = cli.run_scenario(*cli.load_scenario(doc))
    except KwallError:
        return
    assert isinstance(report, dict)
    json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("kind,payload", VALID, ids=[f"{k}-{i}" for i, (k, _) in enumerate(VALID)])
def test_fuzz_seeds_are_valid_documents(kind, payload):
    # the fuzz starts from documents that run, so a rejection is the mutation's doing
    assert isinstance(cli.run_scenario(*cli.load_scenario({"kind": kind, "payload": payload})), dict)


@pytest.mark.parametrize("kind,payload", NON_LATTICE_GENERATORS, ids=["doubled", "halved"])
def test_non_lattice_generators_end_in_an_error_line(tmp_path, capsys, kind, payload):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}), encoding="utf-8")
    code = cli.main(["centroid", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error: field 'generators[0]'")
    assert "not a primitive integer vector" in captured.err


@pytest.mark.parametrize("kind,payload,message", [
    (*NOT_EFFECTIVE_CURVE, "field 'neg_curve': H.Cbar < 0, so Cbar = aH - bE is not effective"),
], ids=["not-effective"])
def test_an_invalid_two_ray_geometry_ends_in_an_error_line(tmp_path, capsys, kind, payload, message):
    path = tmp_path / "two-ray.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}), encoding="utf-8")
    code = cli.main(["volume", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == f"error: {message}\n"


def test_a_big_polarization_that_is_not_nef_prints_its_profile(tmp_path, capsys):
    # Cbar lies in the negative part of every L - tE, whose positive part is (25/26) (1 - t)^2
    kind, payload = BIG_NOT_NEF
    path = tmp_path / "two-ray.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}), encoding="utf-8")
    code = cli.main(["volume", "--file", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (
        "fixture                  : big-not-nef\n"
        "engine                   : two-ray\n"
        "vol(L)                   : 25/26\n"
        "nef threshold            : none (L is not nef)\n"
        "pseudoeffective threshold: 1\n"
        "pieces:\n"
        "  [0, 1]: 25/26 + -25/13 t + 25/26 t^2\n"
        "S0                       : 1/3\n"
    )
