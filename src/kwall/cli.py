"""Command-line front end: fixture registry access, scenario-file ingestion,
and the verification checklist.

Rationals are printed as reduced 'p/q' strings, never as decimals, and the
scenario format encodes them the same way so nothing is ever parsed through a
float.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any

from . import acceptance, fixtures
from .git import (
    BinaryFormSystem,
    OnePS,
    PlaneCurveSupport,
    binary_system_stability,
    cm_degree,
    cm_positivity_window,
    hm_weight_plane,
)
from .toric_kps import CentroidCase, solve_centroid_condition
from .valuations import GermSupport, QuasiHomogGerm, index_bound, lct_newton
from .volumes import MomentPolygon, TwoRayModel, volume_toric
from .walls import (
    Interval,
    QuinticStratumPoint,
    WallCase,
    WallReport,
    classify_quintic_stratum,
    first_wall,
    quintic_wall_table,
    solve_wall,
)
from .exact import KwallError, StructuralError, fmt, integer, polygon as make_polygon, rat

F = Fraction


class SchemaError(KwallError):
    """Scenario document violates its kind's schema; message names the field."""


# ---------------------------------------------------------------------------
# scenario ingestion: rationals are 'p/q' strings or integers, never floats
# ---------------------------------------------------------------------------

def _as_rat(value: Any, where: str) -> Fraction:
    try:
        return rat(value)
    except StructuralError as exc:
        raise SchemaError(f"field '{where}': {exc}") from None


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field '{where}': expected an integer, got {value!r}")
    return value


def _as_list(value: Any, where: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"field '{where}': expected a list")
    if length is not None and len(value) != length:
        raise SchemaError(f"field '{where}': expected {length} entries, got {len(value)}")
    return value


def _rat_vec(value: Any, where: str, length: int) -> tuple[Fraction, ...]:
    return tuple(_as_rat(v, f"{where}[{i}]") for i, v in enumerate(_as_list(value, where, length)))


def _need(payload: dict, key: str):
    if key not in payload:
        raise SchemaError(f"field '{key}': missing")
    return payload[key]


def _name(payload: dict) -> str:
    name = payload.get("name", "scenario")
    if not isinstance(name, str):
        raise SchemaError(f"field 'name': expected a string, got {name!r}")
    return name


# scenario kind -> the payload fields its parser reads; 'name' only where the report prints it
_FIELDS = {
    "two-ray": {"name", "h2", "e2", "cross", "neg_curve", "L", "anti_k"},
    "toric": {"name", "polygon", "w", "anti_k"},
    "wall-case": {"name", "A0", "ordD", "S0", "alpha", "beta", "range"},
    "centroid": {"name", "generators", "xi0", "eta0star", "u1"},
    "git-binary": {"name", "parity", "degree", "forms"},
    "git-plane": {"degree", "monomials", "lambda"},
    "lct": {"germ", "quasihomog"},
    "index": {"degree", "coeff"},
    "cm": {"n", "degree", "coeff"},
    "stratum": {"coords"},
}


def load_scenario(doc: Any) -> tuple[str, dict]:
    if not isinstance(doc, dict):
        raise SchemaError("field '<root>': scenario document must be a JSON object")
    kind = _need(doc, "kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise SchemaError(f"field 'kind': unknown scenario kind {kind!r}; expected one of {sorted(_FIELDS)}")
    payload = _need(doc, "payload")
    if not isinstance(payload, dict):
        raise SchemaError("field 'payload': expected a JSON object")
    if not isinstance(doc.get("provenance", ""), str):
        raise SchemaError("field 'provenance': expected a string")
    return kind, payload


# ---------------------------------------------------------------------------
# report builders: one per scenario kind, each taking the kind's engine input
# (the wall builder takes the solved case, so first-wall reuses its text)
# ---------------------------------------------------------------------------

def _wall_report(report: WallReport) -> dict:
    case = report.case
    a_str = f"{fmt(case.A0)} - {fmt(case.ordD)} c" if case.ordD != 0 else fmt(case.A0)
    s_str = f"({fmt(case.S0)}) ({fmt(case.alpha)} - {fmt(case.beta)} c)"
    out = {
        "case": case.name,
        "A(c)": a_str,
        "S(c)": s_str,
        "range": str(case.valid_range),
    }
    if report.degenerate:
        out["wall"] = "degenerate (A and S identical; no information)"
        return out
    out["wall"] = fmt(report.wall) if report.wall is not None else "none in range"
    if report.wall is not None:
        out["verdict"] = (
            f"K-unstable for c {'>' if report.unstable_above else '<'} {fmt(report.wall)}; "
            f"necessary condition for K-semistability passes on the other side"
        )
    elif report.unstable_below:  # no wall inside the range: both flags give the one sign of A - S there
        out["verdict"] = "K-unstable on the whole range"
    else:
        out["verdict"] = "necessary condition passes on the whole range"
    return out


def _profile_rows(profile) -> list[str]:
    rows = []
    for a, b, p in zip(profile.breakpoints, profile.breakpoints[1:], profile.pieces):
        cs = [fmt(p.coeff(k)) for k in range(3)]
        rows.append(f"[{fmt(a)}, {fmt(b)}]: {cs[0]} + {cs[1]} t + {cs[2]} t^2")
    return rows


def _volume_report(vf: fixtures.VolumeFixture, with_s0: bool = True) -> dict:
    """Profile by the primary engine, S0 from that profile (for a fixture, and
    for a scenario that gives anti_k), and the toric cross-check when both
    engines apply."""
    profile = vf.profile
    # the toric engine breaks a profile at 0, then the nef threshold; a two-ray L is nef when it meets
    # E and Cbar nonnegatively, and its nef threshold is then where L - tE meets Cbar
    nef = fmt(profile.breakpoints[1])
    if vf.model is not None:
        model, (a, b) = vf.model, vf.model.neg_curve
        l_e, l_c = model.pair(vf.L, (F(0), F(1))), model.pair(vf.L, (a, -b))
        nef = fmt(l_c / model.pair((F(0), F(1)), (a, -b))) if l_e >= 0 and l_c >= 0 else "none (L is not nef)"
    out = {
        "fixture": vf.name,
        "engine": "two-ray" if vf.model is not None else "toric",
        "vol(L)": fmt(profile(0)),
        "nef threshold": nef,
        "pseudoeffective threshold": fmt(profile.breakpoints[-1]),
        "pieces": _profile_rows(profile),
    }
    if with_s0:
        out["S0"] = fmt(vf.s0)
    if vf.model is not None and vf.moment is not None:
        same = volume_toric(vf.moment) == profile
        out["toric cross-check"] = "identical profile" if same else "DISAGREES"
    return out


def _centroid_report(case: CentroidCase, display=None) -> dict:
    verdict = solve_centroid_condition(case)
    out = {
        "case": case.name,
        "u0": "(" + ", ".join(fmt(x) for x in verdict.u0) + ")",
        "u2": "(" + ", ".join(fmt(x) for x in verdict.u2) + ")",
        "verdict": verdict.verdict,
    }
    if display is not None:
        out["u0 (printed basis)"] = "(" + ", ".join(fmt(x) for x in display.to_printed(verdict.u0)) + ")"
        out["u2 (printed basis)"] = "(" + ", ".join(fmt(x) for x in display.to_printed(verdict.u2)) + ")"
    if verdict.solution is not None:
        a, c, b = verdict.solution
        out["(a, c, b)"] = f"({fmt(a)}, {fmt(c)}, {fmt(b)})"
    if verdict.detail:
        out["detail"] = verdict.detail
    return out


def _binary_report(name: str, system: BinaryFormSystem) -> dict:
    verdict = binary_system_stability(system)
    out = {"system": name, "parity": system.parity, "degree": str(system.degree),
           "verdict": verdict.verdict}
    if verdict.certificate is not None:
        cert = verdict.certificate
        out["certificate"] = (
            f"candidate {cert.candidate}, 1-PS exponents (a, r) = ({cert.a}, {cert.r}), "
            "weights " + ", ".join(fmt(w) for w in cert.weights)
        )
    if verdict.polystable is not None:
        out["polystable"] = "yes" if verdict.polystable else "no"
    out["detail"] = verdict.detail
    return out


def _plane_report(curve: PlaneCurveSupport, lam: OnePS) -> dict:
    mu = hm_weight_plane(curve, lam)
    return {
        "curve degree": str(curve.degree),
        "1-PS": "(" + ", ".join(str(w) for w in lam.weights) + ")",
        "mu": fmt(mu),
        "verdict": "destabilized (mu < 0 certifies instability)" if mu < 0 else
                   ("torus direction has weight zero" if mu == 0 else "not destabilized by this 1-PS"),
    }


def _lct_report(germ: GermSupport | QuasiHomogGerm) -> dict:
    if isinstance(germ, QuasiHomogGerm):
        desc = f"quasi-homogeneous weights ({germ.w1}, {germ.w2}) degree {germ.degree}"
    else:
        desc = " ".join(f"({i},{j})" for i, j in sorted(germ.monomials))
    return {"germ": desc, "lct": fmt(lct_newton(germ))}


def _stratum_report(coords: tuple[Fraction, ...]) -> dict:
    verdict = classify_quintic_stratum(QuinticStratumPoint(coords))
    return {
        "coords": "[" + ", ".join(fmt(c) for c in coords) + "]",
        "stratum": verdict.stratum,
        "wall": fmt(verdict.wall) if verdict.wall is not None else "none",
        "note": verdict.note,
    }


# ---------------------------------------------------------------------------
# scenario runner: a payload resolves to its kind's engine input
# ---------------------------------------------------------------------------

def _volume_scenario(payload: dict, model: TwoRayModel | None, L, moment: MomentPolygon | None) -> dict:
    """The volume report of a scenario: its anti_k, when given, is checked and decides whether S0 prints."""
    anti = payload.get("anti_k")
    anti_k = None if anti is None else _rat_vec(anti, "anti_k", 2)
    if anti_k is not None and anti_k[0] <= 0:
        raise SchemaError("field 'anti_k': anti-canonical scale must be positive at c = 0")
    vf = fixtures.VolumeFixture(name=_name(payload), model=model, L=L, moment=moment, surface=None, provenance="",
                                expected={})
    return _volume_report(vf, with_s0=anti_k is not None)


def run_scenario(kind: str, payload: dict) -> dict:
    unknown = sorted(set(payload) - _FIELDS[kind])
    if unknown:
        raise SchemaError(f"field '{unknown[0]}': unknown field; kind {kind!r} reads {sorted(_FIELDS[kind])}")
    if kind == "two-ray":
        h2 = _as_rat(_need(payload, "h2"), "h2")
        e2 = _as_rat(_need(payload, "e2"), "e2")
        cross = _as_rat(payload.get("cross", 0), "cross")
        neg = payload.get("neg_curve")
        neg_curve = None if neg is None else tuple(_rat_vec(neg, "neg_curve", 2))
        L = _rat_vec(_need(payload, "L"), "L", 2)
        return _volume_scenario(payload, TwoRayModel(h2, e2, cross, neg_curve), L, None)
    if kind == "toric":
        verts = [_rat_vec(v, f"polygon[{i}]", 2) for i, v in enumerate(_as_list(_need(payload, "polygon"), "polygon"))]
        w = _rat_vec(_need(payload, "w"), "w", 2)
        try:
            region = make_polygon(verts)
        except StructuralError as exc:  # the vertex cycle is not simple and convex
            raise SchemaError(f"field 'polygon': {exc}") from None
        return _volume_scenario(payload, None, None, MomentPolygon(region, w))
    if kind == "wall-case":
        rng = payload.get("range")
        lo, hi = (F(0), F(3, 5)) if rng is None else _rat_vec(rng, "range", 2)
        if lo == hi:  # a scenario range is open
            raise SchemaError(f"field 'range': range ({fmt(lo)}, {fmt(hi)}) is empty")
        return _wall_report(solve_wall(WallCase(
            name=_name(payload),
            A0=_as_rat(_need(payload, "A0"), "A0"),
            ordD=_as_rat(_need(payload, "ordD"), "ordD"),
            S0=_as_rat(_need(payload, "S0"), "S0"),
            alpha=_as_rat(_need(payload, "alpha"), "alpha"),
            beta=_as_rat(_need(payload, "beta"), "beta"),
            valid_range=Interval(lo, hi),
        )))
    if kind == "centroid":
        gens = tuple(
            _rat_vec(g, f"generators[{i}]", 3)
            for i, g in enumerate(_as_list(_need(payload, "generators"), "generators", 3))
        )
        return _centroid_report(CentroidCase(
            name=_name(payload),
            generators=gens,  # type: ignore[arg-type]
            xi0=_rat_vec(_need(payload, "xi0"), "xi0", 3),
            eta0star=_rat_vec(_need(payload, "eta0star"), "eta0star", 3),
            u1=_rat_vec(_need(payload, "u1"), "u1", 3),
        ))
    if kind == "git-binary":
        forms_doc = _need(payload, "forms")
        if not isinstance(forms_doc, dict):
            raise SchemaError("field 'forms': expected an object mapping block index to monomials")
        forms = {}
        for key, mons in sorted(forms_doc.items()):
            try:
                j = integer(key)
            except StructuralError:
                j = -1
            if j < 0 or str(j) != key:  # also a sign or leading zeros
                raise SchemaError(f"field 'forms.{key}': block index must be an integer in canonical digits")
            forms[j] = frozenset(
                tuple(_as_int(e, f"forms.{key}[{i}][{k}]") for k, e in enumerate(_as_list(m, f"forms.{key}[{i}]", 2)))
                for i, m in enumerate(_as_list(mons, f"forms.{key}"))
            )
        system = BinaryFormSystem(
            parity=str(_need(payload, "parity")),
            degree=_as_int(_need(payload, "degree"), "degree"),
            forms=forms,
        )
        return _binary_report(_name(payload), system)
    if kind == "git-plane":
        curve = PlaneCurveSupport(
            degree=_as_int(_need(payload, "degree"), "degree"),
            monomials=frozenset(
                tuple(_as_int(e, f"monomials[{i}][{k}]") for k, e in enumerate(_as_list(m, f"monomials[{i}]", 3)))
                for i, m in enumerate(_as_list(_need(payload, "monomials"), "monomials"))
            ),
        )
        lam = OnePS(tuple(_as_int(w, f"lambda[{i}]") for i, w in enumerate(_as_list(_need(payload, "lambda"), "lambda", 3))))
        return _plane_report(curve, lam)
    if kind == "lct":
        if "quasihomog" in payload:
            if "germ" in payload:
                raise SchemaError("field 'germ': give the germ as 'germ' or as 'quasihomog', not both")
            w1, w2, deg = (_as_int(v, f"quasihomog[{i}]") for i, v in enumerate(_as_list(payload["quasihomog"], "quasihomog", 3)))
            return _lct_report(QuasiHomogGerm(w1, w2, deg))
        mons = frozenset(
            tuple(_as_int(e, f"germ[{i}][{k}]") for k, e in enumerate(_as_list(m, f"germ[{i}]", 2)))
            for i, m in enumerate(_as_list(_need(payload, "germ"), "germ"))
        )
        return _lct_report(GermSupport(mons))
    if kind == "index":
        d = _as_int(_need(payload, "degree"), "degree")
        c = _as_rat(_need(payload, "coeff"), "coeff")
        return {"degree": str(d), "coeff": fmt(c), "max Gorenstein index": str(index_bound(d, c))}
    if kind == "cm":
        n = _as_int(_need(payload, "n"), "n")
        d = _as_int(_need(payload, "degree"), "degree")
        c = _as_rat(_need(payload, "coeff"), "coeff")
        window = cm_positivity_window(n, d)  # refuses the degree and the dimension before the power is taken
        return {
            "n": str(n),
            "degree": str(d),
            "coeff": fmt(c),
            "cm degree": fmt(cm_degree(n, d, c)),
            "positivity window": str(window),
        }
    # kind == "stratum", the last kind in _FIELDS
    coords = tuple(_as_rat(v, f"coords[{i}]") for i, v in enumerate(_as_list(_need(payload, "coords"), "coords")))
    return _stratum_report(coords)


# ---------------------------------------------------------------------------
# engine inputs from registry names
# ---------------------------------------------------------------------------

_REGISTRIES = {
    "volume": fixtures.VOLUME_FIXTURES,
    "centroid": fixtures.CENTROID_FIXTURES,
    "lct": fixtures.LCT_FIXTURES,
    "git-binary": fixtures.BINARY_FIXTURES,
    "git-plane": fixtures.PLANE_GIT_FIXTURES,
}


def _unknown_fixture(name: str) -> SchemaError:
    listing = ", ".join(fixtures.REGISTRY_NAMES)
    return SchemaError(f"unknown fixture {name!r}; available fixtures: {listing}")


def fixture_report(command: str, name: str) -> dict:
    """The report of a registry name: its kind's builder on the fixture's
    engine input, or a composite listing of several such reports."""
    if (command, name) == ("wall", "x26-delta"):
        out = _wall_report(solve_wall(fixtures.wall_case("x26")))
        out["delta upper bound (c = 0)"] = fmt(fixtures.delta_upper_bound(name))
        return out
    if (command, name) == ("wall", "p1425-delta"):
        ratios = fixtures.delta_ratios(name)
        return {
            "case": name,
            "ray ratios A/S": ", ".join(f"{ray}: {fmt(v)}" for ray, v in sorted(ratios.items())),
            "delta upper bound (c = 0)": fmt(min(ratios.values())),
        }
    if (command, name) == ("git-binary", "quartic-binary"):
        reps = [_binary_report(sub, fixtures.BINARY_FIXTURES[sub].system)
                for sub in ("quartic-binary-unstable", "quartic-binary-ss")]
        return {"system": name, "verdicts": [f"{r['system']}: {r['verdict']} ({r['detail']})" for r in reps]}
    if (command, name) == ("stratum", "quintic-strata"):
        rows = []
        for rep, coords in fixtures.STRATUM_REPRESENTATIVES.items():
            r = _stratum_report(coords)
            rows.append(f"{rep:<10} {r['coords']:<16} -> {r['stratum']:<7} wall {r['wall']:<7} {r['note']}")
        return {"representatives": rows}
    if command == "wall":
        try:
            case = fixtures.wall_case(name)
        except KeyError:
            raise _unknown_fixture(name) from None
        return _wall_report(solve_wall(case))
    fx = _REGISTRIES.get(command, {}).get(name)
    if fx is None:
        raise _unknown_fixture(name)
    if command == "volume":
        return _volume_report(fx)
    if command == "centroid":
        return _centroid_report(fx.case, display=fx)
    if command == "git-binary":
        return _binary_report(name, fx.system)
    # these reports carry no name of their own: the fixture adds its name
    if command == "git-plane":
        return {"fixture": name, **_plane_report(fx.curve, fx.one_ps)}
    return {"fixture": name, **_lct_report(fx.support)}


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    width = max(len(k) for k in report)
    for key, value in report.items():
        if isinstance(value, list):
            print(f"{key}:")
            for row in value:
                print(f"  {row}")
        else:
            print(f"{key:<{width}}: {value}")


def _read_scenario_file(path: str) -> tuple[str, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read scenario file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"field '<root>': scenario file is not UTF-8: {exc}") from exc
    if not text.strip():
        raise SchemaError("field '<root>': empty scenario file")
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except KwallError:
        raise
    except ValueError as exc:  # not JSON, or an integer with more digits than int() converts
        raise SchemaError(f"field '<root>': invalid JSON: {exc}") from exc
    return load_scenario(doc)


def _reject_float(token: str):
    raise SchemaError(f"field '<root>': floating-point literal {token!r} rejected; encode rationals as 'p/q'")


def _cmd_walls() -> dict:
    rows = quintic_wall_table()
    return {
        "walls": [
            f"{r.index}  c = {fmt(r.wall):>7}   below: {r.below}   above: {r.above}"
            for r in rows
        ],
        "count": str(len(rows)),
        "last": fmt(rows[-1].wall),
    }


def _parse_pairs(text: str) -> list[list[int]]:
    """The --germ monomials 'i,j i,j ...' as the [i, j] pairs of an lct payload's 'germ'."""
    mons = []
    for chunk in text.replace(";", " ").split():
        parts = chunk.split(",")
        if len(parts) != 2:
            raise SchemaError(f"field 'germ': expected 'i,j' pairs, got {chunk!r}")
        try:
            mons.append([integer(parts[0]), integer(parts[1])])
        except ValueError as exc:
            raise SchemaError(f"field 'germ': non-integer exponent in {chunk!r}") from exc
    return mons


def _input_group(p: argparse.ArgumentParser, *inline: tuple[str, str]) -> None:
    """One of the inline flags, --fixture or --file, all ending in one report builder."""
    g = p.add_mutually_exclusive_group(required=True)
    for flag, text in inline:
        g.add_argument(flag, help=text)
    g.add_argument("--fixture")
    g.add_argument("--file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwall",
        description="Exact K-stability wall computations for log Fano surface pairs.",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walls", help="built-in wall tables")
    p.add_argument("which", choices=["quintic"])

    _input_group(sub.add_parser("wall", help="solve one valuative wall case"))

    p = sub.add_parser("first-wall", help="first wall for degree-d plane curves")
    p.add_argument("--degree", type=integer, required=True)

    _input_group(sub.add_parser("volume", help="volume profile of a fixture or scenario"))
    _input_group(sub.add_parser("lct", help="log canonical threshold of a curve germ"),
                 ("--germ", "monomial support, e.g. '2,0 0,13'"), ("--quasihomog", "'w1,w2,degree'"))

    p = sub.add_parser("index-bound", help="max local Gorenstein index")
    p.add_argument("--degree", type=integer, required=True)
    p.add_argument("--coeff", required=True)

    _input_group(sub.add_parser("centroid", help="centroid K-polystability test"))

    p = sub.add_parser("git", help="GIT weight computations")
    gsub = p.add_subparsers(dest="git_command", required=True)
    for which in ("binary", "plane"):
        _input_group(gsub.add_parser(which))

    p = sub.add_parser("cm", help="CM line bundle degree for hypersurface families")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--degree", type=integer, required=True)
    p.add_argument("--coeff", required=True)

    p = sub.add_parser("stratum", help="classify a quintic boundary stratum point")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--coords", help="'s,r,h,u' or 's1,s2' (rationals)")
    g.add_argument("--fixture", help="'quintic-strata' classifies every representative")

    sub.add_parser("verify-all", help="run the full verification checklist")
    return parser


# command -> the scenario kinds its --file accepts
_FILE_KINDS = {
    "wall": {"wall-case"},
    "volume": {"two-ray", "toric"},
    "centroid": {"centroid"},
    "git-binary": {"git-binary"},
    "git-plane": {"git-plane"},
    "lct": {"lct"},
}


def _dispatch(args) -> tuple[dict, int]:
    command = f"git-{args.git_command}" if args.command == "git" else args.command
    if getattr(args, "fixture", None) is not None:
        return fixture_report(command, args.fixture), 0
    if getattr(args, "file", None) is not None:
        kind, payload = _read_scenario_file(args.file)
        if kind not in _FILE_KINDS[command]:
            raise SchemaError(f"field 'kind': command expects one of {sorted(_FILE_KINDS[command])}, got {kind!r}")
        return run_scenario(kind, payload), 0
    if command == "walls":
        return _cmd_walls(), 0
    if command == "first-wall":
        wall, tag, report = first_wall(args.degree)
        text = _wall_report(report)
        return {
            "degree": str(args.degree),
            "first wall": fmt(wall),
            "polystable replacement": f"curve {tag} on the quadric cone P(1,1,4)",
            "A(c)": text["A(c)"],
            "S(c)": text["S(c)"],
        }, 0
    if command == "lct":
        if args.germ is not None:
            return run_scenario("lct", {"germ": _parse_pairs(args.germ)}), 0
        try:
            w1, w2, degree = (integer(part) for part in args.quasihomog.split(","))
        except ValueError:
            raise SchemaError(f"field 'quasihomog': expected 'w1,w2,degree' integers, got {args.quasihomog!r}") from None
        return run_scenario("lct", {"quasihomog": [w1, w2, degree]}), 0
    if command == "index-bound":
        return run_scenario("index", {"degree": args.degree, "coeff": args.coeff}), 0
    if command == "cm":
        return run_scenario("cm", {"n": args.n, "degree": args.degree, "coeff": args.coeff}), 0
    if command == "stratum":
        coords = [chunk.strip() for chunk in args.coords.split(",")]
        return run_scenario("stratum", {"coords": coords}), 0
    # command == "verify-all", the last command of build_parser
    results = acceptance.run_all()
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  criterion {r.cid:>2}  {r.title}: {r.detail}"
        for r in results
    ]
    ok = all(r.passed for r in results)
    report = {
        "checklist": lines,
        "summary": f"{sum(r.passed for r in results)}/{len(results)} criteria passed",
    }
    return report, 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _dispatch(args)
    except KwallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
