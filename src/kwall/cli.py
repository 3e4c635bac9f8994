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
    GitError,
    OnePS,
    PlaneCurveSupport,
    binary_system_stability,
    cm_degree,
    cm_positivity_window,
    hm_weight_plane,
)
from .toric_kps import CentroidCase, ConeError, solve_centroid_condition
from .valuations import (
    DomainError,
    GermSupport,
    QuasiHomogGerm,
    index_bound,
    lct_newton,
    lct_quasihomog,
)
from .volumes import InvalidValuationError, ModelError, MomentPolygon, TwoRayModel, s_invariant, volume_toric, volume_two_ray
from .walls import (
    Interval,
    QuinticStratumPoint,
    WallCase,
    WallError,
    classify_quintic_stratum,
    first_wall,
    quintic_wall_table,
    solve_wall,
)
from .exact import DegenerateInputError, SingularSystemError, StructuralError, fmt, polygon as make_polygon

F = Fraction


class SchemaError(ValueError):
    """Scenario document violates its kind's schema; message names the field."""


_ERRORS = (
    SchemaError,
    StructuralError,
    DegenerateInputError,
    SingularSystemError,
    ModelError,
    InvalidValuationError,
    DomainError,
    WallError,
    ConeError,
    GitError,
)


# ---------------------------------------------------------------------------
# scenario ingestion: rationals are 'p/q' strings or integers, never floats
# ---------------------------------------------------------------------------

def _as_rat(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"field '{where}': rationals must be 'p/q' strings or integers, got {value!r}")
    if isinstance(value, int):
        return F(value)
    if isinstance(value, str):
        try:
            return F(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"field '{where}': malformed rational {value!r}") from exc
    raise SchemaError(f"field '{where}': expected a rational, got {type(value).__name__}")


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


def load_scenario(doc: Any) -> tuple[str, dict, str]:
    if not isinstance(doc, dict):
        raise SchemaError("field '<root>': scenario document must be a JSON object")
    kind = _need(doc, "kind")
    known = {"two-ray", "toric", "wall-case", "centroid", "git-binary", "git-plane",
             "lct", "index", "cm", "stratum"}
    if kind not in known:
        raise SchemaError(f"field 'kind': unknown scenario kind {kind!r}; expected one of {sorted(known)}")
    payload = _need(doc, "payload")
    if not isinstance(payload, dict):
        raise SchemaError("field 'payload': expected a JSON object")
    provenance = doc.get("provenance", "")
    if not isinstance(provenance, str):
        raise SchemaError("field 'provenance': expected a string")
    return kind, payload, provenance


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _interval_str(iv: Interval) -> str:
    return str(iv)


def _wall_report(case: WallCase) -> dict:
    report = solve_wall(case)
    a_str = f"{fmt(case.A0)} - {fmt(case.ordD)} c" if case.ordD != 0 else fmt(case.A0)
    s_str = f"({fmt(case.S0)}) ({fmt(case.alpha)} - {fmt(case.beta)} c)"
    out = {
        "case": case.name,
        "A(c)": a_str,
        "S(c)": s_str,
        "range": _interval_str(case.valid_range),
    }
    if report.degenerate:
        out["wall"] = "degenerate (A and S identical; no information)"
        return out
    out["wall"] = fmt(report.wall) if report.wall is not None else "none in range"
    if report.wall is not None:
        side = "above" if report.unstable_above else "below"
        out["verdict"] = (
            f"K-unstable for c {'>' if side == 'above' else '<'} {fmt(report.wall)}; "
            f"necessary condition for K-semistability passes on the other side"
        )
    else:
        # no wall inside the range: A - S keeps one sign there
        mid = (case.valid_range.lo + case.valid_range.hi) / 2
        if case.margin(mid) < 0:
            out["verdict"] = "K-unstable on the whole range"
        else:
            out["verdict"] = "necessary condition passes on the whole range"
    return out


def _profile_rows(profile) -> list[str]:
    rows = []
    for a, b, p in zip(profile.profile.breakpoints, profile.profile.breakpoints[1:], profile.profile.pieces):
        cs = [fmt(p.coeff(k)) for k in range(3)]
        rows.append(f"[{fmt(a)}, {fmt(b)}]: {cs[0]} + {cs[1]} t + {cs[2]} t^2")
    return rows


def _volume_report(name: str, profile, s0: Fraction | None, engine: str) -> dict:
    out = {
        "fixture": name,
        "engine": engine,
        "vol(L)": fmt(profile.vol0),
        "nef threshold": fmt(profile.nef_threshold),
        "pseudoeffective threshold": fmt(profile.pseff_threshold),
        "pieces": _profile_rows(profile),
    }
    if s0 is not None:
        out["S0"] = fmt(s0)
    return out


def _centroid_report(name: str, case: CentroidCase, display=None) -> dict:
    verdict = solve_centroid_condition(case)
    out = {
        "case": name,
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


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _two_ray_from_payload(payload: dict) -> tuple[TwoRayModel, tuple, tuple | None]:
    h2 = _as_rat(_need(payload, "h2"), "h2")
    e2 = _as_rat(_need(payload, "e2"), "e2")
    cross = _as_rat(payload.get("cross", 0), "cross")
    neg = payload.get("neg_curve")
    neg_curve = None if neg is None else tuple(_rat_vec(neg, "neg_curve", 2))
    L = _rat_vec(_need(payload, "L"), "L", 2)
    anti = payload.get("anti_k")
    anti_k = None if anti is None else _rat_vec(anti, "anti_k", 2)
    return TwoRayModel(h2, e2, cross, neg_curve), L, anti_k


def _toric_from_payload(payload: dict) -> tuple[MomentPolygon, tuple | None]:
    verts = [_rat_vec(v, f"polygon[{i}]", 2) for i, v in enumerate(_as_list(_need(payload, "polygon"), "polygon"))]
    w = _rat_vec(_need(payload, "w"), "w", 2)
    anti = payload.get("anti_k")
    anti_k = None if anti is None else _rat_vec(anti, "anti_k", 2)
    return MomentPolygon(make_polygon(verts), w), anti_k


def run_scenario(kind: str, payload: dict) -> dict:
    if kind == "two-ray":
        model, L, anti_k = _two_ray_from_payload(payload)
        profile = volume_two_ray(model, L)
        s0 = s_invariant(profile, anti_k) if anti_k else None
        return _volume_report(payload.get("name", "scenario"), profile, s0, "two-ray")
    if kind == "toric":
        moment, anti_k = _toric_from_payload(payload)
        profile = volume_toric(moment)
        s0 = s_invariant(profile, anti_k) if anti_k else None
        return _volume_report(payload.get("name", "scenario"), profile, s0, "toric")
    if kind == "wall-case":
        rng = payload.get("range")
        lo, hi = (F(0), F(3, 5)) if rng is None else _rat_vec(rng, "range", 2)
        case = WallCase(
            name=str(payload.get("name", "scenario")),
            A0=_as_rat(_need(payload, "A0"), "A0"),
            ordD=_as_rat(_need(payload, "ordD"), "ordD"),
            S0=_as_rat(_need(payload, "S0"), "S0"),
            alpha=_as_rat(_need(payload, "alpha"), "alpha"),
            beta=_as_rat(_need(payload, "beta"), "beta"),
            valid_range=Interval(lo, hi),
        )
        return _wall_report(case)
    if kind == "centroid":
        gens = tuple(
            _rat_vec(g, f"generators[{i}]", 3)
            for i, g in enumerate(_as_list(_need(payload, "generators"), "generators", 3))
        )
        case = CentroidCase(
            name=str(payload.get("name", "scenario")),
            generators=gens,  # type: ignore[arg-type]
            xi0=_rat_vec(_need(payload, "xi0"), "xi0", 3),
            eta0star=_rat_vec(_need(payload, "eta0star"), "eta0star", 3),
            u1=_rat_vec(_need(payload, "u1"), "u1", 3),
            u0_override=(
                _rat_vec(payload["u0_override"], "u0_override", 3)
                if payload.get("u0_override") is not None
                else None
            ),
        )
        return _centroid_report(case.name, case)
    if kind == "git-binary":
        forms_doc = _need(payload, "forms")
        if not isinstance(forms_doc, dict):
            raise SchemaError("field 'forms': expected an object mapping block index to monomials")
        forms = {}
        for key, mons in sorted(forms_doc.items()):
            try:
                j = int(key)
            except ValueError as exc:
                raise SchemaError(f"field 'forms.{key}': block index must be an integer") from exc
            forms[j] = frozenset(
                tuple(_as_int(e, f"forms.{key}[{i}][{k}]") for k, e in enumerate(_as_list(m, f"forms.{key}[{i}]", 2)))
                for i, m in enumerate(_as_list(mons, f"forms.{key}"))
            )
        system = BinaryFormSystem(
            parity=str(_need(payload, "parity")),
            degree=_as_int(_need(payload, "degree"), "degree"),
            forms=forms,
        )
        return _binary_report(payload.get("name", "scenario"), system)
    if kind == "git-plane":
        curve = PlaneCurveSupport(
            degree=_as_int(_need(payload, "degree"), "degree"),
            monomials=frozenset(
                tuple(_as_int(e, f"monomials[{i}][{k}]") for k, e in enumerate(_as_list(m, f"monomials[{i}]", 3)))
                for i, m in enumerate(_as_list(_need(payload, "monomials"), "monomials"))
            ),
        )
        lam = OnePS(tuple(_as_int(w, f"lambda[{i}]") for i, w in enumerate(_as_list(_need(payload, "lambda"), "lambda", 3))))
        mu = hm_weight_plane(curve, lam)
        return {
            "curve degree": str(curve.degree),
            "1-PS": "(" + ", ".join(str(w) for w in lam.weights) + ")",
            "mu": fmt(mu),
            "verdict": "destabilized (mu < 0 certifies instability)" if mu < 0 else
                       ("torus direction has weight zero" if mu == 0 else "not destabilized by this 1-PS"),
        }
    if kind == "lct":
        if "quasihomog" in payload:
            w1, w2, deg = (_as_int(v, f"quasihomog[{i}]") for i, v in enumerate(_as_list(payload["quasihomog"], "quasihomog", 3)))
            value = lct_quasihomog(QuasiHomogGerm(w1, w2, deg))
            return {"germ": f"quasi-homogeneous weights ({w1}, {w2}) degree {deg}", "lct": fmt(value)}
        mons = frozenset(
            tuple(_as_int(e, f"germ[{i}][{k}]") for k, e in enumerate(_as_list(m, f"germ[{i}]", 2)))
            for i, m in enumerate(_as_list(_need(payload, "germ"), "germ"))
        )
        value = lct_newton(GermSupport(mons))
        return {"germ": " ".join(f"({i},{j})" for i, j in sorted(mons)), "lct": fmt(value)}
    if kind == "index":
        d = _as_int(_need(payload, "degree"), "degree")
        c = _as_rat(_need(payload, "coeff"), "coeff")
        return {"degree": str(d), "coeff": fmt(c), "max Gorenstein index": str(index_bound(d, c))}
    if kind == "cm":
        n = _as_int(_need(payload, "n"), "n")
        d = _as_int(_need(payload, "degree"), "degree")
        c = _as_rat(_need(payload, "coeff"), "coeff")
        return {
            "n": str(n),
            "degree": str(d),
            "coeff": fmt(c),
            "cm degree": fmt(cm_degree(n, d, c)),
            "positivity window": _interval_str(cm_positivity_window(n, d)),
        }
    if kind == "stratum":
        coords = tuple(_as_rat(v, f"coords[{i}]") for i, v in enumerate(_as_list(_need(payload, "coords"), "coords")))
        verdict = classify_quintic_stratum(QuinticStratumPoint(coords))
        return {
            "coords": "[" + ", ".join(fmt(c) for c in coords) + "]",
            "stratum": verdict.stratum,
            "wall": fmt(verdict.wall) if verdict.wall is not None else "none",
            "note": verdict.note,
        }
    raise SchemaError(f"field 'kind': unhandled kind {kind!r}")


def serialize_scenario(kind: str, payload: dict, provenance: str = "") -> str:
    """Scenario document in the exact input format (round-trip safe)."""
    return json.dumps({"kind": kind, "payload": payload, "provenance": provenance},
                      indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# fixture dispatch
# ---------------------------------------------------------------------------

def _unknown_fixture(name: str) -> SchemaError:
    listing = ", ".join(fixtures.REGISTRY_NAMES)
    return SchemaError(f"unknown fixture {name!r}; available fixtures: {listing}")


def fixture_report(command: str, name: str) -> dict:
    if command == "wall":
        if name == "x26-delta":
            out = _wall_report(fixtures.wall_case("x26"))
            out["delta upper bound (c = 0)"] = fmt(fixtures.delta_upper_bound("x26-delta"))
            return out
        if name == "p1425-delta":
            ratios = {
                ray: F(1) / (fixtures.VOLUME_FIXTURES[f"p1425-ray-{ray}"].anti_k[0]
                             * fixtures.VOLUME_FIXTURES[f"p1425-ray-{ray}"].s0())
                for ray in ("x", "y", "z")
            }
            return {
                "case": "p1425-delta",
                "ray ratios A/S": ", ".join(f"{ray}: {fmt(v)}" for ray, v in sorted(ratios.items())),
                "delta upper bound (c = 0)": fmt(fixtures.delta_upper_bound("p1425-delta")),
            }
        try:
            case = fixtures.wall_case(name)
        except KeyError:
            raise _unknown_fixture(name) from None
        return _wall_report(case)
    if command == "volume":
        vf = fixtures.VOLUME_FIXTURES.get(name)
        if vf is None:
            raise _unknown_fixture(name)
        profile = vf.profile()
        engine = "two-ray" if vf.model is not None else "toric"
        report = _volume_report(name, profile, vf.s0(), engine)
        if vf.model is not None and vf.moment is not None:
            toric = vf.toric_profile()
            report["toric cross-check"] = (
                "identical profile" if toric.profile == profile.profile else "DISAGREES"
            )
        return report
    if command == "centroid":
        cf = fixtures.CENTROID_FIXTURES.get(name)
        if cf is None:
            raise _unknown_fixture(name)
        return _centroid_report(name, cf.case, display=cf)
    if command == "lct":
        lf = fixtures.LCT_FIXTURES.get(name)
        if lf is None:
            raise _unknown_fixture(name)
        if lf.support is not None:
            value = lct_newton(lf.support)
            desc = " ".join(f"({i},{j})" for i, j in sorted(lf.support.monomials))
        else:
            value = lct_quasihomog(lf.quasihomog)
            desc = f"quasi-homogeneous weights ({lf.quasihomog.w1}, {lf.quasihomog.w2}) degree {lf.quasihomog.degree}"
        return {"fixture": name, "germ": desc, "lct": fmt(value)}
    if command == "git-binary":
        if name == "quartic-binary":
            rows = []
            for sub in ("quartic-binary-unstable", "quartic-binary-ss"):
                rep = _binary_report(sub, fixtures.BINARY_FIXTURES[sub].system)
                rows.append(f"{sub}: {rep['verdict']} ({rep['detail']})")
            return {"system": "quartic-binary", "verdicts": rows}
        bf = fixtures.BINARY_FIXTURES.get(name)
        if bf is None:
            raise _unknown_fixture(name)
        return _binary_report(name, bf.system)
    if command == "git-plane":
        pf = fixtures.PLANE_GIT_FIXTURES.get(name)
        if pf is None:
            raise _unknown_fixture(name)
        mu = hm_weight_plane(pf.curve, pf.one_ps)
        return {
            "fixture": name,
            "curve degree": str(pf.curve.degree),
            "1-PS": "(" + ", ".join(str(w) for w in pf.one_ps.weights) + ")",
            "mu": fmt(mu),
            "verdict": "destabilized (mu < 0 certifies instability)" if mu < 0 else
                       ("torus direction has weight zero" if mu == 0 else "not destabilized by this 1-PS"),
        }
    raise SchemaError(f"no fixtures for command {command!r}")


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


def _read_scenario_file(path: str) -> tuple[str, dict, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read scenario file {path!r}: {exc}") from exc
    if not text.strip():
        raise SchemaError("field '<root>': empty scenario file")
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"field '<root>': invalid JSON: {exc}") from exc
    return load_scenario(doc)


def _reject_float(token: str):
    raise SchemaError(f"field '<root>': floating-point literal {token!r} rejected; encode rationals as 'p/q'")


def _cmd_walls(args) -> dict:
    if args.which != "quintic":
        raise SchemaError("only the quintic wall table is built in")
    rows = quintic_wall_table()
    return {
        "walls": [
            f"{r.index}  c = {fmt(r.wall):>7}   below: {r.below}   above: {r.above}"
            for r in rows
        ],
        "count": str(len(rows)),
        "last": fmt(rows[-1].wall),
    }


def _scenario_or_fixture(args, command: str, allowed_kinds: set[str]) -> dict:
    if getattr(args, "fixture", None):
        return fixture_report(command, args.fixture)
    kind, payload, _ = _read_scenario_file(args.file)
    if kind not in allowed_kinds:
        raise SchemaError(f"field 'kind': command expects one of {sorted(allowed_kinds)}, got {kind!r}")
    return run_scenario(kind, payload)


def _parse_pairs(text: str, what: str) -> frozenset[tuple[int, int]]:
    mons = set()
    for chunk in text.replace(";", " ").split():
        parts = chunk.split(",")
        if len(parts) != 2:
            raise SchemaError(f"field '{what}': expected 'i,j' pairs, got {chunk!r}")
        try:
            mons.add((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise SchemaError(f"field '{what}': non-integer exponent in {chunk!r}") from exc
    if not mons:
        raise SchemaError(f"field '{what}': no monomials given")
    return frozenset(mons)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwall",
        description="Exact K-stability wall computations for log Fano surface pairs.",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walls", help="built-in wall tables")
    p.add_argument("which", choices=["quintic"])

    p = sub.add_parser("wall", help="solve one valuative wall case")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fixture")
    g.add_argument("--file")

    p = sub.add_parser("first-wall", help="first wall for degree-d plane curves")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("volume", help="volume profile of a fixture or scenario")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fixture")
    g.add_argument("--file")

    p = sub.add_parser("lct", help="log canonical threshold of a curve germ")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--germ", help="monomial support, e.g. '2,0 0,13'")
    g.add_argument("--quasihomog", help="'w1,w2,degree'")
    g.add_argument("--fixture")
    g.add_argument("--file")

    p = sub.add_parser("index-bound", help="max local Gorenstein index")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--coeff", required=True)

    p = sub.add_parser("centroid", help="centroid K-polystability test")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fixture")
    g.add_argument("--file")

    p = sub.add_parser("git", help="GIT weight computations")
    gsub = p.add_subparsers(dest="git_command", required=True)
    for which in ("binary", "plane"):
        q = gsub.add_parser(which)
        g = q.add_mutually_exclusive_group(required=True)
        g.add_argument("--fixture")
        g.add_argument("--file")

    p = sub.add_parser("cm", help="CM line bundle degree for hypersurface families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--coeff", required=True)

    p = sub.add_parser("stratum", help="classify a quintic boundary stratum point")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--coords", help="'s,r,h,u' or 's1,s2' (rationals)")
    g.add_argument("--fixture", help="'quintic-strata' classifies every representative")

    sub.add_parser("verify-all", help="run the full verification checklist")
    return parser


def _dispatch(args) -> tuple[dict, int]:
    if args.command == "walls":
        return _cmd_walls(args), 0
    if args.command == "wall":
        return _scenario_or_fixture(args, "wall", {"wall-case"}), 0
    if args.command == "first-wall":
        wall, tag, report = first_wall(args.degree)
        return {
            "degree": str(args.degree),
            "first wall": fmt(wall),
            "polystable replacement": f"curve {tag} on the quadric cone P(1,1,4)",
            "A(c)": f"{fmt(report.case.A0)} - {fmt(report.case.ordD)} c",
            "S(c)": f"({fmt(report.case.S0)}) ({fmt(report.case.alpha)} - {fmt(report.case.beta)} c)",
        }, 0
    if args.command == "volume":
        return _scenario_or_fixture(args, "volume", {"two-ray", "toric"}), 0
    if args.command == "lct":
        if args.fixture:
            return fixture_report("lct", args.fixture), 0
        if args.file:
            kind, payload, _ = _read_scenario_file(args.file)
            if kind != "lct":
                raise SchemaError(f"field 'kind': expected 'lct', got {kind!r}")
            return run_scenario(kind, payload), 0
        if args.quasihomog:
            parts = args.quasihomog.split(",")
            if len(parts) != 3:
                raise SchemaError("field 'quasihomog': expected 'w1,w2,degree'")
            payload = {"quasihomog": [int(p) for p in parts]}
            return run_scenario("lct", payload), 0
        mons = _parse_pairs(args.germ, "germ")
        return run_scenario("lct", {"germ": [list(m) for m in sorted(mons)]}), 0
    if args.command == "index-bound":
        return run_scenario("index", {"degree": args.degree, "coeff": args.coeff}), 0
    if args.command == "centroid":
        return _scenario_or_fixture(args, "centroid", {"centroid"}), 0
    if args.command == "git":
        which = "git-binary" if args.git_command == "binary" else "git-plane"
        return _scenario_or_fixture(args, which, {which}), 0
    if args.command == "cm":
        return run_scenario("cm", {"n": args.n, "degree": args.degree, "coeff": args.coeff}), 0
    if args.command == "stratum":
        if args.fixture:
            if args.fixture != "quintic-strata":
                raise _unknown_fixture(args.fixture)
            rows = []
            for name, rep in fixtures.STRATUM_REPRESENTATIVES.items():
                verdict = classify_quintic_stratum(QuinticStratumPoint(rep))
                coords = "[" + ", ".join(fmt(c) for c in rep) + "]"
                wall = fmt(verdict.wall) if verdict.wall is not None else "none"
                rows.append(f"{name:<10} {coords:<16} -> {verdict.stratum:<7} wall {wall:<7} {verdict.note}")
            return {"representatives": rows}, 0
        coords = [chunk.strip() for chunk in args.coords.split(",")]
        return run_scenario("stratum", {"coords": coords}), 0
    if args.command == "verify-all":
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
    raise SchemaError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _dispatch(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
