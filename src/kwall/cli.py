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

_REQUIRED = object()  # the default of a payload field that has none


def _need(payload: dict, key: str, read=None, default: Any = _REQUIRED):
    """``payload[key]``, through ``read`` when given; a missing key takes its default, if it has one."""
    if key in payload:
        return payload[key] if read is None else read(payload[key], key)
    if default is _REQUIRED:
        raise SchemaError(f"field '{key}': missing")
    return default


# readers: each takes a payload value and the name of its field, and returns the engine's value

def _as_rat(value: Any, where: str) -> Fraction:
    try:
        return rat(value)
    except StructuralError as exc:
        raise SchemaError(f"field '{where}': {exc}") from None


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field '{where}': expected an integer, got {value!r}")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"field '{where}': expected a string, got {value!r}")
    return value


def _vec(read, length: int | None = None):
    """The reader of a list of ``length`` entries (of any length when None), each read by ``read``."""
    def read_list(value: Any, where: str) -> tuple:
        if not isinstance(value, list):
            raise SchemaError(f"field '{where}': expected a list")
        if length is not None and len(value) != length:
            raise SchemaError(f"field '{where}': expected {length} entries, got {len(value)}")
        return tuple(read(v, f"{where}[{i}]") for i, v in enumerate(value))
    return read_list


_RAT2, _RAT3 = _vec(_as_rat, 2), _vec(_as_rat, 3)
_PAIRS = _vec(_vec(_as_int, 2))  # monomials x^i y^j as [i, j]


def _anti_k(value: Any, where: str) -> tuple[Fraction, ...]:
    anti_k = _RAT2(value, where)
    if anti_k[0] <= 0:
        raise SchemaError(f"field '{where}': anti-canonical scale must be positive at c = 0")
    return anti_k


def _range(value: Any, where: str) -> Interval:
    lo, hi = _RAT2(value, where)
    if lo == hi:  # a scenario range is open
        raise SchemaError(f"field '{where}': range ({fmt(lo)}, {fmt(hi)}) is empty")
    return Interval(lo, hi)


def _region(value: Any, where: str):
    try:
        return make_polygon(_vec(_RAT2)(value, where))
    except StructuralError as exc:  # the vertex cycle is not simple and convex
        raise SchemaError(f"field '{where}': {exc}") from None


def _forms(value: Any, where: str) -> dict[int, tuple]:
    if not isinstance(value, dict):
        raise SchemaError(f"field '{where}': expected an object mapping block index to monomials")
    forms = {}
    for key, mons in sorted(value.items()):
        try:
            j = integer(key)
        except StructuralError:
            j = -1
        if j < 0 or str(j) != key:  # also a sign or leading zeros
            raise SchemaError(f"field '{where}.{key}': block index must be an integer in canonical digits")
        forms[j] = _PAIRS(mons, f"{where}.{key}")
    return forms


def load_scenario(doc: Any) -> tuple[str, dict]:
    if not isinstance(doc, dict):
        raise SchemaError("field '<root>': scenario document must be a JSON object")
    kind = _need(doc, "kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"field 'kind': unknown scenario kind {kind!r}; expected one of {sorted(_KINDS)}")
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
# scenario kinds: a payload resolves to its kind's engine input
# ---------------------------------------------------------------------------

def _lct_scenario(germ, quasihomog) -> dict:
    """The germ by its support or by its weights and degree: one of the two."""
    if quasihomog is None:
        if germ is None:
            raise SchemaError("field 'germ': missing")
        return _lct_report(GermSupport(germ))
    if germ is not None:
        raise SchemaError("field 'germ': give the germ as 'germ' or as 'quasihomog', not both")
    return _lct_report(QuasiHomogGerm(*quasihomog))


def _cm_report(n: int, d: int, c: Fraction) -> dict:
    window = cm_positivity_window(n, d)  # refuses the degree and the dimension before the power is taken
    return {"n": str(n), "degree": str(d), "coeff": fmt(c), "cm degree": fmt(cm_degree(n, d, c)),
            "positivity window": str(window)}


# scenario kind -> (the command whose --file reads it, None for a kind that only inline flags build;
# its payload fields in reading order, each a reader and a default or _REQUIRED; the call that builds
# its report from the fields' values, passed in that order).  'name' is a field only where the
# report prints it.
_KINDS: dict[str, tuple] = {
    "two-ray": ("volume", {
        "name": (_as_str, "scenario"), "h2": (_as_rat, _REQUIRED), "e2": (_as_rat, _REQUIRED),
        "cross": (_as_rat, F(0)), "neg_curve": (_RAT2, None), "L": (_RAT2, _REQUIRED), "anti_k": (_anti_k, None),
    }, lambda name, h2, e2, cross, neg_curve, L, anti_k: _volume_report(
        fixtures.VolumeFixture(name, TwoRayModel(h2, e2, cross, neg_curve), L, None, None, "", {}),
        with_s0=anti_k is not None)),
    "toric": ("volume", {
        "name": (_as_str, "scenario"), "polygon": (_region, _REQUIRED), "w": (_RAT2, _REQUIRED),
        "anti_k": (_anti_k, None),
    }, lambda name, region, w, anti_k: _volume_report(
        fixtures.VolumeFixture(name, None, None, MomentPolygon(region, w), None, "", {}),
        with_s0=anti_k is not None)),
    "wall-case": ("wall", {
        "name": (_as_str, "scenario"), "A0": (_as_rat, _REQUIRED), "ordD": (_as_rat, _REQUIRED),
        "S0": (_as_rat, _REQUIRED), "alpha": (_as_rat, _REQUIRED), "beta": (_as_rat, _REQUIRED),
        "range": (_range, Interval(F(0), F(3, 5))),
    }, lambda *case: _wall_report(solve_wall(WallCase(*case)))),
    "centroid": ("centroid", {
        "name": (_as_str, "scenario"), "generators": (_vec(_RAT3, 3), _REQUIRED), "xi0": (_RAT3, _REQUIRED),
        "eta0star": (_RAT3, _REQUIRED), "u1": (_RAT3, _REQUIRED),
    }, lambda *case: _centroid_report(CentroidCase(*case))),
    "git-binary": ("git-binary", {
        "name": (_as_str, "scenario"), "parity": (lambda value, where: str(value), _REQUIRED),
        "degree": (_as_int, _REQUIRED), "forms": (_forms, _REQUIRED),
    }, lambda name, *system: _binary_report(name, BinaryFormSystem(*system))),
    "git-plane": ("git-plane", {
        "degree": (_as_int, _REQUIRED), "monomials": (_vec(_vec(_as_int, 3)), _REQUIRED),
        "lambda": (_vec(_as_int, 3), _REQUIRED),
    }, lambda degree, monomials, weights: _plane_report(PlaneCurveSupport(degree, monomials), OnePS(weights))),
    "lct": ("lct", {"germ": (_PAIRS, None), "quasihomog": (_vec(_as_int, 3), None)}, _lct_scenario),
    "index": (None, {"degree": (_as_int, _REQUIRED), "coeff": (_as_rat, _REQUIRED)},
              lambda d, c: {"degree": str(d), "coeff": fmt(c), "max Gorenstein index": str(index_bound(d, c))}),
    "cm": (None, {"n": (_as_int, _REQUIRED), "degree": (_as_int, _REQUIRED), "coeff": (_as_rat, _REQUIRED)},
           _cm_report),
    "stratum": (None, {"coords": (_vec(_as_rat), _REQUIRED)}, _stratum_report),
}


def run_scenario(kind: str, payload: dict) -> dict:
    _, fields, build = _KINDS[kind]
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise SchemaError(f"field '{unknown[0]}': unknown field; kind {kind!r} reads {sorted(fields)}")
    return build(*(_need(payload, key, read, default) for key, (read, default) in fields.items()))


# ---------------------------------------------------------------------------
# engine inputs from registry names
# ---------------------------------------------------------------------------

def _unknown_fixture(command: str, name: str) -> SchemaError:
    listing = ", ".join(fixtures.FIXTURE_NAMES[command])
    return SchemaError(f"unknown fixture {name!r}; available fixtures: {listing}")


def _delta_report(name: str, surface: tuple) -> dict:
    """A surface's delta bound, the least of its valuations' ratios, after its wall case's report or each ratio."""
    case_name, ratios = surface[0], fixtures.delta_ratios(name)
    bound = {"delta upper bound (c = 0)": fmt(min(ratios.values()))}
    if case_name is not None:
        return {**_wall_report(solve_wall(fixtures.wall_case(case_name))), **bound}
    return {"case": name, "ray ratios A/S": ", ".join(f"{ray}: {fmt(v)}" for ray, v in sorted(ratios.items())), **bound}


def _binary_listing(name: str, members: tuple[str, ...]) -> dict:
    reps = [_binary_report(sub, fixtures.BINARY_FIXTURES[sub].system) for sub in members]
    return {"system": name, "verdicts": [f"{r['system']}: {r['verdict']} ({r['detail']})" for r in reps]}


def _strata_listing(name: str, representatives: dict[str, tuple[Fraction, ...]]) -> dict:
    rows = []
    for rep, coords in representatives.items():
        r = _stratum_report(coords)
        rows.append(f"{rep:<10} {r['coords']:<16} -> {r['stratum']:<7} wall {r['wall']:<7} {r['note']}")
    return {"representatives": rows}


# each command's report of a fixture and of a composite name's members, as fixtures.FIXTURE_REGISTRIES declares
# them; git-plane and lct reports carry no name of their own, so the fixture adds its name
_FIXTURE_REPORTS = {
    "wall": (lambda name, case: _wall_report(solve_wall(case)), _delta_report),
    "volume": (lambda name, vf: _volume_report(vf), None),
    "centroid": (lambda name, cf: _centroid_report(cf.case, display=cf), None),
    "lct": (lambda name, fx: {"fixture": name, **_lct_report(fx.support)}, None),
    "git-binary": (lambda name, fx: _binary_report(name, fx.system), _binary_listing),
    "git-plane": (lambda name, fx: {"fixture": name, **_plane_report(fx.curve, fx.one_ps)}, None),
    "stratum": (None, _strata_listing),
}


def fixture_report(command: str, name: str) -> dict:
    """The report of a registry name: its command's builder on the fixture, or on the members of a
    composite name, each as fixtures.FIXTURE_REGISTRIES declares the name."""
    (registry, composites), (single, composite) = fixtures.FIXTURE_REGISTRIES[command], _FIXTURE_REPORTS[command]
    if name in composites:
        return composite(name, composites[name])
    try:
        fx = fixtures.wall_case(name) if command == "wall" else registry[name]
    except KeyError:
        raise _unknown_fixture(command, name) from None
    return single(name, fx)


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


def _dispatch(args) -> tuple[dict, int]:
    command = f"git-{args.git_command}" if args.command == "git" else args.command
    if getattr(args, "fixture", None) is not None:
        return fixture_report(command, args.fixture), 0
    if getattr(args, "file", None) is not None:
        kind, payload = _read_scenario_file(args.file)
        kinds = sorted(k for k, (reads, _, _) in _KINDS.items() if reads == command)
        if kind not in kinds:
            raise SchemaError(f"field 'kind': command expects one of {kinds}, got {kind!r}")
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
