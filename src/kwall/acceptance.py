"""Verification checklist: every headline identity the toolkit must reproduce.

Each criterion is a callable raising CheckFailed on failure; run_all
executes the full list and collects one pass/fail line per criterion, and any
other exception a criterion raises fails it too.  The checks are explicit
raises, not ``assert`` statements, so they still run under ``python -O``.  All
comparisons are exact (tolerance zero) because every target value is rational.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import fixtures
from .exact import (
    PiecewiseQuadratic,
    Polygon2,
    _adjugate_columns,
    _cleared,
    _idot3,
    area_centroid,
    poly,
    polygon,
    v2_dot,
)
from .git import (
    cm_degree,
    cm_positivity_window,
    hm_weight_plane,
    binary_system_stability,
    replay_certificate,
)
from .toric_kps import CentroidCase, solve_centroid_condition
from .valuations import index_bound, lct_newton
from .volumes import MomentPolygon, TwoRayModel, s_invariant, volume_toric, volume_two_ray
from .walls import _QUINTIC_STRATA, WallCase, admissibility_window, first_wall, quintic_wall_table, solve_wall

F = Fraction

_SEED = 20260810


class CheckFailed(AssertionError):
    """A verification criterion found a value that differs from its target."""


class CriterionResult(NamedTuple):
    cid: int
    title: str
    passed: bool
    detail: str


# the printed piecewise volume formulas, frozen verbatim as reference data
_REFERENCE_PROFILES = {
    "a12": PiecewiseQuadratic(
        [0, 5, F(26, 5)],
        [poly(1, 0, F(-1, 26)), poly(26, -10, F(25, 26))],
    ),
    "a11red": PiecewiseQuadratic(
        [0, 2, 3],
        [poly(1, 0, F(-1, 6)), poly(3, -2, F(1, 3))],
    ),
    "a11irr": PiecewiseQuadratic(
        [0, F(12, 5), F(5, 2)],
        [poly(1, 0, F(-1, 6)), poly(25, -20, 4)],
    ),
    "a10": PiecewiseQuadratic(
        [0, F(22, 5), 5],
        [poly(1, 0, F(-1, 22)), poly(F(25, 3), F(-10, 3), F(1, 3))],
    ),
    "x26": PiecewiseQuadratic(
        [0, F(1, 25), F(26, 25)],
        [poly(F(1, 25), 0, F(-25, 26)), poly(F(26, 625), F(-2, 25), F(1, 26))],
    ),
    "p114-w31": PiecewiseQuadratic(
        [0, 1, 3],
        [poly(F(1, 4), 0, F(-1, 12)), poly(F(3, 8), F(-1, 4), F(1, 24))],
    ),
    "p114-w51": PiecewiseQuadratic(
        [0, 1, 5],
        [poly(F(1, 4), 0, F(-1, 20)), poly(F(5, 16), F(-1, 8), F(1, 80))],
    ),
    "p1425-w11": PiecewiseQuadratic(
        [0, F(1, 25), 1],
        [poly(F(1, 100), 0, F(-1, 4)), poly(F(1, 96), F(-1, 48), F(1, 96))],
    ),
    "p1425-w13": PiecewiseQuadratic(
        [0, F(3, 25), 1],
        [poly(F(1, 100), 0, F(-1, 12)), poly(F(1, 88), F(-1, 44), F(1, 88))],
    ),
    "p1425-w15": PiecewiseQuadratic(
        [0, F(1, 5), 1],
        [poly(F(1, 100), 0, F(-1, 20)), poly(F(1, 80), F(-1, 40), F(1, 80))],
    ),
}


def criterion_1() -> str:
    """Quintic wall table; each wall from Sigma2 on is also reached from its replacement side."""
    walls = [r.wall for r in quintic_wall_table()]
    expect = [F(3, 7), F(8, 15), F(6, 11), F(63, 115), F(54, 95)]
    if walls != expect:
        raise CheckFailed(f"table {walls} != {expect}")
    for _, plane, replacement, *_ in _QUINTIC_STRATA:
        if replacement is None:
            continue
        # the P^2 pair is unstable above its wall, the replacement pair below the same wall
        p2, rep = solve_wall(fixtures.wall_case(plane)), solve_wall(fixtures.wall_case(replacement))
        if rep.wall != p2.wall or not (p2.unstable_above and rep.unstable_below):
            raise CheckFailed(
                f"{replacement}: wall {rep.wall}, unstable below {rep.unstable_below}; "
                f"{plane}: wall {p2.wall}, unstable above {p2.unstable_above}"
            )
    return "walls = " + ", ".join(str(w) for w in walls)


def criterion_2() -> str:
    """First-wall closed form across degrees."""
    for d in range(4, 21):
        wall, _, _ = first_wall(d)
        if wall != (F(3, 2 * d) if d % 2 == 0 else F(3, 2 * d - 3)):
            raise CheckFailed(f"d={d}: {wall}")
    return "3/(2d) for even d in 4..20, 3/(2d-3) for odd d in 5..19"


def criterion_3() -> str:
    """Volume profiles against the printed formulas; toric engine independent."""
    engines = (
        ("two-ray", lambda vf: volume_two_ray(vf.model, vf.L), ("a12", "a11red", "a11irr", "a10", "x26")),
        ("toric", lambda vf: volume_toric(vf.moment),
         ("p114-w31", "p114-w51", "p1425-w11", "p1425-w13", "p1425-w15")),
    )
    for engine, run, names in engines:
        for name in names:
            got = run(fixtures.VOLUME_FIXTURES[name])
            ref = _REFERENCE_PROFILES[name]
            # equal breakpoints and pieces: two equal profiles cannot differ at any t
            if got != ref:
                raise CheckFailed(f"{name}: {engine} profile differs from the printed formula")
    return "5 two-ray + 5 toric profiles, breakpoints and pieces exact"


def criterion_4() -> str:
    """S-invariants: every volume fixture against its annotation; the toric engine against the barycenter."""
    checked = []
    for name, vf in fixtures.VOLUME_FIXTURES.items():
        s0 = vf.s0
        if s0 != vf.expected["S0"]:
            raise CheckFailed(f"{name}: S0 = {s0}, annotated {vf.expected['S0']}")
        checked.append(f"{name} {s0}")
    # Blum-Jonsson: for a toric valuation S0 = <b, w> - min_P <., w> with b the barycenter of P, and
    # vol(L) = 2 area(P); this route shares no slice width and no integration with the toric profile
    toric = [(name, vf) for name, vf in fixtures.VOLUME_FIXTURES.items() if vf.moment is not None]
    if len(toric) != 8:
        raise CheckFailed(f"{len(toric)} toric volume fixtures, expected 8")
    for name, vf in toric:
        polygon_, w = vf.moment.polygon, vf.moment.valuation_direction
        area, b = area_centroid(polygon_)
        profile = volume_toric(vf.moment)
        if profile(0) != 2 * area:
            raise CheckFailed(f"{name}: toric vol(L) = {profile(0)}, 2 area(P) = {2 * area}")
        s0 = v2_dot(b, w) - min(v2_dot(v, w) for v in polygon_.vertices)
        if s_invariant(profile) != s0:
            raise CheckFailed(f"{name}: toric S0 = {s_invariant(profile)}, barycenter S0 = {s0}")
    return f"{len(checked)} S0 as annotated: " + ", ".join(checked)


def criterion_5() -> str:
    """Centroid tests on all appendix cone fixtures."""
    for name, cf in sorted(fixtures.CENTROID_FIXTURES.items()):
        verdict = solve_centroid_condition(cf.case)
        if verdict.verdict != "unique-c":
            raise CheckFailed(f"{name}: {verdict.verdict}")
        a, c, b = verdict.solution
        if not (a > 0 and b > 0):
            raise CheckFailed(f"{name}: a = {a}, b = {b}")
        if c != fixtures.WALL_FIXTURES[cf.twin].expected["wall"]:
            raise CheckFailed(f"{name}: c = {c}")
        if c != solve_wall(fixtures.wall_case(cf.twin)).wall:
            raise CheckFailed(f"{name}: valuative twin disagrees")
        printed = (cf.to_printed(verdict.u0), cf.to_printed(verdict.u2))
        if printed != (cf.expected["u0_printed"], cf.expected["u2_printed"]):
            raise CheckFailed(f"{name}: printed u0, u2 = {printed}")
    if len(fixtures.CENTROID_FIXTURES) != 8:
        raise CheckFailed(f"{len(fixtures.CENTROID_FIXTURES)} cone fixtures, expected 8")
    return "8 cone fixtures: unique-c, a > 0, b > 0, printed vectors reproduced"


def criterion_6() -> str:
    """Stability-threshold bounds and the admissibility window."""
    bounds = x26, p1425 = fixtures.delta_upper_bound("x26-delta"), fixtures.delta_upper_bound("p1425-delta")
    if bounds != (F(1, 9), F(1, 10)):
        raise CheckFailed(f"delta bounds {bounds}")
    for d in (4, 5, 7, 10, 13):
        win = admissibility_window(d, x26)
        if (win.lo, win.hi, win.lo_closed, win.hi_closed) != (F(8, 3 * d), F(3, d), True, False):
            raise CheckFailed(f"X26 window for d={d}")
        if admissibility_window(d, p1425).lo != F(27, 10 * d):
            raise CheckFailed(f"P1425 window for d={d}")
        win = admissibility_window(d)
        if (win.lo, win.hi) != (F(0), F(3, d)):
            raise CheckFailed(f"P2 window for d={d}")
    return "delta bounds 1/9 and 1/10; X26 window [8/(3d), 3/d)"


def criterion_7() -> str:
    """Gorenstein index bounds and the degree-7 exclusion."""
    for c in (F(54, 95) + F(1, 1000), F(5, 9), F(3, 5) - F(1, 1000)):
        if index_bound(5, c) != 5:
            raise CheckFailed(f"d = 5: index bound at c = {c}")
    for c in (F(3, 8) + F(1, 100), F(2, 5), F(1, 2) - F(1, 100)):
        if index_bound(4, c) != 2:
            raise CheckFailed(f"d = 4: index bound at c = {c}")
    for c in (F(1, 2), F(3, 5), F(3, 4) - F(1, 100)):
        if index_bound(4, c) < 2:
            raise CheckFailed(f"d = 4: index bound at c = {c}")
    # degree 7: index 5 needs 3/(3 - 7c) >= 5, i.e. c >= 12/35 ...
    if not index_bound(7, F(12, 35)) >= 5 > index_bound(7, F(12, 35) - F(1, 1000)):
        raise CheckFailed("d = 7: index 5 does not start at c = 12/35")
    # ... but the lct ceiling from the degree-70 germ forces c < 1/4 < 12/35
    ceiling = lct_newton(fixtures.LCT_FIXTURES["p1425-d70"].support)
    if ceiling != F(1, 4) or ceiling >= F(12, 35):
        raise CheckFailed(f"p1425-d70: lct = {ceiling} does not exclude d = 7")
    return "index 5 on (54/95, 3/5); index 2 after the quartic wall; d = 7 excluded (1/4 < 12/35)"


def criterion_8() -> str:
    """Log canonical threshold suite: every lct fixture against its annotation."""
    checked = []
    for name, fx in fixtures.LCT_FIXTURES.items():
        got = lct_newton(fx.support)
        if got != fx.expected:
            raise CheckFailed(f"{name}: lct = {got}, annotated {fx.expected}")
        checked.append(f"{name} {got}")
    return f"{len(checked)} germs as annotated: " + ", ".join(checked)


def criterion_9() -> str:
    """CM degree as a polynomial identity plus its positivity window."""
    for d in range(3, 10):
        # cm_degree is a cubic in c, so four values fix it
        got = [cm_degree(2, d, c) for c in map(F, range(4))]
        want = [27 * c - 18 * d * c**2 + 3 * d * d * c**3 for c in map(F, range(4))]
        win = cm_positivity_window(2, d)
        if got != want or (win.lo, win.hi) != (F(0), F(3, d)):
            raise CheckFailed(f"d={d}: {got} at c = 0, 1, 2, 3, expected {want}; window ({win.lo}, {win.hi})")
    return "cm_degree(2, d, c) = 27c - 18dc^2 + 3d^2c^3 = 3c(3 - cd)^2; window (0, 3/d)"


def criterion_10() -> str:
    """GIT verdicts with replayable certificates."""
    fx = fixtures.BINARY_FIXTURES["quartic-binary-unstable"]
    verdict = binary_system_stability(fx.system)
    if verdict.verdict != "unstable":
        raise CheckFailed(verdict.verdict)
    replayed = replay_certificate(fx.system, verdict.certificate)
    if not (replayed and all(w > 0 for w in replayed)):
        raise CheckFailed(str(replayed))
    fx = fixtures.BINARY_FIXTURES["quartic-binary-ss"]
    verdict = binary_system_stability(fx.system)
    if verdict.verdict != "strictly-semistable" or verdict.polystable is not True:
        raise CheckFailed(verdict.verdict)
    q5 = fixtures.PLANE_GIT_FIXTURES["q5-double-conic-line"]
    if hm_weight_plane(q5.curve, q5.one_ps) != 0:
        raise CheckFailed("mu(Q5) is not 0")
    return "x^5 y^3 unstable (certificate replays positive); x^4 y^4 strictly semistable; mu(Q5) = 0"


def _random_fraction(rng: random.Random, lo: int = -6, hi: int = 6, den: int = 12) -> Fraction:
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _random_unimodular(rng: random.Random):
    """Six random shears times a signed permutation, as integer column operations."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-2, 2)
        for row in m:  # times the shear I + k E_ij: column j += k column i
            row[j] += k * row[i]
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    # times the signed permutation with entry signs[s] at (s, perm[s]): column s moves to perm[s]
    source = [perm.index(c) for c in range(3)]
    return tuple(tuple(signs[s] * row[s] for s in source) for row in m)


def _two_ray_twin(tri: Polygon2, w: tuple[int, int]) -> TwoRayModel | None:
    """The two-ray model whose profile along E is that of the moment triangle tri along w,
    or None when two vertices tie for the lowest level of w.

    The twin comes from the triangle, not from the toric profile it is checked against:
    h2 = 2 area, e from the edges at the lowest vertex, t1 = the second vertex level.
    """
    nums, den = _cleared([c for v in tri.vertices for c in v])
    vs = list(zip(nums[::2], nums[1::2]))  # den times the vertices
    levels = [x * w[0] + y * w[1] for x, y in vs]  # den times their levels
    lo, mid, _ = sorted(levels)
    if lo == mid:
        return None  # needs a unique minimizing vertex for a two-ray shape
    k = levels.index(lo)
    (x0, y0), (x1, y1), (x2, y2) = vs[k], vs[k - 2], vs[k - 1]
    # e = |e1 x e2| / ((e1 . w)(e2 . w)) for the edges e1, e2 at vertex k: den^2 cancels,
    # and t1 e = (mid - lo) e / den
    cross = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    pairs = (levels[k - 2] - lo) * (levels[k - 1] - lo)
    h2 = Fraction(cross, den * den)  # twice the area: cross is twice that of the den-scaled triangle
    return TwoRayModel(h2, Fraction(cross, pairs), Fraction(0), (Fraction((mid - lo) * cross, den * pairs), h2))


def _cleared_cone(case: CentroidCase) -> tuple[tuple[list[int], int], ...]:
    """The generators, xi0, eta0* and u1 of a case, each cleared: what _moved_case reads."""
    return tuple(_cleared(v) for v in (*case.generators, case.xi0, case.eta0star, case.u1))


def _moved_case(name: str, cone: tuple[tuple[list[int], int], ...], g, ginv_t) -> CentroidCase:
    """The cleared cone moved by the lattice automorphism g: its generators and xi0 by g,
    eta0* and u1 by (g^-1)^T, each an integer row times a cleared vector, as ints when integral."""
    *gens, xi0, eta0star, u1 = cone

    def apply(m, cleared):
        nums, s = cleared
        if s == 1:
            return tuple(_idot3(row, nums) for row in m)
        return tuple(Fraction(_idot3(row, nums), s) for row in m)

    return CentroidCase(
        name=name,
        generators=tuple(apply(g, n) for n in gens),
        xi0=apply(g, xi0),
        eta0star=apply(ginv_t, eta0star),
        u1=apply(ginv_t, u1),
    )


def criterion_11() -> str:
    """Exact property suites: wall scale-invariance, random-fixture engine
    agreement, centroid unimodular equivariance."""
    rng = random.Random(_SEED)

    # (a) scale invariance of walls: 200 random rescalings
    base_names = ("a12", "a11red", "a11irr", "a10", "p1425-case1", "p1425-case2")
    base_cases = {name: fixtures.wall_case(name) for name in base_names}
    base_walls = {name: solve_wall(case).wall for name, case in base_cases.items()}
    for _ in range(200):
        name = rng.choice(base_names)
        case = base_cases[name]
        lam = F(rng.randint(1, 400), rng.randint(1, 400))
        scaled = WallCase(
            case.name + "-scaled", case.A0 * lam, case.ordD * lam, case.S0 * lam,
            case.alpha, case.beta, case.valid_range,
        )
        if solve_wall(scaled).wall != base_walls[name]:
            raise CheckFailed(f"{case.name}: wall moves under rescaling by {lam}")

    # (b) engine agreement on random triangle fixtures with random directions
    done = 0
    while done < 60:
        verts = [(_random_fraction(rng, 0, 8), _random_fraction(rng, 0, 8)) for _ in range(3)]
        try:
            tri = polygon(verts)
        except ValueError:
            continue
        if tri.kind != "polygon":
            continue
        w = (rng.randint(-5, 5), rng.randint(-5, 5))
        if w == (0, 0):
            continue
        model = _two_ray_twin(tri, w)
        if model is None:
            continue
        toric = volume_toric(MomentPolygon(tri, w))
        two = volume_two_ray(model, (F(1), F(0)))
        # equal breakpoints and pieces: two equal profiles cannot differ at any t
        if two != toric:
            raise CheckFailed(f"twin mismatch for {verts} {w}")
        done += 1

    # (c) unimodular equivariance of the centroid test: 100 trials
    names = sorted(fixtures.CENTROID_FIXTURES)
    cases = {name: fixtures.CENTROID_FIXTURES[name].case for name in names}
    cones = {name: _cleared_cone(case) for name, case in cases.items()}
    base_verdicts = {name: solve_centroid_condition(case) for name, case in cases.items()}
    for _ in range(100):
        name = rng.choice(names)
        base = base_verdicts[name]
        g = _random_unimodular(rng)
        # (g^-1)^T = adj(g)^T / det g: its rows are the columns of adj(g), and det g = +-1
        cof = _adjugate_columns(g)
        det = _idot3(g[0], cof[0])
        if det not in (1, -1):
            raise CheckFailed("random lattice move is not unimodular")
        ginv_t = tuple(tuple(det * x for x in row) for row in cof)
        moved = _moved_case(cases[name].name + "-moved", cones[name], g, ginv_t)
        res = solve_centroid_condition(moved)
        if (res.verdict, res.solution) != ("unique-c", base.solution):
            raise CheckFailed(f"{moved.name}: {res.verdict} {res.solution} != unique-c {base.solution}")
    return "200 wall rescalings, 60 random engine-agreement fixtures, 100 lattice moves: all exact"


CRITERIA: list[tuple[int, str, Callable[[], str]]] = [
    (1, "quintic wall table", criterion_1),
    (2, "first-wall formula", criterion_2),
    (3, "volume profiles (both engines)", criterion_3),
    (4, "S-invariants", criterion_4),
    (5, "centroid tests", criterion_5),
    (6, "stability-threshold bounds", criterion_6),
    (7, "index bounds / degree-7 exclusion", criterion_7),
    (8, "lct suite", criterion_8),
    (9, "CM degree", criterion_9),
    (10, "GIT verdicts", criterion_10),
    (11, "property suites", criterion_11),
]


def run_all() -> list[CriterionResult]:
    results = []
    for cid, title, fn in CRITERIA:
        try:
            detail = fn()
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
            results.append(CriterionResult(cid, title, False, reason))
        else:
            results.append(CriterionResult(cid, title, True, detail))
    return results
