"""Verification checklist: every headline identity the toolkit must reproduce.

Each criterion is a callable raising CheckFailed on failure; run_all
executes the full list and collects one pass/fail line per criterion, and any
other exception a criterion raises fails it too.  The checks are explicit
raises, not ``assert`` statements, so they still run under ``python -O``.  All
comparisons are exact (tolerance zero) because every target value is rational.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from typing import Callable

from . import fixtures
from .exact import (
    PiecewiseQuadratic,
    _adjugate_columns,
    _fractions,
    _idot3,
    _polygon_cycle,
    area_centroid,
    poly,
    v2_dot,
)
from .git import (
    cm_degree,
    cm_positivity_window,
    hm_weight_plane,
    binary_system_stability,
    replay_certificate,
)
from .toric_kps import _cone_form, _solve_cone_form, solve_centroid_condition
from .valuations import index_bound, lct_newton
from .volumes import _toric_profile, _two_ray_form, _two_ray_profile, s_invariant, volume_toric, volume_two_ray
from .walls import (
    _QUINTIC_STRATA,
    WallCase,
    _solve_wall_form,
    _wall_form,
    admissibility_window,
    first_wall,
    quintic_wall_table,
    solve_wall,
)

F = Fraction

_SEED = 20260810


class CheckFailed(AssertionError):
    """A verification criterion found a value that differs from its target."""


class CriterionResult(namedtuple("CriterionResult", "cid title passed detail")):
    """One criterion's line: its number, title, whether it passed, and its detail or failure reason."""

    __slots__ = ()


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
    bounds = x26, p1425 = tuple(map(fixtures.delta_upper_bound, fixtures.DELTA_SURFACES))
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
        # cm_degree is a cubic in c, so four values fix it: at integer c, in integers
        got = [cm_degree(2, d, c) for c in range(4)]
        want = [27 * c - 18 * d * c**2 + 3 * d * d * c**3 for c in range(4)]
        win = cm_positivity_window(2, d)
        if got != want or (win.lo, win.hi) != (F(0), F(3, d)):
            raise CheckFailed(f"d={d}: {got} at c = 0, 1, 2, 3, expected {want}; window ({win.lo}, {win.hi})")
    return "cm_degree(2, d, c) = 27c - 18dc^2 + 3d^2c^3 = 3c(3 - cd)^2; window (0, 3/d)"


# each binary fixture's verdict and polystability, and each plane fixture's weight under its 1-PS: a weight
# of either sign, so that a sign-flipped mu fails
_BINARY_VERDICTS = {
    "quartic-binary-unstable": ("unstable", None),
    "quartic-binary-ss": ("strictly-semistable", True),
    "quartic-binary-ss-x8": ("strictly-semistable", None),
    "quintic-binary-f6": ("stable", True),
}
_PLANE_WEIGHTS = {"q5-double-conic-line": F(0), "xy4-destabilized": F(-7)}


def criterion_10() -> str:
    """GIT verdicts with replayable certificates, and Hilbert-Mumford weights."""
    checked = []
    for name, want in _BINARY_VERDICTS.items():
        system = fixtures.BINARY_FIXTURES[name].system
        verdict = binary_system_stability(system)
        if (verdict.verdict, verdict.polystable) != want:
            raise CheckFailed(f"{name}: {verdict.verdict}, polystable {verdict.polystable}")
        line = f"{name} {verdict.verdict}" + (", polystable" if verdict.polystable else "")
        cert = verdict.certificate
        if cert is not None:
            # the replay reads the raw monomials, not the verdict's weight table: its weights must be the ones
            # the certificate prints, all positive for a destabilizing direction, and all nonnegative with a
            # zero for a semistable one
            replayed = replay_certificate(system, cert)
            unstable = verdict.verdict == "unstable"
            if not (replayed and (min(replayed) > 0 if unstable else min(replayed) == 0)):
                raise CheckFailed(f"{name}: certificate replays to {replayed}")
            if tuple(replayed) != cert.weights:
                raise CheckFailed(f"{name}: certificate replays to {replayed}, "
                                  f"but prints weights {', '.join(map(str, cert.weights))}")
            line += " (certificate replays positive)" if unstable else " (certificate replays nonnegative)"
        checked.append(line)
    for name, want in _PLANE_WEIGHTS.items():
        fx = fixtures.PLANE_GIT_FIXTURES[name]
        mu = hm_weight_plane(fx.curve, fx.one_ps)
        if mu != want:
            raise CheckFailed(f"{name}: mu = {mu}, expected {want}")
        checked.append(f"mu({name}) = {mu}")
    return "; ".join(checked)


def _digits(code: int, radices: tuple[int, ...]) -> list[int]:
    """The mixed-radix digits of code, least significant first: range(prod(radices)) maps
    one-to-one onto the product of the range(r), so a uniform code has independent uniform digits."""
    digits = []
    for r in radices:
        digits.append(code % r)
        code //= r
    return digits


# criterion 11's draws, one digit per value a trial reads: (a) a base wall and lambda = (p + 1)/(q + 1)
# with p, q in range(400); (b) three vertices of coordinates p/(q + 1), p in range(9), q in range(12),
# and a direction w in range(11)^2 shifted by -5; (c) after the centroid fixture, six shears (an ordered
# pair and k + 2 in range(5)), a permutation and three sign bits
_BASE_WALLS = ("a12", "a11red", "a11irr", "a10", "p1425-case1", "p1425-case2")
_RESCALE_RADICES = (len(_BASE_WALLS), 400, 400)
_TRIANGLE_RADICES = (9, 12) * 6 + (11, 11)
_TRIANGLE_ATTEMPTS = 300  # part (b) accepts about 97 draws in 100, and at _SEED the first 60
_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))  # the ordered pairs i != j
_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_SOURCES = tuple(tuple(perm.index(c) for c in range(3)) for perm in _PERMS)  # the column each column c comes from
_MOVE_RADICES = (len(_PAIRS), 5) * 6 + (len(_PERMS), 2, 2, 2)


def _random_unimodular(digits: list[int]):
    """Six shears times a signed permutation, as integer column operations, from the digits
    of _MOVE_RADICES: each shear's ordered pair and k + 2, the permutation, the sign bits."""
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for t in range(0, 12, 2):
        if k := digits[t + 1] - 2:  # times the shear I + k E_ij: column j += k column i
            i, j = _PAIRS[digits[t]]
            (a, b, c), (x, y, z) = cols[i], cols[j]
            cols[j] = (x + k * a, y + k * b, z + k * c)
    # times the signed permutation with entry sign s at (s, perm[s]), which moves column s to perm[s]: column c
    # is its source column, negated where that column's sign bit is set
    moved = []
    for s in _SOURCES[digits[12]]:
        a, b, c = cols[s]
        moved.append((-a, -b, -c) if digits[13 + s] else (a, b, c))
    return tuple(zip(*moved))


def _rescaled_form(case: WallCase, p: int, q: int) -> tuple[int, ...]:
    """The checked form of the wall case with A0, ordD and S0 times lambda = p/q, from the base case's form."""
    a0, od, s0, al, be, s = case._form
    return _wall_form((a0 * p, od * p, s0 * p, al * q, be * q), s * q, case.valid_range)


def _triangle(digits: list[int]) -> tuple[list[tuple[int, int]], int]:
    """Part (b)'s three points, with coordinates p / (q + 1) from the digits of _TRIANGLE_RADICES, as
    integers over D = lcm(q + 1): the coordinate p / (q + 1) is p (D / (q + 1)) over D."""
    qs = [q + 1 for q in digits[1:12:2]]
    den = math.lcm(*qs)
    xs = [p * (den // q) for p, q in zip(digits[0:12:2], qs)]
    return list(zip(xs[0::2], xs[1::2])), den


def _two_ray_twin(vs: list[tuple[int, int]], den: int, w: tuple[int, int]) -> tuple[int, ...] | None:
    """The checked form of the two-ray model whose profile along E is that of the moment triangle with
    CCW vertices vs / den along w, or None when two vertices tie for the lowest level of w.

    The twin comes from the triangle, not from the toric profile it is checked against:
    h2 = 2 area, e from the edges at the lowest vertex, t1 = the second vertex level.
    """
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
    # over den^2 pairs: h2 = cross / den^2 (twice the area), e2 = e and Cbar = t1 e H - h2 E
    return _two_ray_form(([cross * pairs, 0, cross * den * den], den * den * pairs),
                         ([(mid - lo) * cross * den, cross * pairs], den * den * pairs))


def _moved_form(cone: tuple[tuple[list[int], int], ...], g, ginv_t):
    """The checked form of a case's cleared cone (its _cone) moved by the lattice automorphism g: its generators
    and xi0 by g, eta0* and u1 by (g^-1)^T, each an integer row times the numerators over the same denominator.
    A unimodular map keeps the gcd of a vector's entries, so each moved vector is still cleared."""
    moved = []
    for m, ((x, y, z), s) in zip((g, g, g, g, ginv_t, ginv_t), cone):
        (a, b, c), (d, e, f), (p, q, r) = m
        moved.append(([a * x + b * y + c * z, d * x + e * y + f * z, p * x + q * y + r * z], s))
    return _cone_form(*moved)


def criterion_11() -> str:
    """Exact property suites: wall scale-invariance, random-fixture engine
    agreement, centroid unimodular equivariance."""
    rng = random.Random(_SEED)  # one randrange per trial attempt, decoded by _digits

    # (a) scale invariance of walls: 200 random rescalings, each keeping all of the report but its case (the
    # wall, both unstable sides, degeneracy); a base case without a wall, which any rescaling keeps, is refused.
    # Each rescaled case is checked and solved on its form alone, as the WallCase constructor and solve_wall do
    base_cases = {name: fixtures.wall_case(name) for name in _BASE_WALLS}
    base_reports = {name: _solve_wall_form(case._form, case.valid_range) for name, case in base_cases.items()}
    if missing := [name for name, report in base_reports.items() if report[0] is None]:
        raise CheckFailed(f"{missing[0]}: no wall in range to rescale")
    size = math.prod(_RESCALE_RADICES)
    for _ in range(200):
        b, p, q = _digits(rng.randrange(size), _RESCALE_RADICES)
        name = _BASE_WALLS[b]
        case = base_cases[name]
        got = _solve_wall_form(_rescaled_form(case, p + 1, q + 1), case.valid_range)
        if got != base_reports[name]:
            what = "wall moves" if got[0] != base_reports[name][0] else "unstable sides change"
            raise CheckFailed(f"{case.name}: {what} under rescaling by {F(p + 1, q + 1)}")

    # (b) engine agreement on random triangle fixtures with random directions, each twin along L = H: each triangle
    # decoded, checked, twinned and profiled on integers, by the cores of polygon and of both engines
    size = math.prod(_TRIANGLE_RADICES)
    done = 0
    for _ in range(_TRIANGLE_ATTEMPTS):
        d = _digits(rng.randrange(size), _TRIANGLE_RADICES)
        pts, den = _triangle(d)
        try:
            kind, kept = _polygon_cycle(pts)
        except ValueError:
            continue
        w = (d[12] - 5, d[13] - 5)
        if kind != "polygon" or w == (0, 0):
            continue
        vs = [q for q, _ in kept]
        form = _two_ray_twin(vs, den, w)
        if form is None:
            continue
        # equal breakpoints and pieces: two equal profiles cannot differ at any t
        if _two_ray_profile(form, (1, 0), 1) != _toric_profile([c for v in vs for c in v], den, w):
            raise CheckFailed(f"twin mismatch for {[(F(x, den), F(y, den)) for x, y in pts]} {w}")
        done += 1
        if done == 60:
            break
    else:  # a decoder or engine fault that refuses every draw fails here rather than looping forever
        raise CheckFailed(f"only {done} of 60 triangles in {_TRIANGLE_ATTEMPTS} attempts")

    # (c) unimodular equivariance of the centroid test: 100 trials, each moved cone checked and solved on its
    # form alone, as the CentroidCase constructor and solve_centroid_condition do, its solution compared cleared
    names = sorted(fixtures.CENTROID_FIXTURES)
    cases = {name: fixtures.CENTROID_FIXTURES[name].case for name in names}
    base_solutions = {name: _solve_cone_form(case._form)[1] for name, case in cases.items()}
    radices = (len(names), *_MOVE_RADICES)
    size = math.prod(radices)
    for _ in range(100):
        d = _digits(rng.randrange(size), radices)
        name = names[d[0]]
        g = _random_unimodular(d[1:])
        # (g^-1)^T = adj(g)^T / det g: its rows are the columns of adj(g), and det g = +-1
        cof = _adjugate_columns(g)
        det = _idot3(g[0], cof[0])
        if det not in (1, -1):
            raise CheckFailed("random lattice move is not unimodular")
        ginv_t = cof if det == 1 else [[-x for x in row] for row in cof]
        verdict, solution, _ = _solve_cone_form(_moved_form(cases[name]._cone, g, ginv_t))
        if (verdict, solution) != ("unique-c", base_solutions[name]):
            got, want = (s and _fractions(*s) for s in (solution, base_solutions[name]))
            raise CheckFailed(f"{cases[name].name}-moved: {verdict} {got} != unique-c {want}")
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
