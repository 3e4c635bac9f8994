"""Independent reference constructions, kept as test oracles.

The library computes the Reeb cross-section centroid as the average of three
scaled dual rays and the toric volume profile from one slice width per vertex
level.  The constructions here are the longer, independent routes to the same
numbers: the cross-section cut out in a rational basis of the Reeb plane and
re-checked by clipping, and the profile sampled by clipping the moment polygon
three times per piece and fitting the quadratic through the samples.

The library's wall solver reads the sign and the root of A - S off a
``WallCase`` cleared over one denominator; ``solve_wall`` and
``check_wall_range`` here are its ``Fraction`` references, ``margin`` is
A - S at one coefficient, which the wall tests read, and ``range_midpoint``
is the Fraction midpoint at which ``solve_wall`` reads the sign of a margin
without a root in range.  ``check_cone`` is the
``Fraction`` reference for the checks a ``CentroidCase`` runs on integers: the
coordinates of xi0 in the generators by a Fraction solve, not the pairings of
the cleared dual rays.

The library's two-ray model takes the isotropic class as its second ray when
no curve is declared; ``volume_two_ray`` here reads the surface data as given
and, with no curve, takes its second ray through the larger root of
(L - tE)^2 = 0, found with ``rational_sqrt``.  Both walk the Zariski chambers
of L - tE as a whole; ``zariski_volume`` is the pointwise reference, Zariski's
algorithm at one class.

The library reads a monomial valuation on integers, its weights and scale
cleared over one denominator, and builds one Fraction per value;
``log_discrepancy`` and ``ord_on_germ`` here are the ``Fraction``-arithmetic
formulas, and ``wall_case`` derives a wall fixture's case from them.

The library's Newton-polygon lct walks the lower hull of the undominated
monomials; ``lct_newton_pairs`` is the all-pairs route to the same diagonal
entry point.  A quasi-homogeneous germ keeps the two ends of its segment of
monomials; ``quasihomog_support`` enumerates the whole segment, and
``lct_quasihomog`` is the closed form that holds on isolated germs only.  The
library generates the germ of a generic curve at the order-c^2 point of
P(1, b^2, c^2) from a congruence; ``line_support`` lists the level sets of
the degree-10d curves on P(1,4,25) by hand, as the fixtures once typed them.

The library's polynomial evaluation, piecewise evaluation (on the cleared
breakpoints, each piece through its polynomial), integral of a piecewise
polynomial, 3x3 solve, polygon construction, shoelace area and centroid, both
volume engines, the centroid condition, the two-ray model's checks of a
declared curve and the wall solver's range membership (``walls._in_range``)
clear denominators and work over integers.  The kernels and engines below
are their ``Fraction``-arithmetic references (``integrate`` and
``s_invariant`` go through ``poly_antiderivative`` and ``poly_integral``, the
route the library's ``Poly`` no longer keeps; ``solve_centroid_condition``,
``check_two_ray_model`` and ``interval_contains``, which ``solve_wall`` here
reads, compare Fractions): the tests require exact equality with them (or the
same error and message), and the constructions here use them rather than the
library's, together with the ``Fraction`` vector sum, difference and scaling
defined here.  The dot product, matrix-vector product, determinant, transpose,
inverse and anticanonical vector here have no library counterpart any more:
the centroid test reads its dual rays, det G and u0 off the cleared cone of a
``CentroidCase``, criterion 11 inverts its unimodular moves by integer
cofactors, and a centroid fixture sums the products of its integer basis rows.
The tests build their moved and drawn cones with them and check the library's
u0 against ``anticanonical_vector``; ``solution_fractions`` reads the cleared
solution of the library's form-level solve as Fractions.  Nor have the planar sum, difference,
scaling and cross product: criterion 11 builds its two-ray twins from the
cleared integer vertices of each triangle, and ``clip`` writes its crossing
points out.  Criterion 11(b) decodes each random triangle straight to
integers over the least common multiple of its coordinates' denominators;
``triangle`` is the Fraction decoder it replaced, coordinates first, then
the polygon.  Nor have the polynomial sum, difference and product
(``poly_add``, ``poly_sub``, ``poly_mul``), which no command calls: the tests
and the engines here build polynomials with them.  ``cleared_over`` writes
rationals as integers over a common denominator of any scale, which
``walls._wall_form`` and ``TwoRayModel.from_cleared`` take.  ``mat3_rank`` is
the Fraction elimination that the library's solve replaced by reading the rank
of a singular system off the 2x2 minors it already has; it is the reference
for that rank.  ``sample_points`` are interior points at which the tests
evaluate whole profiles.

``binary_system_stability`` is the classification of a weighted binary-form
system as the library once wrote it: a Fraction weight vector per root rebuilt
in each of two loops, every root tried for a destabilizing direction before
any for a semistable one.  The library reads one integer weight table in one
loop.

The library's kernels keep only the input checks a command can reach.  A
``PiecewiseQuadratic`` takes its breakpoints and pieces as given, and
evaluates at t >= its first breakpoint, where every caller evaluates; the
library's area and centroid take a non-degenerate polygon, which is all the
gate hands them; and the tests build their 3x3 matrices with ``mat3``.  Each
contract is kept here: ``_check_profile`` asserts the shape of a volume
profile on every profile built here, ``piecewise_eval`` refuses a point below
the domain, ``area_centroid`` a degenerate polygon, and ``mat3`` a matrix that
is not 3x3.
"""

from __future__ import annotations

import math
from fractions import Fraction

from typing import Sequence

from kwall.exact import (
    Mat3,
    PiecewiseQuadratic,
    Poly,
    Polygon2,
    SingularSystemError,
    StructuralError,
    Vec2,
    Vec3,
    clip,
    fmt,
    rat,
    vec3,
)
from kwall.git import BinaryFormSystem, StabilityCertificate, StabilityVerdict
from kwall.toric_kps import CentroidCase, ConeError
from kwall.valuations import DomainError, GermSupport, MonomialVal
from kwall.walls import Interval, WallCase, WallError, WallReport
from kwall.volumes import (
    InvalidValuationError,
    ModelError,
    MomentPolygon,
)


# ---------------------------------------------------------------------------
# reference kernels over Fraction arithmetic
# ---------------------------------------------------------------------------

def v3_dot(a: Vec3, b: Vec3) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def v3_cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def v3_add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def v3_sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def v3_scale(s, a: Vec3) -> Vec3:
    return (s * a[0], s * a[1], s * a[2])


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly([p.coeff(i) + q.coeff(i) for i in range(n)])


def poly_sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly([p.coeff(i) - q.coeff(i) for i in range(n)])


def poly_mul(p: Poly, q) -> Poly:
    """The product of two polynomials, or of a polynomial and a scalar q."""
    if isinstance(q, Poly):
        out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs))
        for i, a in enumerate(p.coeffs):
            for j, b in enumerate(q.coeffs):
                out[i + j] += a * b
        return Poly(out)
    s = rat(q)
    return Poly([s * c for c in p.coeffs])


def poly_eval(p: Poly, t) -> Fraction:
    """Horner's rule over Fractions."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def poly_antiderivative(p: Poly) -> Poly:
    """The antiderivative with constant term 0."""
    return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(p.coeffs)])


def poly_integral(p: Poly, a, b) -> Fraction:
    F = poly_antiderivative(p)
    return poly_eval(F, b) - poly_eval(F, a)


def integrate(f: PiecewiseQuadratic) -> Fraction:
    """The sum of each piece's antiderivative difference over its interval."""
    pieces = zip(f.breakpoints, f.breakpoints[1:], f.pieces)
    return sum((poly_integral(p, a, b) for a, b, p in pieces), Fraction(0))


def s_invariant(profile: PiecewiseQuadratic) -> Fraction:
    """The integral of the profile over its value at 0, both over Fractions."""
    return integrate(profile) / piecewise_eval(profile, 0)


def piecewise_eval(f: PiecewiseQuadratic, t) -> Fraction:
    """Linear scan over the Fraction breakpoints, each piece through poly_eval."""
    t = Fraction(t)
    if t < f.breakpoints[0]:
        raise StructuralError("evaluation below domain start")
    for a, b, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        if a <= t < b:
            return poly_eval(p, t)
    return Fraction(0)


def mat3(rows: Sequence[Sequence]) -> Mat3:
    """Three rows of three entries, each coerced to a Fraction."""
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise StructuralError("mat3 needs three rows of three entries")
    return tuple(vec3(*r) for r in rows)  # type: ignore[return-value]


def mat3_rank(m: Mat3) -> int:
    """Gaussian elimination over Fractions."""
    rows = [[rat(x) for x in r] for r in m]  # plain int entries would divide as floats
    rank = 0
    col = 0
    while rank < 3 and col < 3:
        piv = next((r for r in range(rank, 3) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, 3):
            f = rows[r][col] / rows[rank][col]
            for c in range(col, 3):
                rows[r][c] -= f * rows[rank][c]
        rank += 1
        col += 1
    return rank


def det3(m: Mat3) -> Fraction:
    return v3_dot(m[0], v3_cross(m[1], m[2]))


def solve_linear3(m: Mat3, rhs: Vec3) -> Vec3:
    """Cramer's rule with one Fraction determinant per unknown."""
    d = det3(m)
    if d == 0:
        raise SingularSystemError(mat3_rank(m))
    out = []
    for i in range(3):
        mm = tuple(
            tuple(rhs[r] if c == i else m[r][c] for c in range(3)) for r in range(3)
        )
        out.append(det3(mm) / d)
    return (out[0], out[1], out[2])


def mat3_vec(m: Mat3, v: Vec3) -> Vec3:
    return (v3_dot(m[0], v), v3_dot(m[1], v), v3_dot(m[2], v))


def mat3_mul(a: Mat3, b: Mat3) -> Mat3:
    cols = list(zip(*b))
    return tuple(
        tuple(v3_dot(a[r], vec3(*cols[c])) for c in range(3)) for r in range(3)
    )


def mat3_transpose(m: Mat3) -> Mat3:
    return tuple(zip(*m))  # type: ignore[return-value]


def mat3_inverse(m: Mat3) -> Mat3:
    """Transposed cofactor matrix over the determinant."""
    d = det3(m)
    if d == 0:
        raise SingularSystemError(mat3_rank(m))
    cof = [[None] * 3 for _ in range(3)]
    for r in range(3):
        for c in range(3):
            sub = [
                [m[i][j] for j in range(3) if j != c] for i in range(3) if i != r
            ]
            minor = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            cof[r][c] = (-1) ** (r + c) * minor / d
    return mat3_transpose(mat3(cof))


def v2_add(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] + b[0], a[1] + b[1])


def v2_sub(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] - b[0], a[1] - b[1])


def v2_scale(s, a: Vec2) -> Vec2:
    s = rat(s)
    return (s * a[0], s * a[1])


def v2_dot(a: Vec2, b: Vec2) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def v2_cross(a: Vec2, b: Vec2) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _canonical_vertices(points: Sequence[Vec2]) -> list[Vec2]:
    pts = [(rat(p[0]), rat(p[1])) for p in points]
    out: list[Vec2] = []
    for p in pts:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def polygon(points: Sequence[Vec2]) -> Polygon2:
    """Fraction tests on the points themselves; collinear vertices dropped one at a
    time, rescanning the cycle after each."""
    pts = _canonical_vertices(points)
    if not pts:
        return Polygon2((), "empty")
    if len(pts) == 1:
        return Polygon2(tuple(pts), "point")
    d = v2_sub(pts[1], pts[0])
    if all(v2_cross(d, v2_sub(p, pts[0])) == 0 for p in pts):
        return Polygon2((min(pts), max(pts)), "segment")
    spike = False
    changed = True
    while changed and len(pts) > 2:
        changed = False
        for i in range(len(pts)):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % len(pts)]
            u, v = v2_sub(b, a), v2_sub(c, b)
            if v2_cross(u, v) == 0:
                spike = spike or v2_dot(u, v) < 0
                del pts[i]
                changed = True
                break
    pts = _canonical_vertices(pts)
    if spike:
        raise StructuralError("vertex cycle is not simple: it turns back on itself")
    area2 = sum(v2_cross(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))
    if area2 < 0:
        pts.reverse()
    edges = [v2_sub(b, a) for a, b in zip(pts, pts[1:] + pts[:1])]
    if any(v2_cross(d, e) <= 0 for d, e in zip(edges[-1:] + edges[:-1], edges)):
        raise StructuralError("vertex list is not strictly convex")
    upper = [d[1] > 0 or (d[1] == 0 and d[0] > 0) for d in edges]
    if sum(x != y for x, y in zip(upper, upper[1:] + upper[:1])) != 2:
        raise StructuralError("vertex cycle is not simple: its edges wind around more than once")
    return Polygon2(tuple(pts), "polygon")


def area_centroid(p: Polygon2) -> tuple[Fraction, Vec2]:
    """Shoelace and triangle fan summed over Fractions."""
    if p.is_degenerate:
        raise StructuralError(f"centroid undefined for degenerate polygon (kind={p.kind})")
    verts = p.vertices
    n = len(verts)
    twice_area = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        w = v2_cross(a, b)
        twice_area += w
        cx += (a[0] + b[0]) * w
        cy += (a[1] + b[1]) * w
    area = twice_area / 2
    return area, (cx / (3 * twice_area), cy / (3 * twice_area))


def pair(form: tuple[Fraction, Fraction, Fraction], v: tuple[Fraction, Fraction],
         w: tuple[Fraction, Fraction]) -> Fraction:
    """The intersection pairing of xH + yE classes over Fractions, for the form (h2, e2, cross)."""
    h2, e2, cross = form
    return v[0] * w[0] * h2 + (v[0] * w[1] + v[1] * w[0]) * cross - v[1] * w[1] * e2


def triangle(digits: Sequence[int]) -> tuple[list[Vec2], Polygon2]:
    """Criterion 11(b)'s draw as its Fraction decoder read it: the three vertices with coordinates
    Fraction(p, q + 1) from the digits of ``acceptance._TRIANGLE_RADICES``, and their polygon (the
    reference here, which refuses a cycle as the library's does)."""
    coords = [Fraction(p, q + 1) for p, q in zip(digits[0:12:2], digits[1:12:2])]
    verts = list(zip(coords[0::2], coords[1::2]))
    return verts, polygon(verts)


def cleared_over(values: Sequence[Fraction], k: int) -> tuple[list[int], int]:
    """The values as integer numerators over k times their least common denominator: in lowest terms
    exactly when k = 1."""
    s = k * math.lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


def check_two_ray_model(h2: Fraction, e2: Fraction, cross: Fraction,
                        neg_curve: tuple[Fraction, Fraction] | None) -> None:
    """The refusals of a TwoRayModel, in its order, on the Fraction pairing of the data as given."""
    form = (h2, e2, cross)
    if h2 <= 0:
        raise ModelError("field 'h2': (H^2) must be positive")
    if e2 <= 0:
        raise ModelError("field 'e2': -(E^2) must be positive")
    if neg_curve is None:
        if rational_sqrt(cross * cross + h2 * e2) is None:
            raise ModelError("field 'neg_curve': pseudoeffective threshold is irrational; supply the negative curve")
        return
    a, b = neg_curve
    cbar = (a, -b)
    if pair(form, cbar, cbar) > 0:
        raise ModelError("field 'neg_curve': declared negative curve has (Cbar^2) > 0")
    if pair(form, (Fraction(1), Fraction(0)), cbar) < 0:
        raise ModelError("field 'neg_curve': H.Cbar < 0, so Cbar = aH - bE is not effective")
    if pair(form, (Fraction(0), Fraction(1)), cbar) <= 0:
        raise ModelError("field 'neg_curve': E.Cbar <= 0, so Cbar = aH - bE is not a curve other than E")
    if a == 0:
        raise ModelError("field 'neg_curve': a = 0, so Cbar = -bE is not a curve other than E")


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _check_profile(profile: PiecewiseQuadratic) -> None:
    """The shape of a volume profile, which the library engines build by construction: one more
    breakpoint than pieces, strictly increasing breakpoints, adjacent pieces agreeing at each
    interior breakpoint, non-increasing (each piece's derivative is <= 0 at both ends of its
    interval) and zero at the last breakpoint."""
    bps, pieces = profile.breakpoints, profile.pieces
    assert len(bps) == len(pieces) + 1, "need exactly one more breakpoint than pieces"
    assert all(a < b for a, b in zip(bps, bps[1:])), "breakpoints must be strictly increasing"
    for t, p, q in zip(bps[1:], pieces, pieces[1:]):
        assert poly_eval(p, t) == poly_eval(q, t), f"pieces disagree at breakpoint {t}"
    for a, b, p in zip(bps, bps[1:], pieces):
        dp = Poly([i * c for i, c in enumerate(p.coeffs)][1:])
        assert poly_eval(dp, a) <= 0 and poly_eval(dp, b) <= 0, "a volume piece increases"
    assert poly_eval(pieces[-1], bps[-1]) == 0, "the volume does not vanish at t_max"


def volume_two_ray(h2: Fraction, e2: Fraction, cross: Fraction, neg_curve: tuple[Fraction, Fraction] | None,
                   L: tuple[Fraction, Fraction]) -> PiecewiseQuadratic:
    """Zariski chambers with Poly products, scalar multiples and differences, on the
    surface data as given.  With no curve, the second ray is spanned by L - t_max E for the
    larger root t_max of (L - tE)^2 = 0; its discriminant is 4 cH^2 (cross^2 + h2 e2), so it
    is rational for every big L exactly when cross^2 + h2 e2 is a square."""
    form = (h2, e2, cross)
    cH, cE = rat(L[0]), rat(L[1])
    vol_nef = Poly(
        [
            cH * cH * h2 + 2 * cH * cE * cross - cE * cE * e2,
            -2 * cH * cross + 2 * cE * e2,
            -e2,
        ]
    )
    if neg_curve is None:
        if rational_sqrt(cross * cross + h2 * e2) is None:
            raise ModelError("field 'neg_curve': pseudoeffective threshold is irrational; supply the negative curve")
        disc = vol_nef.coeff(1) ** 2 - 4 * vol_nef.coeff(2) * vol_nef.coeff(0)
        t_max = (-vol_nef.coeff(1) - rational_sqrt(disc)) / (2 * vol_nef.coeff(2))
        # cH (L - t_max E), with a = cH^2: for cH > 0 the isotropic ray on the side of H, and for cH <= 0
        # (L then no positive combination of E and that ray) refused by the test below
        neg_curve = (cH * cH, cH * (t_max - cE))
    a, b = neg_curve
    # L = lam E + mu Cbar = (mu a, lam - mu b)
    if a == 0 or cH / a <= 0 or cE + cH / a * b <= 0:
        raise ModelError("field 'L': L is not a positive combination of E and Cbar, so it is not big")
    lam = cE + cH / a * b
    # the slope -2 (L - tE).E of (L - tE)^2 vanishes at t_E, and (L - tE).Cbar = q0 + q1 t at t_nef
    t_e = -vol_nef.coeff(1) / (2 * vol_nef.coeff(2))
    q0 = pair(form, (cH, cE), (a, -b))
    q1 = -pair(form, (Fraction(0), Fraction(1)), (a, -b))
    c2 = pair(form, (a, -b), (a, -b))
    breaks, pieces = [Fraction(0)], []
    if t_e > 0:
        breaks.append(t_e)
        pieces.append(Poly([poly_eval(vol_nef, t_e)]))
    if -q0 / q1 > breaks[-1]:
        breaks.append(-q0 / q1)
        pieces.append(vol_nef)
    if c2 != 0:
        q = Poly([q0, q1])
        breaks.append(lam)
        pieces.append(poly_sub(vol_nef, poly_mul(poly_mul(q, q), 1 / c2)))
    profile = PiecewiseQuadratic(breaks, pieces)
    _check_profile(profile)
    assert profile.breakpoints[-1] == lam, "the profile does not end where L - tE leaves the cone"
    return profile


def zariski_volume(form: tuple[Fraction, Fraction, Fraction], neg_curve: tuple[Fraction, Fraction],
                   D: tuple[Fraction, Fraction]) -> Fraction:
    """vol(D) = (P^2) for the positive part P of D on the surface whose Mori cone is spanned
    by E and Cbar = aH - bE, by Zariski's algorithm at one class: while P meets E or Cbar
    negatively, add that curve to the support N, then solve P.C = 0 for C in N with
    P = D - sum over N of x_C C.  On rank 2, P orthogonal to both curves is 0."""
    curves = [(Fraction(0), Fraction(1)), (rat(neg_curve[0]), -rat(neg_curve[1]))]
    D = (rat(D[0]), rat(D[1]))
    support: list[tuple[Fraction, Fraction]] = []
    P = D
    while True:
        negative = [C for C in curves if C not in support and pair(form, P, C) < 0]
        if not negative:
            return pair(form, P, P)
        support.append(negative[0])
        if len(support) == 2:
            return Fraction(0)
        C = support[0]
        x = pair(form, D, C) / pair(form, C, C)
        P = (D[0] - x * C[0], D[1] - x * C[1])


def volume_toric(mp: MomentPolygon) -> PiecewiseQuadratic:
    """One Fraction slice width per vertex level, interpolated along each boundary
    chain, and the closed-form quadratic per piece in Fraction arithmetic."""
    w = mp.valuation_direction
    hs = [v2_dot(v, w) for v in mp.polygon.vertices]
    ss = [v2_cross(w, v) for v in mp.polygon.vertices]
    n = len(hs)
    levels = sorted(set(hs))
    if len(levels) < 2:
        raise InvalidValuationError("valuation direction is constant on the polygon")

    def chain(i: int, step: int) -> list[Fraction]:
        out = []
        for h in levels:
            while hs[i] < h:
                i = (i + step) % n
            j = (i - step) % n
            out.append(ss[i] if hs[i] == h else ss[j] + (ss[i] - ss[j]) * (h - hs[j]) / (hs[i] - hs[j]))
        return out

    m0 = levels[0]
    lower = chain(next(i for i in range(n) if hs[i] == m0 and hs[(i + 1) % n] != m0), 1)
    upper = chain(next(i for i in range(n) if hs[i] == m0 and hs[i - 1] != m0), -1)
    ww = v2_dot(w, w)
    g = [(su - sl) / ww for su, sl in zip(upper, lower)]
    breaks = [h - m0 for h in levels]
    pieces: list[Poly] = []
    rest = Fraction(0)
    for k in range(len(breaks) - 2, -1, -1):
        t0, t1 = breaks[k], breaks[k + 1]
        m = (g[k + 1] - g[k]) / (t1 - t0)
        pieces.append(Poly([2 * (rest + g[k + 1] * t1) - m * t1 * t1, 2 * (m * t1 - g[k + 1]), -m]))
        rest += (g[k] + g[k + 1]) * (t1 - t0) / 2
    profile = PiecewiseQuadratic(breaks, pieces[::-1])
    _check_profile(profile)
    return profile


def check_wall_range(alpha: Fraction, beta: Fraction, valid_range: Interval) -> None:
    """The range checks of a WallCase, on the Fraction degree alpha - beta c at both ends."""
    if alpha - beta * valid_range.lo <= 0:
        raise WallError("field 'alpha': anti-canonical degree must be positive at the low end of the range")
    if alpha - beta * valid_range.hi < 0:
        raise WallError("field 'alpha': anti-canonical degree must stay nonnegative on the range")


def interval_contains(interval: Interval, c) -> bool:
    """Membership by Fraction comparisons with each end."""
    c = Fraction(c)
    if c < interval.lo or (c == interval.lo and not interval.lo_closed):
        return False
    return c < interval.hi or (c == interval.hi and interval.hi_closed)


def margin(case: WallCase, c) -> Fraction:
    """A(c) - S(c) on the case's Fraction fields."""
    c = rat(c)
    return case.A0 - c * case.ordD - (case.alpha - case.beta * c) * case.S0


def solve_wall(case: WallCase) -> WallReport:
    """A(c) = S(c) solved on the case's Fraction fields; with no root in the range, both
    sides take the sign of the margin at the range's midpoint."""
    const = margin(case, 0)
    slope = case.beta * case.S0 - case.ordD  # d(margin)/dc
    if slope == 0 and const == 0:
        return WallReport(case, None, False, False, degenerate=True)
    if slope != 0 and interval_contains(case.valid_range, cstar := -const / slope):
        return WallReport(case, cstar, unstable_below=slope > 0, unstable_above=slope < 0)
    unstable = margin(case, range_midpoint(case.valid_range)) < 0
    return WallReport(case, None, unstable, unstable)


def range_midpoint(valid_range: Interval) -> Fraction:
    """(lo + hi) / 2 in Fraction arithmetic; the library reads the sign of the margin there off the
    numerators and denominators of the two ends."""
    return (valid_range.lo + valid_range.hi) / 2


def log_discrepancy(v: MonomialVal) -> Fraction:
    """scale (w1 + w2) / n in Fraction arithmetic."""
    return v.scale * (v.weights[0] + v.weights[1]) / v.point.n


def ord_on_germ(v: MonomialVal, g: GermSupport) -> Fraction:
    """scale min (i w1 + j w2) / n over the germ's monomials, in Fraction arithmetic."""
    return v.scale * min(i * v.weights[0] + j * v.weights[1] for i, j in g.monomials) / v.point.n


def wall_case(fx) -> WallCase:
    """A wall fixture's case in Fraction arithmetic: A0 and ord(D) by the two references above, S0 by
    ``s_invariant`` of its volume fixture's profile, alpha and beta = k d from its surface."""
    from kwall import fixtures

    vf = fixtures.VOLUME_FIXTURES[fx.volume]
    v, surface = vf.valuation, vf.surface
    return WallCase(
        fx.name,
        log_discrepancy(v),
        ord_on_germ(v, fx.curve_germ) if fx.curve_germ else Fraction(0),
        s_invariant(vf.profile),
        surface.alpha,
        Fraction(surface.k) * fx.degree,
        Interval(Fraction(0), Fraction(3) / fx.degree),
    )


# ---------------------------------------------------------------------------
# reference constructions
# ---------------------------------------------------------------------------

def sample_points(t_max: Fraction, n: int = 20) -> list[Fraction]:
    """n equally spaced points inside (0, t_max)."""
    return [t_max * k / (n + 1) for k in range(1, n + 1)]


def lct_newton_pairs(g: GermSupport) -> Fraction:
    """min(1, 1/t*) with t* the least diagonal point over every monomial's
    quadrant corner and every pair's segment: O(n^2) Fraction crossings."""
    if (0, 0) in g.monomials:
        raise DomainError("lct undefined for a unit germ")
    pts = [(Fraction(i), Fraction(j)) for i, j in sorted(g.monomials)]
    tstar = min(max(i, j) for i, j in pts)
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            (ia, ja), (ib, jb) = pts[a], pts[b]
            # diagonal crossing of the segment, if any: solve x(lam) = y(lam)
            dx, dy = ib - ia, jb - ja
            if dx == dy:
                continue
            lam = (ja - ia) / (dx - dy)
            if 0 <= lam <= 1:
                tstar = min(tstar, ia + lam * dx)
    return min(Fraction(1), 1 / tstar)


def quasihomog_support(w1: int, w2: int, degree: int) -> frozenset[tuple[int, int]]:
    """Every monomial x^i y^j with w1 i + w2 j = degree, by trying each i."""
    return frozenset((i, (degree - w1 * i) // w2) for i in range(degree // w1 + 1) if (degree - w1 * i) % w2 == 0)


def line_support(*levels: int) -> GermSupport:
    """All (a, b) with a + 4b equal to one of the given levels (chart of the
    order-25 point of P(1,4,25)): the hand-typed supports of the p1425-dN germs."""
    mons = set()
    for lvl in levels:
        for b in range(lvl // 4 + 1):
            mons.add((lvl - 4 * b, b))
    return GermSupport(frozenset(mons))


def lct_quasihomog(w1: int, w2: int, degree: int) -> Fraction:
    """min(1, (w1 + w2)/degree): the lct of an isolated quasi-homogeneous
    (Brieskorn-Pham) germ such as x^p + y^q, and of no other."""
    return min(Fraction(1), Fraction(w1 + w2, degree))


def plane_basis(xi0: Vec3) -> tuple[Vec3, Vec3, Vec3]:
    """Rational point and basis for the affine plane {<u, xi0> = 1}."""
    norm2 = v3_dot(xi0, xi0)
    base = v3_scale(Fraction(1) / norm2, xi0)
    # the first coordinate vector with a nonzero part orthogonal to xi0
    e1 = next(
        proj
        for proj in (v3_sub(c, v3_scale(v3_dot(c, xi0) / norm2, xi0))
                     for c in (vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1)))
        if proj != vec3(0, 0, 0)
    )
    return base, e1, v3_cross(xi0, e1)


def cross_section(case: CentroidCase) -> tuple[Polygon2, Vec3]:
    """The Reeb cross-section as a polygon in plane coordinates, and its area
    centroid lifted back to the ambient space."""
    n1, n2, n3 = case.generators
    rays = []
    for a, b, other in ((n2, n3, n1), (n1, n3, n2), (n1, n2, n3)):
        r = v3_cross(a, b)
        s = v3_dot(r, other)
        if s == 0:
            raise ConeError("degenerate cone: a dual ray pairs to zero with its generator")
        if s < 0:
            r = v3_scale(-1, r)
        pairing = v3_dot(r, case.xi0)
        if pairing <= 0:
            raise ConeError("Reeb vector on the cone boundary: cross-section unbounded")
        rays.append(v3_scale(Fraction(1) / pairing, r))

    base, e1, e2 = plane_basis(case.xi0)
    g11, g12, g22 = v3_dot(e1, e1), v3_dot(e1, e2), v3_dot(e2, e2)
    det = g11 * g22 - g12 * g12

    def to_plane(u: Vec3) -> tuple[Fraction, Fraction]:
        w = v3_sub(u, base)
        r1, r2 = v3_dot(w, e1), v3_dot(w, e2)
        return ((r1 * g22 - r2 * g12) / det, (g11 * r2 - g12 * r1) / det)

    poly = polygon([to_plane(v) for v in rays])
    for n in case.generators:
        if clip(poly, (v3_dot(e1, n), v3_dot(e2, n)), -v3_dot(base, n)) != poly:
            raise ConeError("cross-section vertices violate the dual-cone halfplanes")
    _, (cs, ct) = area_centroid(poly)
    return poly, v3_add(base, v3_add(v3_scale(cs, e1), v3_scale(ct, e2)))


def check_cone(generators: tuple[Vec3, Vec3, Vec3], xi0: Vec3, eta0star: Vec3) -> None:
    """The checks of a CentroidCase, with its classes and messages, over Fractions."""
    generators, xi0, eta0star = tuple(vec3(*g) for g in generators), vec3(*xi0), vec3(*eta0star)
    for i, g in enumerate(generators):
        if any(x.denominator != 1 for x in g) or math.gcd(*(x.numerator for x in g)) != 1:
            raise ConeError(f"field 'generators[{i}]': ({', '.join(map(fmt, g))}) is not a primitive integer vector")
    if det3(generators) == 0:
        raise ConeError("field 'generators': cone generators are linearly dependent")
    # xi0 = sum lambda_k n_k: the columns of the solve are the generators
    if any(lam <= 0 for lam in solve_linear3(mat3_transpose(generators), xi0)):
        raise ConeError("field 'xi0': Reeb vector must lie in the interior of the cone")
    if v3_dot(eta0star, xi0) != 0:
        raise ConeError("field 'eta0star': eta0* must pair to zero with the Reeb vector")


def anticanonical_vector(generators: tuple[Vec3, Vec3, Vec3]) -> Vec3:
    """The u0 with <u0, n_i> = 1 for each generator n_i, by a Fraction solve."""
    return solve_linear3(generators, (Fraction(1), Fraction(1), Fraction(1)))


def solution_fractions(solved: tuple) -> tuple:
    """A form-level centroid solve's (verdict, solution, detail), with the solution that the library keeps in
    canonical cleared form (integers over a positive denominator sharing no factor with all of them) checked
    for that form and read as Fractions."""
    verdict, solution, detail = solved
    if solution is not None:
        nums, den = solution
        assert all(type(x) is int for x in (*nums, den)) and den > 0 and math.gcd(den, *nums) == 1, solution
        solution = tuple(Fraction(n, den) for n in nums)
    return verdict, solution, detail


def solve_centroid_condition(case: CentroidCase) -> tuple:
    """(u0, u2, solution, verdict, detail) of the centroid test over Fractions: u0 by a solve,
    u2 from the clipped cross-section, and u2 = p u0 - q u1 + b eta0* by Cramer's rule."""
    u0 = anticanonical_vector(case.generators)
    u2 = cross_section(case)[1]
    rows = tuple((u0[i], -case.u1[i], case.eta0star[i]) for i in range(3))
    try:
        p, q, b = solve_linear3(rows, u2)
    except SingularSystemError as exc:
        if all(x == 0 for x in case.u1):
            return u0, u2, None, "indeterminate", "u1 = 0: the coefficient never enters the condition"
        return u0, u2, None, "indeterminate", f"dependent system (rank {exc.rank}): coefficient not determined"
    if p <= 0 or b <= 0:
        return u0, u2, None, "no-solution", f"sign conditions fail: a = {p}, b = {b}"
    return u0, u2, (p, q / p, b), "unique-c", ""


def _clipped_double_area(mp: MomentPolygon, level: Fraction) -> Fraction:
    region = clip(mp.polygon, mp.valuation_direction, level)
    return Fraction(0) if region.is_degenerate else 2 * area_centroid(region)[0]


def _lagrange_quadratic(samples: list[tuple[Fraction, Fraction]]) -> Poly:
    out = Poly([])
    for i, (ti, vi) in enumerate(samples):
        term = Poly([vi])
        for j, (tj, _) in enumerate(samples):
            if j != i:
                term = poly_mul(term, Poly([-tj / (ti - tj), 1 / (ti - tj)]))
        out = poly_add(out, term)
    return out


def toric_profile(mp: MomentPolygon) -> PiecewiseQuadratic:
    """vol(L - t v_w) sampled by clipping at both ends and the middle of each
    piece between vertex levels, with the quadratic through the samples."""
    w = mp.valuation_direction
    levels = sorted({v2_dot(v, w) for v in mp.polygon.vertices})
    m0 = levels[0]
    breaks = [lv - m0 for lv in levels]
    pieces = [
        _lagrange_quadratic([(t, _clipped_double_area(mp, m0 + t)) for t in (t0, (t0 + t1) / 2, t1)])
        for t0, t1 in zip(breaks, breaks[1:])
    ]
    profile = PiecewiseQuadratic(breaks, pieces)
    _check_profile(profile)
    return profile


# ---------------------------------------------------------------------------
# weighted binary-form systems: the classification in two loops over Fraction weights
# ---------------------------------------------------------------------------

def _candidate_orders(system: BinaryFormSystem) -> list[tuple[str, dict[int, list[tuple[int, int]]]]]:
    """Per candidate root: for each nonzero block the list of (order at root, block degree)
    over its nonzero monomials."""
    out = []
    for name, ordsel in (("x=0", lambda i, k: i), ("y=0", lambda i, k: k)):
        per_block: dict[int, list[tuple[int, int]]] = {}
        for j in system.nonzero_blocks():
            deg = system.block_degree(j)
            per_block[j] = [(ordsel(i, k), deg) for i, k in sorted(system.forms[j])]
        out.append((name, per_block))
    return out


def _normalized_weights(per_block: dict[int, list[tuple[int, int]]]) -> list[tuple[Fraction, int]]:
    """Weight vectors (2 ord - degree, block scaling weight) over nonzero monomials."""
    vecs = []
    for j, entries in per_block.items():
        for order, deg in entries:
            vecs.append((Fraction(2 * order - deg), j))
    return vecs


def binary_system_stability(system: BinaryFormSystem) -> StabilityVerdict:
    """Every root tried for a destabilizing direction first, then every root for a semistable one."""
    candidates = _candidate_orders(system)
    max_j = max(system.nonzero_blocks())

    for name, per_block in candidates:
        vecs = _normalized_weights(per_block)
        if all(w > 0 for w, _ in vecs):
            a = max_j + 1
            cert = StabilityCertificate(candidate=name, a=a, r=-1, weights=tuple(a * w - j for w, j in vecs))
            return StabilityVerdict("unstable", cert, detail=f"destabilized at {name}")

    for name, per_block in candidates:
        vecs = _normalized_weights(per_block)
        if all(w >= 0 for w, _ in vecs):
            torus_fixed = all(w == 0 for w, _ in vecs)
            cert = StabilityCertificate(candidate=name, a=1, r=0, weights=tuple(w for w, _ in vecs))
            if torus_fixed:
                return StabilityVerdict(
                    "strictly-semistable", cert, polystable=True,
                    detail=f"fixed by the boundary torus at {name}; orbit closed",
                )
            return StabilityVerdict(
                "strictly-semistable", cert, polystable=None,
                detail=f"degenerates along the zero-weight direction at {name}; polystability undetermined",
            )

    sym = "SL(2)" if system.parity == "even" else "sigma'-torus (x<->y swap not quotiented)"
    return StabilityVerdict("stable", None, polystable=True, detail=f"no destabilizing direction for {sym}")
