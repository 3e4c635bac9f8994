"""Independent reference constructions, kept as test oracles.

The library computes the Reeb cross-section centroid as the average of three
scaled dual rays and the toric volume profile from one slice width per vertex
level.  The constructions here are the longer, independent routes to the same
numbers: the cross-section cut out in a rational basis of the Reeb plane and
re-checked by clipping, and the profile sampled by clipping the moment polygon
three times per piece and fitting the quadratic through the samples.

The library's Newton-polygon lct walks the lower hull of the undominated
monomials; ``lct_newton_pairs`` is the all-pairs route to the same diagonal
entry point.

The library's dot and cross products, polynomial and piecewise evaluation, 3x3
kernels, polygon construction, shoelace area and centroid, and both volume
engines clear denominators and work over integers.  The kernels and engines
below are their ``Fraction``-arithmetic references: the tests require exact
equality with them (or the same error and message), and the constructions here
use them rather than the library's, together with the ``Fraction`` vector sum,
difference and scaling defined here.
"""

from __future__ import annotations

from fractions import Fraction

from typing import Sequence

from kwall.exact import (
    DegenerateInputError,
    Mat3,
    PiecewiseQuadratic,
    Poly,
    Polygon2,
    SingularSystemError,
    StructuralError,
    Vec2,
    Vec3,
    clip,
    mat3,
    mat3_rank,
    mat3_transpose,
    rat,
    rational_sqrt,
    vec3,
)
from kwall.toric_kps import CentroidCase, ConeError
from kwall.valuations import DomainError, GermSupport
from kwall.volumes import (
    InvalidValuationError,
    ModelError,
    MomentPolygon,
    TwoRayModel,
    VolumeProfile,
    _check_profile,
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


def poly_eval(p: Poly, t) -> Fraction:
    """Horner's rule over Fractions."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def piecewise_eval(f: PiecewiseQuadratic, t) -> Fraction:
    """Linear scan over the Fraction breakpoints, each piece through poly_eval."""
    t = Fraction(t)
    if t < f.breakpoints[0]:
        raise StructuralError("evaluation below domain start")
    for a, b, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        if a <= t < b:
            return poly_eval(p, t)
    return Fraction(0)


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


def v2_sub(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] - b[0], a[1] - b[1])


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
        raise DegenerateInputError(f"centroid undefined for degenerate polygon (kind={p.kind})")
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


def pair(model: TwoRayModel, v: tuple[Fraction, Fraction], w: tuple[Fraction, Fraction]) -> Fraction:
    """The intersection pairing over the model's Fraction fields."""
    return (
        v[0] * w[0] * model.h2
        + (v[0] * w[1] + v[1] * w[0]) * model.cross
        - v[1] * w[1] * model.e2
    )


def volume_two_ray(model: TwoRayModel, L: tuple[Fraction, Fraction]) -> VolumeProfile:
    """Zariski decomposition with Poly products, scalar multiples and differences."""
    cH, cE = rat(L[0]), rat(L[1])
    vol_nef = Poly(
        [
            cH * cH * model.h2 + 2 * cH * cE * model.cross - cE * cE * model.e2,
            -2 * cH * model.cross + 2 * cE * model.e2,
            -model.e2,
        ]
    )
    vol0 = vol_nef(0)
    if vol0 <= 0:
        raise ModelError("L is not big at t = 0")

    if model.neg_curve is None:
        disc = vol_nef.coeff(1) ** 2 - 4 * vol_nef.coeff(2) * vol_nef.coeff(0)
        root = rational_sqrt(disc)
        if root is None:
            raise ModelError("pseudoeffective threshold is irrational; supply the negative curve")
        t_max = (-vol_nef.coeff(1) - root) / (2 * vol_nef.coeff(2))
        if t_max <= 0:
            raise ModelError("no positive pseudoeffective threshold")
        profile = PiecewiseQuadratic([Fraction(0), t_max], [vol_nef])
        _check_profile(profile)
        return VolumeProfile(profile, t_max, t_max)

    a, b = model.neg_curve
    q0 = pair(model, (cH, cE), (a, -b))
    q1 = -pair(model, (Fraction(0), Fraction(1)), (a, -b))
    if q0 < 0:
        raise ModelError("L meets the negative curve negatively at t = 0")
    c2 = pair(model, (a, -b), (a, -b))
    if q1 == 0:
        raise ModelError("E does not pair with the negative curve; model is not two-ray")
    t_nef = -q0 / q1
    if t_nef <= 0:
        raise ModelError("nef threshold must be positive")

    if c2 == 0:
        if vol_nef(t_nef) != 0:
            raise ModelError("(Cbar^2) = 0 but vol does not vanish at the nef threshold")
        profile = PiecewiseQuadratic([Fraction(0), t_nef], [vol_nef])
        _check_profile(profile)
        return VolumeProfile(profile, t_nef, t_nef)

    q = Poly([q0, q1])
    vol_pos = vol_nef - q * q * (1 / c2)
    if len(vol_pos.coeffs) != 3:
        raise ModelError("degenerate positive-part branch")
    p0, p1, p2 = vol_pos.coeffs
    if p1 * p1 - 4 * p2 * p0 != 0:
        raise ModelError("positive-part branch is not a perfect square")
    t_max = -p1 / (2 * p2)
    if t_max < t_nef:
        raise ModelError("nef threshold must not exceed the pseudoeffective threshold")
    if t_max == t_nef:
        profile = PiecewiseQuadratic([Fraction(0), t_nef], [vol_nef])
        _check_profile(profile)
        return VolumeProfile(profile, t_nef, t_nef)
    profile = PiecewiseQuadratic([Fraction(0), t_nef, t_max], [vol_nef, vol_pos])
    _check_profile(profile)
    return VolumeProfile(profile, t_nef, t_max)


def volume_toric(mp: MomentPolygon) -> VolumeProfile:
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
    return VolumeProfile(profile, breaks[1], breaks[-1])


# ---------------------------------------------------------------------------
# reference constructions
# ---------------------------------------------------------------------------

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
        if v3_dot(r, other) < 0:
            r = v3_scale(-1, r)
        rays.append(v3_scale(Fraction(1) / v3_dot(r, case.xi0), r))

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


def _clipped_double_area(mp: MomentPolygon, level: Fraction) -> Fraction:
    region = clip(mp.polygon, mp.valuation_direction, level)
    return Fraction(0) if region.is_degenerate else 2 * area_centroid(region)[0]


def _lagrange_quadratic(samples: list[tuple[Fraction, Fraction]]) -> Poly:
    out = Poly([])
    for i, (ti, vi) in enumerate(samples):
        term = Poly([vi])
        for j, (tj, _) in enumerate(samples):
            if j != i:
                term = term * Poly([-tj / (ti - tj), 1 / (ti - tj)])
        out = out + term
    return out


def toric_profile(mp: MomentPolygon) -> VolumeProfile:
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
    return VolumeProfile(PiecewiseQuadratic(breaks, pieces), breaks[1], breaks[-1])
