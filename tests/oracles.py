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

The library's dot and cross products, polynomial and piecewise evaluation and
3x3 kernels clear denominators and work over integers.  The kernels below are
their ``Fraction``-arithmetic references: the tests require exact equality with
them, and the constructions here use them rather than the library's, together
with the ``Fraction`` vector sum, difference and scaling defined here.
"""

from __future__ import annotations

from fractions import Fraction

from kwall.exact import (
    Mat3,
    PiecewiseQuadratic,
    Poly,
    Polygon2,
    SingularSystemError,
    StructuralError,
    Vec3,
    area_centroid,
    clip,
    mat3,
    mat3_rank,
    mat3_transpose,
    polygon,
    v2_dot,
    vec3,
)
from kwall.toric_kps import CentroidCase, ConeError
from kwall.valuations import DomainError, GermSupport
from kwall.volumes import MomentPolygon, VolumeProfile


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
