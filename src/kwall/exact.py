"""Exact rational arithmetic: polynomials, piecewise functions, small linear algebra,
and convex polygon primitives.

Every scalar in the toolkit is a ``fractions.Fraction`` (arbitrary-precision,
always reduced, positive denominator).  Nothing here ever rounds.  The dot and
cross products, polynomial evaluation and the 3x3 kernels clear denominators
and work over Python ``int``; each value they return is one reduced Fraction.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vec2 = tuple[Fraction, Fraction]
Vec3 = tuple[Fraction, Fraction, Fraction]


class KwallError(ValueError):
    """Base of every input error: the command line prints its message as ``error: ...``."""


class StructuralError(KwallError):
    """Malformed input (non-monotone breakpoints, invalid vertex list, ...)."""


class DegenerateInputError(KwallError):
    """An operation received a degenerate value it cannot handle (e.g. centroid of a segment)."""


class SingularSystemError(KwallError):
    """A linear system without a unique solution; carries the coefficient rank."""

    def __init__(self, rank: int):
        super().__init__(f"singular linear system (rank {rank})")
        self.rank = rank


# an integer or 'p/q' with q nonzero: decimal and exponent strings such as '0.5' or '1e-3' are rejected
_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")
# an integer in ASCII digits: int() also reads '1_0', ' 5' and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def rat(x) -> Fraction:
    """Coerce a Fraction, an int, or an integer or 'p/q' string to an exact rational."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (bool, float)):
        raise StructuralError(f"rationals must be 'p/q' strings or integers, got {x!r}")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if not isinstance(x, str):
        raise StructuralError(f"expected a rational, got {type(x).__name__}")
    if _RATIONAL.fullmatch(x):
        try:
            return Fraction(x)
        except ValueError:  # more digits than int() converts
            pass
    raise StructuralError(f"malformed rational {x!r}; expected 'p/q' or an integer")


def integer(text: str) -> int:
    """Parse an integer string under the one ASCII rule; StructuralError (a ValueError) otherwise."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise StructuralError(f"malformed integer {text!r}")


def fmt(q: Fraction) -> str:
    """Render a rational as 'p/q' in lowest terms, or 'p' when integral."""
    q = Fraction(q)
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:  # more digits than str() converts
        raise KwallError(f"value too large to print: {q.numerator.bit_length()}-bit numerator, "
                         f"{q.denominator.bit_length()}-bit denominator") from None


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vec3(x, y, z) -> Vec3:
    return (rat(x), rat(y), rat(z))


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


def _cleared(v: Sequence) -> tuple[list[int], int]:
    """Integer numerators of the rationals in v over their least common denominator, and that denominator."""
    dens = [x.denominator for x in v]
    if dens.count(1) == len(dens):  # integers already: nothing to scale
        return [x.numerator for x in v], 1
    s = math.lcm(*dens)
    return [x.numerator * (s // d) for x, d in zip(v, dens)], s


def _idot3(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _icross(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def v3_dot(a: Vec3, b: Vec3) -> Fraction:
    ia, s = _cleared(a)
    ib, t = _cleared(b)
    return Fraction(_idot3(ia, ib), s * t)


# ---------------------------------------------------------------------------
# univariate polynomials, lowest degree first
# ---------------------------------------------------------------------------

class Poly:
    """Polynomial with exact rational coefficients, lowest degree first.

    Trailing zero coefficients are stripped; the zero polynomial has no
    coefficients.  No degree cap is imposed.
    """

    __slots__ = ("coeffs", "_nums", "_den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        # the cleared form, coeffs[i] = _nums[i] / _den, is what evaluation reads
        nums, self._den = _cleared(cs)
        self._nums = tuple(nums)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, t) -> Fraction:
        t = rat(t)
        nums = self._nums
        if not nums:
            return Fraction(0)
        # Horner's rule on t = p/q: acc = sum_i nums[i] p^i q^(n-i), value acc / (den q^n)
        p, q = t.numerator, t.denominator
        acc, qk = nums[-1], 1
        for c in nums[-2::-1]:
            qk *= q
            acc = acc * p + c * qk
        return Fraction(acc, self._den * qk)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        s = rat(other)
        return Poly([s * c for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Poly":
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def integral(self, a, b) -> Fraction:
        F = self.antiderivative()
        return F(b) - F(a)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{fmt(c)}*t^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


def poly(*coeffs) -> Poly:
    """Poly from constant term upward: poly(1, 0, -2) == 1 - 2t^2."""
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# piecewise polynomial functions
# ---------------------------------------------------------------------------

class PiecewiseQuadratic:
    """Piecewise polynomial on [t0, oo), identically zero beyond the last breakpoint.

    ``breakpoints`` is a strictly increasing list t0 < t1 < ... < tk and
    ``pieces[i]`` is the polynomial on the closed-left interval [t_i, t_{i+1}).
    Adjacent pieces must agree at interior breakpoints.  The name reflects the
    dominant use (volume profiles are quadratic per piece); higher degrees are
    accepted.
    """

    __slots__ = ("breakpoints", "pieces", "_bnums", "_bden")

    def __init__(self, breakpoints: Sequence, pieces: Sequence[Poly]):
        bps = [rat(b) for b in breakpoints]
        if len(bps) != len(pieces) + 1:
            raise StructuralError("need exactly one more breakpoint than pieces")
        # the cleared form, breakpoints[i] = _bnums[i] / _bden, is what evaluation searches
        nums, self._bden = _cleared(bps)
        self._bnums = tuple(nums)
        for a, b in zip(nums, nums[1:]):
            if not a < b:
                raise StructuralError("breakpoints must be strictly increasing")
        for i in range(len(pieces) - 1):
            t = bps[i + 1]
            if pieces[i](t) != pieces[i + 1](t):
                raise StructuralError(f"pieces disagree at breakpoint {fmt(t)}")
        self.breakpoints = tuple(bps)
        self.pieces = tuple(pieces)

    def __call__(self, t) -> Fraction:
        t = rat(t)
        # an integer b is at most t _bden exactly when it is at most floor(t _bden)
        i = bisect.bisect_right(self._bnums, t.numerator * self._bden // t.denominator)
        if i == 0:
            raise StructuralError(f"evaluation below domain start {fmt(self.breakpoints[0])}")
        if i == len(self._bnums):
            return Fraction(0)
        return self.pieces[i - 1](t)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewiseQuadratic)
            and self.breakpoints == other.breakpoints
            and self.pieces == other.pieces
        )

    def __hash__(self):
        return hash((self.breakpoints, self.pieces))

    def __repr__(self):
        parts = [
            f"[{fmt(a)},{fmt(b)}]: {p!r}"
            for a, b, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces)
        ]
        return "PiecewiseQuadratic{" + ", ".join(parts) + "}"


def integrate(f: PiecewiseQuadratic, start) -> Fraction:
    """Exact integral of f over [start, oo); finite because support is bounded."""
    start = rat(start)
    if start < f.breakpoints[0]:
        raise StructuralError("integration start below domain start")
    total = Fraction(0)
    for a, b, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        lo = max(a, start)
        if lo < b:
            total += p.integral(lo, b)
    return total


# ---------------------------------------------------------------------------
# convex polygons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polygon2:
    """Convex region given by its CCW vertex list; may be empty, a point, or a segment.

    Construct through :func:`polygon`, which canonicalizes (dedups, strips
    collinear vertices, classifies degeneracies, checks convexity).
    """

    vertices: tuple[Vec2, ...]
    kind: str  # "empty" | "point" | "segment" | "polygon"

    @property
    def is_degenerate(self) -> bool:
        return self.kind != "polygon"


def polygon(points: Sequence[Vec2]) -> Polygon2:
    """Build a Polygon2 from a vertex cycle, accepting degenerate data.

    Repeated consecutive points and collinear middle vertices are dropped.  A
    cycle that spans the plane must be simple: a 180-degree turn, or edges that
    wind around more than once (a pentagram), raise StructuralError.
    """
    pts = [(rat(p[0]), rat(p[1])) for p in points]
    # every test reads the points cleared over one positive denominator, which keeps each sign and each zero
    nums, _ = _cleared([c for p in pts for c in p])
    cycle: list[tuple[tuple[int, int], Vec2]] = []  # (cleared point, the caller's point)
    for q, p in zip(zip(nums[::2], nums[1::2]), pts):
        if not cycle or q != cycle[-1][0]:
            cycle.append((q, p))
    if len(cycle) > 1 and cycle[0][0] == cycle[-1][0]:
        cycle.pop()
    if not cycle:
        return Polygon2((), "empty")
    if len(cycle) == 1:
        return Polygon2((cycle[0][1],), "point")
    (x0, y0), (x1, y1) = cycle[0][0], cycle[1][0]
    if all((x1 - x0) * (y - y0) == (y1 - y0) * (x - x0) for (x, y), _ in cycle):
        # a cycle on one line: the segment between its two extreme points
        return Polygon2((min(cycle)[1], max(cycle)[1]), "segment")
    # Drop the collinear middle vertices in one pass.  Dropping a vertex that goes straight on leaves
    # the direction of every other edge, so every other turn, unchanged; a vertex that turns back
    # stays one until it is dropped, so the cycle is not simple exactly when one turns back here.
    n = len(cycle)
    kept = []
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = cycle[i - 1][0], cycle[i][0], cycle[(i + 1) % n][0]
        ux, uy, vx, vy = bx - ax, by - ay, cx - bx, cy - by
        if ux * vy != uy * vx:
            kept.append(cycle[i])
        elif ux * vx + uy * vy < 0:
            raise StructuralError("vertex cycle is not simple: it turns back on itself")
    qs = [c[0] for c in kept]
    if sum(ax * by - ay * bx for (ax, ay), (bx, by) in zip(qs, qs[1:] + qs[:1])) < 0:
        kept.reverse()
        qs.reverse()
    edges = [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(qs, qs[1:] + qs[:1])]
    if any(dx * ey - dy * ex <= 0 for (dx, dy), (ex, ey) in zip(edges[-1:] + edges[:-1], edges)):
        raise StructuralError("vertex list is not strictly convex")
    # all turns are left turns under 180 degrees: edge directions change half-plane twice per turn around
    upper = [dy > 0 or (dy == 0 and dx > 0) for dx, dy in edges]
    if sum(x != y for x, y in zip(upper, upper[1:] + upper[:1])) != 2:
        raise StructuralError("vertex cycle is not simple: its edges wind around more than once")
    return Polygon2(tuple(p for _, p in kept), "polygon")


def clip(p: Polygon2, normal: Vec2, offset) -> Polygon2:
    """Intersect p with the halfplane {u : <u, normal> >= offset}.

    Degenerate output is legal and flagged on the result.
    """
    offset = rat(offset)
    normal = (rat(normal[0]), rat(normal[1]))
    if normal == (Fraction(0), Fraction(0)):
        raise StructuralError("halfplane normal must be nonzero")
    if p.kind == "empty":
        return p
    if p.kind == "point":
        return p if v2_dot(p.vertices[0], normal) >= offset else Polygon2((), "empty")
    if p.kind == "segment":
        a, b = p.vertices
        fa, fb = v2_dot(a, normal) - offset, v2_dot(b, normal) - offset
        if fa < 0 and fb < 0:
            return Polygon2((), "empty")
        if fa >= 0 and fb >= 0:
            return p
        t = fa / (fa - fb)  # crossing parameter on [a, b]
        cut = v2_add(a, v2_scale(t, v2_sub(b, a)))
        kept = a if fa >= 0 else b
        return polygon([kept, cut])
    out: list[Vec2] = []
    verts = p.vertices
    n = len(verts)
    for i in range(n):
        cur, nxt = verts[i], verts[(i + 1) % n]
        fc = v2_dot(cur, normal) - offset
        fn = v2_dot(nxt, normal) - offset
        if fc >= 0:
            out.append(cur)
        if (fc > 0 and fn < 0) or (fc < 0 and fn > 0):
            t = fc / (fc - fn)
            out.append(v2_add(cur, v2_scale(t, v2_sub(nxt, cur))))
    return polygon(out)


def area_centroid(p: Polygon2) -> tuple[Fraction, Vec2]:
    """Exact area (shoelace) and centroid (signed triangle fan) of a non-degenerate polygon."""
    if p.is_degenerate:
        raise DegenerateInputError(f"centroid undefined for degenerate polygon (kind={p.kind})")
    nums, d = _cleared([c for v in p.vertices for c in v])
    xs, ys = nums[::2], nums[1::2]
    twice_area = cx = cy = 0
    for ax, ay, bx, by in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        w = ax * by - ay * bx
        twice_area += w
        cx += (ax + bx) * w
        cy += (ay + by) * w
    # the cleared vertices are d times the true ones: twice the area is twice_area / d^2,
    # and the fan sums are cx / d^3 and cy / d^3
    return Fraction(twice_area, 2 * d * d), (Fraction(cx, 3 * twice_area * d), Fraction(cy, 3 * twice_area * d))


# ---------------------------------------------------------------------------
# 3x3 exact linear algebra
# ---------------------------------------------------------------------------

Mat3 = tuple[Vec3, Vec3, Vec3]  # rows


def mat3(rows: Sequence[Sequence]) -> Mat3:
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise StructuralError("mat3 needs three rows of three entries")
    return tuple(vec3(*r) for r in rows)  # type: ignore[return-value]


def _int_rows(m: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators: the integer rows and their scales."""
    cleared = [_cleared(r) for r in m]
    return [r for r, _ in cleared], [s for _, s in cleared]


def _adjugate_columns(a: Sequence[Sequence[int]]) -> tuple[tuple[int, int, int], ...]:
    """Columns of adj(a) = det(a) a^-1 for integer rows a: each a cross product of two rows."""
    return _icross(a[1], a[2]), _icross(a[2], a[0]), _icross(a[0], a[1])


def det3(m: Mat3) -> Fraction:
    a, s = _int_rows(m)
    return Fraction(_idot3(a[0], _icross(a[1], a[2])), s[0] * s[1] * s[2])


def mat3_rank(m: Mat3) -> int:
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


def solve_linear3(m: Mat3, rhs: Vec3) -> Vec3:
    """Unique solution of m x = rhs; raises SingularSystemError(rank) when det = 0."""
    # each equation scaled with its right-hand side: an integer system with the same solution
    rows, _ = _int_rows([(*r, b) for r, b in zip(m, rhs)])
    adj = _adjugate_columns(rows)
    d = _idot3(rows[0], adj[0])
    if d == 0:
        raise SingularSystemError(mat3_rank(m))
    # Cramer's rule: x = adj(a) b / det(a)
    b = [r[3] for r in rows]
    return tuple(Fraction(_idot3(row, b), d) for row in zip(*adj))  # type: ignore[return-value]


def mat3_vec(m: Mat3, v: Vec3) -> Vec3:
    a, s = _int_rows(m)
    iv, t = _cleared(v)
    return tuple(Fraction(_idot3(r, iv), sr * t) for r, sr in zip(a, s))  # type: ignore[return-value]


def mat3_transpose(m: Mat3) -> Mat3:
    return tuple(zip(*m))  # type: ignore[return-value]


def mat3_inverse(m: Mat3) -> Mat3:
    # m = diag(s)^-1 a, so m^-1 = a^-1 diag(s) = adj(a) diag(s) / det(a)
    a, s = _int_rows(m)
    adj = _adjugate_columns(a)
    d = _idot3(a[0], adj[0])
    if d == 0:
        raise SingularSystemError(mat3_rank(m))
    return tuple(
        tuple(Fraction(x * sj, d) for x, sj in zip(row, s)) for row in zip(*adj)
    )  # type: ignore[return-value]
