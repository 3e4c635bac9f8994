"""Exact rational arithmetic: polynomials, piecewise functions, small linear algebra,
and convex polygon primitives.

Every scalar in the toolkit is a ``fractions.Fraction`` (arbitrary-precision,
always reduced, positive denominator).  Nothing here ever rounds.  A polynomial
is kept cleared, as integer numerators over one canonical denominator, and so
are the breakpoints of a piecewise polynomial: the canonical form of a list of
rationals is its numerators over their least common denominator, which is
positive and shares no factor with all of them, so two lists are equal exactly
when their forms are, and the Fractions are derived on each read.  Polynomial
and piecewise evaluation, the integral of a piecewise polynomial, the polygon
kernels and the 3x3 solve clear denominators and work over Python ``int``;
each value they return is one reduced Fraction.  The kernels keep only the
input checks a command can reach; the tests' Fraction references keep the
other contracts.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Sequence

Vec2 = tuple[Fraction, Fraction]
Vec3 = tuple[Fraction, Fraction, Fraction]


class KwallError(ValueError):
    """Base of every input error: the command line prints its message as ``error: ...``."""


class StructuralError(KwallError):
    """Malformed input: a rational or integer that does not parse, or a vertex cycle that is not
    simple and convex."""


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


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vec3(x, y, z) -> Vec3:
    return (rat(x), rat(y), rat(z))


def v2_dot(a: Vec2, b: Vec2) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def _cleared(v: Sequence) -> tuple[list[int], int]:
    """Integer numerators of the rationals in v over their least common denominator, and that denominator."""
    dens = [x.denominator for x in v]
    if dens.count(1) == len(dens):  # integers already: nothing to scale
        return [x.numerator for x in v], 1
    s = math.lcm(*dens)
    return [x.numerator * (s // d) for x, d in zip(v, dens)], s


def _lowest(nums: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    """The integers nums over den != 0 in one canonical form: over a positive denominator that shares no
    factor with all of them, so that two rational vectors are equal exactly when their forms are."""
    ns = tuple(nums)
    g = math.gcd(den, *ns)
    if den < 0:
        g = -g
    return (tuple([n // g for n in ns]) if g != 1 else ns), den // g


def _fractions(nums: Sequence[int], s: int) -> tuple[Fraction, ...]:
    """The rationals nums[i] / s: a cleared vector as Fractions."""
    return tuple(map(Fraction, nums)) if s == 1 else tuple(Fraction(x, s) for x in nums)


def _idot3(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# ---------------------------------------------------------------------------
# univariate polynomials, lowest degree first
# ---------------------------------------------------------------------------

class Poly:
    """Polynomial with exact rational coefficients, lowest degree first.

    A Poly is integer numerators over one denominator, coefficient i being
    ``_nums[i] / _den``, in one canonical form: no trailing zero numerator,
    ``_den > 0`` and gcd(_nums, _den) = 1.  So the zero polynomial is
    ``((), 1)``, and two polynomials are equal exactly when their forms are.
    No degree cap is imposed.
    """

    __slots__ = ("_nums", "_den")

    def __new__(cls, coeffs: Iterable = ()):
        return cls.from_cleared(*_cleared([rat(c) for c in coeffs]))

    @classmethod
    def from_cleared(cls, nums: Iterable[int], den: int) -> Poly:
        """The polynomial with coefficients nums[i] / den, for integers nums and den != 0."""
        ns = list(nums)
        while ns and ns[-1] == 0:
            ns.pop()
        p = object.__new__(cls)
        p._nums, p._den = _lowest(ns, den)
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, derived on each read."""
        return tuple(Fraction(n, self._den) for n in self._nums)

    def coeff(self, k: int) -> Fraction:
        cs = self.coeffs
        return cs[k] if 0 <= k < len(cs) else Fraction(0)

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
        return isinstance(other, Poly) and self._nums == other._nums and self._den == other._den

    def __repr__(self):
        if not self._nums:
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

    The breakpoints are a strictly increasing list t0 < t1 < ... < tk, kept
    cleared as ``Poly`` keeps its coefficients: t_i = ``_nums[i] / _den`` in one
    canonical form, ``_den > 0`` and gcd(_nums, _den) = 1, so two profiles are
    equal exactly when their forms and pieces are.  ``breakpoints`` derives the
    Fractions on each read.  ``pieces[i]`` is the polynomial on the closed-left
    interval [t_i, t_{i+1}), and adjacent pieces agree at interior breakpoints.
    Both constructors take the lists as given: both volume engines build them
    so, and hand over their breakpoints as integers over a common denominator
    through ``from_cleared``; the tests check the shape with
    ``oracles._check_profile``.  The name reflects the dominant use (volume
    profiles are quadratic per piece); higher degrees are accepted.
    """

    __slots__ = ("_nums", "_den", "pieces")

    def __new__(cls, breakpoints: Sequence, pieces: Sequence[Poly]):
        return cls.from_cleared(*_cleared([rat(b) for b in breakpoints]), pieces)

    @classmethod
    def from_cleared(cls, nums: Iterable[int], den: int, pieces: Sequence[Poly]) -> PiecewiseQuadratic:
        """The profile with breakpoints nums[i] / den, for integers nums and den != 0, and the given pieces."""
        f = object.__new__(cls)
        f._nums, f._den = _lowest(nums, den)
        f.pieces = tuple(pieces)
        return f

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """The breakpoints as reduced Fractions, derived on each read."""
        return _fractions(self._nums, self._den)

    def __call__(self, t) -> Fraction:
        """The value at t >= t0, where every caller evaluates."""
        t = rat(t)
        # t < b / den exactly when t.numerator den < b t.denominator, both denominators positive
        p, q = t.numerator * self._den, t.denominator
        for b, piece in zip(self._nums[1:], self.pieces):
            if p < b * q:
                return piece(t)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewiseQuadratic)
            and self._nums == other._nums
            and self._den == other._den
            and self.pieces == other.pieces
        )

    def __repr__(self):
        bps = self.breakpoints
        parts = [f"[{fmt(a)},{fmt(b)}]: {p!r}" for a, b, p in zip(bps, bps[1:], self.pieces)]
        return "PiecewiseQuadratic{" + ", ".join(parts) + "}"


def integrate(f: PiecewiseQuadratic) -> Fraction:
    """Exact integral of f over its domain [t0, oo); finite because support is bounded.

    With the breakpoints cleared as B_j / D and piece j as sum_i (n_i / d_j) t^i, its integral is
    sum_i n_i (B_(j+1)^(i+1) - B_j^(i+1)) / ((i + 1) d_j D^(i+1)): every term over the one common
    denominator k s D^m, where m is the most coefficients of a piece, k = lcm(1..m) and
    s = lcm of the d_j."""
    bs, D = f._nums, f._den
    m = max((len(p._nums) for p in f.pieces), default=0)
    k = math.lcm(*range(1, m + 1))
    s = math.lcm(*(p._den for p in f.pieces))
    scales = [k // (i + 1) * D ** (m - 1 - i) for i in range(m)]
    total = 0
    for a, b, p in zip(bs, bs[1:], f.pieces):
        acc, ai, bi = 0, a, b
        for n, c in zip(p._nums, scales):
            acc += n * c * (bi - ai)
            ai, bi = ai * a, bi * b
        total += acc * (s // p._den)
    return Fraction(total, k * s * D ** m)


# ---------------------------------------------------------------------------
# convex polygons
# ---------------------------------------------------------------------------

class Polygon2(namedtuple("Polygon2", "vertices kind")):
    """Convex region given by its CCW vertex list, of kind "polygon"; or "empty", a "point", or a "segment".

    Construct through :func:`polygon`, which canonicalizes (dedups, strips
    collinear vertices, classifies degeneracies, checks convexity).
    """

    # no __slots__: the instance dict keeps the cleared vertices, outside equality, hashing and repr

    @property
    def is_degenerate(self) -> bool:
        return self.kind != "polygon"

    @property
    def cleared(self) -> tuple[list[int], int]:
        """Vertex coordinates x0, y0, x1, y1, ... over a positive denominator: polygon()'s, or cleared on first read."""
        if "_form" not in self.__dict__:
            self._form = _cleared([c for v in self.vertices for c in v])
        return self._form


def polygon(points: Sequence[Vec2]) -> Polygon2:
    """Build a Polygon2 from a vertex cycle, accepting degenerate data.

    Repeated consecutive points and collinear middle vertices are dropped.  A
    cycle that spans the plane must be simple: a 180-degree turn, or edges that
    wind around more than once (a pentagram), raise StructuralError.  The cleared
    points are checked by ``_polygon_cycle``, the one path that checks a cycle.
    """
    pts = [(rat(p[0]), rat(p[1])) for p in points]
    # every test reads the points cleared over one positive denominator, which keeps each sign and each zero
    nums, den = _cleared([c for p in pts for c in p])
    kind, kept = _polygon_cycle(list(zip(nums[::2], nums[1::2])))
    out = Polygon2(tuple(pts[i] for _, i in kept), kind)
    if kind == "polygon":
        out._form = [c for q, _ in kept for c in q], den  # den times the kept vertices
    return out


def _polygon_cycle(qs: Sequence[tuple[int, int]]) -> tuple[str, list[tuple[tuple[int, int], int]]]:
    """The kind of the region that the cycle of integer points qs spans, and its kept points, each with its
    index in qs: counterclockwise for a "polygon", the two ends of a "segment"; the one path that dedups,
    drops collinear vertices, orients, and checks strict convexity and winding, as ``polygon`` describes."""
    cycle: list[tuple[tuple[int, int], int]] = []  # (point, its index)
    for i, q in enumerate(qs):
        if not cycle or q != cycle[-1][0]:
            cycle.append((q, i))
    if len(cycle) > 1 and cycle[0][0] == cycle[-1][0]:
        cycle.pop()
    if len(cycle) < 2:
        return ("empty", "point")[len(cycle)], cycle
    (x0, y0), (x1, y1) = cycle[0][0], cycle[1][0]
    if all((x1 - x0) * (y - y0) == (y1 - y0) * (x - x0) for (x, y), _ in cycle):
        # a cycle on one line: the segment between its two extreme points
        return "segment", [min(cycle), max(cycle)]
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
    return "polygon", kept


def clip(p: Polygon2, normal: Vec2, offset) -> Polygon2:
    """Intersect p with the halfplane {u : <u, normal> >= offset}.

    Degenerate output is legal and flagged on the result.
    """
    offset = rat(offset)
    normal = (rat(normal[0]), rat(normal[1]))
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
        cut = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
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
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return polygon(out)


def area_centroid(p: Polygon2) -> tuple[Fraction, Vec2]:
    """Exact area (shoelace) and centroid (signed triangle fan) of a non-degenerate polygon;
    ``oracles.area_centroid`` refuses the degenerate ones."""
    nums, d = p.cleared
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


def _adjugate_columns(a: Sequence[Sequence[int]]) -> tuple[tuple[int, int, int], ...]:
    """Columns of adj(a) = det(a) a^-1 for integer rows a: each a cross product of two rows."""
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = a
    return ((y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0),  # row 1 x row 2
            (z1 * x2 - z2 * x1, z2 * x0 - z0 * x2, z0 * x1 - z1 * x0),  # row 2 x row 0
            (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0))  # row 0 x row 1


def _cramer3(a: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[list[int], int]:
    """Integer rows a and right-hand side b: the numerators of the unique solution of a x = b over
    det(a), and det(a); raises SingularSystemError(rank) when det(a) = 0."""
    adj = _adjugate_columns(a)
    d = _idot3(a[0], adj[0])
    if d == 0:
        # adj(a) holds every 2x2 minor of a
        raise SingularSystemError(2 if any(any(c) for c in adj) else 1 if any(any(r) for r in a) else 0)
    # Cramer's rule: x = adj(a) b / det(a), x_i = sum_k adj(a)_ik b_k
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = adj
    x, y, z = b
    return [p0 * x + q0 * y + r0 * z, p1 * x + q1 * y + r1 * z, p2 * x + q2 * y + r2 * z], d


def solve_linear3(m: Mat3, rhs: Vec3) -> Vec3:
    """Unique solution of m x = rhs; raises SingularSystemError(rank) when det = 0."""
    # each equation scaled with its right-hand side: an integer system with the same solution, and the
    # same rank, since scaling a row keeps it
    rows = [_cleared((*r, b))[0] for r, b in zip(m, rhs)]
    nums, d = _cramer3([r[:3] for r in rows], [r[3] for r in rows])
    return tuple(Fraction(x, d) for x in nums)  # type: ignore[return-value]
