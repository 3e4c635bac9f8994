"""Volume profiles t -> vol(L - t v) on surfaces, by two independent engines.

The intersection-theoretic engine works on a two-ray model of the Mori cone
and walks the Zariski chambers of L - tE (E in the negative part, nef, the
cone's second ray in the negative part).  The toric engine measures the width
of the moment polygon's slice at each vertex level of the valuation; the
width is linear in between, so the profile is a closed-form quadratic per
piece.  Both return the same exact piecewise-quadratic profile on every
shared fixture, which is the main cross-check of the toolkit.

A profile is the ``PiecewiseQuadratic`` itself.  Both engines start it at
t = 0 and end it at the pseudoeffective threshold, breakpoints[-1].
breakpoints[1] is the nef threshold only for a nef L, and for a two-ray L
only when L.Cbar > 0: a big L that is not nef has no nef threshold, and its
profile opens with a constant piece or with its positive part, as does that
of an L with L.Cbar = 0, whose nef threshold is 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional

from .exact import (
    KwallError,
    PiecewiseQuadratic,
    Polygon2,
    Poly,
    Vec2,
    _cleared,
    integrate,
    rat,
)


class ModelError(KwallError):
    """Inconsistent two-ray data (e.g. the declared negative curve has positive square)."""


class InvalidValuationError(KwallError):
    """Zero valuation direction handed to the toric engine."""


class TwoRayModel(namedtuple("TwoRayModel", "h2 e2 cross neg_curve")):
    """Intersection numbers on a surface whose pseudoeffective cone is spanned by
    E and one other extremal class.

    h2 = (H^2) > 0, e2 = -(E^2) > 0 stored as a positive magnitude,
    cross = H.E (normally 0).  neg_curve = (a, b) declares the effective class
    Cbar = a H - b E generating the second ray.  Absent, the second ray is the
    boundary of the positive cone on the side of H: with (h2, cross, e2)
    cleared to the integers (h, x, e) over k and r^2 = x^2 + h e, it is the
    isotropic class R = e H - (r - x) E, which has (R^2) = 0,
    H.R = r (r - x) / k > 0 and E.R = r e / k > 0, and it becomes neg_curve.
    A model whose R is irrational is refused.
    """

    # no __slots__: the instance dict holds _form, outside equality, hashing and repr

    def __new__(cls, h2: Fraction, e2: Fraction, cross: Fraction = Fraction(0),
                neg_curve: Optional[tuple[Fraction, Fraction]] = None):
        h2, e2, cross = rat(h2), rat(e2), rat(cross)
        if neg_curve is not None:
            a, b = neg_curve
            neg_curve = (rat(a), rat(b))
        (h, x, e), k = _cleared((h2, cross, e2))
        if h <= 0:
            raise ModelError("field 'h2': (H^2) must be positive")
        if e <= 0:
            raise ModelError("field 'e2': -(E^2) must be positive")
        if neg_curve is None:
            r = math.isqrt(x * x + h * e)
            if r * r != x * x + h * e:
                raise ModelError("field 'neg_curve': pseudoeffective threshold is irrational; supply the negative curve")
            neg_curve = (Fraction(e), Fraction(r - x))
        else:
            # with (a, b) cleared to (a, b) / m, (Cbar^2), H.Cbar and E.Cbar are k m^2 and k m (k, m > 0)
            # times the integers below
            (a, b), _ = _cleared(neg_curve)
            if a * a * h - 2 * a * b * x - b * b * e > 0:
                raise ModelError("field 'neg_curve': declared negative curve has (Cbar^2) > 0")
            # Cbar spans the second ray as an irreducible curve other than E: such a curve meets the
            # polarization H nonnegatively and E positively, and is no multiple of E
            if a * h - b * x < 0:
                raise ModelError("field 'neg_curve': H.Cbar < 0, so Cbar = aH - bE is not effective")
            if a * x + b * e <= 0:
                raise ModelError("field 'neg_curve': E.Cbar <= 0, so Cbar = aH - bE is not a curve other than E")
            if a == 0:
                raise ModelError("field 'neg_curve': a = 0, so Cbar = -bE is not a curve other than E")
        self = super().__new__(cls, h2, e2, cross, neg_curve)
        # (h2, cross, e2) cleared over one positive denominator k, as (h, x, e, k): what pair reads
        self._form = (h, x, e, k)
        return self

    def pair(self, v: tuple[Fraction, Fraction], w: tuple[Fraction, Fraction]) -> Fraction:
        """Intersection pairing of xH + yE classes."""
        h, x, e, k = self._form
        (v0, v1), s = _cleared(v)
        (w0, w1), t = _cleared(w)
        return Fraction(v0 * w0 * h + (v0 * w1 + v1 * w0) * x - v1 * w1 * e, k * s * t)


class MomentPolygon(namedtuple("MomentPolygon", "polygon valuation_direction")):
    """Moment polygon of a polarized toric surface with a toric valuation direction.

    vol(L) = 2 area(polygon).  ``valuation_direction`` is the vector w with
    v(section at lattice point u) = <u, w> - min_P <., w>.
    """

    __slots__ = ()

    def __new__(cls, polygon: Polygon2, valuation_direction: Vec2):
        w = (rat(valuation_direction[0]), rat(valuation_direction[1]))
        if polygon.is_degenerate:
            raise ModelError("field 'polygon': moment polygon must be non-degenerate")
        if w == (Fraction(0), Fraction(0)):
            raise InvalidValuationError("field 'w': valuation direction must be nonzero")
        return super().__new__(cls, polygon, w)


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n / d in lowest terms, for d > 0."""
    g = math.gcd(n, d)
    return n // g, d // g


def volume_two_ray(model: TwoRayModel, L: tuple[Fraction, Fraction]) -> PiecewiseQuadratic:
    """Profile of vol(L - tE) = (P^2), P the Zariski positive part, on a two-ray surface.

    L must be big: L = lambda E + mu Cbar with lambda, mu > 0, where Cbar spans
    the second ray (the declared curve, or the model's isotropic class R).  On
    Picard rank 2, vol(D) = (P^2) (Bauer-Kuronya-Szemberg), and L - tE for t in
    [0, lambda] crosses at most three chambers, in this order, as D.E grows and
    D.Cbar falls with t:
    - E in the negative part up to t_E, where (L - tE).E = 0: P = L - t_E E,
      a constant piece;
    - nef up to t_nef, where (L - tE).Cbar = 0: (L - tE)^2, empty when t_nef <= 0;
    - Cbar in the negative part up to lambda, where L - tE = mu Cbar: P is
      orthogonal to Cbar, kappa (t - lambda)^2 with kappa > 0.  An isotropic
      Cbar is orthogonal only to its own multiples, so then t_nef = lambda.
    The pairing has signature (1, 1), so no big D meets both E and Cbar
    negatively (the Gram determinant of E and Cbar would be positive): t_E < t_nef.
    """
    (lh, le), l = _cleared((rat(L[0]), rat(L[1])))
    h, x, e, k = model._form
    (a, b), m = _cleared(model.neg_curve)
    # L = lambda E + mu Cbar by Cramer's rule over det(E, Cbar) = -a / m: mu = lh m / (a l) and
    # lambda = (lh b + le a) / (a l)
    if lh * a <= 0 or (lh * b + le * a) * a <= 0:
        raise ModelError("field 'L': L is not a positive combination of E and Cbar, so it is not big")
    # (L - tE) = (cH, cE - t) with cH = lh / l, cE = le / l: B(L-tE, L-tE) = n0 / (k l^2) + n1 / (k l) t - e / k t^2
    n0 = lh * lh * h + 2 * lh * le * x - le * le * e
    n1 = 2 * (le * e - lh * x)
    breaks, pieces = [Fraction(0)], []
    if n1 > 0:
        # L.E < 0: the slope -2 (L - tE).E vanishes at t_E = n1 / (2 l e)
        breaks.append(Fraction(n1, 2 * l * e))
        pieces.append(Poly.from_cleared([4 * e * n0 + n1 * n1], 4 * e * k * l * l))
    # with Cbar = (a, -b) / m: B(L - tE, Cbar) = (q0 + q1 l t) / (k l m), (Cbar^2) = c2 / (k m^2),
    # and q1 = -k m E.Cbar < 0
    q0 = lh * a * h + (le * a - lh * b) * x + le * b * e
    q1 = -(a * x + b * e)
    t_nef = Fraction(-q0, l * q1)
    if t_nef > 0:
        breaks.append(t_nef)
        pieces.append(Poly.from_cleared([n0, n1 * l, -e * l * l], k * l * l))
    c2 = a * a * h - 2 * a * b * x - b * b * e
    if c2 != 0:
        # the positive part (L - tE)^2 - B(L - tE, Cbar)^2 / (Cbar^2) = (p0 / l^2 + p1 / l t + p2 t^2) / (k c2)
        p0 = n0 * c2 - q0 * q0
        p1 = n1 * c2 - 2 * q0 * q1
        p2 = -(e * c2 + q1 * q1)
        breaks.append(Fraction(lh * b + le * a, a * l))
        pieces.append(Poly.from_cleared([p0, p1 * l, p2 * l * l], k * c2 * l * l))
    return PiecewiseQuadratic(breaks, pieces)


def volume_toric(mp: MomentPolygon) -> PiecewiseQuadratic:
    """Profile of vol(L - t v_w) = 2 area(P ∩ {<u, w> >= m0 + t}) for a toric valuation.

    In the coordinates h = <u, w>, s = w x u the area is ∫ g(h) dh with slice
    width g = (s_upper - s_lower) / |w|^2, which is linear between vertex
    levels: one exact slice per level fixes a closed-form quadratic per piece.
    """
    nums, d = _cleared([c for v in mp.polygon.vertices for c in v])
    (w0, w1), e = _cleared(mp.valuation_direction)
    # h and s of the cleared vertices and direction: d e times the true values
    hs = [x * w0 + y * w1 for x, y in zip(nums[::2], nums[1::2])]
    ss = [w0 * y - w1 * x for x, y in zip(nums[::2], nums[1::2])]
    n = len(hs)
    # a non-degenerate polygon has vertices on two levels of any w != 0: at least two levels
    levels = sorted(set(hs))

    def chain(i: int, step: int) -> list[tuple[int, int]]:
        # s at every level along the boundary chain that climbs from bottom vertex i, as (numerator, denominator)
        out = []
        for h in levels:
            while hs[i] < h:
                i = (i + step) % n
            j = (i - step) % n
            dh = hs[i] - hs[j]
            out.append((ss[i], 1) if hs[i] == h else (ss[j] * dh + (ss[i] - ss[j]) * (h - hs[j]), dh))
        return out

    # the CCW cycle climbs along the lower chain (smaller s) and descends along the upper one
    m0 = levels[0]
    lower = chain(next(i for i in range(n) if hs[i] == m0 and hs[(i + 1) % n] != m0), 1)
    upper = chain(next(i for i in range(n) if hs[i] == m0 and hs[i - 1] != m0), -1)
    # true width (s_upper - s_lower) / |w|^2 = (su - sl) e / (d (w0^2 + w1^2)), and true t = T / u
    scale = d * (w0 * w0 + w1 * w1)
    g = [_reduced((pu * ql - pl * qu) * e, qu * ql * scale) for (pu, qu), (pl, ql) in zip(upper, lower)]
    u = d * e
    ts = [h - m0 for h in levels]
    # width g1 - m (t1 - t) on [t0, t1], rest = area past t1: vol = 2 (rest + g1 (t1 - t)) - m (t1 - t)^2;
    # with g = a / b, twice the rest rn / rd and t = T / u, a piece is integers over rd b0 b1 dt u
    pieces: list[Poly] = []
    rn, rd = 0, 1
    for k in range(len(ts) - 2, -1, -1):
        (a0, b0), (a1, b1) = g[k], g[k + 1]
        t1, dt = ts[k + 1], ts[k + 1] - ts[k]
        dg = a1 * b0 - a0 * b1  # (g1 - g0) b0 b1
        den = b0 * b1 * dt
        pieces.append(Poly.from_cleared([
            rn * den * u + (2 * a1 * b0 * dt - dg * t1) * t1 * rd,
            2 * (dg * t1 - a1 * b0 * dt) * rd * u,
            -dg * rd * u * u,
        ], rd * den * u))
        rn, rd = _reduced(rn * b0 * b1 * u + (a0 * b1 + a1 * b0) * dt * rd, rd * b0 * b1 * u)
    breaks = [Fraction(t, u) for t in ts]
    # vol' = -2 (slice width) <= 0 and the top piece is 2 rest = 0 at its end: the profile needs no
    # check; its nef threshold is the first breakpoint past 0, where the cut is a corner
    return PiecewiseQuadratic(breaks, pieces[::-1])


def s_invariant(profile: PiecewiseQuadratic) -> Fraction:
    """S0 = integral of the profile divided by vol(L).

    With -K_X - cD ~ (alpha - beta c) L the expected vanishing order is
    S(c) = (alpha - beta c) S0; the affine function is assembled downstream.
    Both engines give vol(L) > 0: for the two-ray engine vol(L) = (P_0^2) > 0
    for the positive part P_0 of every big L, and the toric one starts at
    2 area(P) of a non-degenerate polygon.
    """
    return integrate(profile) / profile(0)
