"""Volume profiles t -> vol(L - t v) on surfaces, by two independent engines.

The intersection-theoretic engine works on a two-ray model of the Mori cone
(nef part, then the Zariski positive part orthogonal to the cone's second
ray).  The toric engine measures the width of the moment polygon's slice at
each vertex level of the valuation; the width is linear in between, so the
profile is a closed-form quadratic per piece.  Both return the same exact
piecewise-quadratic profile on every shared fixture, which is the main
cross-check of the toolkit.

A profile is the ``PiecewiseQuadratic`` itself.  Both engines start it at
t = 0 and end it at the pseudoeffective threshold, and the first breakpoint
past 0 is the nef threshold: breakpoints[1] and breakpoints[-1] are the two
thresholds (one and the same when the profile has one piece).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class TwoRayModel:
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

    h2: Fraction
    e2: Fraction
    cross: Fraction = Fraction(0)
    neg_curve: Optional[tuple[Fraction, Fraction]] = None
    # (h2, cross, e2) cleared over one positive denominator k, as (h, x, e, k): what pair reads
    _form: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h2", rat(self.h2))
        object.__setattr__(self, "e2", rat(self.e2))
        object.__setattr__(self, "cross", rat(self.cross))
        if self.neg_curve is not None:
            a, b = self.neg_curve
            object.__setattr__(self, "neg_curve", (rat(a), rat(b)))
        (h, x, e), k = _cleared((self.h2, self.cross, self.e2))
        object.__setattr__(self, "_form", (h, x, e, k))
        if self.h2 <= 0:
            raise ModelError("(H^2) must be positive")
        if self.e2 <= 0:
            raise ModelError("-(E^2) must be positive")
        if self.neg_curve is None:
            r = math.isqrt(x * x + h * e)
            if r * r != x * x + h * e:
                raise ModelError("pseudoeffective threshold is irrational; supply the negative curve")
            object.__setattr__(self, "neg_curve", (Fraction(e), Fraction(r - x)))
        else:
            a, b = self.neg_curve
            if self.pair((a, -b), (a, -b)) > 0:
                raise ModelError("declared negative curve has (Cbar^2) > 0")
            # Cbar spans the second ray as an irreducible curve other than E: such a curve meets the
            # polarization H nonnegatively and E positively, and is no multiple of E
            if a * self.h2 - b * self.cross < 0:
                raise ModelError("field 'neg_curve': H.Cbar < 0, so Cbar = aH - bE is not effective")
            if a * self.cross + b * self.e2 <= 0:
                raise ModelError("field 'neg_curve': E.Cbar <= 0, so Cbar = aH - bE is not a curve other than E")
            if a == 0:
                raise ModelError("field 'neg_curve': a = 0, so Cbar = -bE is not a curve other than E")

    def pair(self, v: tuple[Fraction, Fraction], w: tuple[Fraction, Fraction]) -> Fraction:
        """Intersection pairing of xH + yE classes."""
        h, x, e, k = self._form
        (v0, v1), s = _cleared(v)
        (w0, w1), t = _cleared(w)
        return Fraction(v0 * w0 * h + (v0 * w1 + v1 * w0) * x - v1 * w1 * e, k * s * t)


@dataclass(frozen=True)
class MomentPolygon:
    """Moment polygon of a polarized toric surface with a toric valuation direction.

    vol(L) = 2 area(polygon).  ``valuation_direction`` is the vector w with
    v(section at lattice point u) = <u, w> - min_P <., w>.
    """

    polygon: Polygon2
    valuation_direction: Vec2

    def __post_init__(self):
        w = (rat(self.valuation_direction[0]), rat(self.valuation_direction[1]))
        object.__setattr__(self, "valuation_direction", w)
        if self.polygon.is_degenerate:
            raise ModelError("moment polygon must be non-degenerate")
        if w == (Fraction(0), Fraction(0)):
            raise InvalidValuationError("valuation direction must be nonzero")


def volume_two_ray(model: TwoRayModel, L: tuple[Fraction, Fraction]) -> PiecewiseQuadratic:
    """Profile of vol(L - tE) by Zariski decomposition on a two-ray surface.

    For t up to the nef threshold the volume is (L - tE)^2; past it the
    positive part is taken orthogonal to the second ray Cbar (the declared
    curve, or the model's isotropic class R).

    L is big exactly when it lies inside the pseudoeffective cone: a positive
    combination of E and Cbar.  (L^2) > 0 is checked first: a big L with
    (L^2) <= 0 is not nef at t = 0, where the engine has no Zariski
    decomposition, and is refused as such.

    The pairing on span(H, E) is nondegenerate of signature (1, 1), so the
    profile needs no checks of its own but these.  The model has E.Cbar > 0,
    so L - tE meets Cbar at one t, and writing L = lambda E + mu Cbar with
    lambda, mu > 0 gives t_nef = lambda + mu (Cbar^2) / E.Cbar <= lambda.  An
    isotropic Cbar is orthogonal only to its own multiples, so vol vanishes at
    t_nef = lambda, where L - tE meets it.  Otherwise (Cbar^2) < 0 makes
    Cbar^perp a positive line, so the positive part is kappa (t - t_max)^2
    with kappa > 0 (its t^2 coefficient is the Gram determinant of E and Cbar,
    negative because they are independent), and it vanishes at
    t_max = lambda > t_nef, where L - tE is a multiple of Cbar.  The nef piece
    is concave and the positive part falls to its root, so the profile is
    non-increasing exactly when its slope at t = 0, -2 L.E, is not positive.
    """
    (lh, le), l = _cleared((rat(L[0]), rat(L[1])))
    h, x, e, k = model._form
    (a, b), m = _cleared(model.neg_curve)
    # (L - tE) = (cH, cE - t) with cH = lh / l, cE = le / l: B(L-tE, L-tE) = n0 / (k l^2) + n1 / (k l) t - e / k t^2
    n0 = lh * lh * h + 2 * lh * le * x - le * le * e
    n1 = 2 * (le * e - lh * x)
    pieces = [Poly([Fraction(n0, k * l * l), Fraction(n1, k * l), Fraction(-e, k)])]
    # L = lambda E + mu Cbar by Cramer's rule over det(E, Cbar) = -a / m: mu = lh m / (a l) and
    # lambda = (lh b + le a) / (a l)
    if n0 <= 0:
        # lambda > 0 and mu > 0 put L inside the cone of E and Cbar: big, but not nef
        if lh * a > 0 and (lh * b + le * a) * a > 0:
            raise ModelError("field 'L': L is big but (L^2) <= 0, so it is not nef at t = 0; "
                             "the engine has no Zariski decomposition there")
        raise ModelError("L is not big at t = 0")
    # (L^2) > 0 puts L in one half of the positive cone, and the cone of E and Cbar, pointed since
    # a != 0, holds one half whole and misses the other, so lambda and mu share their sign: L is a
    # positive combination exactly when mu > 0
    if lh * a <= 0:
        raise ModelError("field 'L': L is not a positive combination of E and Cbar, so it is not big")
    # with Cbar = (a, -b) / m: B(L - tE, Cbar) = (q0 + q1 l t) / (k l m), (Cbar^2) = c2 / (k m^2),
    # and q1 = -k m E.Cbar < 0
    q0 = lh * a * h + (le * a - lh * b) * x + le * b * e
    q1 = -(a * x + b * e)
    if q0 < 0:
        raise ModelError("L meets the negative curve negatively at t = 0")
    c2 = a * a * h - 2 * a * b * x - b * b * e
    breaks = [Fraction(0), Fraction(-q0, l * q1)]
    if breaks[1] <= 0:
        raise ModelError("nef threshold must be positive")
    if c2 != 0:
        # the positive part (L - tE)^2 - B(L - tE, Cbar)^2 / (Cbar^2) = (p0 / l^2 + p1 / l t + p2 t^2) / (k c2)
        p0 = n0 * c2 - q0 * q0
        p1 = n1 * c2 - 2 * q0 * q1
        p2 = -(e * c2 + q1 * q1)
        breaks.append(Fraction(-p1, 2 * l * p2))
        pieces.append(Poly([Fraction(p0, k * c2 * l * l), Fraction(p1, k * c2 * l), Fraction(p2, k * c2)]))
    if n1 > 0:
        # L.E < 0: the volume grows at t = 0
        raise ModelError("volume profile is not non-increasing")
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
    g = [Fraction((pu * ql - pl * qu) * e, qu * ql * scale) for (pu, qu), (pl, ql) in zip(upper, lower)]
    u = d * e
    ts = [h - m0 for h in levels]
    # width g1 - m (t1 - t) on [t0, t1], rest = area past t1: vol = 2 (rest + g1 (t1 - t)) - m (t1 - t)^2;
    # with g = a / b and t = T / u every coefficient is one integer fraction
    pieces: list[Poly] = []
    twice_rest = Fraction(0)
    for k in range(len(ts) - 2, -1, -1):
        a0, b0, a1, b1 = g[k].numerator, g[k].denominator, g[k + 1].numerator, g[k + 1].denominator
        t1, dt = ts[k + 1], ts[k + 1] - ts[k]
        dg = a1 * b0 - a0 * b1  # (g1 - g0) b0 b1
        den = b0 * b1 * dt
        pieces.append(Poly([
            twice_rest + Fraction((2 * a1 * b0 * dt - dg * t1) * t1, den * u),
            Fraction(2 * (dg * t1 - a1 * b0 * dt), den),
            Fraction(-dg * u, den),
        ]))
        twice_rest += Fraction((a0 * b1 + a1 * b0) * dt, b0 * b1 * u)
    breaks = [Fraction(t, u) for t in ts]
    # vol' = -2 (slice width) <= 0 and the top piece is 2 rest = 0 at its end: the profile needs no
    # check; its nef threshold is the first breakpoint past 0, where the cut is a corner
    return PiecewiseQuadratic(breaks, pieces[::-1])


def s_invariant(profile: PiecewiseQuadratic) -> Fraction:
    """S0 = integral of the profile divided by vol(L).

    With -K_X - cD ~ (alpha - beta c) L the expected vanishing order is
    S(c) = (alpha - beta c) S0; the affine function is assembled downstream.
    Both engines give vol(L) > 0: the two-ray engine refuses (L^2) <= 0, and
    the toric one starts at 2 area(P) of a non-degenerate polygon.
    """
    return integrate(profile) / profile(0)
