"""Volume profiles t -> vol(L - t v) on surfaces, by two independent engines.

The intersection-theoretic engine works on a two-ray model of the Mori cone
(nef part, then the Zariski positive part orthogonal to the unique negative
curve).  The toric engine measures the width of the moment polygon's slice at
each vertex level of the valuation; the width is linear in between, so the
profile is a closed-form quadratic per piece.  Both return the same exact
piecewise-quadratic profile on every shared fixture, which is the main
cross-check of the toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (
    KwallError,
    PiecewiseQuadratic,
    Polygon2,
    Poly,
    Vec2,
    integrate,
    rat,
    rational_sqrt,
    v2_cross,
    v2_dot,
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
    Cbar = a H - b E generating the second ray; absent means the cone is
    generated by E and a nef class (sanity cases only).
    """

    h2: Fraction
    e2: Fraction
    cross: Fraction = Fraction(0)
    neg_curve: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        object.__setattr__(self, "h2", rat(self.h2))
        object.__setattr__(self, "e2", rat(self.e2))
        object.__setattr__(self, "cross", rat(self.cross))
        if self.neg_curve is not None:
            a, b = self.neg_curve
            object.__setattr__(self, "neg_curve", (rat(a), rat(b)))
        if self.h2 <= 0:
            raise ModelError("(H^2) must be positive")
        if self.e2 <= 0:
            raise ModelError("-(E^2) must be positive")
        if self.neg_curve is not None and self.pair(self.neg_curve, self.neg_curve) > 0:
            raise ModelError("declared negative curve has (Cbar^2) > 0")

    def pair(self, v: tuple[Fraction, Fraction], w: tuple[Fraction, Fraction]) -> Fraction:
        """Intersection pairing of xH + yE classes."""
        return (
            v[0] * w[0] * self.h2
            + (v[0] * w[1] + v[1] * w[0]) * self.cross
            - v[1] * w[1] * self.e2
        )


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


@dataclass(frozen=True)
class VolumeProfile:
    profile: PiecewiseQuadratic
    nef_threshold: Fraction
    pseff_threshold: Fraction

    def __call__(self, t) -> Fraction:
        return self.profile(t)

    @property
    def vol0(self) -> Fraction:
        return self.profile(0)


def _check_profile(profile: PiecewiseQuadratic) -> None:
    # non-increasing: each piece has nonpositive derivative at both interval ends
    for a, b, p in zip(profile.breakpoints, profile.breakpoints[1:], profile.pieces):
        dp = p.derivative()
        if dp(a) > 0 or dp(b) > 0:
            raise ModelError("volume profile is not non-increasing")
    if profile.pieces and profile.pieces[-1](profile.breakpoints[-1]) != 0:
        raise ModelError("volume profile does not vanish at the pseudoeffective threshold")


def volume_two_ray(model: TwoRayModel, L: tuple[Fraction, Fraction]) -> VolumeProfile:
    """Profile of vol(L - tE) by Zariski decomposition on a two-ray surface.

    For t up to the nef threshold the volume is (L - tE)^2; past it the
    positive part is taken orthogonal to the negative curve.
    """
    cH, cE = rat(L[0]), rat(L[1])
    # (L - tE) = (cH, cE - t); expand B(L-tE, L-tE) as a polynomial in t
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
    # B(L - tE, Cbar) is linear in t
    q0 = model.pair((cH, cE), (a, -b))
    q1 = -model.pair((Fraction(0), Fraction(1)), (a, -b))
    if q0 < 0:
        raise ModelError("L meets the negative curve negatively at t = 0")
    c2 = model.pair((a, -b), (a, -b))
    if q1 == 0:
        raise ModelError("E does not pair with the negative curve; model is not two-ray")
    t_nef = -q0 / q1
    if t_nef <= 0:
        raise ModelError("nef threshold must be positive")

    if c2 == 0:
        # the second ray is nef: the profile stops where it meets Cbar
        if vol_nef(t_nef) != 0:
            raise ModelError("(Cbar^2) = 0 but vol does not vanish at the nef threshold")
        profile = PiecewiseQuadratic([Fraction(0), t_nef], [vol_nef])
        _check_profile(profile)
        return VolumeProfile(profile, t_nef, t_nef)

    q = Poly([q0, q1])
    vol_pos = vol_nef - q * q * (1 / c2)
    if vol_pos.degree != 2:
        raise ModelError("degenerate positive-part branch")
    p0, p1, p2 = vol_pos.coeff(0), vol_pos.coeff(1), vol_pos.coeff(2)
    if p1 * p1 - 4 * p2 * p0 != 0:
        raise ModelError("positive-part branch is not a perfect square")
    t_max = -p1 / (2 * p2)
    if t_max < t_nef:
        raise ModelError("nef threshold must not exceed the pseudoeffective threshold")
    if t_max == t_nef:
        # the volume vanishes exactly where the negative curve is met: the
        # positive-part piece has zero length and is dropped
        profile = PiecewiseQuadratic([Fraction(0), t_nef], [vol_nef])
        _check_profile(profile)
        return VolumeProfile(profile, t_nef, t_nef)
    profile = PiecewiseQuadratic([Fraction(0), t_nef, t_max], [vol_nef, vol_pos])
    _check_profile(profile)
    return VolumeProfile(profile, t_nef, t_max)


def volume_toric(mp: MomentPolygon) -> VolumeProfile:
    """Profile of vol(L - t v_w) = 2 area(P ∩ {<u, w> >= m0 + t}) for a toric valuation.

    In the coordinates h = <u, w>, s = w x u the area is ∫ g(h) dh with slice
    width g = (s_upper - s_lower) / |w|^2, which is linear between vertex
    levels: one exact slice per level fixes a closed-form quadratic per piece.
    """
    w = mp.valuation_direction
    hs = [v2_dot(v, w) for v in mp.polygon.vertices]
    ss = [v2_cross(w, v) for v in mp.polygon.vertices]
    n = len(hs)
    levels = sorted(set(hs))
    if len(levels) < 2:
        raise InvalidValuationError("valuation direction is constant on the polygon")

    def chain(i: int, step: int) -> list[Fraction]:
        # s at every level along the boundary chain that climbs from bottom vertex i
        out = []
        for h in levels:
            while hs[i] < h:
                i = (i + step) % n
            j = (i - step) % n
            out.append(ss[i] if hs[i] == h else ss[j] + (ss[i] - ss[j]) * (h - hs[j]) / (hs[i] - hs[j]))
        return out

    # the CCW cycle climbs along the lower chain (smaller s) and descends along the upper one
    m0 = levels[0]
    lower = chain(next(i for i in range(n) if hs[i] == m0 and hs[(i + 1) % n] != m0), 1)
    upper = chain(next(i for i in range(n) if hs[i] == m0 and hs[i - 1] != m0), -1)
    ww = v2_dot(w, w)
    g = [(su - sl) / ww for su, sl in zip(upper, lower)]
    breaks = [h - m0 for h in levels]
    # width g1 - m (t1 - t) on [t0, t1], rest = area past t1: vol = 2 (rest + g1 (t1 - t)) - m (t1 - t)^2
    pieces: list[Poly] = []
    rest = Fraction(0)
    for k in range(len(breaks) - 2, -1, -1):
        t0, t1 = breaks[k], breaks[k + 1]
        m = (g[k + 1] - g[k]) / (t1 - t0)
        pieces.append(Poly([2 * (rest + g[k + 1] * t1) - m * t1 * t1, 2 * (m * t1 - g[k + 1]), -m]))
        rest += (g[k] + g[k + 1]) * (t1 - t0) / 2
    profile = PiecewiseQuadratic(breaks, pieces[::-1])
    _check_profile(profile)
    # nef threshold of the toric profile: end of the first piece where the cut is a corner;
    # reported as the first breakpoint past 0
    return VolumeProfile(profile, breaks[1], breaks[-1])


def s_invariant(profile: VolumeProfile, anti_k_scale: tuple[Fraction, Fraction]) -> Fraction:
    """S0 = integral of the profile divided by vol(L).

    With -K_X - cD ~ (alpha - beta c) L the expected vanishing order is
    S(c) = (alpha - beta c) S0; the affine function is assembled downstream.
    """
    alpha, beta = rat(anti_k_scale[0]), rat(anti_k_scale[1])
    if alpha <= 0:
        raise ModelError("anti-canonical scale must be positive at c = 0")
    v0 = profile.vol0
    if v0 <= 0:
        raise ModelError("zero-volume polarization")
    return integrate(profile.profile, 0) / v0
