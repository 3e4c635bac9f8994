"""The integer volume engines of kwall.volumes against their Fraction references
in tests/oracles.py: equal profiles, or the same ModelError with the same
message; and the barycenter form of the toric S-invariant."""

from __future__ import annotations

from fractions import Fraction as F

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_volumes import toric_valuations

from kwall.exact import area_centroid, v2_dot
from kwall.volumes import ModelError, MomentPolygon, TwoRayModel, s_invariant, volume_toric, volume_two_ray

_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

moment_polygons = st.integers(3, 64).flatmap(toric_valuations).map(lambda pw: MomentPolygon(*pw))


@_PROPERTY
@given(mp=moment_polygons)
def test_volume_toric_equals_its_reference(mp):
    assert volume_toric(mp) == oracles.volume_toric(mp)


@_PROPERTY
@given(mp=moment_polygons)
def test_toric_s0_is_the_barycenter_form(mp):
    # Blum-Jonsson: S0 = <b, w> - min_P <., w> for the area centroid b, and vol(L) = 2 area(P)
    area, b = area_centroid(mp.polygon)
    w = mp.valuation_direction
    profile = volume_toric(mp)
    assert profile.vol0 == 2 * area
    assert s_invariant(profile, (F(1), F(0))) == v2_dot(b, w) - min(v2_dot(v, w) for v in mp.polygon.vertices)


small = st.fractions(min_value=-6, max_value=6, max_denominator=7)
positive = st.fractions(min_value=F(1, 7), max_value=6, max_denominator=7)


@st.composite
def two_ray_inputs(draw):
    """(h2, e2, cross, neg_curve, L) on every branch of volume_two_ray:
    - the twin of a triangle;
    - an isotropic curve, a^2 h2 = b^2 e2, so that (Cbar^2) = 0;
    - no curve, with e2 h2 + cross^2 a rational square, so that the threshold is rational;
    - every entry drawn freely (mostly errors);
    then, at times, the same surface in the basis H + sE, E, where cross changes by -s e2 and
    the profile does not, and one entry of a constructed case redrawn."""
    kind = draw(st.sampled_from(("twin", "twin", "isotropic", "no-curve", "free")))
    if kind == "twin":
        # as criterion 11(b) builds it: a triangle whose edges at its lowest vertex rise to levels
        # l1 and l2 and span twice the area h2 has e = h2 / (l1 l2) and Cbar = t1 e H - h2 E,
        # t1 = min(l1, l2); its top is an edge (then (Cbar^2) = 0) when l1 = l2
        h2, l1 = draw(positive), draw(positive)
        l2 = l1 if draw(st.booleans()) else draw(positive)
        e = h2 / (l1 * l2)
        args = [h2, e, F(0), (min(l1, l2) * e, h2), (F(1), F(0))]
    elif kind == "isotropic":
        h2, a, b = draw(positive), draw(positive), draw(positive)
        args = [h2, a * a * h2 / (b * b), F(0), (a, b), (draw(positive), F(0))]
    elif kind == "no-curve":
        h2, cross = draw(positive), draw(small)
        r = abs(cross) + draw(positive)
        args = [h2, (r * r - cross * cross) / h2, cross, None, (draw(positive), draw(small))]
    else:
        args = [draw(positive), draw(positive), draw(small), draw(st.none() | st.tuples(small, small)),
                (draw(small), draw(small))]
    if draw(st.booleans()):
        # the basis H' = H + sE, E: (H'^2) = h2 - s^2 e2, H'.E = cross - s e2, and a class
        # xH + yE is xH' + (y - s x)E, so Cbar = aH - bE is aH' - (b + s a)E
        h2, e2, cross, neg, (x, y) = args
        s = draw(st.fractions(min_value=-1, max_value=1, max_denominator=7))
        while h2 + 2 * s * cross - s * s * e2 <= 0:
            s /= 2
        args = [h2 + 2 * s * cross - s * s * e2, e2, cross - s * e2,
                None if neg is None else (neg[0], neg[1] + s * neg[0]), (x, y - s * x)]
    if kind != "free" and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, 4))
        args[i] = [draw(positive), draw(positive), draw(small), (draw(small), draw(small)),
                   (draw(small), draw(small))][i]
    return tuple(args)


@_PROPERTY
@given(args=two_ray_inputs())
# one example per reachable ModelError of volume_two_ray and per branch that returns.  Four checks
# cannot fire, because the pairing on span(H, E) is nondegenerate of signature (1, 1): with no
# curve the threshold is positive whenever vol(L) > 0; an isotropic Cbar is orthogonal only to its
# own multiples, so vol vanishes where L - tE meets it; the positive part is the square of a linear
# form; and the last piece vanishes at its end by construction.  Nor can the t_max = t_nef branch
# run: the positive part vanishes at the nef threshold only if L is a multiple of E, not big.
@example(args=(F(1, 3), F(1), F(5, 4), None, (F(-3), F(1, 2))))  # L is not big at t = 0
@example(args=(F(1), F(3, 4), F(0), None, (F(5, 4), F(1, 2))))  # irrational threshold
@example(args=(F(3, 4), F(2), F(0), (F(1, 2), F(3, 2)), (F(4), F(-1))))  # L meets Cbar negatively
@example(args=(F(1), F(1), F(0), (F(0), F(0)), (F(1), F(0))))  # E does not pair with Cbar
@example(args=(F(1, 2), F(1, 3), F(0), (F(3, 4), F(-2)), (F(2), F(0))))  # nef threshold not positive
@example(args=(F(6), F(5, 3), F(0), (F(0), F(2, 3)), (F(-3, 2), F(1))))  # degenerate positive part
@example(args=(F(2, 3), F(1), F(5, 2), (F(5, 4), F(-1, 2)), (F(1, 4), F(1))))  # t_nef beyond t_max
@example(args=(F(6), F(1, 3), F(-1, 2), None, (F(3, 4), F(-1))))  # profile not non-increasing
@example(args=(F(1, 4), F(5, 2), F(-2), (F(-1, 3), F(1)), (F(-6), F(4))))  # two pieces, cross != 0
@example(args=(F(1), F(1), F(0), (F(1), F(1)), (F(1), F(0))))  # (Cbar^2) = 0
@example(args=(F(3, 4), F(3, 4), F(1), None, (F(2, 3), F(1, 4))))  # no curve, cross != 0
def test_volume_two_ray_equals_its_reference(args):
    h2, e2, cross, neg, L = args
    try:
        model = TwoRayModel(h2, e2, cross, neg)
    except ModelError:
        return  # the model's own checks are shared by both engines
    assert model.pair(L, L) == oracles.pair(model, L, L)
    if neg is not None:
        assert model.pair(L, neg) == oracles.pair(model, L, neg)
    try:
        ref = oracles.volume_two_ray(model, L)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            volume_two_ray(model, L)
        assert str(got.value) == str(exc)
    else:
        assert volume_two_ray(model, L) == ref
