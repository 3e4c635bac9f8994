"""The integer volume engines of kwall.volumes, the two-ray model's checks of a
declared curve and the integer centroid condition of kwall.toric_kps against
their Fraction references in tests/oracles.py: equal profiles and verdicts, or
the same ModelError with the same message; and the barycenter form of the
toric S-invariant."""

from __future__ import annotations

import math
from fractions import Fraction as F

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_volumes import toric_valuations

from kwall import fixtures
from kwall.exact import Polygon2, area_centroid, polygon, v2_dot
from kwall.toric_kps import CentroidCase, solve_centroid_condition
from kwall.volumes import (
    ModelError,
    MomentPolygon,
    TwoRayModel,
    _two_ray_form,
    s_invariant,
    volume_toric,
    volume_two_ray,
)

_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

_BIG = 10**6
# rationals with denominators up to 10^6 and both signs, and positive ones
rationals = st.fractions(min_value=-_BIG, max_value=_BIG, max_denominator=_BIG)
positives = st.fractions(min_value=F(1, _BIG), max_value=_BIG, max_denominator=_BIG)

moment_polygons = st.integers(3, 64).flatmap(toric_valuations).map(lambda pw: MomentPolygon(*pw))


def test_rational_sqrt():
    assert oracles.rational_sqrt(F(9, 16)) == F(3, 4)
    assert oracles.rational_sqrt(F(2)) is None
    assert oracles.rational_sqrt(F(0)) == 0


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
    assert profile(0) == 2 * area
    assert s_invariant(profile) == v2_dot(b, w) - min(v2_dot(v, w) for v in mp.polygon.vertices)


# vertex cycles whose dropped points carry a denominator that no kept vertex has: a collinear midpoint
# over 7, collinear points over 3 and 5 on two edges, and repeated points beside a collinear one over 11
_DROPPED_DENOMINATORS = {
    "midpoint over 7": ([(0, 0), (1, 0), (F(3, 7), F(4, 7)), (0, 1)], 7),
    "edge points over 3 and 5": ([(0, 0), (F(2, 3), 0), (2, 0), (2, 2), (0, 2), (0, F(6, 5))], 15),
    "repeats": ([(0, 0), (0, 0), (F(4, 11), 0), (2, 0), (2, 0), (0, 2), (0, 0)], 11),
}


@pytest.mark.parametrize("points, den", _DROPPED_DENOMINATORS.values(), ids=_DROPPED_DENOMINATORS)
@pytest.mark.parametrize("w", [(F(1), F(0)), (F(1), F(1)), (F(-2), F(3)), (F(0), F(-1))])
def test_a_polygon_kept_over_the_denominator_of_its_dropped_points_reads_as_its_own(points, den, w):
    # polygon() keeps its vertices over the denominator of every point it was given; a Polygon2 built
    # from its fields clears its own vertices; the engines and the oracles agree on both
    p = polygon(points)
    rebuilt = Polygon2(*p)
    assert p.cleared[1] == den and rebuilt == p and rebuilt.cleared[1] < den
    assert p.cleared == ([den * c for c in rebuilt.cleared[0]], den * rebuilt.cleared[1])
    mp, rebuilt_mp = MomentPolygon(p, w), MomentPolygon(rebuilt, w)
    assert volume_toric(mp) == volume_toric(rebuilt_mp) == oracles.volume_toric(mp)
    assert area_centroid(p) == area_centroid(rebuilt) == oracles.area_centroid(p)


small = st.fractions(min_value=-6, max_value=6, max_denominator=7)
positive = st.fractions(min_value=F(1, 7), max_value=6, max_denominator=7)


@st.composite
def two_ray_inputs(draw, big=False):
    """(h2, e2, cross, neg_curve, L) on every branch of volume_two_ray:
    - the twin of a triangle;
    - an isotropic curve, a^2 h2 = b^2 e2, so that (Cbar^2) = 0;
    - no curve, with e2 h2 + cross^2 a rational square, so that the second ray is rational;
    - every entry drawn freely (mostly errors);
    at times with L = lam E + mu Cbar drawn inside the cone, where a large lam makes L.E < 0 and a
    large mu makes L.Cbar < 0 (when (Cbar^2) < 0); then, at times, the same surface in the basis
    H + sE, E, where cross changes by -s e2 and the profile does not, and one entry of a constructed
    case redrawn.  With ``big``, every case is constructed, L is drawn inside the cone, and no entry
    is redrawn: L is big on a model the library accepts."""
    # a big L is drawn on more twins, the only models with (Cbar^2) < 0 and so a third chamber
    kind = draw(st.sampled_from(("twin", "twin", "isotropic", "no-curve") + (("twin", "twin") if big else ("free",))))
    if kind == "twin":
        # as criterion 11(b) builds it: a triangle whose edges at its lowest vertex rise to levels
        # l1 and l2 and span twice the area h2 has e = h2 / (l1 l2) and Cbar = t1 e H - h2 E,
        # t1 = min(l1, l2); its top is an edge (then (Cbar^2) = 0) when l1 = l2
        h2, l1 = draw(positive), draw(positive)
        l2 = l1 if draw(st.booleans()) else draw(positive)
        e = h2 / (l1 * l2)
        args = [h2, e, F(0), (min(l1, l2) * e, h2), (F(1), F(0))]
        ray = args[3]
    elif kind == "isotropic":
        h2, a, b = draw(positive), draw(positive), draw(positive)
        args = [h2, a * a * h2 / (b * b), F(0), (a, b), (draw(positive), F(0))]
        ray = args[3]
    elif kind == "no-curve":
        h2, cross = draw(positive), draw(small)
        r = abs(cross) + draw(positive)
        args = [h2, (r * r - cross * cross) / h2, cross, None, (draw(positive), draw(small))]
        # the isotropic class e2 H - (r - cross) E on the side of H
        ray = (args[1], r - cross)
    else:
        args = [draw(positive), draw(positive), draw(small), draw(st.none() | st.tuples(small, small)),
                (draw(small), draw(small))]
    if big or (kind != "free" and draw(st.booleans())):
        lam, mu = draw(positive), draw(positive)
        args[4] = (mu * ray[0], lam - mu * ray[1])
    if draw(st.booleans()):
        # the basis H' = H + sE, E: (H'^2) = h2 + 2 s cross - s^2 e2, H'.E = cross - s e2, and a class
        # xH + yE is xH' + (y - s x)E, so Cbar = aH - bE is aH' - (b + s a)E; s is halved until H' is
        # positive, and a constructed curve stays effective: H'.Cbar = H.Cbar + s E.Cbar >= 0
        h2, e2, cross, neg, (x, y) = args
        a, b = neg if kind != "free" and neg is not None else (0, 0)
        s = draw(st.fractions(min_value=-1, max_value=1, max_denominator=7))
        while h2 + 2 * s * cross - s * s * e2 <= 0 or a * h2 - b * cross + s * (a * cross + b * e2) < 0:
            s /= 2
        args = [h2 + 2 * s * cross - s * s * e2, e2, cross - s * e2,
                None if neg is None else (neg[0], neg[1] + s * neg[0]), (x, y - s * x)]
    if not big and kind != "free" and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, 4))
        args[i] = [draw(positive), draw(positive), draw(small), (draw(small), draw(small)),
                   (draw(small), draw(small))][i]
    return tuple(args)


@_PROPERTY
@given(args=two_ray_inputs())
# one example per refusal a two-ray input reaches (an irrational isotropic ray, an L outside the cone)
# and per chamber a profile can open in (E, nef, Cbar, and the wall between the last two).  For L
# inside the cone of E and a curve the model accepts, L.Cbar < 0 and L.E < 0 never hold together:
# they would make the Gram determinant of E and Cbar positive, which the signature (1, 1) forbids.
@example(args=(F(1, 3), F(1), F(5, 4), None, (F(-3), F(1, 2))))  # irrational isotropic ray
@example(args=(F(1), F(1, 26), F(0), (F(5), F(26)), (F(15), F(-77))))  # L = E + 3 Cbar: (L^2) < 0, L.Cbar < 0
@example(args=(F(1), F(1), F(0), None, (F(-1), F(0))))  # no curve, L.H < 0: outside the cone
@example(args=(F(1), F(1), F(0), None, (F(-2), F(1))))  # no curve, outside the cone, L.E < 0
@example(args=(F(1), F(3, 4), F(0), None, (F(5, 4), F(1, 2))))  # irrational isotropic ray, L.E < 0
@example(args=(F(1), F(1, 26), F(0), (F(5), F(26)), (F(-1), F(0))))  # L outside the cone of E and Cbar
@example(args=(F(1), F(1, 26), F(0), (F(5), F(26)), (F(-1), F(1))))  # L outside the cone, L.E < 0
@example(args=(F(3, 4), F(2), F(0), (F(1, 2), F(3, 2)), (F(4), F(-1))))  # L.Cbar < 0: one positive-part piece
@example(args=(F(1), F(1, 26), F(0), (F(5), F(26)), (F(5), F(-25))))  # L = E + Cbar, nef, L.Cbar = 0
@example(args=(F(6), F(1, 3), F(-1, 2), None, (F(3, 4), F(-1))))  # L.E < 0: constant, then nef
@example(args=(F(1), F(1), F(-1), (F(-1), F(2)), (F(-1), F(1))))  # two pieces, cross != 0
@example(args=(F(1), F(1), F(0), (F(1), F(1)), (F(1), F(0))))  # (Cbar^2) = 0
@example(args=(F(3, 4), F(3, 4), F(1), None, (F(2, 3), F(1, 4))))  # no curve, cross != 0
def test_volume_two_ray_equals_its_reference(args):
    # the reference gets the drawn data, not the model's isotropic ray: with no curve it takes its
    # second ray through the larger root of (L - tE)^2 = 0
    h2, e2, cross, neg, L = args
    try:
        model = TwoRayModel(h2, e2, cross, neg)
    except ModelError as exc:
        if neg is None and h2 > 0 and e2 > 0:
            # an irrational isotropic ray, which the reference refuses for every L
            with pytest.raises(ModelError) as ref:
                oracles.volume_two_ray(h2, e2, cross, neg, L)
            assert str(ref.value) == str(exc)
        return  # the model's checks of its form and of a declared curve are shared by both engines
    form = (h2, e2, cross)
    assert model.pair(L, L) == oracles.pair(form, L, L)
    if neg is not None:
        assert model.pair(L, neg) == oracles.pair(form, L, neg)
    try:
        ref = oracles.volume_two_ray(h2, e2, cross, neg, L)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            volume_two_ray(model, L)
        assert str(got.value) == str(exc)
    else:
        assert volume_two_ray(model, L) == ref


# 300 drawn models and L, each compared at every breakpoint and 20 points between; with hypothesis
# 6.155, L - tE starts in the E chamber in 93 draws, nef in 170 and in the Cbar one in 37, and
# 106 draws have cross != 0
@settings(derandomize=True, max_examples=300, deadline=None)
@given(args=two_ray_inputs(big=True))
@example(args=(F(1), F(1, 2), F(1), (F(1), F(1, 2)), (F(1), F(0))))  # nef, cross != 0
@example(args=(F(1), F(1), F(0), (F(1), F(2)), (F(2), F(-1))))  # nef with L.Cbar = 0
@example(args=(F(1), F(1), F(0), (F(1), F(2)), (F(3), F(-2))))  # L.Cbar < 0
@example(args=(F(1), F(1), F(0), None, (F(2), F(1))))  # no curve, L.E < 0
def test_every_big_profile_is_the_zariski_volume_pointwise(args):
    h2, e2, cross, neg, L = args
    model = TwoRayModel(h2, e2, cross, neg)
    a, b = model.neg_curve
    profile = volume_two_ray(model, L)
    assert profile == oracles.volume_two_ray(h2, e2, cross, neg, L)
    # t_max = lam for L = lam E + mu Cbar = (mu a, lam - mu b)
    assert profile.breakpoints[-1] == L[1] + L[0] / a * b
    for t in {*profile.breakpoints, *oracles.sample_points(profile.breakpoints[-1])}:
        assert profile(t) == oracles.zariski_volume((h2, e2, cross), (a, b), (L[0], L[1] - t))


@pytest.mark.parametrize("neg,message", [
    ((F(-1), F(3)), r"field 'neg_curve': H\.Cbar < 0"),  # Cbar = -H - 3E
    ((F(1), F(-1)), r"field 'neg_curve': E\.Cbar <= 0"),  # Cbar = H + E
    ((F(0), F(1)), r"field 'neg_curve': a = 0"),  # Cbar = -E
])
def test_the_model_refuses_a_curve_that_cannot_span_the_second_ray(neg, message):
    with pytest.raises(ModelError, match=message):
        TwoRayModel(F(1), F(1), F(0), neg)


def test_the_model_squares_the_declared_curve_cbar():
    # Cbar = aH - bE: with cross = H.E != 0 its square differs from that of aH + bE
    with pytest.raises(ModelError, match=r"\(Cbar\^2\) > 0"):
        TwoRayModel(F(2), F(1, 2), F(-1), (F(-3, 2), F(-3)))  # (Cbar^2) = 9
    model = TwoRayModel(F(1), F(1, 2), F(1), (F(1), F(1, 2)))  # (Cbar^2) = -1/8
    profile = volume_two_ray(model, (F(1), F(0)))
    assert len(profile.pieces) == 2
    assert profile == oracles.volume_two_ray(F(1), F(1, 2), F(1), (F(1), F(1, 2)), (F(1), F(0)))


@st.composite
def declared_curves(draw):
    """(h2, e2, cross, neg_curve) on a refusal boundary of a declared curve Cbar = aH - bE:
    (Cbar^2) = 0, H.Cbar = 0, E.Cbar = 0 or a = 0; else every entry drawn freely, or no curve."""
    h2, e2, cross, a, b = draw(positives), draw(positives), draw(rationals), draw(rationals), draw(rationals)
    kind = draw(st.sampled_from(("square", "h", "e", "a", "free", "none")))
    if kind == "square" and a != 0:
        h2 = (2 * a * b * cross + b * b * e2) / (a * a)  # a^2 h2 - 2 a b cross - b^2 e2 = 0
    elif kind == "h" and b != 0:
        cross = a * h2 / b  # a h2 - b cross = 0
    elif kind == "e":
        b = -a * cross / e2  # a cross + b e2 = 0
    elif kind == "a":
        a = F(0)
    elif kind == "free":
        h2, e2 = draw(rationals), draw(rationals)
    return h2, e2, cross, None if kind == "none" else (a, b)


@_PROPERTY
@given(args=declared_curves())
@example(args=(F(1), F(1), F(0), (F(1), F(1))))  # (Cbar^2) = 0: accepted
@example(args=(F(1), F(1), F(1), (F(1), F(1))))  # H.Cbar = 0: accepted
@example(args=(F(1), F(1), F(-1), (F(1), F(1))))  # E.Cbar = 0, which makes (Cbar^2) > 0
@example(args=(F(1), F(1), F(0), (F(0), F(1))))  # a = 0
@example(args=(F(1), F(1), F(0), (F(0), F(0))))  # a = b = 0: E.Cbar = 0 with (Cbar^2) = 0
@example(args=(F(0), F(1), F(0), (F(1), F(1))))  # (H^2) = 0
@example(args=(F(1), F(0), F(0), None))  # -(E^2) = 0
@example(args=(F(1), F(1), F(0), (F(-1), F(3))))  # H.Cbar < 0
@example(args=(F(1, 999983), F(1), F(0), (F(1), F(-1))))  # E.Cbar < 0
def test_the_model_refuses_a_declared_curve_as_its_fraction_checks_do(args):
    h2, e2, cross, neg = args
    try:
        oracles.check_two_ray_model(h2, e2, cross, neg)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            TwoRayModel(h2, e2, cross, neg)
        assert str(got.value) == str(exc)
    else:
        TwoRayModel(h2, e2, cross, neg)


@_PROPERTY
@given(args=declared_curves(), k=st.integers(1, 30), j=st.integers(1, 30))
@example(args=(F(1), F(1, 26), F(0), (F(5), F(26))), k=7, j=3)  # the a12 model, zero cross term
@example(args=(F(-1, 2), F(1), F(0), None), k=2, j=1)  # (H^2) < 0
@example(args=(F(1), F(-3, 4), F(0), None), k=3, j=1)  # -(E^2) < 0
@example(args=(F(2), F(1, 2), F(-1), (F(-3, 2), F(-3))), k=5, j=4)  # (Cbar^2) > 0
@example(args=(F(1), F(1), F(0), (F(-1), F(3))), k=2, j=6)  # H.Cbar < 0
@example(args=(F(1, 7), F(1), F(0), (F(1), F(-1, 2))), k=1, j=5)  # E.Cbar < 0
@example(args=(F(1), F(1), F(0), (F(0), F(1, 3))), k=4, j=9)  # a = 0
@example(args=(F(1), F(3, 4), F(0), None), k=8, j=1)  # irrational isotropic ray
def test_from_cleared_builds_the_model_its_constructor_builds(args, k, j):
    # the constructor on the Fractions, and its core _two_ray_form on (h2, cross, e2) over k times their least
    # common denominator and the curve over j times its own: the same cleared form, in lowest terms, read back
    # as the record's fields, or the refusal of the oracle's Fraction checks from both
    h2, e2, cross, neg = args
    hxe = oracles.cleared_over((h2, cross, e2), k)
    curve = None if neg is None else oracles.cleared_over(neg, j)
    builds = (lambda: TwoRayModel(h2, e2, cross, neg), lambda: _two_ray_form(hxe, curve))
    try:
        oracles.check_two_ray_model(h2, e2, cross, neg)
    except ModelError as exc:
        for build in builds:
            with pytest.raises(ModelError) as got:
                build()
            assert type(got.value) is ModelError and str(got.value) == str(exc)
        return
    model, form = (build() for build in builds)
    assert model._form == form
    (h, x, e), lcd = oracles.cleared_over((h2, cross, e2), 1)
    assert form[:4] == (h, x, e, lcd)
    if neg is not None:
        (a, b), m = oracles.cleared_over(neg, 1)
        assert form[4:] == (a, b, m)
    # the fields are the arguments, and an undeclared curve the isotropic class e H - (r - x) E over m = 1
    assert model == (h2, e2, cross, neg if neg is not None else (F(form[4]), F(form[5])))


_primitive = st.tuples(*[st.integers(-_BIG, _BIG)] * 3).filter(lambda v: math.gcd(*v) == 1)
_generators = st.tuples(_primitive, _primitive, _primitive).filter(lambda g: oracles.det3(g) != 0)
_vectors = st.tuples(rationals, rationals, rationals)


@st.composite
def centroid_conditions(draw):
    """A valid cone with xi0 a positive combination of its generators and eta0* = xi0 x w, and
    a u1 for every verdict: drawn freely (unique-c or no-solution), zero, or in the span of u0
    and eta0* (a dependent system); w = xi0 makes eta0* = 0, and then rank 1 with u1 along u0."""
    gens = draw(_generators)
    lams = draw(st.tuples(positives, positives, positives))
    xi0 = tuple(sum(lam * n[i] for lam, n in zip(lams, gens)) for i in range(3))
    kind = draw(st.sampled_from(("free", "free", "zero", "dependent", "flat")))
    eta = oracles.v3_cross(xi0, xi0 if kind == "flat" else draw(_vectors))
    if kind == "zero":
        u1 = (F(0), F(0), F(0))
    elif kind == "free":
        u1 = draw(_vectors)
    else:
        u0, s, t = oracles.anticanonical_vector(oracles.mat3(gens)), draw(rationals), draw(rationals)
        u1 = tuple(s * u0[i] + t * eta[i] for i in range(3))
    return CentroidCase("drawn", gens, xi0, eta, u1)


def _with_u1(name, u1, eta0star=None):
    case = fixtures.CENTROID_FIXTURES[name].case
    return CentroidCase(name, case.generators, case.xi0, eta0star or case.eta0star, u1)


@_PROPERTY
@given(case=centroid_conditions())
@example(case=fixtures.CENTROID_FIXTURES["centroid-a10-case1"].case)  # unique-c
@example(case=_with_u1("centroid-a10-case1", (F(22), F(50), F(-11)), (F(0), F(0), F(-1))))  # no-solution: b < 0
@example(case=_with_u1("centroid-a11red-case1", (F(0), F(0), F(0))))  # u1 = 0
@example(case=_with_u1("centroid-a11red-case1", (F(21), F(18), F(-3))))  # u1 = 3 u0: rank 2
@example(case=_with_u1("centroid-a11red-case1", (F(7), F(6), F(-1)), (F(0), F(0), F(0))))  # rank 1
def test_centroid_condition_equals_its_reference(case):
    got = solve_centroid_condition(case)
    ref = oracles.solve_centroid_condition(case)
    assert (got.u0, got.u2, got.solution, got.verdict, got.detail) == ref
    for x in (*got.u0, *got.u2, *(got.solution or ())):
        assert type(x) is F
