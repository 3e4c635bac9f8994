from __future__ import annotations

import json
import random
from fractions import Fraction as F

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwall import cli, fixtures
from kwall.exact import PiecewiseQuadratic, poly, polygon
from kwall.volumes import (
    InvalidValuationError,
    ModelError,
    MomentPolygon,
    TwoRayModel,
    s_invariant,
    volume_toric,
    volume_two_ray,
)

rng = random.Random(555321)


def test_a12_profile_pieces():
    vf = fixtures.VOLUME_FIXTURES["a12"]
    prof = volume_two_ray(vf.model, vf.L)
    assert prof == PiecewiseQuadratic(
        [0, 5, F(26, 5)], [poly(1, 0, F(-1, 26)), poly(26, -10, F(25, 26))]
    )
    assert (prof.breakpoints[1], prof.breakpoints[-1]) == (5, F(26, 5))


def test_a11irr_profile_pieces():
    vf = fixtures.VOLUME_FIXTURES["a11irr"]
    prof = volume_two_ray(vf.model, vf.L)
    # ample until 12/5, then the square (5 - 2t)^2 down to 5/2
    assert prof == PiecewiseQuadratic(
        [0, F(12, 5), F(5, 2)], [poly(1, 0, F(-1, 6)), poly(25, -20, 4)]
    )


def test_x26_profile_pieces():
    vf = fixtures.VOLUME_FIXTURES["x26"]
    prof = volume_two_ray(vf.model, vf.L)
    assert prof.breakpoints == (0, F(1, 25), F(26, 25))
    assert prof(0) == F(1, 25)
    assert prof(F(1, 25)) == F(1, 25) - F(25, 26) / 625
    assert prof(1) == F(1, 26) * F(1, 625)


def test_volume_at_zero_is_selfintersection():
    for name, vf in fixtures.VOLUME_FIXTURES.items():
        if vf.model is None:
            continue
        prof = volume_two_ray(vf.model, vf.L)
        cH, cE = vf.L
        assert prof(0) == vf.model.pair((cH, cE), (cH, cE)), name


# (h2, e2, cross, neg_curve) and anti_k of each two-ray fixture, as the model stores them; every L is H
_TWO_RAY_MODELS = {
    "a12": ((1, F(1, 26), 0, (5, 26)), (3, 5)),
    "a11red": ((1, F(1, 6), 0, (2, 6)), (3, 5)),
    "a11irr": ((1, F(1, 6), 0, (2, 5)), (3, 5)),
    "a10": ((1, F(1, 22), 0, (2, 10)), (3, 5)),
    "x26": ((F(1, 25), F(25, 26), 0, (1, F(26, 25))), (15, 25)),
    # no declared curve: the isotropic ray R = 16H - 4E
    "p114-quot": ((F(1, 4), 4, 0, (16, 4)), (6, 10)),
    "p114-w31": ((F(1, 4), F(1, 12), 0, (1, 3)), (6, 10)),
    "p114-w51": ((F(1, 4), F(1, 20), 0, (1, 5)), (6, 10)),
    "p1425-w11": ((F(1, 100), F(1, 4), 0, (1, 1)), (30, 50)),
    "p1425-w13": ((F(1, 100), F(1, 12), 0, (1, 1)), (30, 50)),
    "p1425-w15": ((F(1, 100), F(1, 20), 0, (1, 1)), (30, 50)),
}


def test_two_ray_fixtures_keep_their_models():
    got = {name: vf for name, vf in fixtures.VOLUME_FIXTURES.items() if vf.model is not None}
    assert sorted(got) == sorted(_TWO_RAY_MODELS)
    for name, ((h2, e2, cross, neg_curve), anti_k) in _TWO_RAY_MODELS.items():
        vf = got[name]
        m = vf.model
        assert (m.h2, m.e2, m.cross, m.neg_curve) == (h2, e2, cross, neg_curve), name
        assert (vf.L, vf.surface.anti_k(5)) == ((1, 0), anti_k), name


def test_toric_p114_weights31():
    vf = fixtures.VOLUME_FIXTURES["p114-w31"]
    prof = volume_toric(vf.moment)
    assert prof == PiecewiseQuadratic(
        [0, 1, 3], [poly(F(1, 4), 0, F(-1, 12)), poly(F(3, 8), F(-1, 4), F(1, 24))]
    )


def test_toric_p114_weights51():
    vf = fixtures.VOLUME_FIXTURES["p114-w51"]
    prof = volume_toric(vf.moment)
    assert prof == PiecewiseQuadratic(
        [0, 1, 5], [poly(F(1, 4), 0, F(-1, 20)), poly(F(5, 16), F(-1, 8), F(1, 80))]
    )


def test_toric_volume_at_zero_is_double_area():
    from kwall.exact import area_centroid

    for name, vf in fixtures.VOLUME_FIXTURES.items():
        if vf.moment is None:
            continue
        prof = volume_toric(vf.moment)
        area, _ = area_centroid(vf.moment.polygon)
        assert prof(0) == 2 * area, name


def test_engine_agreement_on_builtin_fixtures():
    for name in ("p114-w31", "p114-w51", "p1425-w11", "p1425-w13", "p1425-w15"):
        vf = fixtures.VOLUME_FIXTURES[name]
        two = volume_two_ray(vf.model, vf.L)
        tor = volume_toric(vf.moment)
        t_max = two.breakpoints[-1]
        assert tor.breakpoints[-1] == t_max, name
        for _ in range(20):
            t = t_max * F(rng.randint(0, 120), 120)
            assert two(t) == tor(t), (name, t)


def test_profile_monotone_on_random_samples():
    for name, vf in fixtures.VOLUME_FIXTURES.items():
        prof = vf.profile
        t_max = prof.breakpoints[-1]
        for _ in range(20):
            t1 = t_max * F(rng.randint(0, 100), 100)
            t2 = t_max * F(rng.randint(0, 100), 100)
            if t1 > t2:
                t1, t2 = t2, t1
            assert prof(t1) >= prof(t2), name


def test_scaling_covariance():
    # L -> lam L with t -> lam t multiplies the volume by lam^2; S(c) is unchanged
    vf = fixtures.VOLUME_FIXTURES["a12"]
    base = volume_two_ray(vf.model, vf.L)
    for _ in range(10):
        lam = F(rng.randint(1, 12), rng.randint(1, 12))
        scaled = volume_two_ray(vf.model, (vf.L[0] * lam, vf.L[1] * lam))
        for _ in range(10):
            t = base.breakpoints[-1] * F(rng.randint(0, 50), 50)
            assert scaled(lam * t) == lam * lam * base(t)
        assert s_invariant(scaled) == lam * s_invariant(base)


def test_valuation_scaling_covariance():
    # w -> lam w rescales the profile horizontally by lam and S0 by lam
    vf = fixtures.VOLUME_FIXTURES["p114-w31"]
    base = volume_toric(vf.moment)
    for lam in (F(2), F(1, 3), F(7, 5)):
        mp = MomentPolygon(vf.moment.polygon, (vf.moment.valuation_direction[0] * lam,
                                               vf.moment.valuation_direction[1] * lam))
        scaled = volume_toric(mp)
        assert scaled.breakpoints[-1] == lam * base.breakpoints[-1]
        for _ in range(10):
            t = base.breakpoints[-1] * F(rng.randint(0, 50), 50)
            assert scaled(lam * t) == base(t)
        assert s_invariant(scaled) == lam * s_invariant(base)


def test_boundary_exactness_at_nef_threshold():
    for name in ("a12", "a11red", "a11irr", "a10", "x26"):
        vf = fixtures.VOLUME_FIXTURES[name]
        prof = volume_two_ray(vf.model, vf.L)
        t_nef = prof.breakpoints[1]
        p_nef, p_pos = prof.pieces
        assert p_nef(t_nef) == p_pos(t_nef), name


def test_model_error_on_positive_square():
    with pytest.raises(ModelError):
        TwoRayModel(F(1), F(1, 26), F(0), (F(5), F(1)))  # (5H - E)^2 > 0


def test_model_error_on_irrational_threshold():
    # with no curve the second ray is the isotropic class, irrational here: x^2 + h e = 2 is not a square
    with pytest.raises(ModelError, match="^field 'neg_curve': pseudoeffective threshold is irrational"):
        TwoRayModel(F(2), F(1), F(0), None)


def test_negcurve_absent_sanity_case():
    vf = fixtures.VOLUME_FIXTURES["p114-quot"]
    # (1/4, 0, 4) clears to (h, x, e) = (1, 0, 16) over k = 4: r = 4 and R = 16H - 4E
    assert vf.model.neg_curve == (16, 4)
    prof = volume_two_ray(vf.model, vf.L)
    assert prof == PiecewiseQuadratic([0, F(1, 4)], [poly(F(1, 4), 0, -4)])
    assert prof.breakpoints[1] == prof.breakpoints[-1] == F(1, 4)


# big polarizations that the engine once refused, as (payload, nef threshold, pieces, S0): on
# h2 = e2 = 1 with Cbar = H - 2E, L = 2H - E is nef with L.Cbar = 0 and L = 3H - 2E meets Cbar
# negatively; on a12, L = E + 3 Cbar has (L^2) < 0; with no curve (Cbar the isotropic class H - E),
# L = 2H + E meets E negatively, so vol(L - tE) stays at (2H)^2 until (L - tE).E = 0
BIG_TWO_RAY = [
    ({"h2": "1", "e2": "1", "neg_curve": ["1", "2"], "L": ["2", "-1"]}, "0",
     ["[0, 3]: 3 + -2 t + 1/3 t^2"], "1"),
    ({"h2": "1", "e2": "1", "neg_curve": ["1", "2"], "L": ["3", "-2"]}, "none (L is not nef)",
     ["[0, 4]: 16/3 + -8/3 t + 1/3 t^2"], "4/3"),
    ({"h2": "1", "e2": "1/26", "neg_curve": ["5", "26"], "L": ["15", "-77"]}, "none (L is not nef)",
     ["[0, 1]: 25/26 + -25/13 t + 25/26 t^2"], "1/3"),
    ({"h2": "1", "e2": "1", "L": ["2", "1"]}, "none (L is not nef)",
     ["[0, 1]: 4 + 0 t + 0 t^2", "[1, 3]: 3 + 2 t + -1 t^2"], "7/3"),
]


@pytest.mark.parametrize("payload,nef,pieces,s0", BIG_TWO_RAY, ids=["on-the-wall", "cbar-negative", "a12-E+3Cbar",
                                                                     "e-negative"])
def test_a_big_two_ray_document_prints_its_profile(tmp_path, capsys, payload, nef, pieces, s0):
    path = tmp_path / "two-ray.json"
    path.write_text(json.dumps({"kind": "two-ray", "payload": {**payload, "anti_k": ["3", "5"]}}), encoding="utf-8")
    assert cli.main(["--json", "volume", "--file", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["nef threshold"], report["pieces"], report["S0"]) == (nef, pieces, s0)
    # the engine, its Fraction reference and Zariski's algorithm at each breakpoint and 20 points between
    h2, e2 = F(payload["h2"]), F(payload["e2"])
    neg = tuple(F(c) for c in payload["neg_curve"]) if "neg_curve" in payload else None
    L = (F(payload["L"][0]), F(payload["L"][1]))
    model = TwoRayModel(h2, e2, F(0), neg)
    profile = volume_two_ray(model, L)
    assert profile == oracles.volume_two_ray(h2, e2, F(0), neg, L)
    for t in {*profile.breakpoints, *oracles.sample_points(profile.breakpoints[-1])}:
        assert profile(t) == oracles.zariski_volume((h2, e2, F(0)), model.neg_curve, (L[0], L[1] - t))


def test_invalid_valuation_direction():
    with pytest.raises(InvalidValuationError):
        MomentPolygon(polygon([(0, 0), (1, 0), (0, 1)]), (F(0), F(0)))


def test_s_invariant_examples():
    assert fixtures.VOLUME_FIXTURES["a12"].s0 == F(17, 5)
    assert fixtures.VOLUME_FIXTURES["x26"].s0 == F(9, 25)
    tent = PiecewiseQuadratic([0, 1], [poly(1, -1)])
    assert s_invariant(tent) == F(1, 2)


@pytest.mark.parametrize("name", sorted(fixtures.VOLUME_FIXTURES))
def test_every_volume_fixture_reproduces_its_annotated_s0(name):
    vf = fixtures.VOLUME_FIXTURES[name]
    assert vf.s0 == vf.expected["S0"]


def test_a_volume_scenario_rejects_a_nonpositive_anti_canonical_scale():
    payload = {"h2": "1", "e2": "1/26", "neg_curve": ["5", "26"], "L": ["1", "0"], "anti_k": ["0", "1"]}
    with pytest.raises(cli.SchemaError, match="^field 'anti_k': anti-canonical scale must be positive at c = 0$"):
        cli.run_scenario("two-ray", payload)


def test_c2_zero_branch():
    # tied-max toric fixture: triangle with two vertices on the top level has a
    # single quadratic piece vanishing with nonzero slope; (Cbar^2) = 0 twin
    tri = polygon([(0, 0), (2, 0), (0, 2)])
    mp = MomentPolygon(tri, (F(1), F(1)))
    tor = volume_toric(mp)
    assert len(tor.pieces) == 1
    h2 = tor(0)
    e = -tor.pieces[0].coeff(2)
    T = tor.breakpoints[-1]
    model = TwoRayModel(h2, e, F(0), (T * e, h2))
    assert model.pair((T * e, -h2), (T * e, -h2)) == 0
    two = volume_two_ray(model, (F(1), F(0)))
    assert two == tor


@st.composite
def convex_polygons(draw, n):
    """n rational points on a parabola arc under a random affine map."""
    ks = sorted(draw(st.lists(st.integers(-70, 70), min_size=n, max_size=n, unique=True)))
    den = draw(st.integers(1, 3))
    small = st.integers(-4, 4)
    a, b, c, d = (draw(small) for _ in range(4))
    if a * d - b * c == 0:
        a, b, c, d = 1, 0, 0, 1
    ox, oy = draw(st.fractions(-5, 5, max_denominator=3)), draw(st.fractions(-5, 5, max_denominator=3))
    pts = [(F(k, den), F(k * k, den * den)) for k in ks]
    return polygon([(a * x + b * y + ox, c * x + d * y + oy) for x, y in pts])


@st.composite
def toric_valuations(draw, n):
    """A random convex n-gon and a nonzero rational direction.  About half the
    directions are normal to a chord, so that two vertices share a level."""
    poly_ = draw(convex_polygons(n))
    if draw(st.booleans()):
        i, j = draw(st.lists(st.sampled_from(range(len(poly_.vertices))), min_size=2, max_size=2, unique=True))
        (x0, y0), (x1, y1) = poly_.vertices[i], poly_.vertices[j]
        scale = draw(st.fractions(-5, 5, max_denominator=5).filter(lambda q: q != 0))
        return poly_, (scale * (y0 - y1), scale * (x1 - x0))
    rational = st.fractions(-7, 7, max_denominator=5)
    return poly_, draw(st.tuples(rational, rational).filter(lambda w: w != (0, 0)))


@pytest.mark.parametrize("n", [3, 4, 7, 16, 33, 64])
@settings(derandomize=True, max_examples=4, deadline=None)
@given(data=st.data())
def test_slice_width_profile_matches_clip_oracle(n, data):
    mp = MomentPolygon(*data.draw(toric_valuations(n)))
    got, ref = volume_toric(mp), oracles.toric_profile(mp)
    assert got == ref
    assert (got.breakpoints[1], got.breakpoints[-1]) == (ref.breakpoints[1], ref.breakpoints[-1])


def test_slice_width_profile_on_a_flat_sided_polygon():
    # edges on both the bottom and the top level: the slices there are whole edges
    square = polygon([(0, 0), (3, 0), (3, 2), (0, 2)])
    for w in ((F(1), F(0)), (F(0), F(-1)), (F(-1), F(0)), (F(2), F(1))):
        mp = MomentPolygon(square, w)
        assert volume_toric(mp) == oracles.toric_profile(mp), w
