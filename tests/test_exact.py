from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from kwall.exact import (
    PiecewiseQuadratic,
    Poly,
    SingularSystemError,
    StructuralError,
    DegenerateInputError,
    area_centroid,
    clip,
    integer,
    integrate,
    mat3,
    poly,
    polygon,
    rat,
    solve_linear3,
    rational_sqrt,
)

rng = random.Random(987123)


def rand_rat(lo=-30, hi=30, den=17):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def test_rational_arithmetic_exactness():
    for _ in range(300):
        a, b = rand_rat(), rand_rat()
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


@pytest.mark.parametrize("value,message", [
    (True, "rationals must be 'p/q' strings or integers, got True"),
    (1.5, "rationals must be 'p/q' strings or integers, got 1.5"),
    (None, "expected a rational, got NoneType"),
    ([1, 2], "expected a rational, got list"),
], ids=["bool", "float", "none", "list"])
def test_rat_rejects_bools_floats_and_non_numbers(value, message):
    with pytest.raises(StructuralError) as err:
        rat(value)
    assert str(err.value) == message


def test_rat_accepts_fractions_ints_and_rational_strings():
    assert [rat(F(3, 4)), rat(-2), rat("57/100"), rat("+2"), rat("-3/07")] == [F(3, 4), F(-2), F(57, 100), 2, F(-3, 7)]


@pytest.mark.parametrize("text", ["1_0", "\u0665", " 5", "5\n", "", "+", "0x1f", "2/1", "1" * 5000])
def test_integer_reads_ascii_digits_only(text):
    with pytest.raises(StructuralError, match="^malformed integer"):
        integer(text)


def test_integer_accepts_signed_ascii_digits():
    assert [integer("0"), integer("+7"), integer("-013"), integer("20")] == [0, 7, -13, 20]


def test_rational_sqrt():
    assert rational_sqrt(F(9, 16)) == F(3, 4)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(0)) == 0


def test_poly_eval_and_arith():
    p = poly(1, 0, F(-1, 26))
    assert p(0) == 1
    assert p(5) == F(1, 26)
    q = poly(0, 1)
    assert (p + q)(3) == p(3) + 3
    assert (p * q)(7) == p(7) * 7
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)  # trailing zeros stripped


def test_poly_integral():
    p = poly(0, 0, 3)  # 3t^2
    assert p.integral(0, 2) == 8
    assert p.antiderivative()(1) == 1


A12_PROFILE = PiecewiseQuadratic(
    [0, 5, F(26, 5)],
    [poly(1, 0, F(-1, 26)), poly(26, -10, F(25, 26))],
)


def test_integrate_a12_pieces():
    # 1 - t^2/26 on [0,5], then (26-5t)^2/26 up to 26/5
    assert integrate(A12_PROFILE, 0) == F(17, 5)


def test_integrate_a11red_pieces():
    f = PiecewiseQuadratic([0, 2, 3], [poly(1, 0, F(-1, 6)), poly(3, -2, F(1, 3))])
    assert integrate(f, 0) == F(5, 3)


def test_integrate_zero_function():
    f = PiecewiseQuadratic([0, 1], [Poly([])])
    assert integrate(f, 0) == 0


def test_integrate_from_midpoint():
    f = PiecewiseQuadratic([0, 1], [poly(1)])
    assert integrate(f, F(1, 2)) == F(1, 2)
    with pytest.raises(StructuralError):
        integrate(f, -1)


def test_piecewise_validation():
    with pytest.raises(StructuralError):
        PiecewiseQuadratic([0, 0], [poly(1)])
    with pytest.raises(StructuralError):
        PiecewiseQuadratic([1, 0], [poly(1)])
    with pytest.raises(StructuralError):
        PiecewiseQuadratic([0, 1, 2], [poly(1), poly(2)])  # jump at t = 1


def test_piecewise_eval_conventions():
    assert A12_PROFILE(5) == F(1, 26)
    assert A12_PROFILE(F(26, 5)) == 0
    assert A12_PROFILE(100) == 0
    with pytest.raises(StructuralError):
        A12_PROFILE(-1)


def _random_continuous_piecewise(bps):
    pieces = [Poly([rand_rat() for _ in range(3)])]
    for t in bps[1:-1]:
        nxt = Poly([rand_rat() for _ in range(3)])
        pieces.append(nxt + Poly([pieces[-1](t) - nxt(t)]))
    return PiecewiseQuadratic(bps, pieces)


def test_integrate_linearity_on_matched_grids():
    for _ in range(40):
        bps = sorted({rand_rat(0, 20) for _ in range(4)})
        if len(bps) < 2:
            continue
        f = _random_continuous_piecewise(bps)
        g = _random_continuous_piecewise(bps)
        al, be = rand_rat(), rand_rat()
        combo = PiecewiseQuadratic(
            bps, [al * pf + be * pg for pf, pg in zip(f.pieces, g.pieces)]
        )
        assert integrate(combo, bps[0]) == al * integrate(f, bps[0]) + be * integrate(g, bps[0])


def test_integrate_against_midpoint_refinement():
    # midpoint rule on a quadratic has a provable defect bound:
    # |integral - midpoint sum| <= |coeff2| (b - a) h^2 / 12 per uniform grid
    for _ in range(100):
        bps = [rand_rat(0, 6)]
        for _ in range(rng.randint(1, 3)):
            bps.append(bps[-1] + F(rng.randint(1, 30), rng.randint(1, 7)))
        pieces = [Poly([rand_rat() for _ in range(3)])]
        for t in bps[1:-1]:
            nxt = Poly([rand_rat() for _ in range(3)])
            pieces.append(nxt + Poly([pieces[-1](t) - nxt(t)]))  # glue continuously
        f = PiecewiseQuadratic(bps, pieces)
        total_mid = F(0)
        total_bound = F(0)
        for a, b, piece in zip(bps, bps[1:], pieces):
            m = rng.randint(1, 9)
            h = (b - a) / m
            total_mid += sum(piece(a + h * (k + F(1, 2))) * h for k in range(m))
            total_bound += abs(piece.coeff(2)) * (b - a) * h * h / 12
        assert abs(integrate(f, bps[0]) - total_mid) <= total_bound


UNIT_SQUARE = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_polygon_rejects_pentagram_in_either_orientation():
    star = [(0, 0), (2, 4), (4, 16), (1, 1), (3, 9)]
    for cycle in (star, star[::-1]):
        with pytest.raises(StructuralError, match="wind around"):
            polygon(cycle)


def test_polygon_rejects_spike():
    with pytest.raises(StructuralError, match="turns back"):
        polygon([(0, 0), (4, 0), (2, 0), (4, 4), (0, 4)])


def test_collinear_cycle_is_still_a_segment():
    # a cycle on one line turns back at its ends; that is the segment between
    # its two extreme points, not an error
    for cycle in ([(0, 0), (1, 1), (3, 3), (2, 2)], [(0, 0), (1, 1), (3, 3)], [(3, 3), (0, 0), (2, 2)]):
        seg = polygon(cycle)
        assert seg.kind == "segment" and seg.vertices == ((0, 0), (3, 3)), cycle


def test_polygon_keeps_straight_vertices_out():
    sq = polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
    assert sq.kind == "polygon" and len(sq.vertices) == 4


def test_polygon_drops_a_long_collinear_run():
    # a 2,000-vertex parabola chain closed by a chord through 2,000 more vertices on one line:
    # the chord's vertices go straight on, and only the chain's remain
    n = 2000
    top = n - 1
    chain = [(F(k), F(k * k)) for k in range(n)]
    chord = [(F(top * j, n + 1), F(top * top * j, n + 1)) for j in range(n, 0, -1)]
    p = polygon(chain + chord)
    assert p.kind == "polygon" and len(p.vertices) == n
    assert p.vertices == tuple(chain)


def test_clip_unit_square_half():
    half = clip(UNIT_SQUARE, (1, 0), F(1, 2))
    area, _ = area_centroid(half)
    assert area == F(1, 2)


def test_clip_to_empty():
    assert clip(UNIT_SQUARE, (1, 0), 2).kind == "empty"


def test_clip_to_segment():
    tri = polygon([(0, 0), (1, 0), (0, F(1, 4))])
    cut = clip(tri, (1, 4), 1)
    assert cut.kind == "segment"
    assert set(cut.vertices) == {(F(1), F(0)), (F(0), F(1, 4))}


def test_clip_partitions_area():
    # the two sides of any line partition the polygon area exactly
    for _ in range(60):
        pts = [(rand_rat(0, 8, 5), rand_rat(0, 8, 5)) for _ in range(3)]
        try:
            p = polygon(pts)
        except StructuralError:
            continue
        if p.kind != "polygon":
            continue
        normal = (rand_rat(), rand_rat())
        if normal == (0, 0):
            continue
        offset = rand_rat()
        total, _ = area_centroid(p)
        sides = []
        for n, off in ((normal, offset), ((-normal[0], -normal[1]), -offset)):
            piece = clip(p, n, off)
            sides.append(area_centroid(piece)[0] if piece.kind == "polygon" else F(0))
        assert sides[0] + sides[1] == total


def test_clip_idempotent_and_shrinking():
    for _ in range(60):
        pts = [(rand_rat(0, 8, 5), rand_rat(0, 8, 5)) for _ in range(3)]
        try:
            p = polygon(pts)
        except StructuralError:
            continue
        if p.kind != "polygon":
            continue
        normal = (rand_rat(), rand_rat())
        if normal == (0, 0):
            continue
        offset = rand_rat()
        once = clip(p, normal, offset)
        assert clip(once, normal, offset) == once
        if once.kind == "polygon":
            a0, _ = area_centroid(p)
            a1, _ = area_centroid(once)
            assert a1 <= a0


def test_area_centroid_examples():
    a, c = area_centroid(polygon([(0, 0), (1, 0), (0, 1)]))
    assert (a, c) == (F(1, 2), (F(1, 3), F(1, 3)))
    a, c = area_centroid(UNIT_SQUARE)
    assert (a, c) == (F(1), (F(1, 2), F(1, 2)))
    a, c = area_centroid(polygon([(0, 0), (2, 0), (0, 1)]))
    assert (a, c) == (F(1), (F(2, 3), F(1, 3)))


def test_area_centroid_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        area_centroid(polygon([(0, 0), (1, 1)]))


def test_centroid_translation_and_unimodular_area():
    base = polygon([(0, 0), (3, 0), (1, 2)])
    a0, c0 = area_centroid(base)
    dx, dy = rand_rat(), rand_rat()
    moved = polygon([(x + dx, y + dy) for x, y in base.vertices])
    a1, c1 = area_centroid(moved)
    assert a1 == a0 and c1 == (c0[0] + dx, c0[1] + dy)
    sheared = polygon([(x + 2 * y, y) for x, y in base.vertices])
    a2, _ = area_centroid(sheared)
    assert a2 == a0


def test_solve_linear3_identity():
    m = mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert solve_linear3(m, (F(7), F(6), F(-1))) == (7, 6, -1)


def test_solve_linear3_cone_system():
    m = mat3([[0, 0, -1], [-1, 1, -2], [1, 0, 6]])
    assert solve_linear3(m, (F(1), F(1), F(1))) == (7, 6, -1)


def test_solve_linear3_singular_rank():
    m = mat3([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    with pytest.raises(SingularSystemError) as err:
        solve_linear3(m, (F(0), F(0), F(0)))
    assert err.value.rank == 2
