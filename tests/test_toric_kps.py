from __future__ import annotations

import math
import random
from fractions import Fraction as F

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwall import fixtures
from kwall.exact import (
    area_centroid,
    mat3_vec,
    v2_add,
    v2_scale,
)
from kwall.toric_kps import (
    CentroidCase,
    ConeError,
    reeb_cross_section_centroid,
    solve_centroid_condition,
)
from kwall.walls import solve_wall

rng = random.Random(777000)


_OCTANT = CentroidCase(
    name="octant",
    generators=((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))),
    xi0=(F(1), F(1), F(1)),
    eta0star=(F(1), F(-1), F(0)),
    u1=(F(0), F(0), F(1)),
)


def test_anticanonical_identity_basis():
    assert solve_centroid_condition(_OCTANT).u0 == (1, 1, 1)
    assert oracles.anticanonical_vector(_OCTANT.generators) == (1, 1, 1)


def test_anticanonical_cone_fixtures():
    for name, u0 in (("centroid-a11red-case1", (7, 6, -1)), ("centroid-a11red-case2", (7, 6, 1))):
        case = fixtures.CENTROID_FIXTURES[name].case
        assert solve_centroid_condition(case).u0 == u0
        assert oracles.anticanonical_vector(case.generators) == u0


def test_anticanonical_degenerate():
    # two opposite primitive generators span a plane: the cone is refused before any u0
    with pytest.raises(ConeError, match="linearly dependent"):
        CentroidCase(
            name="degenerate",
            generators=((F(1), F(0), F(0)), (F(-1), F(0), F(0)), (F(0), F(0), F(1))),
            xi0=(F(1), F(1), F(1)),
            eta0star=(F(1), F(-1), F(0)),
            u1=(F(0), F(0), F(1)),
        )


@pytest.mark.parametrize("first", [(12, -12, -26), (3, -3, F(-13, 2)), (0, 0, 0)])
def test_generators_must_be_primitive_lattice_vectors(first):
    # centroid-a12-case1 with its first generator (6, -6, -13) doubled, halved, or zero
    case = fixtures.CENTROID_FIXTURES["centroid-a12-case1"].case
    with pytest.raises(ConeError, match=r"generators\[0\].*not a primitive integer vector"):
        CentroidCase(
            name="scaled",
            generators=(first,) + case.generators[1:],
            xi0=case.xi0,
            eta0star=case.eta0star,
            u1=case.u1,
        )


def test_octant_centroid_symmetry():
    assert reeb_cross_section_centroid(_OCTANT) == (F(1, 3), F(1, 3), F(1, 3))


def test_a12_case1_centroid_in_printed_basis():
    cf = fixtures.CENTROID_FIXTURES["centroid-a12-case1"]
    u2 = reeb_cross_section_centroid(cf.case)
    assert cf.to_printed(u2) == (F(9), F(1), F(-49, 150))


def test_a10_case1_centroid_in_printed_basis():
    cf = fixtures.CENTROID_FIXTURES["centroid-a10-case1"]
    u2 = reeb_cross_section_centroid(cf.case)
    assert cf.to_printed(u2) == (F(94, 300), F(1), F(-49, 300))


def test_solutions_match_annotations():
    for name, cf in fixtures.CENTROID_FIXTURES.items():
        verdict = solve_centroid_condition(cf.case)
        assert verdict.verdict == "unique-c", name
        a, c, b = verdict.solution
        exp = cf.expected
        assert (a, c, b) == (exp["a"], exp["c"], exp["b"]), name
        assert a > 0 and b > 0


def test_q_independence_at_each_wall():
    pairs = [
        ("centroid-a12-case1", "centroid-a12-case2"),
        ("centroid-a11red-case1", "centroid-a11red-case2"),
        ("centroid-a11irr-case1", "centroid-a11irr-case2"),
        ("centroid-a10-case1", "centroid-a10-case2"),
    ]
    for one, two in pairs:
        c1 = solve_centroid_condition(fixtures.CENTROID_FIXTURES[one].case).solution[1]
        c2 = solve_centroid_condition(fixtures.CENTROID_FIXTURES[two].case).solution[1]
        assert c1 == c2, (one, two)


def test_cross_module_consistency_with_valuative_walls():
    for name, cf in fixtures.CENTROID_FIXTURES.items():
        c = solve_centroid_condition(cf.case).solution[1]
        assert c == solve_wall(fixtures.wall_case(cf.twin)).wall, name


def _subdivision_centroid(poly, depth: int = 4):
    """Independent centroid: fan-triangulate, split each triangle into depth^2
    equal-area cells, and average the cell centroids weighted by fan areas."""
    verts = poly.vertices
    total_w = F(0)
    acc = (F(0), F(0))
    for k in range(1, len(verts) - 1):
        tri = (verts[0], verts[k], verts[k + 1])
        e1 = oracles.v2_sub(tri[1], tri[0])
        e2 = oracles.v2_sub(tri[2], tri[0])
        tri_area2 = e1[0] * e2[1] - e1[1] * e2[0]
        cell_w = tri_area2 / (depth * depth)
        for i in range(depth):
            for j in range(depth - i):
                corner = v2_add(tri[0], v2_add(v2_scale(F(i, depth), e1), v2_scale(F(j, depth), e2)))
                up = (
                    corner,
                    v2_add(corner, v2_scale(F(1, depth), e1)),
                    v2_add(corner, v2_scale(F(1, depth), e2)),
                )
                cen = v2_scale(F(1, 3), v2_add(up[0], v2_add(up[1], up[2])))
                acc = v2_add(acc, v2_scale(cell_w, cen))
                total_w += cell_w
                if i + j < depth - 1:
                    down = (
                        v2_add(corner, v2_scale(F(1, depth), e1)),
                        v2_add(corner, v2_scale(F(1, depth), v2_add(e1, e2))),
                        v2_add(corner, v2_scale(F(1, depth), e2)),
                    )
                    cen = v2_scale(F(1, 3), v2_add(down[0], v2_add(down[1], down[2])))
                    acc = v2_add(acc, v2_scale(cell_w, cen))
                    total_w += cell_w
    return v2_scale(1 / total_w, acc)


def test_centroid_against_subdivision_oracle():
    for name in ("centroid-a12-case1", "centroid-a10-case1", "centroid-a11irr-case2"):
        cf = fixtures.CENTROID_FIXTURES[name]
        poly, _ = oracles.cross_section(cf.case)
        _, closed_form = area_centroid(poly)
        assert _subdivision_centroid(poly) == closed_form, name


def _unimodular(shears, perm, signs):
    m = oracles.mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for (i, j), k in shears:
        shear = [[int(r == c) for c in range(3)] for r in range(3)]
        shear[i][j] = k
        m = oracles.mat3_mul(m, oracles.mat3(shear))
    return oracles.mat3_mul(m, oracles.mat3([[signs[r] if perm[r] == c else 0 for c in range(3)] for r in range(3)]))


_OFF_DIAGONAL = [(i, j) for i in range(3) for j in range(3) if i != j]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(fixtures.CENTROID_FIXTURES)),
    shears=st.lists(st.tuples(st.sampled_from(_OFF_DIAGONAL), st.integers(-3, 3)), max_size=6),
    perm=st.permutations([0, 1, 2]),
    signs=st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3),
)
def test_ray_average_centroid_matches_plane_basis_oracle(name, shears, perm, signs):
    # shears=[], perm=identity, signs=+1 is the fixture itself
    case = fixtures.CENTROID_FIXTURES[name].case
    g = _unimodular(shears, perm, signs)
    ginv_t = oracles.mat3_transpose(oracles.mat3_inverse(g))
    moved = CentroidCase(
        name=case.name + "-moved",
        generators=tuple(mat3_vec(g, n) for n in case.generators),
        xi0=mat3_vec(g, case.xi0),
        eta0star=mat3_vec(ginv_t, case.eta0star),
        u1=mat3_vec(ginv_t, case.u1),
    )
    poly, oracle_u2 = oracles.cross_section(moved)
    assert reeb_cross_section_centroid(moved) == oracle_u2
    assert poly.kind == "polygon" and len(poly.vertices) == 3
    assert solve_centroid_condition(moved).u0 == oracles.anticanonical_vector(moved.generators)


def test_ray_average_centroid_matches_oracle_on_every_fixture():
    for name, cf in fixtures.CENTROID_FIXTURES.items():
        assert reeb_cross_section_centroid(cf.case) == oracles.cross_section(cf.case)[1], name


_coord = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_vec = st.tuples(_coord, _coord, _coord)
_icoord = st.integers(-4, 4)
_primitive = st.tuples(_icoord, _icoord, _icoord).filter(lambda v: math.gcd(*v) == 1).map(
    lambda v: tuple(map(F, v))
)
_generators = st.tuples(_primitive, _primitive, _primitive).filter(lambda g: oracles.det3(g) != 0)
_positive = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)


def _combination(lams, gens):
    return tuple(sum(lam * n[i] for lam, n in zip(lams, gens)) for i in range(3))


@st.composite
def centroid_cases(draw):
    """A valid CentroidCase off the fixtures: independent primitive integer generators, xi0
    a positive combination of them, eta0* = xi0 x w orthogonal to it, and a free u1."""
    gens = draw(_generators)
    xi0 = _combination(draw(st.tuples(_positive, _positive, _positive)), gens)
    return CentroidCase(
        name="drawn",
        generators=gens,
        xi0=xi0,
        eta0star=oracles.v3_cross(xi0, draw(_vec)),
        u1=draw(_vec),
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=centroid_cases())
def test_centroid_of_a_drawn_cone_matches_the_plane_basis_oracle(case):
    # the oracle cuts the cross-section out of the Reeb plane and clips it by every halfplane,
    # and raises where the library's construction of a validated case could not go wrong
    u2 = reeb_cross_section_centroid(case)
    assert u2 == oracles.cross_section(case)[1]
    assert oracles.v3_dot(u2, case.xi0) == 1
    verdict = solve_centroid_condition(case)
    assert verdict.u0 == oracles.anticanonical_vector(case.generators)
    if verdict.verdict == "unique-c":
        # the decomposition u2 = a (u0 - c u1) + b eta0* the solve reports
        a, c, b = verdict.solution
        m = oracles.mat3([[verdict.u0[i], -case.u1[i], case.eta0star[i]] for i in range(3)])
        assert mat3_vec(m, (a, c * a, b)) == u2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    gens=_generators,
    lams=st.tuples(_positive, _positive, _positive),
    k=st.integers(0, 2),
    off=st.fractions(min_value=-4, max_value=0, max_denominator=4),
    w=_vec,
)
def test_reeb_vector_on_or_outside_the_boundary_is_refused(gens, lams, k, off, w):
    # lambda_k = 0 puts xi0 on a facet of the cone, lambda_k < 0 outside it
    lams = lams[:k] + (off,) + lams[k + 1:]
    xi0 = _combination(lams, gens)
    with pytest.raises(ConeError, match="interior of the cone"):
        CentroidCase(name="off", generators=gens, xi0=xi0, eta0star=oracles.v3_cross(xi0, w), u1=w)


def test_sign_soundness_negating_u1():
    cf = fixtures.CENTROID_FIXTURES["centroid-a12-case1"]
    base = solve_centroid_condition(cf.case)
    flipped = CentroidCase(
        name="flipped",
        generators=cf.case.generators,
        xi0=cf.case.xi0,
        eta0star=cf.case.eta0star,
        u1=tuple(-x for x in cf.case.u1),
    )
    res = solve_centroid_condition(flipped)
    assert res.solution[1] == -base.solution[1]
    assert res.solution[0] == base.solution[0] and res.solution[2] == base.solution[2]


def test_u1_zero_is_indeterminate():
    cf = fixtures.CENTROID_FIXTURES["centroid-a11red-case1"]
    case = CentroidCase(
        name="u1-zero",
        generators=cf.case.generators,
        xi0=cf.case.xi0,
        eta0star=cf.case.eta0star,
        u1=(F(0), F(0), F(0)),
    )
    res = solve_centroid_condition(case)
    assert res.verdict == "indeterminate"
    assert "never enters" in res.detail


def test_u1_parallel_to_u0_is_indeterminate():
    cf = fixtures.CENTROID_FIXTURES["centroid-a11red-case1"]
    u0 = solve_centroid_condition(cf.case).u0
    case = CentroidCase(
        name="u1-parallel",
        generators=cf.case.generators,
        xi0=cf.case.xi0,
        eta0star=cf.case.eta0star,
        u1=tuple(3 * x for x in u0),
    )
    res = solve_centroid_condition(case)
    assert res.verdict == "indeterminate"
    assert "rank" in res.detail


def test_reeb_vector_must_be_interior():
    with pytest.raises(ConeError):
        CentroidCase(
            name="boundary",
            generators=((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))),
            xi0=(F(1), F(1), F(0)),
            eta0star=(F(0), F(0), F(1)),
            u1=(F(1), F(0), F(0)),
        )


def test_dependent_generators_rejected():
    with pytest.raises(ConeError):
        CentroidCase(
            name="flat",
            generators=((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(1), F(1), F(0))),
            xi0=(F(1), F(1), F(0)),
            eta0star=(F(0), F(0), F(1)),
            u1=(F(1), F(0), F(0)),
        )
