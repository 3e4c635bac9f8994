from __future__ import annotations

import math
import random
from fractions import Fraction as F

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kwall import fixtures
from kwall.exact import (
    _cleared,
    _fractions,
    area_centroid,
    vec3,
)
from kwall.toric_kps import (
    CentroidCase,
    ConeError,
    _cone_form,
    _solve_cone_form,
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


_RATIONAL_OCTANT = dict(
    name="rational-octant",
    generators=((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))),
    xi0=(F(1, 2), F(1, 3), F(1)),
    eta0star=(F(2, 3), F(-1), F(0)),
    u1=(F(0), F(-5, 4), F(7, 6)),
)


@pytest.mark.parametrize("fields", [
    *(cf.case._asdict() for cf in fixtures.CENTROID_FIXTURES.values()), _OCTANT._asdict(), _RATIONAL_OCTANT,
], ids=lambda fields: fields["name"])
def test_both_entry_points_build_the_same_case(fields):
    # the constructor, given the fields or each vector cleared and read back as Fractions, builds one record
    # that keeps Fraction fields; _cone_form on the cleared vectors builds that record's form
    cleared = [_cleared(vec3(*v)) for v in (*fields["generators"], fields["xi0"], fields["eta0star"], fields["u1"])]
    want = CentroidCase(**fields)
    gens, (xi0, eta0star, u1) = [_fractions(*c) for c in cleared[:3]], [_fractions(*c) for c in cleared[3:]]
    got = CentroidCase(fields["name"], gens, xi0, eta0star, u1)
    assert got == want and got._form == want._form == _cone_form(*cleared) and repr(got) == repr(want)
    assert all(type(x) is F for v in (*got.generators, got.xi0, got.eta0star, got.u1) for x in v)
    assert solve_centroid_condition(got) == solve_centroid_condition(want)


_OCTANT_GENERATORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# one cone of each invalid class, and the one error line the constructor and the form function give it
_INVALID_CONES = {
    "non-integer generator": (
        dict(generators=((1, 0, 0), (F(1, 2), 1, 0), (0, 0, 1)), xi0=(1, 1, 1), eta0star=(1, -1, 0)),
        "field 'generators[1]': (1/2, 1, 0) is not a primitive integer vector",
    ),
    "non-primitive generator": (
        dict(generators=((1, 0, 0), (0, 2, 0), (0, 0, 1)), xi0=(1, 1, 1), eta0star=(1, -1, 0)),
        "field 'generators[1]': (0, 2, 0) is not a primitive integer vector",
    ),
    "dependent generators": (
        dict(generators=((1, 0, 0), (0, 1, 0), (1, 1, 0)), xi0=(1, 1, 0), eta0star=(0, 0, 1)),
        "field 'generators': cone generators are linearly dependent",
    ),
    "xi0 outside the cone": (
        dict(generators=_OCTANT_GENERATORS, xi0=(1, -1, 1), eta0star=(1, 1, 0)),
        "field 'xi0': Reeb vector must lie in the interior of the cone",
    ),
    "eta0* not orthogonal to xi0": (
        dict(generators=_OCTANT_GENERATORS, xi0=(1, 1, 1), eta0star=(1, 0, 0)),
        "field 'eta0star': eta0* must pair to zero with the Reeb vector",
    ),
}


@pytest.mark.parametrize("fields, message", _INVALID_CONES.values(), ids=_INVALID_CONES)
def test_both_entry_points_refuse_each_invalid_cone_alike(fields, message):
    fields = dict(fields, name="bad", u1=(0, 0, 1))
    cleared = [_cleared(vec3(*v)) for v in (*fields["generators"], fields["xi0"], fields["eta0star"], fields["u1"])]
    for build in (lambda: CentroidCase(**fields), lambda: _cone_form(*cleared)):
        with pytest.raises(ConeError) as exc:
            build()
        assert type(exc.value) is ConeError and str(exc.value) == message


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
    add, scale = oracles.v2_add, oracles.v2_scale
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
                corner = add(tri[0], add(scale(F(i, depth), e1), scale(F(j, depth), e2)))
                up = (
                    corner,
                    add(corner, scale(F(1, depth), e1)),
                    add(corner, scale(F(1, depth), e2)),
                )
                cen = scale(F(1, 3), add(up[0], add(up[1], up[2])))
                acc = add(acc, scale(cell_w, cen))
                total_w += cell_w
                if i + j < depth - 1:
                    down = (
                        add(corner, scale(F(1, depth), e1)),
                        add(corner, scale(F(1, depth), add(e1, e2))),
                        add(corner, scale(F(1, depth), e2)),
                    )
                    cen = scale(F(1, 3), add(down[0], add(down[1], down[2])))
                    acc = add(acc, scale(cell_w, cen))
                    total_w += cell_w
    return scale(1 / total_w, acc)


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
        generators=tuple(oracles.mat3_vec(g, n) for n in case.generators),
        xi0=oracles.mat3_vec(g, case.xi0),
        eta0star=oracles.mat3_vec(ginv_t, case.eta0star),
        u1=oracles.mat3_vec(ginv_t, case.u1),
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
        assert oracles.mat3_vec(m, (a, c * a, b)) == u2


@st.composite
def cone_fields(draw):
    """The fields of a cone, valid (half of the draws) or broken in one of the ways a cone is refused: a
    generator divided or multiplied by 2..4 (or zeroed), one generator a combination of the other two, xi0
    with a coefficient <= 0 on a generator, or eta0* off the plane orthogonal to xi0.  u1 is free, zero, or
    a combination of u0 and eta0*, which leaves the coefficient undetermined."""
    kind = draw(st.one_of(st.just("valid"), st.sampled_from(tuple(_INVALID_CONES))))
    gens, i = list(draw(_generators)), draw(st.integers(0, 2))
    lams = list(draw(st.tuples(_positive, _positive, _positive)))
    if kind == "non-integer generator":
        gens[i] = tuple(x / draw(st.integers(2, 4)) for x in gens[i])
    elif kind == "non-primitive generator":
        gens[i] = tuple(x * draw(st.integers(0, 4).filter(lambda m: m != 1)) for x in gens[i])
    elif kind == "dependent generators":
        v = _combination((draw(_icoord), draw(_icoord)), (gens[i - 1], gens[i - 2]))
        g = math.gcd(*(x.numerator for x in v))
        gens[i] = tuple(x / g for x in v) if g else v
    elif kind == "xi0 outside the cone":
        lams[i] = draw(st.fractions(min_value=-4, max_value=0, max_denominator=4))
    xi0 = _combination(lams, gens)
    eta0star = oracles.v3_cross(xi0, draw(_vec))
    if kind == "eta0* not orthogonal to xi0":
        eta0star = oracles.v3_add(eta0star, oracles.v3_scale(draw(_positive), xi0))
    u1 = draw(st.sampled_from(("free", "zero", "dependent")))
    if u1 == "free":
        u1 = draw(_vec)
    elif u1 == "zero":
        u1 = (F(0), F(0), F(0))
    else:
        u0 = oracles.anticanonical_vector(gens) if oracles.det3(gens) != 0 else gens[0]
        u1 = oracles.v3_add(oracles.v3_scale(draw(_coord), u0), oracles.v3_scale(draw(_coord), eta0star))
    return dict(generators=tuple(gens), xi0=xi0, eta0star=eta0star, u1=u1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fields=cone_fields())
@example(fields=dict(_OCTANT._asdict(), name=None))
@example(fields=dict(_RATIONAL_OCTANT, name=None))
@example(fields=dict(_INVALID_CONES["non-integer generator"][0], u1=(0, 0, 1)))
@example(fields=dict(_INVALID_CONES["non-primitive generator"][0], u1=(0, 0, 1)))
@example(fields=dict(_INVALID_CONES["dependent generators"][0], u1=(0, 0, 1)))
@example(fields=dict(_INVALID_CONES["xi0 outside the cone"][0], u1=(0, 0, 1)))
@example(fields=dict(_INVALID_CONES["eta0* not orthogonal to xi0"][0], u1=(0, 0, 1)))
def test_the_cone_form_and_its_solve_are_the_records(fields):
    # the check and the solve that criterion 11 runs on a bare form: the record's form, and the verdict of the
    # record's solve and of the Fraction oracle; or the refusal of the record and of the Fraction checks
    fields = dict(fields, name="drawn")
    cleared = [_cleared(vec3(*v)) for v in (*fields["generators"], fields["xi0"], fields["eta0star"], fields["u1"])]
    try:
        oracles.check_cone(fields["generators"], fields["xi0"], fields["eta0star"])
    except ConeError as exc:
        for build in (lambda: CentroidCase(**fields), lambda: _cone_form(*cleared)):
            with pytest.raises(ConeError) as got:
                build()
            assert type(got.value) is ConeError and str(got.value) == str(exc)
        return
    case, form = CentroidCase(**fields), _cone_form(*cleared)
    assert form == case._form
    u0, u2, solution, verdict, detail = oracles.solve_centroid_condition(case)
    assert oracles.solution_fractions(_solve_cone_form(form)) == (verdict, solution, detail)
    assert solve_centroid_condition(case) == (u0, u2, solution, verdict, detail)


@pytest.mark.parametrize("name", sorted(fixtures.CENTROID_FIXTURES))
def test_each_centroid_fixture_solves_alike_on_its_form(name):
    case = fixtures.CENTROID_FIXTURES[name].case
    assert _cone_form(*(_cleared(v) for v in (*case.generators, case.xi0, case.eta0star, case.u1))) == case._form
    u0, u2, solution, verdict, detail = solve_centroid_condition(case)
    assert oracles.solution_fractions(_solve_cone_form(case._form)) == (verdict, solution, detail)
    assert oracles.solve_centroid_condition(case) == (u0, u2, solution, verdict, detail)


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
