"""The integer kernels of kwall.exact, and the S-invariant built on its
integral, against their Fraction references in tests/oracles.py: equal values,
each returned as a reduced Fraction, or the same error with the same message."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kwall.exact import (
    PiecewiseQuadratic,
    Poly,
    SingularSystemError,
    StructuralError,
    area_centroid,
    integrate,
    mat3_vec,
    polygon,
    solve_linear3,
)
from kwall.volumes import s_invariant

_BIG = 10**6
# rationals with denominators up to 10^6 and both signs, integer-valued Fractions and plain ints
scalars = st.one_of(
    st.fractions(min_value=-_BIG, max_value=_BIG, max_denominator=_BIG),
    st.integers(-_BIG, _BIG).map(F),
    st.integers(-_BIG, _BIG),
)
vec3s = st.tuples(scalars, scalars, scalars)
mat3s = st.tuples(vec3s, vec3s, vec3s)


@st.composite
def singular_mat3s(draw):
    """Three rows in the span of at most two drawn vectors, in a drawn order."""
    basis = draw(st.lists(vec3s, max_size=2))
    rows = []
    for _ in range(3):
        coeffs = draw(st.tuples(scalars, scalars))
        rows.append(tuple(sum((k * b[i] for k, b in zip(coeffs, basis)), 0) for i in range(3)))
    return tuple(draw(st.permutations(rows)))


def _as_fractions(x):
    """The reference kernels divide plain ints as floats: hand them Fractions."""
    return tuple(_as_fractions(e) for e in x) if isinstance(x, tuple) else F(x)


def _same(got, ref):
    if isinstance(ref, tuple):
        assert type(got) is tuple and len(got) == len(ref)
        for g, r in zip(got, ref):
            _same(g, r)
    else:
        assert type(got) is F and got == ref


_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@_PROPERTY
@given(m=mat3s, v=vec3s)
def test_mat3_vec_equals_its_reference(m, v):
    _same(mat3_vec(m, v), oracles.mat3_vec(_as_fractions(m), _as_fractions(v)))


@_PROPERTY
@given(m=mat3s, rhs=vec3s)
def test_solve_linear3_equals_its_reference(m, rhs):
    fm, frhs = _as_fractions(m), _as_fractions(rhs)
    if oracles.det3(fm) == 0:
        return  # the singular branch has its own test
    _same(solve_linear3(m, rhs), oracles.solve_linear3(fm, frhs))


@_PROPERTY
@given(m=singular_mat3s(), rhs=vec3s)
@example(m=((0, 0, 0), (0, 0, 0), (0, 0, 0)), rhs=(1, F(-2, 3), 0))  # rank 0
@example(m=((0, 0, 0), (F(1, 2), -3, F(7, 999983)), (0, 0, 0)), rhs=(0, 0, 0))  # rank 1, one nonzero row
@example(m=((2, -6, F(14, 999983)), (F(-1, 4), F(3, 4), F(-7, 3999932)), (0, 0, 0)), rhs=(5, 1, 1))  # rank 1
def test_singular_systems_raise_with_the_reference_rank(m, rhs):
    with pytest.raises(SingularSystemError) as ref:
        oracles.solve_linear3(_as_fractions(m), _as_fractions(rhs))
    assert ref.value.rank <= 2
    with pytest.raises(SingularSystemError) as err:
        solve_linear3(m, rhs)
    assert err.value.rank == ref.value.rank


def test_rank_of_an_integer_matrix_is_exact():
    # rows 0 and 1 are proportional (49 = 735/15); float elimination leaves a residue and reads rank 3
    m = ((735, 1715, -2401), (15, 35, -49), (13, -21, 4))
    assert oracles.mat3_rank(m) == 2
    with pytest.raises(SingularSystemError) as err:
        solve_linear3(m, (1, 2, 3))
    assert err.value.rank == 2


@_PROPERTY
@given(coeffs=st.lists(scalars, max_size=6), t=scalars)
@example(coeffs=[], t=F(-3, 7))
@example(coeffs=[0, 0], t=5)
@example(coeffs=[F(1, 2), -3, F(7, 999983)], t=0)
@example(coeffs=[F(1, 2), -3, F(7, 999983)], t=F(-5, 3))
def test_poly_call_equals_its_reference(coeffs, t):
    p = Poly(coeffs)
    _same(p(t), oracles.poly_eval(p, F(t)))


coeff_lists = st.lists(scalars, max_size=5)


@_PROPERTY
@given(a=coeff_lists, b=coeff_lists, s=scalars, t=scalars)
@example(a=[], b=[], s=0, t=0)
@example(a=[F(1, 2), -3, F(7, 999983)], b=[F(1, 2), -3, F(7, 999983)], s=F(-5, 3), t=0)
@example(a=[F(1, 2), -3, F(7, 999983)], b=[F(-1, 2), 3, F(-7, 999983)], s=1, t=F(-5, 3))
def test_every_constructor_path_keeps_the_cleared_form(a, b, s, t):
    # a Poly evaluates from its cleared integer form; the reference reads its Fraction coefficients
    p, q = Poly(a), Poly(b)
    for r in (p, oracles.poly_add(p, q), oracles.poly_sub(p, q), oracles.poly_mul(p, q), oracles.poly_mul(p, s),
              oracles.poly_antiderivative(p)):
        _same(r(t), oracles.poly_eval(r, F(t)))


def _form(p):
    return p._nums, p._den


def test_from_cleared_is_canonical():
    assert Poly.from_cleared([6, 4, 0], 12) == Poly([F(1, 2), F(1, 3)])
    assert _form(Poly.from_cleared([6, 4, 0], 12)) == ((3, 2), 6)  # content and trailing zero gone
    assert Poly.from_cleared([-3], -6) == Poly([F(1, 2)])
    assert _form(Poly.from_cleared([-3], -6)) == ((1,), 2)  # positive denominator
    for zero in (Poly([]), Poly([0, F(0, 5)]), Poly.from_cleared([], 1), Poly.from_cleared([0, 0], -7)):
        assert _form(zero) == ((), 1)
        assert zero.coeffs == ()


numerator_lists = st.lists(st.integers(-_BIG, _BIG), max_size=5)
denominators = st.integers(-_BIG, _BIG).filter(bool)
factors = st.integers(1, _BIG)


def _stripped(nums, den):
    """The coefficients nums[i] / den as Fractions, trailing zeros stripped."""
    cs = [F(n, den) for n in nums]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@_PROPERTY
@given(nums=numerator_lists, den=denominators, k=factors, other=numerator_lists, other_den=denominators)
@example(nums=[], den=-1, k=7, other=[0, 0], other_den=3)  # two zero polynomials
@example(nums=[2, -4, 0], den=6, k=1, other=[-1, 2], other_den=-3)  # equal after sign and content
@example(nums=[2, -4], den=6, k=5, other=[1, -2, 1], other_den=3)  # one more coefficient
def test_from_cleared_is_the_form_of_its_fractions(nums, den, k, other, other_den):
    # a common factor k and the sign of den change nothing: the form is that of Poly of the Fractions
    p = Poly.from_cleared([n * k for n in nums], den * k)
    ref = Poly([F(n, den) for n in nums])
    assert _form(p) == _form(ref) and p == ref
    assert p.coeffs == ref.coeffs == _stripped(nums, den)
    assert p._den > 0 and math.gcd(p._den, *p._nums) == 1 and (not p._nums or p._nums[-1] != 0)
    q = Poly.from_cleared(other, other_den)
    assert (p == q) == (_stripped(nums, den) == _stripped(other, other_den))


@st.composite
def piecewise_and_points(draw):
    """Pieces base + i (t - b_i)(t - b_(i+1)) agree at every breakpoint and differ inside;
    t is drawn freely, on a breakpoint, or below one by less than 1/D, where D is the
    breakpoints' common denominator (so t D sits just under an integer)."""
    bps = sorted({F(x) for x in draw(st.lists(scalars, min_size=1, max_size=6))})
    base = Poly(draw(st.lists(scalars, max_size=3)))
    pieces = [oracles.poly_add(base, oracles.poly_mul(Poly([a * b, -(a + b), 1]), i))
              for i, (a, b) in enumerate(zip(bps, bps[1:]))]
    den = math.lcm(*(b.denominator for b in bps))
    t = draw(st.one_of(
        scalars,
        st.sampled_from(bps),
        st.builds(lambda b, k: b - F(1, k * den), st.sampled_from(bps), st.integers(2, 9)),
    ))
    return PiecewiseQuadratic(bps, pieces), t


@_PROPERTY
@given(case=piecewise_and_points())
def test_piecewise_call_equals_its_reference(case):
    f, t = case
    if t < f.breakpoints[0]:
        return  # below the domain, where no caller evaluates: only the reference refuses
    _same(f(t), oracles.piecewise_eval(f, t))


@st.composite
def profiles(draw, start=None):
    """Up to five pieces of up to four coefficients (the zero polynomial among them) on drawn
    breakpoints, from ``start`` when given; a single breakpoint makes a profile with no piece."""
    bps = {F(x) for x in draw(st.lists(scalars, min_size=1, max_size=6))}
    if start is not None:
        bps = {start} | {start + abs(b) for b in bps}
    bps = sorted(bps)
    return PiecewiseQuadratic(bps, [Poly(draw(st.lists(scalars, max_size=4))) for _ in bps[1:]])


@_PROPERTY
@given(f=profiles())
@example(f=PiecewiseQuadratic([F(-7, 3)], []))  # one breakpoint, no piece
@example(f=PiecewiseQuadratic([F(-1, 999983), 0, F(5, 2)], [Poly([]), Poly([0, 0])]))  # zero pieces
@example(f=PiecewiseQuadratic([F(1, 2), F(3, 4)], [Poly([F(-5, 999983), 7, F(1, 3), -2])]))  # a cubic
def test_integrate_equals_its_reference(f):
    _same(integrate(f), oracles.integrate(f))


@_PROPERTY
@given(f=profiles(start=F(0)))
@example(f=PiecewiseQuadratic([0], []))  # vol(L) = 0: both divide by zero
@example(f=PiecewiseQuadratic([0, F(1, 999983)], [Poly([F(-3, 2), 0, 7])]))
def test_s_invariant_equals_its_reference(f):
    got = _same_or_same_error(lambda: s_invariant(f), lambda: oracles.s_invariant(f), ZeroDivisionError)
    assert got is None or type(got) is F


@st.composite
def vertex_cycles(draw):
    """Vertex cycles under a random rational affine map, singular at times (then a
    cycle collapses onto a line).  Points on a small integer grid give repeated
    points, collinear runs, spikes, segments, single points and reflex or crossing
    cycles; points on a parabola arc give convex cycles, decorated with edge
    midpoints (collinear runs), repeats and at most one spike (a point past the
    next vertex on the same line), or taken in steps of two (a pentagram when the
    count is odd)."""
    if draw(st.integers(0, 2)) == 0:
        grid = st.integers(-3, 3)
        pts = [(F(x), F(y)) for x, y in draw(st.lists(st.tuples(grid, grid), max_size=7))]
    else:
        arc = [(F(x), F(x * x)) for x in sorted(draw(st.sets(st.integers(-20, 20), min_size=3, max_size=9)))]
        n = len(arc)
        if draw(st.booleans()):
            arc = [arc[2 * i % n] for i in range(n)]
        spike = draw(st.integers(0, 4 * n - 1))  # an edge index a quarter of the time
        pts = []
        for i, ((px, py), (qx, qy)) in enumerate(zip(arc, arc[1:] + arc[:1])):
            pts.append((px, py))
            extra = draw(st.sampled_from(("none", "none", "none", "midpoint", "repeat")))
            if extra == "midpoint":
                pts.append(((px + qx) / 2, (py + qy) / 2))
            elif extra == "repeat":
                pts.append((px, py))
            if i == spike:
                pts.append((2 * qx - px, 2 * qy - py))
        shift = draw(st.integers(0, len(pts) - 1))
        pts = pts[shift:] + pts[:shift]
        if draw(st.booleans()):
            pts.reverse()
        if draw(st.booleans()):
            pts.append(pts[0])  # the cycle closed by repeating its first point
    a, b, c, d = draw(st.tuples(*[st.integers(-3, 3)] * 4))
    if a * d == b * c and draw(st.integers(0, 3)):
        a, b, c, d = 1, 0, 0, 1  # keep a quarter of the singular maps
    scale = draw(st.fractions(min_value=-_BIG, max_value=_BIG, max_denominator=_BIG).filter(bool))
    ox, oy = draw(st.tuples(scalars, scalars))
    return [(scale * (a * x + b * y) + ox, scale * (c * x + d * y) + oy) for x, y in pts]


def _same_or_same_error(run, reference, error):
    """run() equals reference(), or both raise error with one message."""
    try:
        ref = reference()
    except error as exc:
        with pytest.raises(error) as got:
            run()
        assert str(got.value) == str(exc)
        return None
    got = run()
    assert got == ref
    return got


@_PROPERTY
@given(cycle=vertex_cycles())
@example(cycle=[])
@example(cycle=[(F(1, 3), 2), (F(1, 3), 2)])
@example(cycle=[(0, 0), (1, 1), (3, 3), (2, 2)])
@example(cycle=[(0, 0), (4, 0), (2, 0), (4, 4), (0, 4)])
@example(cycle=[(0, 0), (2, 4), (4, 16), (1, 1), (3, 9)])
@example(cycle=[(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (0, 0)])
@example(cycle=[(0, 0), (2, 0), (2, 2), (1, 1), (0, 2)])
def test_polygon_equals_its_reference(cycle):
    got = _same_or_same_error(lambda: polygon(cycle), lambda: oracles.polygon(cycle), StructuralError)
    if got is not None:
        assert all(type(c) is F for v in got.vertices for c in v)


@_PROPERTY
@given(cycle=vertex_cycles())
@example(cycle=[(0, 0), (1, 0), (0, 1)])
@example(cycle=[(0, 0), (F(-1, 999983), F(1, 7)), (F(5, 3), F(-2, 999979))])
def test_area_centroid_equals_its_reference(cycle):
    try:
        p = polygon(cycle)
    except StructuralError:
        return  # polygon has its own test
    if p.is_degenerate:
        return  # the gate hands area_centroid non-degenerate polygons only: only the reference refuses
    area, (cx, cy) = got = area_centroid(p)
    assert got == oracles.area_centroid(p)
    assert type(area) is type(cx) is type(cy) is F
