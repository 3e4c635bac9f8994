"""The integer kernels of kwall.exact against their Fraction references in
tests/oracles.py: equal values, each returned as a reduced Fraction."""

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
    det3,
    mat3_inverse,
    mat3_rank,
    mat3_vec,
    solve_linear3,
    v3_dot,
)

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
@given(a=vec3s, b=vec3s)
def test_v3_dot_equals_its_reference(a, b):
    fa, fb = _as_fractions(a), _as_fractions(b)
    _same(v3_dot(a, b), oracles.v3_dot(fa, fb))


@_PROPERTY
@given(m=mat3s, v=vec3s)
def test_det3_and_mat3_vec_equal_their_references(m, v):
    fm, fv = _as_fractions(m), _as_fractions(v)
    _same(det3(m), oracles.det3(fm))
    _same(mat3_vec(m, v), oracles.mat3_vec(fm, fv))


@_PROPERTY
@given(m=mat3s, rhs=vec3s)
def test_solve_linear3_and_mat3_inverse_equal_their_references(m, rhs):
    fm, frhs = _as_fractions(m), _as_fractions(rhs)
    if oracles.det3(fm) == 0:
        return  # the singular branch has its own test
    _same(solve_linear3(m, rhs), oracles.solve_linear3(fm, frhs))
    _same(mat3_inverse(m), oracles.mat3_inverse(fm))


@_PROPERTY
@given(m=singular_mat3s(), rhs=vec3s)
def test_singular_systems_raise_with_the_reference_rank(m, rhs):
    with pytest.raises(SingularSystemError) as ref:
        oracles.solve_linear3(_as_fractions(m), _as_fractions(rhs))
    assert ref.value.rank <= 2
    for kernel in (lambda: solve_linear3(m, rhs), lambda: mat3_inverse(m)):
        with pytest.raises(SingularSystemError) as err:
            kernel()
        assert err.value.rank == ref.value.rank
    _same(det3(m), F(0))


def test_rank_of_an_integer_matrix_is_exact():
    # rows 0 and 1 are proportional (49 = 735/15); float elimination leaves a residue and reads rank 3
    m = ((735, 1715, -2401), (15, 35, -49), (13, -21, 4))
    assert mat3_rank(m) == 2
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
    for r in (p, p + q, p - q, p * q, p * s, s * p, p.derivative(), p.antiderivative()):
        _same(r(t), oracles.poly_eval(r, F(t)))


@st.composite
def piecewise_and_points(draw):
    """Pieces base + i (t - b_i)(t - b_(i+1)) agree at every breakpoint and differ inside;
    t is drawn freely, on a breakpoint, or below one by less than 1/D, where D is the
    breakpoints' common denominator (so t D sits just under an integer)."""
    bps = sorted({F(x) for x in draw(st.lists(scalars, min_size=1, max_size=6))})
    base = Poly(draw(st.lists(scalars, max_size=3)))
    pieces = [base + i * Poly([a * b, -(a + b), 1]) for i, (a, b) in enumerate(zip(bps, bps[1:]))]
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
    try:
        ref = oracles.piecewise_eval(f, t)
    except StructuralError:
        with pytest.raises(StructuralError):
            f(t)
    else:
        _same(f(t), ref)
