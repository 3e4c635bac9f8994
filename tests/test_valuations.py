from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from kwall import fixtures
from kwall.valuations import (
    CyclicQuot,
    DomainError,
    GermSupport,
    MonomialVal,
    QuasiHomogGerm,
    SMOOTH_POINT,
    delta_upper,
    germ,
    index_bound,
    lct_newton,
    log_discrepancy,
    ord_on_germ,
)

rng = random.Random(424242)


def test_log_discrepancy_examples():
    assert log_discrepancy(MonomialVal(SMOOTH_POINT, (13, 2))) == 15
    assert log_discrepancy(MonomialVal(CyclicQuot(25, 2, 13), (2, 13))) == F(3, 5)
    assert log_discrepancy(MonomialVal(CyclicQuot(4, 1, 1), (1, 1), scale=2)) == 1


def test_ord_on_germ_examples():
    v = MonomialVal(SMOOTH_POINT, (13, 2))
    assert ord_on_germ(v, germ((2, 0), (0, 13))) == 26
    assert ord_on_germ(v, germ((0, 0))) == 0
    v51 = MonomialVal(SMOOTH_POINT, (5, 1))
    assert ord_on_germ(v51, germ((2, 0), (0, 10))) == 10


def test_scale_covariance():
    g = germ((2, 0), (0, 13), (3, 4))
    for _ in range(30):
        lam = F(rng.randint(1, 50), rng.randint(1, 50))
        v = MonomialVal(CyclicQuot(25, 2, 13), (F(2), F(13)))
        scaled = MonomialVal(v.point, v.weights, v.scale * lam)
        assert log_discrepancy(scaled) == lam * log_discrepancy(v)
        assert ord_on_germ(scaled, g) == lam * ord_on_germ(v, g)


def test_lct_newton_examples():
    assert lct_newton(germ((2, 0), (0, 10))) == F(3, 5)
    assert lct_newton(germ((2, 0), (0, 13))) == F(15, 26)
    assert lct_newton(germ((1, 0))) == 1
    with pytest.raises(DomainError):
        lct_newton(germ((0, 0), (1, 0)))


exponents = st.integers(0, 12)


@st.composite
def germ_supports(draw) -> GermSupport:
    """1-40 monomials, with the shapes the boundary walk branches on mixed in."""
    mons = set(draw(st.lists(st.tuples(exponents, exponents), max_size=25)))
    if draw(st.booleans()):  # a point on the diagonal
        t = draw(st.integers(1, 12))
        mons.add((t, t))
    if draw(st.booleans()):  # collinear points along one boundary direction
        i0, j0, p, q = draw(st.tuples(exponents, st.integers(4, 16), st.integers(1, 3), st.integers(1, 4)))
        mons.update((i0 + k * p, j0 - k * q) for k in range(min(5, j0 // q + 1)))
    if draw(st.booleans()):  # repeated i values
        i = draw(exponents)
        mons.update((i, j) for j in draw(st.lists(exponents, min_size=2, max_size=3)))
    if draw(st.booleans()):  # pure powers
        mons.add((draw(st.integers(1, 12)), 0))
    if draw(st.booleans()):
        mons.add((0, draw(st.integers(1, 12))))
    if draw(st.booleans()):
        mons.add((1, 1))
    mons.discard((0, 0))
    assume(1 <= len(mons) <= 40)
    return GermSupport(frozenset(mons))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(g=germ_supports())
@example(g=germ((5, 0)))  # lone pure powers: the horizontal and the vertical ray
@example(g=germ((0, 7)))
@example(g=germ((1, 1)))
@example(g=germ((3, 3), (1, 5), (5, 1)))  # a hull vertex on the diagonal
@example(g=germ((0, 6), (1, 4), (2, 2), (3, 0)))  # collinear boundary through the diagonal
@example(g=germ((2, 9), (2, 5), (4, 3), (4, 1), (9, 0)))
def test_lct_newton_matches_the_all_pairs_oracle(g):
    assert lct_newton(g) == oracles.lct_newton_pairs(g)


def test_lct_newton_on_a_2000_monomial_germ():
    # built like the benchmark's germs: (a, 0), (0, b) and points on or above their segment
    gen = random.Random(2000)
    a, b = 12, 18
    mons = {(a, 0), (0, b)} | {(2 * k, b - 3 * k) for k in range(7)}
    while len(mons) < 2000:
        i, j = gen.randint(0, a + 70), gen.randint(0, b + 70)
        if i * b + j * a >= a * b:
            mons.add((i, j))
    assert lct_newton(GermSupport(frozenset(mons))) == min(F(1), F(1, a) + F(1, b))


def test_lct_quasihomog_examples():
    assert lct_newton(QuasiHomogGerm(2, 1, 5)) == F(3, 5)
    assert lct_newton(QuasiHomogGerm(13, 2, 26)) == F(15, 26)
    assert lct_newton(QuasiHomogGerm(1, 1, 2)) == 1
    # y^2 (y^5 + x) and y^2: generic, but not isolated, so (w1 + w2)/d = 6/7 and 2 are wrong
    assert lct_newton(QuasiHomogGerm(5, 1, 7)) == F(1, 2)
    assert lct_newton(QuasiHomogGerm(3, 1, 2)) == F(1, 2)


def test_quasihomog_germ_is_the_newton_polygon_of_its_generic_support():
    for w1 in range(1, 9):
        for w2 in range(1, 9):
            for d in range(1, 41):
                support = oracles.quasihomog_support(w1, w2, d)
                if not support:
                    with pytest.raises(DomainError, match="^field 'quasihomog': no monomial"):
                        QuasiHomogGerm(w1, w2, d)
                    continue
                g = QuasiHomogGerm(w1, w2, d)
                assert g.monomials == {min(support), min(support, key=lambda m: m[1])}, (w1, w2, d)
                assert lct_newton(g) == oracles.lct_newton_pairs(GermSupport(support)), (w1, w2, d)
    # the two ends come from a modular inverse, not from walking the segment
    start = time.perf_counter()
    assert lct_newton(QuasiHomogGerm(1, 1, 10**9)) == F(1, 500000000)
    assert time.perf_counter() - start < 1


def test_lct_two_routes_agree_on_binomial_germs():
    for _ in range(50):
        p, q = rng.randint(1, 30), rng.randint(1, 30)
        newton = lct_newton(germ((p, 0), (0, q)))
        # x^p + y^q is an isolated quasi-homogeneous singularity of weights (q, p) and degree pq
        assert newton == oracles.lct_quasihomog(q, p, p * q) == lct_newton(QuasiHomogGerm(q, p, p * q))


def test_lct_monotone_under_support_growth():
    for _ in range(40):
        mons = {(rng.randint(0, 9) + 1, rng.randint(0, 9)) for _ in range(3)}
        g0 = GermSupport(frozenset(mons))
        extra = mons | {(rng.randint(0, 9), rng.randint(0, 9) + 1)}
        g1 = GermSupport(frozenset(extra))
        assert lct_newton(g1) >= lct_newton(g0)


def test_skoda_estimate():
    mult_val = MonomialVal(SMOOTH_POINT, (1, 1))
    for _ in range(40):
        mons = {(rng.randint(0, 8) + 1, rng.randint(0, 8)) for _ in range(4)}
        g = GermSupport(frozenset(mons))
        mult = ord_on_germ(mult_val, g)
        if mult == 0:
            continue
        assert lct_newton(g) <= min(F(1), 2 / mult)


def test_lct_fixture_values():
    for name, fx in fixtures.LCT_FIXTURES.items():
        assert lct_newton(fx.support) == oracles.lct_newton_pairs(fx.support) == fx.expected, name


def test_index_bound_examples():
    assert index_bound(5, F(54, 95)) == 5
    assert index_bound(4, F(1, 8)) == 1
    assert index_bound(6, F(1, 3)) == 3


def test_index_bound_monotone_in_c():
    for d in (4, 5, 6, 7, 10):
        prev = 0
        for k in range(1, 40):
            c = F(3, d) * k / 40
            val = index_bound(d, c)
            assert val >= prev
            prev = val


def test_index_bound_domain():
    with pytest.raises(DomainError):
        index_bound(5, F(3, 5))
    with pytest.raises(DomainError):
        index_bound(5, 0)


def test_delta_upper_examples():
    assert delta_upper(F(3, 5), F(9, 25), F(15)) == F(1, 9)
    assert delta_upper(F(2), F(2), F(1)) == 1
    assert fixtures.delta_upper_bound("x26-delta") == F(1, 9)
    assert fixtures.delta_upper_bound("p1425-delta") == F(1, 10)


def test_ordd_derivations_match_annotations():
    for name, fx in fixtures.WALL_FIXTURES.items():
        case = fx.case()
        for key in ("A0", "ordD", "S0"):
            if key in fx.expected:
                assert getattr(case, key) == fx.expected[key], (name, key)
