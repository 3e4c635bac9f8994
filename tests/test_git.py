from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from kwall import fixtures
from kwall.exact import KwallError, fmt
from kwall.git import (
    BinaryFormSystem,
    GitError,
    OnePS,
    PlaneCurveSupport,
    binary_system_stability,
    cm_degree,
    cm_positivity_window,
    hm_weight_plane,
    replay_certificate,
)

rng = random.Random(1337)


def test_hm_weight_single_monomial():
    curve = PlaneCurveSupport(5, frozenset({(1, 4, 0)}))
    assert hm_weight_plane(curve, OnePS((-1, 2, -1))) == -7


def test_hm_weight_q5_torus_fixed():
    fx = fixtures.PLANE_GIT_FIXTURES["q5-double-conic-line"]
    assert hm_weight_plane(fx.curve, fx.one_ps) == 0


def test_one_ps_validation():
    with pytest.raises(GitError):
        OnePS((0, 0, 0))
    with pytest.raises(GitError):
        OnePS((1, 1, 1))


def test_hm_weight_conjugation_covariance():
    mons = frozenset({(2, 2, 1), (1, 1, 3), (0, 0, 5), (5, 0, 0)})
    curve = PlaneCurveSupport(5, mons)
    lam = (-3, 1, 2)
    base = hm_weight_plane(curve, OnePS(lam))
    for perm in itertools.permutations(range(3)):
        curve_p = PlaneCurveSupport(5, frozenset(tuple(m[perm[i]] for i in range(3)) for m in mons))
        lam_p = OnePS(tuple(lam[perm[i]] for i in range(3)))
        assert hm_weight_plane(curve_p, lam_p) == base


def test_octic_x5y3_unstable_with_replayable_certificate():
    system = fixtures.BINARY_FIXTURES["quartic-binary-unstable"].system
    verdict = binary_system_stability(system)
    assert verdict.verdict == "unstable"
    weights = replay_certificate(system, verdict.certificate)
    assert weights and all(w > 0 for w in weights)


def test_octic_x4y4_strictly_semistable_closed_orbit():
    system = fixtures.BINARY_FIXTURES["quartic-binary-ss"].system
    verdict = binary_system_stability(system)
    assert verdict.verdict == "strictly-semistable"
    assert verdict.polystable is True


def test_octic_x4y4_plus_x8_semistable_open_orbit():
    system = BinaryFormSystem("even", 4, {2: frozenset({(4, 4), (8, 0)})})
    verdict = binary_system_stability(system)
    assert verdict.verdict == "strictly-semistable"
    assert verdict.polystable is None  # degenerates to x^4 y^4, not fixed itself


def test_the_x8_fixture_prints_nonzero_semistable_weights_that_replay():
    # the reference classifies the fixture the same way, and its certificate is the x=0 one of weights
    # 2 ord - 8 for x^4 y^4 and x^8, which replays to them
    system = fixtures.BINARY_FIXTURES["quartic-binary-ss-x8"].system
    assert system == BinaryFormSystem("even", 4, {2: frozenset({(4, 4), (8, 0)})})
    verdict = binary_system_stability(system)
    assert verdict == oracles.binary_system_stability(system)
    assert (verdict.verdict, verdict.polystable) == ("strictly-semistable", None)
    assert verdict.certificate[:3] == ("x=0", 1, 0) and verdict.certificate.weights == (0, 8)
    assert replay_certificate(system, verdict.certificate) == [0, 8]


def test_octic_generic_stable():
    system = BinaryFormSystem("even", 4, {2: frozenset({(4, 4), (8, 0), (0, 8), (5, 3)})})
    assert binary_system_stability(system).verdict == "stable"


def test_odd_f6_block_stable():
    system = fixtures.BINARY_FIXTURES["quintic-binary-f6"].system
    verdict = binary_system_stability(system)
    # sigma'-weights are {6, -6}: no direction degenerates the pair
    assert verdict.verdict == "stable"


def test_odd_single_coordinate_f6_unstable():
    system = BinaryFormSystem("odd", 5, {1: frozenset({(6, 0)})})
    verdict = binary_system_stability(system)
    assert verdict.verdict == "unstable"
    assert all(w > 0 for w in replay_certificate(system, verdict.certificate))


def test_odd_block_coordinate_restriction():
    with pytest.raises(GitError):
        BinaryFormSystem("odd", 5, {1: frozenset({(3, 3)})})


def test_all_zero_system_rejected():
    with pytest.raises(GitError):
        BinaryFormSystem("even", 4, {2: frozenset()})


def test_parity_degree_validation():
    with pytest.raises(GitError):
        BinaryFormSystem("even", 5, {2: frozenset({(8, 0)})})
    with pytest.raises(GitError):
        BinaryFormSystem("even", 4, {3: frozenset({(12, 0)})})
    with pytest.raises(GitError):
        BinaryFormSystem("even", 4, {2: frozenset({(9, 0)})})


def _random_even_system():
    d = rng.choice((4, 6, 8))
    forms = {}
    for j in range(2, d // 2 + 1):
        deg = 4 * j
        support = {(rng.randint(0, deg), 0) for _ in range(rng.randint(0, 3))}
        forms[j] = frozenset((i, deg - i) for i, _ in support)
    if not any(forms.values()):
        forms[2] = frozenset({(5, 3)})
    return BinaryFormSystem("even", d, forms)


def test_instability_inherited_by_monomial_deletion():
    rank = {"unstable": 0, "strictly-semistable": 1, "stable": 2}
    for _ in range(80):
        system = _random_even_system()
        verdict = binary_system_stability(system)
        # delete one monomial (keeping the system nonzero)
        blocks = [j for j in system.nonzero_blocks()]
        j = rng.choice(blocks)
        mons = sorted(system.forms[j])
        target = rng.choice(mons)
        new_forms = {k: (v - {target} if k == j else v) for k, v in system.forms.items()}
        if not any(new_forms.values()):
            continue
        smaller = BinaryFormSystem("even", system.degree, new_forms)
        if verdict.verdict == "unstable":
            assert binary_system_stability(smaller).verdict == "unstable"
        else:
            assert rank[binary_system_stability(smaller).verdict] <= rank[verdict.verdict]


@st.composite
def binary_systems(draw) -> BinaryFormSystem:
    """A system of either parity and degree 3..13, each block up to four of its monomials."""
    degree = draw(st.integers(3, 13))
    if degree % 2:
        forms = {1: frozenset(draw(st.sets(st.sampled_from([(6, 0), (0, 6)]))))}
        degrees = {j: 4 * j + 2 for j in range(2, (degree - 1) // 2 + 1)}
    else:
        forms, degrees = {}, {j: 4 * j for j in range(2, degree // 2 + 1)}
    for j, deg in degrees.items():
        forms[j] = frozenset((i, deg - i) for i in draw(st.sets(st.integers(0, deg), max_size=4)))
    assume(any(forms.values()))
    return BinaryFormSystem("odd" if degree % 2 else "even", degree, forms)


# an explicit system for each (verdict, polystable) the classification returns
_ONE_PER_VERDICT = {
    ("unstable", None): BinaryFormSystem("even", 4, {2: frozenset({(5, 3)})}),
    ("strictly-semistable", True): BinaryFormSystem("odd", 7, {2: frozenset({(5, 5)}), 3: frozenset({(7, 7)})}),
    ("strictly-semistable", None): BinaryFormSystem("even", 6, {2: frozenset({(4, 4), (8, 0)}), 3: frozenset()}),
    ("stable", True): BinaryFormSystem("odd", 9, {2: frozenset({(10, 0)}), 4: frozenset({(0, 18)})}),
}


def test_each_explicit_example_has_its_verdict():
    for want, system in _ONE_PER_VERDICT.items():
        verdict = binary_system_stability(system)
        assert (verdict.verdict, verdict.polystable) == want


@settings(derandomize=True, max_examples=200, deadline=None)
@given(binary_systems())
@example(_ONE_PER_VERDICT["unstable", None])
@example(_ONE_PER_VERDICT["strictly-semistable", True])
@example(_ONE_PER_VERDICT["strictly-semistable", None])
@example(_ONE_PER_VERDICT["stable", True])
def test_one_pass_over_the_weight_table_classifies_as_the_two_loop_reference(system):
    got, want = binary_system_stability(system), oracles.binary_system_stability(system)
    assert got == want
    if got.certificate is not None:
        assert all(type(w) is F for w in got.certificate.weights)
        # a certificate replays to its own weights from the raw monomials
        assert replay_certificate(system, got.certificate) == list(got.certificate.weights)


def test_cm_degree_closed_form():
    for d in range(2, 10):
        for c in (F(1, 7), F(2, 5), F(1, 2)):
            assert cm_degree(2, d, c) == 3 * c * (3 - c * d) ** 2
    assert cm_degree(2, 6, F(1, 2)) == 0
    assert cm_degree(3, 4, F(1, 2)) == 16


def _cm_oracle(n: int, d: int, c: F) -> F:
    """Multinomial expansion of ((n+1-cd) h - c zeta)^(n+1) on P^n x P^N,
    keeping the h^n zeta^1 term and negating (independent route)."""
    coeffs = {(0, 0): F(1)}  # (h-degree, zeta-degree) -> coefficient
    for _ in range(n + 1):
        nxt = {}
        for (a, b), v in coeffs.items():
            for da, db, w in ((1, 0, n + 1 - c * d), (0, 1, -c)):
                key = (a + da, b + db)
                nxt[key] = nxt.get(key, F(0)) + v * w
        coeffs = nxt
    return -coeffs.get((n, 1), F(0))


def test_cm_degree_matches_expansion_oracle():
    for n in range(1, 5):
        for d in range(2, 9):
            for c in (F(1, 9), F(1, 3), F(3, 4), F(7, 5)):
                assert cm_degree(n, d, c) == _cm_oracle(n, d, c), (n, d, c)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int-to-str conversion has no digit limit")
def test_cm_degree_refuses_only_values_too_large_to_print():
    # near the limit on either side: a refused value is one that fmt cannot print either
    limit, draw = sys.get_int_max_str_digits(), random.Random(4300)
    draws = [(n, d, F(draw.randint(-40, 40), draw.randint(1, 40)))
             for n, d in ((draw.randint(limit // 8, 3 * limit), draw.randint(1, 9)) for _ in range(40))]
    refused = 0
    for n, d, c in draws:
        try:
            value = cm_degree(n, d, c)
        except GitError as exc:
            refused += 1
            assert str(exc).startswith("value too large to print: its ")
            with pytest.raises(KwallError, match="^value too large to print"):
                fmt((n + 1) * c * (n + 1 - c * d) ** n)
        else:
            assert value == (n + 1) * c * (n + 1 - c * d) ** n
    assert 0 < refused < len(draws)


def test_cm_positivity_window():
    assert (cm_positivity_window(2, 5).lo, cm_positivity_window(2, 5).hi) == (0, F(3, 5))
    assert cm_positivity_window(2, 3).hi == 1
    assert cm_positivity_window(4, 2).hi == F(5, 2)


def test_cm_sign_matches_window():
    for n in range(1, 5):
        for d in range(2, 9):
            win = cm_positivity_window(n, d)
            for k in range(1, 12):
                c = win.hi * k / 12
                assert cm_degree(n, d, c) > 0, (n, d, c)
            assert cm_degree(n, d, win.hi) == 0
            assert cm_degree(n, d, F(0)) == 0
