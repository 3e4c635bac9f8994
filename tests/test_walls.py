from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kwall import cli, fixtures
from kwall.walls import (
    Interval,
    QuinticStratumPoint,
    WallCase,
    WallError,
    _in_range,
    _solve_wall_form,
    _wall_form,
    admissibility_window,
    classify_quintic_stratum,
    first_wall,
    quintic_wall_table,
    solve_wall,
)

rng = random.Random(31415926)

QUINTIC_RANGE = Interval(F(0), F(3, 5))


def test_solve_wall_a12():
    case = fixtures.wall_case("a12")
    rep = solve_wall(case)
    assert rep.wall == F(8, 15)
    assert rep.unstable_above and not rep.unstable_below
    assert oracles.margin(case, F(1, 2)) >= 0
    assert oracles.margin(case, F(11, 20)) < 0


def test_solve_wall_a11red():
    assert solve_wall(fixtures.wall_case("a11red")).wall == F(6, 11)


def test_solve_wall_a10():
    assert solve_wall(fixtures.wall_case("a10")).wall == F(54, 95)


def test_solve_wall_p114_weights51_unstable_everywhere():
    case = fixtures.wall_case("p114-nondeg")
    rep = solve_wall(case)
    assert rep.wall is None and rep.unstable_below and rep.unstable_above
    for c in (F(1, 100), F(1, 3), F(3, 5) - F(1, 100)):
        assert oracles.margin(case, c) < 0


def test_solve_wall_degenerate_case():
    case = WallCase("degenerate", F(2), F(1), F(1), F(2), F(1), QUINTIC_RANGE)
    rep = solve_wall(case)
    assert rep.degenerate and rep.wall is None


def test_solve_wall_constant_margin():
    case = WallCase("flat", F(2), F(5), F(1), F(3), F(5), QUINTIC_RANGE)
    rep = solve_wall(case)  # A - S = -1 identically
    assert rep.wall is None and rep.unstable_above and rep.unstable_below
    assert oracles.margin(case, F(1, 2)) < 0


def test_wall_case_rejects_nonpositive_antikanonical_degree():
    with pytest.raises(WallError):
        WallCase("bad", F(1), F(0), F(1), F(1), F(5), QUINTIC_RANGE)


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=30)
coefficients = st.fractions(min_value=-1, max_value=1, max_denominator=30)


@st.composite
def wall_inputs(draw):
    """(A0, ordD, S0, alpha, beta, range): free rationals, a flat margin (slope = 0), a vanishing
    one (const = slope = 0), or a wall put on an end of the range or inside it; each end open or
    closed.  With the range inside [-1, 2] and alpha >= -1, about a third of the draws fail a
    range check."""
    a0, od, s0, be = (draw(rationals) for _ in range(4))
    al = draw(st.fractions(min_value=-1, max_value=12, max_denominator=30))
    lo = draw(coefficients)
    hi = lo + abs(draw(coefficients))
    kind = draw(st.sampled_from(("free", "flat", "vanishing", "wall-at-lo", "wall-at-hi", "wall-inside")))
    if kind in ("flat", "vanishing"):
        od = be * s0
        if kind == "vanishing":
            a0 = al * s0
    elif kind != "free":
        # A - S = (a0 - al s0) + (be s0 - od) c vanishes at the chosen point of the range
        c = {"wall-at-lo": lo, "wall-at-hi": hi}.get(kind, lo + (hi - lo) * draw(st.fractions(0, 1)))
        a0 = al * s0 - (be * s0 - od) * c
    return a0, od, s0, al, be, Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(args=wall_inputs())
@example(args=(F(1), F(0), F(1), F(1), F(5), QUINTIC_RANGE))  # alpha - beta hi < 0
@example(args=(F(1), F(0), F(1), F(-1), F(1), QUINTIC_RANGE))  # alpha - beta lo < 0
@example(args=(F(1), F(0), F(1), F(0), F(1), QUINTIC_RANGE))  # alpha - beta lo = 0
@example(args=(F(1), F(0), F(1), F(3), F(5), QUINTIC_RANGE))  # alpha - beta hi = 0 is allowed
@example(args=(F(2), F(5), F(1), F(3), F(5), QUINTIC_RANGE))  # slope = 0
@example(args=(F(2), F(1), F(1), F(2), F(1), QUINTIC_RANGE))  # const = slope = 0
@example(args=(F(7), F(12), F(49, 30), F(3), F(5), Interval(F(63, 115), F(3, 5), True)))  # wall at a closed end
@example(args=(F(7), F(12), F(49, 30), F(3), F(5), Interval(F(63, 115), F(3, 5))))  # wall at an open end
def test_integer_wall_solver_equals_its_reference(args):
    *fields, valid_range = args
    try:
        oracles.check_wall_range(fields[3], fields[4], valid_range)
    except WallError as exc:
        with pytest.raises(WallError) as got:
            WallCase("drawn", *fields, valid_range)
        assert str(got.value) == str(exc)
        return
    case = WallCase("drawn", *fields, valid_range)
    assert solve_wall(case) == oracles.solve_wall(case)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(args=wall_inputs(), k=st.integers(1, 30))
@example(args=(F(1), F(0), F(1), F(-1, 3), F(1), QUINTIC_RANGE), k=6)  # alpha - beta lo < 0
@example(args=(F(1), F(0), F(1), F(1), F(5), QUINTIC_RANGE), k=1)  # alpha - beta hi < 0
@example(args=(F(-7, 2), F(0), F(-49, 30), F(3), F(5), QUINTIC_RANGE), k=4)  # negative numerators, a zero
@example(args=(F(2), F(1), F(1), F(2), F(1), QUINTIC_RANGE), k=3)  # const = slope = 0
@example(args=(F(7), F(12), F(49, 30), F(3), F(5), Interval(F(63, 115), F(3, 5))), k=2)  # wall at an open end
def test_the_wall_form_and_its_solve_are_the_records(args, k):
    # the check and the solve that criterion 11 runs on a bare form, whatever the scale the values come over:
    # the record's form, in lowest terms, and the report of the record's solve and of the Fraction oracle; or
    # the refusal of the record and of the Fraction checks
    *values, valid_range = args
    nums, s = oracles.cleared_over(values, k)
    try:
        oracles.check_wall_range(values[3], values[4], valid_range)
    except WallError as exc:
        for build in (lambda: WallCase("drawn", *values, valid_range), lambda: _wall_form(nums, s, valid_range)):
            with pytest.raises(WallError) as got:
                build()
            assert type(got.value) is WallError and str(got.value) == str(exc)
        return
    case, form = WallCase("drawn", *values, valid_range), _wall_form(nums, s, valid_range)
    lowest, lcd = oracles.cleared_over(values, 1)
    assert form == case._form == (*lowest, lcd)
    assert _solve_wall_form(form, valid_range) == oracles.solve_wall(case)[1:] == solve_wall(case)[1:]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(args=wall_inputs())
@example(args=(F(-7, 2), F(0), F(-49, 30), F(3), F(5), QUINTIC_RANGE))  # negative numerators, a zero
@example(args=(F(1), F(0), F(1), F(1), F(5), QUINTIC_RANGE))  # alpha - beta hi < 0
def test_the_constructor_builds_one_record_from_any_writing_of_its_values(args):
    # the values as Fractions, as 'p/q' strings and as the record's own fields: one record, with one form,
    # that keeps the Fractions given; or one refusal
    *values, valid_range = args
    writings = (tuple(values), tuple(map(str, values)))
    try:
        oracles.check_wall_range(values[3], values[4], valid_range)
    except WallError as exc:
        for written in writings:
            with pytest.raises(WallError) as got:
                WallCase("drawn", *written, valid_range)
            assert type(got.value) is WallError and str(got.value) == str(exc)
        return
    case, from_text = (WallCase("drawn", *written, valid_range) for written in writings)
    for other in (from_text, WallCase(*case)):
        assert other == case and other._form == case._form and repr(other) == repr(case)
    assert case[1:6] == tuple(values) and all(type(v) is F for v in case[1:6])


@pytest.mark.parametrize("case", [*map(fixtures.wall_case, fixtures.WALL_FIXTURES),
                                  *map(fixtures.first_wall_case, range(4, 12))], ids=lambda case: case.name)
def test_each_wall_fixture_solves_alike_on_its_form(case):
    assert _wall_form(case._form[:5], case._form[5], case.valid_range) == case._form
    assert _solve_wall_form(case._form, case.valid_range) == solve_wall(case)[1:] == oracles.solve_wall(case)[1:]


_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
_BIG = 10**6
_ends = st.fractions(min_value=-_BIG, max_value=_BIG, max_denominator=_BIG)


@st.composite
def interval_points(draw):
    """An interval with each end open or closed and a point drawn freely, on an end, or off an
    end by less than 1 / (k D) for the product D of the ends' denominators."""
    lo, hi = sorted((draw(_ends), draw(_ends)))
    interval = Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
    eps = F(1, draw(st.integers(1, 9)) * lo.denominator * hi.denominator)
    return interval, draw(st.sampled_from((lo, hi, lo - eps, lo + eps, hi - eps, hi + eps)) | _ends)


@_PROPERTY
@given(case=interval_points())
@example(case=(Interval(F(1, 3), F(1, 3), True, True), F(1, 3)))  # a closed point
@example(case=(Interval(F(1, 3), F(1, 3), True, False), F(1, 3)))  # half open, so empty
@example(case=(Interval(F(-2, 999983), F(5, 7)), F(-2, 999983)))  # on the open low end
@example(case=(Interval(F(-2, 999983), F(5, 7), True, False), F(-2, 999983)))  # on the closed low end
@example(case=(Interval(F(-2, 999983), F(5, 7), False, True), F(5, 7)))  # on the closed high end
def test_interval_membership_equals_its_reference(case):
    # the solver's one rule of membership, on c written over its own denominator and over its negation
    interval, c = case
    got = _in_range(c.numerator, c.denominator, interval)
    assert got == _in_range(-c.numerator, -c.denominator, interval) == oracles.interval_contains(interval, c)


@_PROPERTY
@given(const=st.integers(-_BIG, _BIG), slope=st.integers(-_BIG, _BIG), ends=st.tuples(_ends, _ends),
       closed=st.tuples(st.booleans(), st.booleans()))
@example(const=-1, slope=0, ends=(F(-2, 999983), F(5, 7)), closed=(False, False))  # flat, unstable
@example(const=1, slope=-999983, ends=(F(-2, 999983), F(1, 999983)), closed=(True, False))  # root at hi, open
@example(const=-2, slope=999983, ends=(F(-5, 3), F(-1, 3)), closed=(True, True))  # unstable below a root past hi
@example(const=0, slope=7, ends=(F(1, 3), F(2, 3)), closed=(False, False))  # root at 0, range above it
def test_a_margin_without_a_root_in_range_takes_its_sign_at_the_fraction_midpoint(const, slope, ends, closed):
    # the form (const, -slope, 0, 1, 0, 1) has margin const + slope c; with no root in the range the solver
    # reads its sign at the midpoint from the ends' numerators and denominators, the reference at the
    # Fraction (lo + hi) / 2
    valid_range = Interval(*sorted(ends), *closed)
    assume((const, slope) != (0, 0) and (slope == 0 or not oracles.interval_contains(valid_range, F(-const, slope))))
    unstable = const + slope * oracles.range_midpoint(valid_range) < 0
    assert _solve_wall_form((const, -slope, 0, 1, 0, 1), valid_range) == (None, unstable, unstable, False)


@_PROPERTY
@given(ends=st.tuples(_ends, _ends), closed=st.tuples(st.booleans(), st.booleans()), at_hi=st.booleans(),
       k=st.integers(-_BIG, _BIG).filter(bool))
@example(ends=(F(-2, 7), F(5, 3)), closed=(False, False), at_hi=False, k=3)  # open ends, rising through lo
@example(ends=(F(-2, 7), F(5, 3)), closed=(False, False), at_hi=True, k=-3)  # open ends, falling through hi
@example(ends=(F(-2, 7), F(5, 3)), closed=(True, False), at_hi=False, k=-1)  # closed lo, falling through it
@example(ends=(F(-2, 7), F(5, 3)), closed=(True, False), at_hi=True, k=1)  # open hi, rising through it
@example(ends=(F(0), F(3, 5)), closed=(False, True), at_hi=False, k=-5)  # open lo at 0, falling through it
@example(ends=(F(0), F(3, 5)), closed=(False, True), at_hi=True, k=5)  # closed hi, rising through it
@example(ends=(F(1, 999983), F(2, 3)), closed=(True, True), at_hi=False, k=2)  # closed ends, rising through lo
@example(ends=(F(1, 999983), F(2, 3)), closed=(True, True), at_hi=True, k=-2)  # closed ends, falling through hi
def test_a_root_on_an_end_of_the_range_is_a_wall_exactly_when_that_end_is_closed(ends, closed, at_hi, k):
    # the margin k (end.den c - end.num) vanishes at the end: the integer end tests of the solver against the
    # Fraction membership of the reference, for either sign of the slope k end.den
    valid_range = Interval(*sorted(ends), *closed)
    end = valid_range.hi if at_hi else valid_range.lo
    case = WallCase("drawn", -k * end.numerator, -k * end.denominator, 0, 1, 0, valid_range)
    want = oracles.solve_wall(case)
    assert _solve_wall_form(case._form, valid_range) == want[1:]
    if valid_range.lo < valid_range.hi:
        assert want.wall == (end if closed[at_hi] else None)


@pytest.mark.parametrize("name", sorted(fixtures.WALL_FIXTURES))
def test_wall_fixture_annotations_are_the_solved_walls(name):
    # 'above' and 'below' name the unstable side of the wall; 'everywhere' is no wall in the range
    # and A < S on all of it
    expected = fixtures.WALL_FIXTURES[name].expected
    rep = solve_wall(fixtures.wall_case(name))
    side = {(False, True): "above", (True, False): "below"}.get((rep.unstable_below, rep.unstable_above))
    if expected["unstable"] == "everywhere":
        assert rep.wall is None and rep.unstable_below and rep.unstable_above
    else:
        assert (rep.wall, side) == (expected["wall"], expected["unstable"])


def test_wall_bracketing():
    eps = F(1, 1000)
    for name in ("a12", "a11red", "a11irr", "a10"):
        case = fixtures.wall_case(name)
        rep = solve_wall(case)
        assert oracles.margin(case, rep.wall) == 0
        assert oracles.margin(case, rep.wall - eps) > 0
        assert oracles.margin(case, rep.wall + eps) < 0


def test_wall_scale_invariance():
    for _ in range(50):
        name = rng.choice(("a12", "a11red", "a11irr", "a10"))
        case = fixtures.wall_case(name)
        lam = F(rng.randint(1, 99), rng.randint(1, 99))
        scaled = WallCase(case.name, case.A0 * lam, case.ordD * lam, case.S0 * lam,
                          case.alpha, case.beta, case.valid_range)
        assert solve_wall(scaled).wall == solve_wall(case).wall


def test_first_wall_values():
    assert first_wall(4)[0] == F(3, 8)
    assert first_wall(5)[0] == F(3, 7)
    assert first_wall(6)[0] == F(1, 4)
    assert "z^2" in first_wall(4)[1]
    with pytest.raises(WallError):
        first_wall(3)


def test_first_wall_is_the_closed_form_on_the_sweep_degrees():
    # walls.first_wall keeps no check of its own: the margin's root always lies in the range
    for d in range(4, 201):
        assert first_wall(d)[0] == (F(3, 2 * d) if d % 2 == 0 else F(3, 2 * d - 3)), d


def test_quintic_wall_table_values():
    rows = quintic_wall_table()
    assert [r.wall for r in rows] == [F(3, 7), F(8, 15), F(6, 11), F(63, 115), F(54, 95)]
    walls = [r.wall for r in rows]
    assert walls == sorted(walls)
    assert all(F(0) < w < F(3, 5) for w in walls)


def test_table_rows_equal_individual_solver_output():
    rows = quintic_wall_table()
    assert rows[0].wall == first_wall(5)[0]
    for row, name in zip(rows[1:], ("a12", "a11red", "a11irr", "a10")):
        assert row.wall == solve_wall(fixtures.wall_case(name)).wall


def test_admissibility_windows():
    x26, p1425 = fixtures.delta_upper_bound("x26-delta"), fixtures.delta_upper_bound("p1425-delta")
    for d in (4, 5, 9):
        win = admissibility_window(d, x26)
        assert win.lo == F(8, 3 * d) and win.lo_closed
        assert win.hi == F(3, d) and not win.hi_closed
        assert admissibility_window(d, p1425).lo == F(27, 10 * d)
        p2 = admissibility_window(d)
        assert (p2.lo, p2.hi, p2.lo_closed) == (0, F(3, d), False)
        assert admissibility_window(d).lo == 0


def test_stratum_examples():
    assert classify_quintic_stratum(QuinticStratumPoint((0, 0, 0, 1))).stratum == "Sigma2"
    v = classify_quintic_stratum(QuinticStratumPoint((3, 7, 0, 0)))
    assert (v.stratum, v.wall) == ("Sigma3", F(6, 11))
    v = classify_quintic_stratum(QuinticStratumPoint((1, 2, 5, 9)))
    assert v.stratum == "Sigma7" and v.wall is None and "3/5" in v.note
    assert classify_quintic_stratum(QuinticStratumPoint((1, 0))).stratum == "Sigma1"
    assert classify_quintic_stratum(QuinticStratumPoint((2, 5))).stratum == "Sigma6"
    with pytest.raises(WallError):
        QuinticStratumPoint((0, 0, 0, 0))
    with pytest.raises(WallError):
        QuinticStratumPoint((1, 2, 3))


def test_stratum_partition():
    # every nonzero point lands in exactly one stratum
    vals = (F(0), F(1), F(-2), F(3, 7))
    seen = set()
    for s in vals:
        for r in vals:
            for h in vals:
                for u in vals:
                    if (s, r, h, u) == (0, 0, 0, 0):
                        continue
                    v = classify_quintic_stratum(QuinticStratumPoint((s, r, h, u)))
                    seen.add(v.stratum)
                    assert v.stratum in {"Sigma1", "Sigma2", "Sigma3", "Sigma4", "Sigma5", "Sigma7"}
    assert seen == {"Sigma1", "Sigma2", "Sigma3", "Sigma4", "Sigma5", "Sigma7"}


def test_stratum_walls_match_table():
    rows = quintic_wall_table()
    by_index = {r.index: r.wall for r in rows}
    expect = {
        "Sigma1": by_index[1], "Sigma2": by_index[2], "Sigma3": by_index[3],
        "Sigma4": by_index[4], "Sigma5": by_index[5],
    }
    for name, rep in fixtures.STRATUM_REPRESENTATIVES.items():
        v = classify_quintic_stratum(QuinticStratumPoint(rep))
        if v.stratum in expect:
            assert v.wall == expect[v.stratum], name


def test_stratum_walls_are_solved_not_returned(monkeypatch):
    # a10 with S0 = 47/15 + 1/15 crosses at 17/30, not 54/95: the Sigma5 wall must move with it
    real = fixtures.wall_case

    def shifted(name):
        case = real(name)
        return WallCase(*case._replace(S0=case.S0 + F(1, 15))) if name == "a10" else case

    monkeypatch.setattr(fixtures, "wall_case", shifted)
    v = classify_quintic_stratum(QuinticStratumPoint(fixtures.STRATUM_REPRESENTATIVES["Sigma5"]))
    assert (v.stratum, v.wall) == ("Sigma5", F(17, 30))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["--json", "stratum", "--coords", "0,1,0,1"]) == 0
    assert json.loads(out.getvalue())["wall"] == "17/30"


def test_first_wall_range_check():
    # engine-derived first wall must sit inside the coefficient range
    for d in range(4, 16):
        wall, _, rep = first_wall(d)
        assert oracles.interval_contains(rep.case.valid_range, wall)


def test_wall_invariant_under_valuation_normalization():
    # the same scenario in the divisorial normalization (scale 1, weights and
    # direction divided by the quotient order) must produce the same wall
    from kwall.valuations import CyclicQuot, MonomialVal, germ, log_discrepancy, ord_on_germ
    from kwall.volumes import MomentPolygon, s_invariant, volume_toric

    base = solve_wall(fixtures.wall_case("p114-deg"))
    val = MonomialVal(CyclicQuot(4, 1, 1), (3, 1), scale=1)
    g = germ((2, 0), (0, 6), (10, 0), (0, 10))
    poly114 = fixtures.VOLUME_FIXTURES["p114-w31"].moment.polygon
    prof = volume_toric(MomentPolygon(poly114, (F(-1, 2), F(-3))))
    case = WallCase(
        "p114-deg-divisorial",
        A0=log_discrepancy(val),
        ordD=ord_on_germ(val, g),
        S0=s_invariant(prof),
        alpha=F(6),
        beta=F(10),
        valid_range=QUINTIC_RANGE,
    )
    assert (case.A0, case.ordD, case.S0) == (F(1), F(3, 2), F(1, 3))
    assert solve_wall(case).wall == base.wall == F(6, 11)


@pytest.mark.parametrize("name", sorted(fixtures.WALL_FIXTURES))
def test_each_wall_fixture_case_is_its_fraction_derivation(name):
    got, want = fixtures.wall_case(name), oracles.wall_case(fixtures.WALL_FIXTURES[name])
    assert got == want and got._form == want._form
    assert all(type(x) is F for x in got[1:6])


def test_each_first_wall_case_is_its_fraction_derivation():
    from kwall.valuations import germ

    for d in range(4, 41):
        parity = ("even", "odd")[d % 2]
        fx = fixtures.WallFixture(f"firstwall-{parity}-d{d}", None if d % 2 == 0 else germ((1, 1)),
                                  "p114-quot", "", {}, d)
        got, want = fixtures.first_wall_case(d), oracles.wall_case(fx)
        assert got == want and got._form == want._form, d
        # first_wall's closed form: A0 = 1/2, ord(D) = 0 or 1/2, S(c) = (6 - 2dc)/6
        assert (got.A0, got.ordD, got.S0, got.alpha, got.beta) == (F(1, 2), F(d % 2, 2), F(1, 6), 6, 2 * d)
        assert all(type(x) is F for x in got[1:6])
