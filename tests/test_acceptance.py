"""Acceptance gate: one test per verification criterion, each printed as a
pass/fail line.  Every comparison is exact; there are no tolerances to tune."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kwall
import oracles
from kwall import acceptance, fixtures, git
from kwall.acceptance import CRITERIA
from kwall.exact import PiecewiseQuadratic, Poly, StructuralError, _polygon_cycle, polygon
from kwall.toric_kps import CentroidCase, ConeError, solve_centroid_condition
from kwall.volumes import (
    ModelError,
    MomentPolygon,
    TwoRayModel,
    _toric_profile,
    _two_ray_profile,
    volume_toric,
    volume_two_ray,
)
from kwall.walls import WallCase


@pytest.mark.parametrize("cid,title,check", CRITERIA, ids=[f"criterion-{c[0]:02d}" for c in CRITERIA])
def test_criterion(cid, title, check):
    try:
        detail = check()
    except Exception as exc:
        print(f"FAIL  criterion {cid:>2}  {title}: {type(exc).__name__}: {exc}")
        raise
    print(f"PASS  criterion {cid:>2}  {title}: {detail}")


def test_run_all_reports_any_exception_as_a_named_failure(monkeypatch):
    def broken():
        raise ZeroDivisionError("division by zero")

    criteria = list(CRITERIA)
    criteria[1] = (2, "first-wall formula", broken)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    results = acceptance.run_all()
    assert [r.passed for r in results].count(False) == 1
    assert results[1].detail == "ZeroDivisionError: division by zero"


_CORRUPT_A12 = textwrap.dedent("""
    import sys
    from fractions import Fraction as F
    from kwall import cli, fixtures
    from kwall.volumes import TwoRayModel

    fx = fixtures.VOLUME_FIXTURES["a12"]
    bad = TwoRayModel(F(1), F(1, 26), F(0), (F(5), F(27)))
    fixtures.VOLUME_FIXTURES["a12"] = fx._replace(model=bad)
    sys.exit(cli.main(["verify-all"]))
""")


def test_gate_fails_under_python_O_on_a_corrupted_fixture():
    # with assert statements stripped, a wrong two-ray model must still fail the gate
    src = str(Path(kwall.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_A12], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL  criterion  3  volume profiles (both engines): CheckFailed: a12" in proc.stdout


def test_criterion_1_fails_on_a_wrong_replacement_surface(monkeypatch):
    # X26 with D = 4d H for 5d H: A12's replacement side no longer crosses at 8/15, while its P^2 side
    # and every other criterion stay as they were
    fx = fixtures.VOLUME_FIXTURES["x26"]
    monkeypatch.setitem(fixtures.VOLUME_FIXTURES, "x26", fx._replace(surface=fx.surface._replace(k=F(4))))
    with pytest.raises(acceptance.CheckFailed, match="^x26: wall None, unstable below "):
        acceptance.criterion_1()


def test_criterion_2_fails_on_a_first_wall_case_with_a_wrong_s0(monkeypatch):
    # walls.first_wall keeps no closed-form check of its own: criterion 2's comparison is the check
    real = fixtures.first_wall_case
    monkeypatch.setattr(fixtures, "first_wall_case", lambda d: WallCase(*real(d)._replace(S0=real(d).S0 + F(1, 8))))
    with pytest.raises(acceptance.CheckFailed, match="^d=4: "):
        acceptance.criterion_2()


def test_criterion_4_fails_on_a_wrong_s0_annotation(monkeypatch):
    # p114-quot's S0 is one of the annotations the old hand-written list left out
    fx = fixtures.VOLUME_FIXTURES["p114-quot"]
    monkeypatch.setitem(fixtures.VOLUME_FIXTURES, "p114-quot", fx._replace(expected={"S0": F(1, 5)}))
    with pytest.raises(acceptance.CheckFailed, match=r"^p114-quot: S0 = 1/6, annotated 1/5$"):
        acceptance.criterion_4()


def test_criterion_5_fails_on_a_wrong_wall_annotation(monkeypatch):
    fx = fixtures.WALL_FIXTURES["a12"]
    monkeypatch.setitem(fixtures.WALL_FIXTURES, "a12", fx._replace(expected={**fx.expected, "wall": F(1, 2)}))
    with pytest.raises(acceptance.CheckFailed, match=r"^centroid-a12-case1: c = 8/15$"):
        acceptance.criterion_5()


@pytest.mark.parametrize("name", sorted(acceptance._REFERENCE_PROFILES))
def test_each_printed_formula_has_the_shape_of_a_volume_profile(name):
    # PiecewiseQuadratic takes its breakpoints and pieces as given: the reference data are checked here
    oracles._check_profile(acceptance._REFERENCE_PROFILES[name])


def test_criterion_8_fails_on_a_wrong_lct_annotation(monkeypatch):
    # a3-germ is one of the germs the old hand-written list left out
    fx = fixtures.LCT_FIXTURES["a3-germ"]
    monkeypatch.setitem(fixtures.LCT_FIXTURES, "a3-germ", fx._replace(expected=F(2, 3)))
    with pytest.raises(acceptance.CheckFailed, match=r"^a3-germ: lct = 3/4, annotated 2/3$"):
        acceptance.criterion_8()


def test_criterion_9_fails_on_a_cm_degree_with_one_coefficient_changed(monkeypatch):
    real = acceptance.cm_degree
    # the c^2 coefficient -18d raised by 1
    monkeypatch.setattr(acceptance, "cm_degree", lambda n, d, c: real(n, d, c) + F(c) ** 2)
    with pytest.raises(acceptance.CheckFailed, match="^d=3: "):
        acceptance.criterion_9()


def test_criterion_10_fails_on_a_sign_flipped_hilbert_mumford_weight(monkeypatch):
    # mu(Q5) = 0 keeps its value under the flip: only a fixture of nonzero weight can see it
    real = acceptance.hm_weight_plane
    monkeypatch.setattr(acceptance, "hm_weight_plane", lambda curve, lam: -real(curve, lam))
    with pytest.raises(acceptance.CheckFailed, match=r"^xy4-destabilized: mu = 7, expected -7$"):
        acceptance.criterion_10()


def test_criterion_10_fails_on_a_weight_table_that_drops_the_scaling_weight(monkeypatch):
    # weights a w instead of a w - j: still positive, so only the comparison with the replay sees them
    real = git._weight_table
    monkeypatch.setattr(git, "_weight_table", lambda system: [
        (name, [(w, 0) for w, _ in pairs]) for name, pairs in real(system)])
    with pytest.raises(acceptance.CheckFailed,
                       match=r"^quartic-binary-unstable: certificate replays to \[4\], but prints weights 6$"):
        acceptance.criterion_10()


def test_criterion_10_fails_on_semistable_weights_printed_doubled(monkeypatch):
    # x^4 y^4 has only the weight 0, which doubling keeps: the fixture of weights 0 and 8 sees it
    real = acceptance.binary_system_stability

    def doubled(system):
        verdict = real(system)
        if verdict.verdict != "strictly-semistable":
            return verdict
        cert = verdict.certificate
        return verdict._replace(certificate=cert._replace(weights=tuple(2 * w for w in cert.weights)))

    monkeypatch.setattr(acceptance, "binary_system_stability", doubled)
    with pytest.raises(acceptance.CheckFailed,
                       match=r"^quartic-binary-ss-x8: certificate replays to \[0, 8\], but prints weights 0, 16$"):
        acceptance.criterion_10()


def test_criterion_10_fails_on_a_semistable_certificate_that_replays_positive(monkeypatch):
    # a semistable certificate whose direction destabilizes: the replay has no zero weight
    real = acceptance.replay_certificate
    monkeypatch.setattr(acceptance, "replay_certificate",
                        lambda system, cert: [w + 1 for w in real(system, cert)] if cert.r == 0 else real(system, cert))
    with pytest.raises(acceptance.CheckFailed, match=r"^quartic-binary-ss: certificate replays to \[1\]$"):
        acceptance.criterion_10()


# the cleared forms of criterion 11's base cases: its solvers' mutants below tell the base cases from the
# rescaled and moved ones by them (a rescaling by 1 gives the base form back)
_BASE_WALL_FORMS = [fixtures.wall_case(name)._form for name in acceptance._BASE_WALLS]
_BASE_CONE_FORMS = [cf.case._form for cf in fixtures.CENTROID_FIXTURES.values()]


def test_criterion_11_fails_when_a_wall_moves_under_rescaling(monkeypatch):
    # a "wall" that scales with S0, on the real report's sides: only the unscaled base case keeps its value
    real = acceptance._solve_wall_form
    monkeypatch.setattr(acceptance, "_solve_wall_form",
                        lambda form, valid_range: (F(form[2], form[5]), *real(form, valid_range)[1:]))
    with pytest.raises(acceptance.CheckFailed, match="wall moves under rescaling"):
        acceptance.criterion_11()


def test_criterion_11_fails_on_a_wall_solver_that_misreads_the_cleared_scale(monkeypatch):
    # the cleared margin is (a0 s - al s0 + (be s0 - od s) c) / s^2: a solver that drops the
    # factors of s agrees with the true wall only while s = 1; the sides are the real report's
    real = acceptance._solve_wall_form

    def unscaled(form, valid_range):
        a0, od, s0, al, be, _ = form
        return (F(-(a0 - al * s0), be * s0 - od), *real(form, valid_range)[1:])

    monkeypatch.setattr(acceptance, "_solve_wall_form", unscaled)
    with pytest.raises(acceptance.CheckFailed, match="wall moves under rescaling"):
        acceptance.criterion_11()


def test_criterion_11_fails_when_rescaling_flips_an_unstable_side(monkeypatch):
    # the wall stays put and only the side below it flips, on the rescaled cases alone: comparing the
    # walls alone passes this solver
    real = acceptance._solve_wall_form

    def flipped(form, valid_range):
        wall, below, above, degenerate = real(form, valid_range)
        return (wall, below, above, degenerate) if form in _BASE_WALL_FORMS else (wall, not below, above, degenerate)

    monkeypatch.setattr(acceptance, "_solve_wall_form", flipped)
    with pytest.raises(acceptance.CheckFailed, match=r"^[\w-]+: unstable sides change under rescaling by \d+(/\d+)?$"):
        acceptance.criterion_11()


def test_criterion_11_refuses_a_base_wall_case_without_a_wall(monkeypatch):
    # with no wall in range, "no wall" would stay "no wall" under every rescaling and prove nothing
    real, a11irr = acceptance._solve_wall_form, fixtures.wall_case("a11irr")._form
    monkeypatch.setattr(acceptance, "_solve_wall_form", lambda form, valid_range: (
        (None, *real(form, valid_range)[1:]) if form == a11irr else real(form, valid_range)))
    with pytest.raises(acceptance.CheckFailed, match="^a11irr: no wall in range to rescale$"):
        acceptance.criterion_11()


def test_criterion_11_fails_when_a_lattice_move_shifts_the_coefficient(monkeypatch):
    real = acceptance._solve_cone_form

    def shifted(form):
        verdict, solution, detail = real(form)
        if form in _BASE_CONE_FORMS:
            return verdict, solution, detail
        (a, c, b), den = solution  # cleared: c + 1 is c + den over den
        return verdict, ((a, c + den, b), den), detail

    monkeypatch.setattr(acceptance, "_solve_cone_form", shifted)
    with pytest.raises(acceptance.CheckFailed, match="-moved: unique-c"):
        acceptance.criterion_11()


def test_criterion_11_skips_ties_among_its_random_directions(monkeypatch):
    # every drawn triangle decodes to the unit triangle; directions such as (1, 0), (0, 1) and
    # (-1, -1) put two of its vertices on the lowest level, and they must be skipped
    monkeypatch.setattr(acceptance, "_triangle", lambda digits: ([(0, 0), (1, 0), (0, 1)], 1))
    assert acceptance.criterion_11().startswith("200 wall rescalings, 60 random engine-agreement fixtures")


def test_criterion_11_fails_within_its_attempt_cap_when_every_triangle_is_degenerate(monkeypatch):
    # a decoder that forgets to divide gives every coordinate of a triangle the same value, so part (b)
    # refuses every draw: the criterion must fail after its cap, not loop forever
    attempts = Counter()
    real_cycle = acceptance._polygon_cycle

    def polygon_cycle(points):
        attempts["triangle"] += 1
        return real_cycle(points)

    monkeypatch.setattr(acceptance, "_digits", lambda code, radices: [code % r for r in radices])
    monkeypatch.setattr(acceptance, "_polygon_cycle", polygon_cycle)
    with pytest.raises(acceptance.CheckFailed, match=r"^only 0 of 60 triangles in 300 attempts$"):
        acceptance.criterion_11()
    assert attempts["triangle"] == acceptance._TRIANGLE_ATTEMPTS == 300


# each corruption of a cleared cone (g0, g1, g2, xi0, eta0*, u1), and the error every cone moved from it meets
_CORRUPTED_CONES = {
    "non-integer generator": (lambda g0, g1, g2, xi, eta, u1: ((g0[0], 2), g1, g2, xi, eta, u1),
                              r"^field 'generators\[0\]': .* is not a primitive integer vector$"),
    "non-primitive generator": (lambda g0, g1, g2, xi, eta, u1: (([2 * x for x in g0[0]], 1), g1, g2, xi, eta, u1),
                                r"^field 'generators\[0\]': .* is not a primitive integer vector$"),
    "dependent generators": (lambda g0, g1, g2, xi, eta, u1: (g0, g1, g0, xi, eta, u1),
                             "^field 'generators': cone generators are linearly dependent$"),
    "xi0 outside the cone": (lambda g0, g1, g2, xi, eta, u1: (g0, g1, g2, ([-x for x in xi[0]], xi[1]), eta, u1),
                             "^field 'xi0': Reeb vector must lie in the interior of the cone$"),
    "eta0* not orthogonal to xi0": (lambda g0, g1, g2, xi, eta, u1: (g0, g1, g2, xi, xi, u1),
                                    r"^field 'eta0star': eta0\* must pair to zero with the Reeb vector$"),
}


def test_each_centroid_case_keeps_its_cleared_cone():
    # each vector's numerators over the least common denominator of its entries, from the Fraction fields
    for name, cf in fixtures.CENTROID_FIXTURES.items():
        case = cf.case
        want = []
        for v in (*case.generators, case.xi0, case.eta0star, case.u1):
            s = math.lcm(*(x.denominator for x in v))
            want.append(([(x * s).numerator for x in v], s))
        assert case._cone == tuple(want), name


@pytest.mark.parametrize("corrupt, message", _CORRUPTED_CONES.values(), ids=_CORRUPTED_CONES)
def test_criterion_11_checks_every_cone_it_moves(monkeypatch, corrupt, message):
    # the base cones' forms stay valid and only the cleared cones the moves start from, each fixture case's
    # _cone, are corrupted: each moved cone is refused only if the record it becomes runs every check of a
    # CentroidCase
    for cf in fixtures.CENTROID_FIXTURES.values():
        monkeypatch.setattr(cf.case, "_cone", corrupt(*cf.case._cone))
    with pytest.raises(ConeError, match=message):
        acceptance.criterion_11()


@pytest.mark.parametrize("lam", [F(1, 400), F(1), F(400)])
@pytest.mark.parametrize("name", acceptance._BASE_WALLS)
def test_each_rescaled_wall_case_is_the_one_the_fraction_products_build(name, lam):
    case = fixtures.wall_case(name)
    got = acceptance._rescaled_form(case, lam.numerator, lam.denominator)
    want = WallCase(case.name + "-scaled", case.A0 * lam, case.ordD * lam, case.S0 * lam,
                    case.alpha, case.beta, case.valid_range)
    assert got == want._form and all(type(x) is int for x in got)


def test_criterion_11_derives_each_base_case_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_solve_wall_form", "_solve_cone_form", "solve_wall", "solve_centroid_condition"):
        monkeypatch.setattr(acceptance, name, counted(name, getattr(acceptance, name)))
    monkeypatch.setattr(acceptance.fixtures, "wall_case", counted("wall_case", acceptance.fixtures.wall_case))
    acceptance.criterion_11()
    # 6 base walls, 8 base cone verdicts; the 200 rescalings and 100 lattice moves still run, each on its form
    assert calls == {"wall_case": 6, "_solve_wall_form": 6 + 200, "_solve_cone_form": 8 + 100}


def test_criterion_11_builds_no_record_per_trial(monkeypatch):
    # every record a criterion-11 trial could build passes through its class's constructor: only the six
    # base wall cases are built, and no centroid case
    built = Counter()
    for cls in (CentroidCase, WallCase):
        def counted(cls, *args, real=cls.__new__, **kwargs):
            record = real(cls, *args, **kwargs)
            built[cls.__name__, record.name] += 1
            return record
        monkeypatch.setattr(cls, "__new__", counted)
    acceptance.criterion_11()
    assert built == Counter({("WallCase", name): 1 for name in acceptance._BASE_WALLS})


_COUNT_DERIVATIONS = textwrap.dedent("""
    import json
    from collections import Counter
    from kwall import acceptance, fixtures

    # the engines under the names the record calls them by; criteria 3, 4 and 11 call them by their own
    engines, s0_of = Counter(), []
    for name in ("volume_two_ray", "volume_toric"):
        def counted(*args, name=name, real=getattr(fixtures, name)):
            engines[name] += 1
            return real(*args)
        setattr(fixtures, name, counted)
    real_s0 = fixtures.s_invariant
    fixtures.s_invariant = lambda profile: s0_of.append(profile) or real_s0(profile)
    acceptance.run_all()
    derived = dict(engines)
    # each stored profile is the one its S0 was derived from
    s0 = {name: sum(p is vf.profile for p in s0_of) for name, vf in fixtures.VOLUME_FIXTURES.items()}
    print(json.dumps({"engines": derived, "s0": s0, "total": len(s0_of)}))
""")


def test_one_pass_derives_each_volume_fixture_once():
    # a fresh interpreter, whose records have derived nothing yet: 14 S0 derivations, not 74
    src = str(Path(kwall.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _COUNT_DERIVATIONS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(proc.stdout)
    assert got == {
        "engines": {"volume_two_ray": 11, "volume_toric": 3},
        "s0": {name: 1 for name in fixtures.VOLUME_FIXTURES},
        "total": 14,
    }


def test_a_replaced_volume_fixture_derives_its_own_profile(monkeypatch):
    fx = fixtures.VOLUME_FIXTURES["a12"]
    assert fx.s0 == F(17, 5)
    calls = []
    monkeypatch.setattr(fixtures, "volume_two_ray", lambda model, L: calls.append(model) or volume_two_ray(model, L))
    assert fx.s0 == F(17, 5) and calls == []  # kept on the record
    same = fx._replace()
    assert same.profile == fx.profile and calls == [fx.model]
    bad = TwoRayModel(F(1), F(1, 26), F(0), (F(5), F(27)))
    other = fx._replace(model=bad)
    assert other.profile == volume_two_ray(bad, fx.L) != fx.profile and calls == [fx.model, bad]
    assert other.s0 != fx.s0


def test_the_stored_profile_changes_neither_equality_nor_repr():
    fx = fixtures.VOLUME_FIXTURES["p114-quot"]
    fx.s0
    fresh = fx._replace()
    before = repr(fresh)
    assert "profile" not in vars(fresh) and fresh == fx
    assert fresh.s0 == F(1, 6) and {"profile", "s0"} <= set(vars(fresh))
    assert repr(fresh) == before == repr(fx) and fresh == fx
    assert "profile" not in before and "S0': Fraction(1, 6)" in before


_CRITERION_11_DETAIL = "200 wall rescalings, 60 random engine-agreement fixtures, 100 lattice moves: all exact"


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 42, 1909, 4576, 20191, 777000, 2**31 - 1, 20260811, 987654321])
def test_criterion_11_passes_at_other_seeds(monkeypatch, seed):
    # other triangles, directions and lattice moves than the fixed seed draws
    monkeypatch.setattr(acceptance, "_SEED", seed)
    assert acceptance.criterion_11() == _CRITERION_11_DETAIL


def _twin_by_fractions(tri, w):
    """The two-ray twin of criterion 11(b) built from the Fraction vertices, as it was first written."""
    w = (F(w[0]), F(w[1]))
    levels = sorted(oracles.v2_dot(v, w) for v in tri.vertices)
    if levels[0] == levels[1]:
        return None
    vs = tri.vertices
    k = min(range(3), key=lambda i: oracles.v2_dot(vs[i], w))
    e1, e2 = oracles.v2_sub(vs[k - 2], vs[k]), oracles.v2_sub(vs[k - 1], vs[k])
    h2 = 2 * oracles.area_centroid(tri)[0]
    e = abs(oracles.v2_cross(e1, e2)) / (oracles.v2_dot(e1, w) * oracles.v2_dot(e2, w))
    return TwoRayModel(h2, e, F(0), ((levels[1] - levels[0]) * e, h2))


def _fraction_triangles(seed):
    """Part (b) at seed as it ran on the Fraction decoder, ``oracles.triangle``, and the engines' public entry
    points: the attempt, vertices, direction and both profiles of each triangle it accepts, up to 60."""
    rng = random.Random(seed)
    size = math.prod(acceptance._RESCALE_RADICES)
    for _ in range(200):  # part (a) draws first
        rng.randrange(size)
    size = math.prod(acceptance._TRIANGLE_RADICES)
    accepted = []
    for attempt in range(acceptance._TRIANGLE_ATTEMPTS):
        d = acceptance._digits(rng.randrange(size), acceptance._TRIANGLE_RADICES)
        try:
            _, tri = oracles.triangle(d)
        except ValueError:
            continue
        w = (d[12] - 5, d[13] - 5)
        if tri.kind != "polygon" or w == (0, 0) or (model := _twin_by_fractions(tri, w)) is None:
            continue
        toric, two = volume_toric(MomentPolygon(tri, w)), volume_two_ray(model, (F(1), F(0)))
        accepted.append((attempt, tri.vertices, w, toric, two))
        if len(accepted) == 60:
            return accepted
    raise AssertionError(f"only {len(accepted)} triangles")


@pytest.mark.parametrize("seed", [acceptance._SEED, 1, 42])
def test_criterion_11_draws_and_profiles_the_triangles_of_the_fraction_decoder(monkeypatch, seed):
    # the integer draw accepts the same attempts, with the same triangles and directions, and its cores give
    # the same two profiles as the Fraction decoder and the public engines
    attempts, accepted, profiles = [], [], {"_toric_profile": [], "_two_ray_profile": []}
    real_triangle, real_twin = acceptance._triangle, acceptance._two_ray_twin

    def triangle(digits):
        attempts.append(digits)
        return real_triangle(digits)

    def twin(vs, den, w):
        form = real_twin(vs, den, w)
        if form is not None:
            accepted.append((len(attempts) - 1, tuple((F(x, den), F(y, den)) for x, y in vs), w))
        return form

    for core, found in profiles.items():
        monkeypatch.setattr(acceptance, core, lambda *args, real=getattr(acceptance, core), found=found:
                            found.append(real(*args)) or found[-1])
    monkeypatch.setattr(acceptance, "_SEED", seed)
    monkeypatch.setattr(acceptance, "_triangle", triangle)
    monkeypatch.setattr(acceptance, "_two_ray_twin", twin)
    acceptance.criterion_11()
    assert list(zip(*zip(*accepted), *profiles.values())) == _fraction_triangles(seed)
    for (attempt, vertices, w), toric in zip(accepted, profiles["_toric_profile"]):
        assert toric == oracles.toric_profile(MomentPolygon(polygon(vertices), w)), attempt


_COORDINATE = st.tuples(st.integers(0, 8), st.integers(0, 11))  # p and q of p / (q + 1), as part (b) draws them


def _points(*xy):
    """Integer points as coordinate digits (p, q) with q = 0."""
    return [((x, 0), (y, 0)) for x, y in xy]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=3, max_size=6),
       w=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       L=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)))
@example(points=_points((4, 0), (6, 8), (0, 3), (8, 3), (2, 8)), w=(1, 2), L=(1, 0, 1))  # a pentagram
@example(points=_points((0, 0), (8, 0), (2, 2), (0, 8)), w=(1, 2), L=(1, 0, 1))  # a reflex vertex
@example(points=_points((0, 0), (4, 0), (2, 0), (4, 4)), w=(1, 2), L=(1, 0, 1))  # a turn back
@example(points=_points((0, 0), (4, 0), (0, 4)), w=(1, 2), L=(0, 1, 1))  # L = E is not big
def test_each_engine_core_is_its_public_wrapper_on_random_triangles_and_directions(points, w, L):
    # part (b)'s cores on the points cleared over the lcm of their denominators, the public entry points on
    # the Fractions: the same polygon, profiles and twin, or the same refusal
    digits = [v for point in points for coordinate in point for v in coordinate]
    verts = [(F(px, qx + 1), F(py, qy + 1)) for (px, qx), (py, qy) in points]
    den = math.lcm(*(q + 1 for q in digits[1::2]))
    pts = [(px * (den // (qx + 1)), py * (den // (qy + 1))) for (px, qx), (py, qy) in points]
    if len(points) == 3:
        assert acceptance._triangle(digits) == (pts, den) and oracles.triangle(digits)[0] == verts
    try:
        tri = polygon(verts)
    except StructuralError as exc:
        with pytest.raises(StructuralError) as got:
            _polygon_cycle(pts)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    kind, kept = _polygon_cycle(pts)
    assert kind == tri.kind and tuple(verts[i] for _, i in kept) == tri.vertices
    assert tuple((F(x, den), F(y, den)) for (x, y), _ in kept) == tri.vertices
    if kind != "polygon" or w == (0, 0):
        return
    vs = [q for q, _ in kept]
    assert _toric_profile([c for v in vs for c in v], den, w) == volume_toric(MomentPolygon(tri, w))
    if len(vs) != 3:
        return
    form, model = acceptance._two_ray_twin(vs, den, w), _twin_by_fractions(tri, w)
    assert form == (model and model._form)
    if model is None:
        return
    lh, le, l = L
    try:
        want = volume_two_ray(model, (F(lh, l), F(le, l)))
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            _two_ray_profile(form, (lh, le), l)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    assert _two_ray_profile(form, (lh, le), l) == want


def _moved_by_fractions(case, g):
    """A cone moved by g through the Fraction matrix-vector product and the Fraction inverse."""
    gf = oracles.mat3(g)
    ginv_t = oracles.mat3_transpose(oracles.mat3_inverse(gf))
    return CentroidCase(
        name=case.name + "-moved",
        generators=tuple(oracles.mat3_vec(gf, n) for n in case.generators),
        xi0=oracles.mat3_vec(gf, case.xi0),
        eta0star=oracles.mat3_vec(ginv_t, case.eta0star),
        u1=oracles.mat3_vec(ginv_t, case.u1),
    )


@pytest.mark.parametrize("seed", [acceptance._SEED, 1, 2, 3, 7, 42, 1909, 4576, 20191, 777000, 2**31 - 1,
                                  20260811, 987654321])
def test_criterion_11_builds_the_same_twins_and_moved_cones_as_the_fraction_constructions(monkeypatch, seed):
    # every twin and moved cone the criterion builds at this seed, ties among the directions included
    twins, moves = [], []
    real_twin, real_moved = acceptance._two_ray_twin, acceptance._moved_form

    def twin(vs, den, w):
        twins.append((vs, den, w, real_twin(vs, den, w)))
        return twins[-1][3]

    def moved(cone, g, ginv_t):
        moves.append((cone, g, real_moved(cone, g, ginv_t)))
        return moves[-1][2]

    monkeypatch.setattr(acceptance, "_SEED", seed)
    monkeypatch.setattr(acceptance, "_two_ray_twin", twin)
    monkeypatch.setattr(acceptance, "_moved_form", moved)
    acceptance.criterion_11()
    assert sum(form is not None for *_, form in twins) == 60 and len(moves) == 100
    for vs, den, w, form in twins:
        want = _twin_by_fractions(oracles.polygon([(F(x, den), F(y, den)) for x, y in vs]), w)
        assert form == (want and want._form), (vs, den, w)
    bases = {name: cf.case for name, cf in fixtures.CENTROID_FIXTURES.items()}
    for cone, g, form in moves:
        base = next(case for case in bases.values() if case._cone == cone)
        assert form == _moved_by_fractions(base, g)._form, base.name


def _one_coefficient_changed(prof):
    """The profile with the t^2 coefficient of its last piece raised by 1, as an engine that wrote one
    wrong coefficient into its pieces would return it (discontinuous at the breakpoint before it)."""
    last = prof.pieces[-1]
    pieces = prof.pieces[:-1] + (Poly([last.coeff(0), last.coeff(1), last.coeff(2) + 1]),)
    return PiecewiseQuadratic(prof.breakpoints, pieces)


@pytest.mark.parametrize("engine", ["volume_two_ray", "volume_toric"])
def test_criterion_3_fails_on_an_engine_that_changes_one_coefficient(monkeypatch, engine):
    real = getattr(acceptance, engine)
    monkeypatch.setattr(acceptance, engine, lambda *args: _one_coefficient_changed(real(*args)))
    with pytest.raises(acceptance.CheckFailed, match="profile differs from the printed formula"):
        acceptance.criterion_3()


@pytest.mark.parametrize("name", sorted(acceptance._REFERENCE_PROFILES))
def test_criterion_3_profiles_agree_with_the_printed_formulas_inside_their_support(name):
    # criterion 3 compares breakpoints and pieces; equal profiles then agree at every sample point
    got = fixtures.VOLUME_FIXTURES[name].profile
    ref = acceptance._REFERENCE_PROFILES[name]
    samples = oracles.sample_points(ref.breakpoints[-1])
    assert [oracles.piecewise_eval(got, t) for t in samples] == [oracles.piecewise_eval(ref, t) for t in samples]


def test_samples_can_miss_a_piece_that_the_comparison_of_pieces_sees():
    # no sample of a11irr falls in its last piece [12/5, 5/2): the one-coefficient mutant agrees with
    # the printed formula at all 20 samples, and criterion 3 still fails on it
    ref = acceptance._REFERENCE_PROFILES["a11irr"]
    bad = _one_coefficient_changed(fixtures.VOLUME_FIXTURES["a11irr"].profile)
    samples = oracles.sample_points(ref.breakpoints[-1])
    assert [oracles.piecewise_eval(bad, t) for t in samples] == [oracles.piecewise_eval(ref, t) for t in samples]
    assert bad != ref


def _doubled(prof):
    """The profile with every piece doubled: still continuous, so still a valid PiecewiseQuadratic."""
    pieces = [Poly([2 * c for c in p.coeffs]) for p in prof.pieces]
    return PiecewiseQuadratic(prof.breakpoints, pieces)


def _doubled_core(monkeypatch, core):
    """Double every piece of each profile that part (b) gets from the engine core it calls on the cleared
    triangle."""
    real = getattr(acceptance, core)
    monkeypatch.setattr(acceptance, core, lambda *args: _doubled(real(*args)))


def test_criterion_11_fails_on_a_two_ray_twin_with_doubled_pieces(monkeypatch):
    # the equality of the two profiles alone guards the engine agreement of part (b)
    _doubled_core(monkeypatch, "_two_ray_profile")
    with pytest.raises(acceptance.CheckFailed, match=r"^twin mismatch for \[\(Fraction"):
        acceptance.criterion_11()


def test_criterion_11_fails_on_a_toric_profile_with_doubled_pieces(monkeypatch):
    _doubled_core(monkeypatch, "_toric_profile")
    with pytest.raises(acceptance.CheckFailed, match=r"^twin mismatch for \[\(Fraction"):
        acceptance.criterion_11()


def _unimodular_by_fractions(digits):
    """The lattice move of criterion 11 composed through the rational 3x3 product from the same digits."""
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    m = oracles.mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for t in range(6):
        i, j = pairs[digits[2 * t]]
        shear = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
        shear[i][j] = range(-2, 3)[digits[2 * t + 1]]
        m = oracles.mat3_mul(m, oracles.mat3(shear))
    perm = list(itertools.permutations(range(3)))[digits[12]]
    signs = [(1, -1)[b] for b in digits[13:16]]
    pm = [[signs[r] if perm[r] == c else 0 for c in range(3)] for r in range(3)]
    return oracles.mat3_mul(m, oracles.mat3(pm))


def test_integer_lattice_moves_match_the_rational_composition():
    size = math.prod(acceptance._MOVE_RADICES)
    rng = random.Random(20191)
    codes = [0, size - 1, *(rng.randrange(size) for _ in range(498))]
    for code in codes:
        digits = acceptance._digits(code, acceptance._MOVE_RADICES)
        assert acceptance._random_unimodular(digits) == _unimodular_by_fractions(digits), code


def test_moved_cones_are_the_ones_the_fraction_composition_builds():
    # every digit string of part (c) at codes 0, N - 1 and a fixed sample: the integer rows of g and of
    # (g^-1)^T applied to the cleared cone give the cleared form that the rational product of the shears
    # and the signed permutation and its inverse give through the constructor, and the form-level solve
    # gives the verdict, solution and detail of the record's solve and of the Fraction oracle
    names = sorted(fixtures.CENTROID_FIXTURES)
    radices = (len(names), *acceptance._MOVE_RADICES)
    size = math.prod(radices)
    rng = random.Random(4576)
    for code in [0, size - 1, *(rng.randrange(size) for _ in range(198))]:
        d = acceptance._digits(code, radices)
        base = fixtures.CENTROID_FIXTURES[names[d[0]]].case
        gf = _unimodular_by_fractions(d[1:])
        ginv_t = oracles.mat3_transpose(oracles.mat3_inverse(gf))
        assert all(x.denominator == 1 for row in (*gf, *ginv_t) for x in row)  # g is unimodular
        g, h = (tuple(tuple(x.numerator for x in row) for row in m) for m in (gf, ginv_t))
        got = acceptance._moved_form(base._cone, g, h)
        want = _moved_by_fractions(base, gf)
        assert got == want._form, code
        u0, u2, solution, verdict, detail = solve_centroid_condition(want)
        assert oracles.solution_fractions(acceptance._solve_cone_form(got)) == (verdict, solution, detail), code
        assert oracles.solve_centroid_condition(want) == (u0, u2, solution, verdict, detail), code


@pytest.mark.parametrize("radices", [(2, 3, 5), (5, 3, 2), (1, 4), (7,), (2, 2, 2, 2)])
def test_digits_map_the_codes_one_to_one_onto_the_digit_ranges(radices):
    size = math.prod(radices)
    decoded = [tuple(acceptance._digits(code, radices)) for code in range(size)]
    assert sorted(decoded) == sorted(itertools.product(*(range(r) for r in radices)))
    # least significant first: code = d0 + r0 (d1 + r1 (d2 + ...)), so the codes count through the
    # product with the first digit fastest (coprime radices alone would not see code % r for each digit)
    assert decoded == [t[::-1] for t in itertools.product(*(range(r) for r in radices[::-1]))]


def test_each_suite_draws_over_the_ranges_of_the_draws_it_replaced():
    # (a) a choice of base wall and randint(1, 400) twice; (b) six randint(0, 8) / randint(1, 12)
    # coordinates and two randint(-5, 5); (c) after a choice of centroid fixture, per shear a sample of
    # two of range(3) and randint(-2, 2), then a shuffle of range(3) and three choices of (1, -1)
    assert acceptance._BASE_WALLS == ("a12", "a11red", "a11irr", "a10", "p1425-case1", "p1425-case2")
    assert acceptance._RESCALE_RADICES == (6, len(range(1, 401)), len(range(1, 401)))
    assert acceptance._TRIANGLE_RADICES == (len(range(0, 9)), len(range(1, 13))) * 6 + (len(range(-5, 6)),) * 2
    assert sorted(acceptance._PAIRS) == sorted(itertools.permutations(range(3), 2))
    assert sorted(acceptance._PERMS) == sorted(itertools.permutations(range(3)))
    assert acceptance._MOVE_RADICES == (6, len(range(-2, 3))) * 6 + (6, 2, 2, 2)


def test_one_pass_at_the_seed_uses_every_value_of_every_digit(monkeypatch):
    # every call that decodes a trial or reads one of its values, in order
    events = []
    for name in ("_digits", "_solve_wall_form", "_polygon_cycle", "_two_ray_twin", "_moved_form", "_random_unimodular"):
        def spy(*args, real=getattr(acceptance, name), name=name):
            result = real(*args)
            events.append((name, args, result))
            return result
        monkeypatch.setattr(acceptance, name, spy)
    acceptance.criterion_11()

    # each value a trial reads comes from its own digits, as documented next to the radices
    names = sorted(fixtures.CENTROID_FIXTURES)
    move_radices = (len(names), *acceptance._MOVE_RADICES)
    suites = {acceptance._RESCALE_RADICES: [], acceptance._TRIANGLE_RADICES: [], move_radices: []}
    d = None
    for name, args, result in events:
        if name == "_digits":
            d = result
            suites[args[1]].append(d)
        elif d is None:  # the six base walls, solved before the first draw
            assert name == "_solve_wall_form" and args[0] in _BASE_WALL_FORMS
        elif name == "_solve_wall_form":
            base, lam = fixtures.wall_case(acceptance._BASE_WALLS[d[0]]), F(d[1] + 1, d[2] + 1)
            *nums, s = args[0]
            assert [F(n, s) for n in nums] == [base.A0 * lam, base.ordD * lam, base.S0 * lam, base.alpha, base.beta]
            assert args[1] == base.valid_range
        elif name == "_polygon_cycle":  # the points over the lcm of the coordinates' denominators q + 1
            x0, y0, x1, y1, x2, y2 = (F(p, q + 1) for p, q in zip(d[0:12:2], d[1:12:2]))
            den = math.lcm(*(q + 1 for q in d[1:12:2]))
            assert [(F(x, den), F(y, den)) for x, y in args[0]] == [(x0, y0), (x1, y1), (x2, y2)]
        elif name == "_two_ray_twin":
            assert args[2] == (d[12] - 5, d[13] - 5)
        elif name == "_moved_form":
            assert args[0] == fixtures.CENTROID_FIXTURES[names[d[0]]].case._cone
        else:
            assert list(args[0]) == d[1:]
    rescalings, triangles, moves = suites.values()
    assert (len(rescalings), len(moves)) == (200, 100) and len(triangles) >= 60

    # every base wall, numerator p and denominator q + 1 of a coordinate, component of w, centroid
    # fixture, ordered pair, k, permutation and sign occurs; and no two digits of a radix always agree:
    # a decoder that drops a digit pins it, one that reuses a digit ties two of them together
    assert {r[0] for r in rescalings} == set(range(6))
    assert {t[i] for t in triangles for i in range(0, 12, 2)} == set(range(9))
    assert {t[i] for t in triangles for i in range(1, 12, 2)} == set(range(12))
    assert {t[12] for t in triangles} == {t[13] for t in triangles} == set(range(11))
    for pos, radix in enumerate(move_radices):
        assert {m[pos] for m in moves} == set(range(radix)), pos
    for radices, drawn in suites.items():
        for a, b in itertools.combinations(range(len(radices)), 2):
            if radices[a] == radices[b]:
                assert any(t[a] != t[b] for t in drawn), (radices, a, b)


class _CountingRandom(random.Random):
    """A Random that counts its randrange calls and refuses the wrappers criterion 11 once drew with."""

    def __init__(self, seed):
        super().__init__(seed)
        self.randranges = 0

    def randrange(self, *args):
        self.randranges += 1
        return super().randrange(*args)

    def _refused(self, *args, **kwargs):
        raise AssertionError("criterion 11 draws only with randrange")

    randint = choice = choices = sample = shuffle = _refused


def test_criterion_11_draws_one_randrange_per_trial_attempt(monkeypatch):
    rngs, attempts = [], Counter()
    real_cycle = acceptance._polygon_cycle

    def counting(seed):
        rngs.append(_CountingRandom(seed))
        return rngs[-1]

    def polygon_cycle(points):  # called once per attempt of part (b), before any of its rejections
        attempts["triangle"] += 1
        return real_cycle(points)

    monkeypatch.setattr(acceptance, "random", SimpleNamespace(Random=counting))
    monkeypatch.setattr(acceptance, "_polygon_cycle", polygon_cycle)
    assert acceptance.criterion_11() == _CRITERION_11_DETAIL
    assert len(rngs) == 1 and attempts["triangle"] >= 60
    assert rngs[0].randranges == 200 + attempts["triangle"] + 100


def _doubled_widths(mp):
    # vol(L - tv) is twice the integral of the slice width past t: every width doubled doubles
    # the profile, which leaves S0 = (integral of vol) / vol(L) unchanged
    return _doubled(volume_toric(mp))


def _doubled_depths(mp):
    # every slice moved to twice its depth: vol(t / 2), which leaves vol(L) unchanged and doubles S0
    prof = volume_toric(mp)
    pieces = [Poly([c / 2**i for i, c in enumerate(p.coeffs)]) for p in prof.pieces]
    return PiecewiseQuadratic([2 * b for b in prof.breakpoints], pieces)


@pytest.mark.parametrize("mutant,message", [
    (_doubled_widths, r"p114-w31: toric vol\(L\) = 1/2, 2 area\(P\) = 1/4"),
    (_doubled_depths, r"p114-w31: toric S0 = 8/3, barycenter S0 = 4/3"),
])
def test_criterion_4_checks_the_toric_engine_against_the_barycenter(monkeypatch, mutant, message):
    monkeypatch.setattr(acceptance, "volume_toric", mutant)
    with pytest.raises(acceptance.CheckFailed, match=message):
        acceptance.criterion_4()
