"""Acceptance gate: one test per verification criterion, each printed as a
pass/fail line.  Every comparison is exact; there are no tolerances to tune."""

from __future__ import annotations

import json
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

import kwall
import oracles
from kwall import acceptance, fixtures
from kwall.acceptance import CRITERIA
from kwall.exact import PiecewiseQuadratic, Poly, polygon
from kwall.toric_kps import CentroidCase
from kwall.volumes import TwoRayModel, volume_toric, volume_two_ray
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


def test_criterion_11_fails_when_a_wall_moves_under_rescaling(monkeypatch):
    # a "wall" that scales with S0: only the unscaled base case keeps its value
    monkeypatch.setattr(acceptance, "solve_wall", lambda case: SimpleNamespace(wall=case.S0))
    with pytest.raises(acceptance.CheckFailed, match="wall moves under rescaling"):
        acceptance.criterion_11()


def test_criterion_11_fails_on_a_wall_solver_that_misreads_the_cleared_scale(monkeypatch):
    # the cleared margin is (a0 s - al s0 + (be s0 - od s) c) / s^2: a solver that drops the
    # factors of s agrees with the true wall only while s = 1
    def unscaled(case):
        a0, od, s0, al, be, _ = case._form
        return SimpleNamespace(wall=F(-(a0 - al * s0), be * s0 - od))

    monkeypatch.setattr(acceptance, "solve_wall", unscaled)
    with pytest.raises(acceptance.CheckFailed, match="wall moves under rescaling"):
        acceptance.criterion_11()


def test_criterion_11_fails_when_a_lattice_move_shifts_the_coefficient(monkeypatch):
    real = acceptance.solve_centroid_condition

    def shifted(case):
        verdict = real(case)
        if not case.name.endswith("-moved"):
            return verdict
        a, c, b = verdict.solution
        return verdict._replace(solution=(a, c + 1, b))

    monkeypatch.setattr(acceptance, "solve_centroid_condition", shifted)
    with pytest.raises(acceptance.CheckFailed, match="-moved: unique-c"):
        acceptance.criterion_11()


def test_criterion_11_skips_ties_among_its_random_directions(monkeypatch):
    # every drawn triangle becomes the unit triangle; directions such as (1, 0), (0, 1) and
    # (-1, -1) put two of its vertices on the lowest level, and they must be skipped
    unit = polygon([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    monkeypatch.setattr(acceptance, "polygon", lambda verts: unit)
    assert acceptance.criterion_11().startswith("200 wall rescalings, 60 random engine-agreement fixtures")


def test_criterion_11_derives_each_base_case_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("solve_wall", "solve_centroid_condition"):
        monkeypatch.setattr(acceptance, name, counted(name, getattr(acceptance, name)))
    monkeypatch.setattr(acceptance.fixtures, "wall_case", counted("wall_case", acceptance.fixtures.wall_case))
    acceptance.criterion_11()
    # 6 base walls, 8 base cone verdicts; the 200 rescalings and 100 lattice moves still run
    assert calls == {"wall_case": 6, "solve_wall": 6 + 200, "solve_centroid_condition": 8 + 100}


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
    real_twin, real_moved = acceptance._two_ray_twin, acceptance._moved_case

    def twin(tri, w):
        twins.append((tri, w, real_twin(tri, w)))
        return twins[-1][2]

    def moved(name, cone, g, ginv_t):
        moves.append((name, g, real_moved(name, cone, g, ginv_t)))
        return moves[-1][2]

    monkeypatch.setattr(acceptance, "_SEED", seed)
    monkeypatch.setattr(acceptance, "_two_ray_twin", twin)
    monkeypatch.setattr(acceptance, "_moved_case", moved)
    acceptance.criterion_11()
    assert sum(model is not None for _, _, model in twins) == 60 and len(moves) == 100
    for tri, w, model in twins:
        assert model == _twin_by_fractions(tri, w), (tri, w)
    for name, g, case in moves:
        base = fixtures.CENTROID_FIXTURES[name.removesuffix("-moved")].case
        assert case == _moved_by_fractions(base, g), name


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


def test_criterion_11_fails_on_a_two_ray_twin_with_doubled_pieces(monkeypatch):
    # the equality of the two profiles alone guards the engine agreement of part (b)
    monkeypatch.setattr(acceptance, "volume_two_ray", lambda model, L: _doubled(volume_two_ray(model, L)))
    with pytest.raises(acceptance.CheckFailed, match="twin mismatch"):
        acceptance.criterion_11()


def _unimodular_by_fractions(rng: random.Random):
    """The lattice move of criterion 11 composed through the rational 3x3 product."""
    m = oracles.mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        shear = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
        shear[i][j] = rng.randint(-2, 2)
        m = oracles.mat3_mul(m, oracles.mat3(shear))
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    pm = [[signs[r] if perm[r] == c else 0 for c in range(3)] for r in range(3)]
    return oracles.mat3_mul(m, oracles.mat3(pm))


def test_integer_lattice_moves_match_the_rational_composition():
    fast, slow = random.Random(20191), random.Random(20191)
    for _ in range(500):
        assert acceptance._random_unimodular(fast) == _unimodular_by_fractions(slow)
    assert fast.getstate() == slow.getstate()


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
