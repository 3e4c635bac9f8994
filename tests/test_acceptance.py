"""Acceptance gate: one test per verification criterion, each printed as a
pass/fail line.  Every comparison is exact; there are no tolerances to tune."""

from __future__ import annotations

import dataclasses
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
from kwall import acceptance
from kwall.acceptance import CRITERIA
from kwall.exact import PiecewiseQuadratic, Poly, mat3, polygon
from kwall.volumes import VolumeProfile, volume_toric


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
    import dataclasses, sys
    from fractions import Fraction as F
    from kwall import cli, fixtures
    from kwall.volumes import TwoRayModel

    fx = fixtures.VOLUME_FIXTURES["a12"]
    bad = TwoRayModel(F(1), F(1, 26), F(0), (F(5), F(27)))
    fixtures.VOLUME_FIXTURES["a12"] = dataclasses.replace(fx, model=bad)
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


def test_criterion_11_fails_when_a_wall_moves_under_rescaling(monkeypatch):
    # a "wall" that scales with S0: only the unscaled base case keeps its value
    monkeypatch.setattr(acceptance, "solve_wall", lambda case: SimpleNamespace(wall=case.S0))
    with pytest.raises(acceptance.CheckFailed, match="wall moves under rescaling"):
        acceptance.criterion_11()


def test_criterion_11_fails_when_a_lattice_move_shifts_the_coefficient(monkeypatch):
    real = acceptance.solve_centroid_condition

    def shifted(case):
        verdict = real(case)
        if not case.name.endswith("-moved"):
            return verdict
        a, c, b = verdict.solution
        return dataclasses.replace(verdict, solution=(a, c + 1, b))

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


def _unimodular_by_fractions(rng: random.Random):
    """The lattice move of criterion 11 composed through the rational 3x3 product."""
    m = mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        shear = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
        shear[i][j] = rng.randint(-2, 2)
        m = oracles.mat3_mul(m, mat3(shear))
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    pm = [[signs[r] if perm[r] == c else 0 for c in range(3)] for r in range(3)]
    return oracles.mat3_mul(m, mat3(pm))


def test_integer_lattice_moves_match_the_rational_composition():
    fast, slow = random.Random(20191), random.Random(20191)
    for _ in range(500):
        assert acceptance._random_unimodular(fast) == _unimodular_by_fractions(slow)
    assert fast.getstate() == slow.getstate()


def _doubled_widths(mp):
    # vol(L - tv) is twice the integral of the slice width past t: every width doubled doubles
    # the profile, which leaves S0 = (integral of vol) / vol(L) unchanged
    prof = volume_toric(mp)
    pieces = [Poly([2 * c for c in p.coeffs]) for p in prof.profile.pieces]
    return VolumeProfile(PiecewiseQuadratic(prof.profile.breakpoints, pieces), prof.nef_threshold,
                         prof.pseff_threshold)


def _doubled_depths(mp):
    # every slice moved to twice its depth: vol(t / 2), which leaves vol(L) unchanged and doubles S0
    prof = volume_toric(mp)
    pieces = [Poly([c / 2**i for i, c in enumerate(p.coeffs)]) for p in prof.profile.pieces]
    return VolumeProfile(PiecewiseQuadratic([2 * b for b in prof.profile.breakpoints], pieces),
                         2 * prof.nef_threshold, 2 * prof.pseff_threshold)


@pytest.mark.parametrize("mutant,message", [
    (_doubled_widths, r"p114-w31: toric vol\(L\) = 1/2, 2 area\(P\) = 1/4"),
    (_doubled_depths, r"p114-w31: toric S0 = 8/3, barycenter S0 = 4/3"),
])
def test_criterion_4_checks_the_toric_engine_against_the_barycenter(monkeypatch, mutant, message):
    monkeypatch.setattr(acceptance, "volume_toric", mutant)
    with pytest.raises(acceptance.CheckFailed, match=message):
        acceptance.criterion_4()
