"""Every record in ``src/kwall`` is an immutable value.

Each of the 28 record classes is a named tuple; one instance of each, built
from the fixtures, must refuse assignment to any of its fields, equal a record
rebuilt from its own fields through its constructor, and, when every field is
hashable, hash alike.  Derived state (a ``_form``, a volume fixture's stored
profile and S0) lives in the instance dict, outside equality, hashing and repr.
"""

from __future__ import annotations

import inspect
import sys

import pytest

import kwall.cli  # noqa: F401  (loads every module, so the completeness check sees every record)
from kwall import acceptance, exact, fixtures, git, toric_kps, valuations, volumes, walls

_A12_CONE = "centroid-a12-case1"
_UNSTABLE_OCTIC = "quartic-binary-unstable"
_Q5 = "q5-double-conic-line"
_SIGMA5 = fixtures.STRATUM_REPRESENTATIVES["Sigma5"]

# (record class, a builder of one instance from the fixtures)
RECORDS = [
    (acceptance.CriterionResult, lambda: acceptance.run_all()[0]),
    (exact.Polygon2, lambda: fixtures.VOLUME_FIXTURES["p1425-w11"].moment.polygon),
    (fixtures.Surface, lambda: fixtures.VOLUME_FIXTURES["p1425-w11"].surface),
    # its stored profile and S0 stay outside == and repr
    (fixtures.VolumeFixture, lambda: fixtures.VOLUME_FIXTURES["a12"]),
    (fixtures.WallFixture, lambda: fixtures.WALL_FIXTURES["a12"]),
    (fixtures.CentroidFixture, lambda: fixtures.CENTROID_FIXTURES[_A12_CONE]),
    (fixtures.LctFixture, lambda: fixtures.LCT_FIXTURES["d6-germ"]),
    (fixtures.BinaryFixture, lambda: fixtures.BINARY_FIXTURES[_UNSTABLE_OCTIC]),
    (fixtures.PlaneGitFixture, lambda: fixtures.PLANE_GIT_FIXTURES[_Q5]),
    (git.PlaneCurveSupport, lambda: fixtures.PLANE_GIT_FIXTURES[_Q5].curve),
    (git.OnePS, lambda: fixtures.PLANE_GIT_FIXTURES[_Q5].one_ps),
    (git.BinaryFormSystem, lambda: fixtures.BINARY_FIXTURES[_UNSTABLE_OCTIC].system),
    (git.StabilityCertificate,
     lambda: git.binary_system_stability(fixtures.BINARY_FIXTURES[_UNSTABLE_OCTIC].system).certificate),
    (git.StabilityVerdict, lambda: git.binary_system_stability(fixtures.BINARY_FIXTURES[_UNSTABLE_OCTIC].system)),
    (toric_kps.CentroidCase, lambda: fixtures.CENTROID_FIXTURES[_A12_CONE].case),
    (toric_kps.CentroidVerdict, lambda: toric_kps.solve_centroid_condition(fixtures.CENTROID_FIXTURES[_A12_CONE].case)),
    (valuations.CyclicQuot, lambda: fixtures.VOLUME_FIXTURES["x26"].valuation.point),
    (valuations.MonomialVal, lambda: fixtures.VOLUME_FIXTURES["x26"].valuation),
    (valuations.GermSupport, lambda: fixtures.WALL_FIXTURES["a12"].curve_germ),
    (valuations.QuasiHomogGerm, lambda: fixtures.LCT_FIXTURES["d6-germ"].support),
    # the benchmark's tracer keys volume_two_ray calls by (model, L)
    (volumes.TwoRayModel, lambda: fixtures.VOLUME_FIXTURES["a12"].model),
    (volumes.MomentPolygon, lambda: fixtures.VOLUME_FIXTURES["p114-w31"].moment),
    (walls.Interval, lambda: fixtures.wall_case("a12").valid_range),
    (walls.WallCase, lambda: fixtures.wall_case("a12")),
    (walls.WallReport, lambda: walls.solve_wall(fixtures.wall_case("a12"))),
    (walls.QuinticStratumPoint, lambda: walls.QuinticStratumPoint(_SIGMA5)),
    (walls.StratumVerdict, lambda: walls.classify_quintic_stratum(walls.QuinticStratumPoint(_SIGMA5))),
    (walls.WallTableRow, lambda: walls.quintic_wall_table()[1]),
]

# the records that hold a dict (annotations, or the blocks of a binary system) have no hash
UNHASHABLE = {
    fixtures.VolumeFixture, fixtures.WallFixture, fixtures.CentroidFixture, fixtures.BinaryFixture, git.BinaryFormSystem,
}


def test_every_record_class_is_listed():
    kwall_modules = [m for name, m in list(sys.modules.items()) if name.startswith("kwall.")]
    found = {
        obj for m in kwall_modules for name, obj in vars(m).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == m.__name__
        and not name.startswith("_")
    }
    assert found == {cls for cls, _ in RECORDS}
    assert len(RECORDS) == 28


@pytest.mark.parametrize("cls,build", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_a_record_is_an_immutable_value(cls, build):
    record = build()
    assert type(record) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    # rebuilt by keyword through the constructor, which also checks that its parameters name fields
    rebuilt = cls(**{p: getattr(record, p) for p in inspect.signature(cls).parameters})
    assert rebuilt is not record and rebuilt == record and repr(rebuilt) == repr(record)
    if cls not in UNHASHABLE:
        assert hash(rebuilt) == hash(record)


def test_a_two_ray_model_keys_a_dict_by_value():
    vf = fixtures.VOLUME_FIXTURES["a12"]
    calls = {(vf.model, vf.L): 1}
    twin = volumes.TwoRayModel(*vf.model)
    assert calls[(twin, vf.L)] == 1
    assert "_form" not in volumes.TwoRayModel._fields and "_form" not in repr(twin) and twin._form == vf.model._form
