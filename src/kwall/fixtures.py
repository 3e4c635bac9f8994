"""Built-in registry of the named computation scenarios.

Every fixture stores raw input data (surfaces, moment polygons, valuation
weights, germ supports, cone data) plus *annotations*: the values the
computation is expected to reproduce, with a provenance note.  The tests
compare the annotations with engine output, and criteria 5 and 8 of the
verification checklist read the printed centroid vectors and the lct values;
no annotation is ever returned as an answer.

Each surface is typed once, as a ``Surface``: (H^2), -K = alpha H and D = k d H
for a degree-d curve, so -(K + cD) = (alpha - k d c) H.  P(1, b^2, c^2) with
1 + b^2 + c^2 = 3bc comes from (b, c), moment triangle included; X_26 is a row.

A two-ray model is derived, never typed: a weighted blow-up fixture declares
its surface, its valuation of weights (w1, w2) and scale s at a 1/n point,
and one curve C of degree deg(C) by its germ.  Then -(E^2) = n/(w1 w2 s^2),
and the strict transform Cbar = deg(C) H - v(C) E spans the second ray; a
blow-up without a curve takes its isotropic ray.  Wall fixtures read A0 and
ord(D) from their volume fixture's valuation, alpha and beta from its surface.

A volume fixture derives its profile and S0 once, on first use, and keeps
them in its instance dict, outside equality, hashing and repr; ``_replace``
makes a new record, which derives its own.
"""

from __future__ import annotations

import re
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import PiecewiseQuadratic, Polygon2, Vec3, mat3_vec, polygon
from .git import BinaryFormSystem, OnePS, PlaneCurveSupport
from .toric_kps import CentroidCase
from .valuations import (
    CyclicQuot,
    GermSupport,
    MonomialVal,
    QuasiHomogGerm,
    SMOOTH_POINT,
    delta_upper,
    germ,
    log_discrepancy,
    ord_on_germ,
)
from .volumes import MomentPolygon, TwoRayModel, s_invariant, volume_toric, volume_two_ray
from .walls import Interval, WallCase

F = Fraction


# ---------------------------------------------------------------------------
# volume fixtures: the weighted blow-ups and moment polygons of the named cases
# ---------------------------------------------------------------------------

class Surface(NamedTuple):
    """A degeneration of the plane with H = O(1): -(K + cD) = (alpha - k d c) H for
    degree-d curves D, so anti_k(d) = (alpha, k d); a toric one keeps the moment triangle of H."""

    h2: Fraction
    alpha: Fraction
    k: Fraction
    triangle: Optional[Polygon2] = None

    def anti_k(self, d: int) -> tuple[Fraction, Fraction]:
        return self.alpha, self.k * d


def _manetti(b: int, c: int) -> Surface:
    """P(1, b^2, c^2), with 1 + b^2 + c^2 = 3bc: (H^2) = 1/(bc)^2, -K = 3bc H, D = bc d H,
    and the moment triangle (0,0), (1/b^2, 0), (0, 1/c^2)."""
    return Surface(F(1, (b * c) ** 2), F(3 * b * c), F(b * c),
                   polygon([(F(0), F(0)), (F(1, b * b), F(0)), (F(0), F(1, c * c))]))


_P2, _P114, _P1425 = _manetti(1, 1), _manetti(1, 2), _manetti(2, 5)
_X26 = Surface(F(1, 25), F(15), F(5))


class _VolumeRecord(NamedTuple):
    name: str
    model: Optional[TwoRayModel]
    L: tuple[Fraction, Fraction]
    moment: Optional[MomentPolygon]
    surface: Optional[Surface]  # None for a scenario, which has no surface
    provenance: str
    expected: dict
    valuation: Optional[MonomialVal] = None  # a blow-up's valuation, read by its wall fixtures


class VolumeFixture(_VolumeRecord):
    # no __slots__: the instance dict keeps the profile and S0 that cached_property derives

    @cached_property
    def profile(self) -> PiecewiseQuadratic:
        """Primary engine: two-ray when present, else toric."""
        if self.model is not None:
            return volume_two_ray(self.model, self.L)
        return volume_toric(self.moment)

    @cached_property
    def s0(self) -> Fraction:
        return s_invariant(self.profile)


_ORDER4_POINT = CyclicQuot(4, 1, 1)
_A11_VAL = MonomialVal(SMOOTH_POINT, (F(6), F(1)))
_A12_QUINTIC = germ((2, 0), (0, 13))
_AXIS = germ((1, 0))  # the curve x = 0 through the point


def _blow_up(name, surface, valuation, curve, s0, provenance, w=None) -> VolumeFixture:
    """The weighted blow-up of ``surface`` by ``valuation``, with L = H and curve = (degree, germ)
    or None, as the module docstring derives it; a toric one also keeps its moment triangle with
    the valuation's direction w."""
    (w1, w2), s = valuation.weights, valuation.scale
    neg_curve = None if curve is None else (F(curve[0]), ord_on_germ(valuation, curve[1]))
    model = TwoRayModel(surface.h2, valuation.point.n / (w1 * w2 * s * s), F(0), neg_curve)
    moment = None if w is None else MomentPolygon(surface.triangle, w)
    return VolumeFixture(name, model, (F(1), F(0)), moment, surface, provenance, {"S0": s0}, valuation)


VOLUME_FIXTURES: dict[str, VolumeFixture] = {}


def _add_volume(fx: VolumeFixture) -> None:
    VOLUME_FIXTURES[fx.name] = fx


_add_volume(_blow_up(
    "a12", _P2, MonomialVal(SMOOTH_POINT, (F(13), F(2))), (5, _A12_QUINTIC), F(17, 5),
    "(13,2)-blow-up of the plane at the A12 point; Mori cone <E, Cbar_0 ~ 5H-26E>",
))
_add_volume(_blow_up(
    "a11red", _P2, _A11_VAL, (2, germ((1, 0), (0, 6))), F(5, 3),
    "(6,1)-blow-up at the reducible-A11 point; Qbar ~ 2H-6E, (Qbar^2) = -2",
))
_add_volume(_blow_up(
    "a11irr", _P2, _A11_VAL, (2, germ((1, 0), (0, 5))), F(49, 30),
    "(6,1)-blow-up at the irreducible-A11 point; Qbar ~ 2H-5E, (Qbar^2) = -1/6",
))
_add_volume(_blow_up(
    "a10", _P2, MonomialVal(SMOOTH_POINT, (F(11), F(2))), (2, germ((1, 0), (0, 5))), F(47, 15),
    "(11,2)-blow-up at the A10 point; Qbar ~ 2H-10E, (Qbar^2) = -6/11",
))
_add_volume(_blow_up(
    "x26", _X26, MonomialVal(CyclicQuot(25, 2, 13), (F(2), F(13))), (1, germ((13, 0), (0, 2))), F(9, 25),
    "order-25 quotient point of the degree-26 hypersurface; Gammabar ~ L - (26/25)E",
))
_add_volume(_blow_up(
    "p114-quot", _P114, MonomialVal(_ORDER4_POINT, (F(1), F(1))), None, F(1, 6),
    "order-4 quotient point of the quadric cone; vol = max(1/4 - 4t^2, 0)",
))
_add_volume(_blow_up(
    "p114-w31", _P114, MonomialVal(_ORDER4_POINT, (F(3), F(1)), scale=F(4)), (1, _AXIS), F(4, 3),
    "weights (3,1) at the order-4 point of the quadric cone, pushforward scale 4",
    w=(F(-2), F(-12)),
))
_add_volume(_blow_up(
    "p114-w51", _P114, MonomialVal(_ORDER4_POINT, (F(5), F(1)), scale=F(4)), (1, _AXIS), F(2),
    "weights (5,1) at the order-4 point of the quadric cone, pushforward scale 4",
    w=(F(-4), F(-20)),
))
_add_volume(_blow_up(
    "p1425-w11", _P1425, MonomialVal(_ORDER4_POINT, (F(1), F(1)), scale=F(4)), (1, _AXIS), F(26, 75),
    "weights (1,1) at the order-4 point of P(1,4,25), pushforward scale 4",
    w=(F(-4), F(-24)),
))
_add_volume(_blow_up(
    "p1425-w13", _P1425, MonomialVal(_ORDER4_POINT, (F(1), F(3)), scale=F(4)), (1, _AXIS), F(28, 75),
    "weights (1,3) at the order-4 point of P(1,4,25), pushforward scale 4",
    w=(F(-4), F(-22)),
))
_add_volume(_blow_up(
    "p1425-w15", _P1425, MonomialVal(_ORDER4_POINT, (F(1), F(5)), scale=F(4)), (1, _AXIS), F(2, 5),
    "weights (1,5) at the order-4 point of P(1,4,25), pushforward scale 4",
    w=(F(-4), F(-20)),
))

for _ray, _w, _s0 in (
    ("x", (F(-4), F(-25)), F(1, 3)),
    ("y", (F(1), F(0)), F(1, 12)),
    ("z", (F(0), F(1)), F(1, 75)),
):
    _add_volume(VolumeFixture(
        name=f"p1425-ray-{_ray}",
        model=None,
        L=(F(1), F(0)),
        moment=MomentPolygon(_P1425.triangle, _w),
        surface=_P1425,
        provenance=f"toric boundary ray ({_ray}-divisor) of P(1,4,25)",
        expected={"S0": _s0},
    ))


# ---------------------------------------------------------------------------
# wall-case fixtures: a curve germ on a volume fixture's blow-up, whose valuation gives A0
# ---------------------------------------------------------------------------

class WallFixture(NamedTuple):
    name: str
    curve_germ: Optional[GermSupport]
    volume: str  # key into VOLUME_FIXTURES: its valuation gives A0 and ord(D), its profile S0
    provenance: str
    expected: dict
    degree: int = 5  # of the plane curves: alpha and beta from the surface, and the range (0, 3/degree)

    def case(self) -> WallCase:
        vf = VOLUME_FIXTURES[self.volume]
        alpha, beta = vf.surface.anti_k(self.degree)
        return WallCase(
            name=self.name,
            A0=log_discrepancy(vf.valuation),
            ordD=ord_on_germ(vf.valuation, self.curve_germ) if self.curve_germ else F(0),
            S0=vf.s0,
            alpha=alpha,
            beta=beta,
            valid_range=Interval(F(0), F(3, self.degree)),
        )


WALL_FIXTURES: dict[str, WallFixture] = {}


def _add_wall(fx: WallFixture) -> None:
    WALL_FIXTURES[fx.name] = fx


_add_wall(WallFixture(
    name="a12",
    curve_germ=_A12_QUINTIC,
    volume="a12",
    provenance="A12 plane quintic: A = 15 - 26c against S = (17/5)(3 - 5c)",
    expected={"A0": F(15), "ordD": F(26), "wall": F(8, 15), "unstable": "above"},
))

_add_wall(WallFixture(
    name="a11red",
    curve_germ=germ((2, 0), (0, 12)),
    volume="a11red",
    provenance="reducible A11 quintic: A = 7 - 12c against S = (5/3)(3 - 5c)",
    expected={"A0": F(7), "ordD": F(12), "wall": F(6, 11), "unstable": "above"},
))

_add_wall(WallFixture(
    name="a11irr",
    curve_germ=germ((2, 0), (0, 12)),
    volume="a11irr",
    provenance="irreducible A11 quintic: A = 7 - 12c against S = (49/30)(3 - 5c)",
    expected={"A0": F(7), "ordD": F(12), "wall": F(63, 115), "unstable": "above"},
))

_add_wall(WallFixture(
    name="a10",
    curve_germ=germ((2, 0), (0, 11)),
    volume="a10",
    provenance="A10 quintic: A = 13 - 22c against S = (47/15)(3 - 5c)",
    expected={"A0": F(13), "ordD": F(22), "wall": F(54, 95), "unstable": "above"},
))

_add_wall(WallFixture(
    name="x26",
    curve_germ=None,
    volume="x26",
    provenance="quotient-point valuation on the degree-26 hypersurface, curve missing the point",
    expected={"A0": F(3, 5), "wall": F(8, 15), "unstable": "below"},
))

_add_wall(WallFixture(
    name="x26-through-sing",
    curve_germ=germ((6, 1), (25, 0), (12, 2)),
    volume="x26",
    provenance="degree-25 curve through the quotient point: f(x,y)z + g(x,y) pulls back with order 25",
    expected={"ordD": F(1), "unstable": "everywhere"},
))

_add_wall(WallFixture(
    name="p114-deg",
    curve_germ=germ((2, 0), (0, 6), (10, 0), (0, 10)),
    volume="p114-w31",
    provenance="degenerate z^2-coefficient on the quadric cone: x^2 z^2 + y^6 z + g(x, y)",
    expected={"A0": F(4), "ordD": F(6), "wall": F(6, 11), "unstable": "below"},
))

_add_wall(WallFixture(
    name="p114-nondeg",
    curve_germ=germ((2, 0), (1, 5), (0, 10)),
    volume="p114-w51",
    provenance="x^2 z^2 + a x y^5 z + g(x, y) on the quadric cone: unstable on the whole range",
    expected={"A0": F(6), "ordD": F(10), "unstable": "everywhere"},
))

_add_wall(WallFixture(
    name="p1425-case1",
    curve_germ=germ((2, 0), (1, 1), (0, 2)),
    volume="p1425-w11",
    provenance="z^2 + x^2 y^12 + x^6 g(x,y) on P(1,4,25) at the order-4 point",
    expected={"A0": F(2), "ordD": F(2), "wall": F(63, 115), "unstable": "below"},
))

_add_wall(WallFixture(
    name="p1425-case2",
    curve_germ=germ((6, 0), (10, 0), (0, 2)),
    volume="p1425-w13",
    provenance="z^2 + x^6 y^11 + x^10 g(x,y) on P(1,4,25) at the order-4 point",
    expected={"A0": F(4), "ordD": F(6), "wall": F(54, 95), "unstable": "below"},
))

_add_wall(WallFixture(
    name="p1425-case3",
    curve_germ=germ((10, 0), (0, 2)),
    volume="p1425-w15",
    provenance="z^2 + x^10 g(x,y) on P(1,4,25): unstable on the whole range",
    expected={"A0": F(6), "ordD": F(10), "unstable": "everywhere"},
))


_PARITY = ("even", "odd")
_FIRST_WALL_ALIASES = {"firstwall-even": 4, "firstwall-odd": 5, "firstwall-d5": 5}
# the unlisted names 'firstwall-{even,odd}-dN': N in plain decimal of at most 9 digits,
# with the named parity and N >= 4 as in walls.first_wall
_FIRST_WALL_NAME = re.compile(r"firstwall-(even|odd)-d([1-9][0-9]{0,8})")


def first_wall_case(d: int) -> WallCase:
    """Wall case for the degree-d first wall: the quotient point of the quadric cone
    against the conic degeneration, ord(D) = 0 for even d and 1/2 for odd d."""
    return WallFixture(
        name=f"firstwall-{_PARITY[d % 2]}-d{d}",
        curve_germ=None if d % 2 == 0 else germ((1, 1)),
        volume="p114-quot",
        provenance="degree-d curve on the quadric cone: z^(d/2), or x y z^((d-1)/2) through the point",
        expected={},
        degree=d,
    ).case()


def wall_case(name: str) -> WallCase:
    """Resolve a named wall case, deriving every number through the engines."""
    if name in _FIRST_WALL_ALIASES:
        return first_wall_case(_FIRST_WALL_ALIASES[name])
    m = _FIRST_WALL_NAME.fullmatch(name)
    if m and int(m[2]) >= 4 and _PARITY[int(m[2]) % 2] == m[1]:
        return first_wall_case(int(m[2]))
    if name not in WALL_FIXTURES:
        raise KeyError(name)
    return WALL_FIXTURES[name].case()


# ---------------------------------------------------------------------------
# stability-threshold (delta) fixtures
# ---------------------------------------------------------------------------

def delta_ratios(name: str) -> dict[str, Fraction]:
    """The ratio A/(alpha S0) of each valuation in a named surface's declared
    list, keyed by the valuation's label."""
    if name == "x26-delta":
        vf = VOLUME_FIXTURES["x26"]
        return {"x26": delta_upper(log_discrepancy(vf.valuation), vf.s0, vf.surface.alpha)}
    # name == "p1425-delta", the other surface: its toric boundary rays, with A = 1
    rays = {ray: VOLUME_FIXTURES[f"p1425-ray-{ray}"] for ray in ("x", "y", "z")}
    return {ray: delta_upper(F(1), vf.s0, vf.surface.alpha) for ray, vf in rays.items()}


def delta_upper_bound(name: str) -> Fraction:
    """Upper bound for delta of a named surface, minimized over the fixture's
    declared valuation list.  An upper bound only."""
    return min(delta_ratios(name).values())


# ---------------------------------------------------------------------------
# centroid fixtures
# ---------------------------------------------------------------------------

class CentroidFixture(NamedTuple):
    case: CentroidCase
    printed_basis: tuple[tuple[int, int, int], ...]  # integer rows: internal dual coordinates to printed ones
    twin: str  # the wall fixture whose valuative wall the centroid solve must meet
    provenance: str
    expected: dict
    # normality of the degeneration's central fiber is assumed for these
    # families, not checked here

    def to_printed(self, u: Vec3) -> Vec3:
        return mat3_vec(self.printed_basis, u)


CENTROID_FIXTURES: dict[str, CentroidFixture] = {}


def _add_centroid(name: str, generators, u1, printed_basis, twin: str, provenance: str, expected: dict) -> None:
    case = CentroidCase(name, tuple(generators), xi0=(F(0), F(1), F(0)), eta0star=(F(0), F(0), F(1)), u1=tuple(u1))
    CENTROID_FIXTURES[name] = CentroidFixture(case, printed_basis, twin, provenance, expected)


_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# the degree-26 hypersurface cases live in the index-25 overlattice; columns are
# the dual basis (25,0), (1,1), e3 expressed in printed coordinates
_X26_BASIS = ((25, 1, 0), (0, 1, 0), (0, 0, 1))

_add_centroid(
    "centroid-a12-case1",
    generators=((6, -6, -13), (-1, 1, 2), (1, 1, 2)),
    u1=(-1, 25, -12),
    printed_basis=_X26_BASIS,
    twin="a12",
    provenance="A12 degeneration, degeneration parameter at the order-13 vertex",
    expected={
        "u0_printed": (F(15), F(15), F(-7)),
        "u2_printed": (F(9), F(1), F(-49, 150)),
        "a": F(3, 5), "c": F(8, 15), "b": F(1, 30),
    },
)

_add_centroid(
    "centroid-a12-case2",
    generators=((-1, 1, -2), (6, -6, 13), (19, -6, 13)),
    u1=(-1, 25, 13),
    printed_basis=_X26_BASIS,
    twin="a12",
    provenance="A12 degeneration, degeneration parameter at the order-2 vertex",
    expected={
        "u0_printed": (F(15), F(15), F(7)),
        "u2_printed": (F(9), F(1), F(319, 975)),
        "a": F(3, 5), "c": F(8, 15), "b": F(56, 195),
    },
)

_add_centroid(
    "centroid-a11red-case1",
    generators=((0, 0, -1), (-1, 1, -2), (1, 0, 6)),
    u1=(12, 10, -1),
    printed_basis=_IDENTITY,
    twin="a11red",
    provenance="reducible A11 degeneration to the quadric cone, first marked point",
    expected={
        "u0_printed": (F(7), F(6), F(-1)),
        "u2_printed": (F(5, 6), F(1), F(-1, 12)),
        "a": F(11, 6), "c": F(6, 11), "b": F(3, 4),
    },
)

_add_centroid(
    "centroid-a11red-case2",
    generators=((0, 0, 1), (-1, 1, 2), (1, 0, -6)),
    u1=(12, 10, 2),
    printed_basis=_IDENTITY,
    twin="a11red",
    provenance="reducible A11 degeneration to the quadric cone, second marked point",
    expected={
        "u0_printed": (F(7), F(6), F(1)),
        "u2_printed": (F(5, 6), F(1), F(1, 12)),
        "a": F(11, 6), "c": F(6, 11), "b": F(1, 4),
    },
)

_add_centroid(
    "centroid-a11irr-case1",
    generators=((-4, 1, -1), (1, 0, -6), (0, 0, 1)),
    u1=(12, 50, 2),
    printed_basis=_IDENTITY,
    twin="a11irr",
    provenance="irreducible A11 degeneration to P(1,4,25), marked point at infinity",
    expected={
        "u0_printed": (F(7), F(30), F(1)),
        "u2_printed": (F(49, 300), F(1), F(1, 75)),
        "a": F(23, 60), "c": F(63, 115), "b": F(1, 20),
    },
)

_add_centroid(
    "centroid-a11irr-case2",
    generators=((-4, 1, 1), (1, 0, 6), (0, 0, -1)),
    u1=(12, 50, 0),
    printed_basis=_IDENTITY,
    twin="a11irr",
    provenance="irreducible A11 degeneration to P(1,4,25), generic marked point",
    expected={
        "u0_printed": (F(7), F(30), F(-1)),
        "u2_printed": (F(49, 300), F(1), F(-1, 75)),
        "a": F(23, 60), "c": F(63, 115), "b": F(37, 100),
    },
)

_add_centroid(
    "centroid-a10-case1",
    generators=((-1, 0, -2), (1, 1, 6), (6, 0, 11)),
    u1=(22, 50, -11),
    printed_basis=_IDENTITY,
    twin="a10",
    provenance="A10 degeneration to P(1,4,25), first marked point",
    expected={
        "u0_printed": (F(13), F(30), F(-7)),
        "u2_printed": (F(47, 150), F(1), F(-49, 300)),
        "a": F(19, 30), "c": F(54, 95), "b": F(31, 100),
    },
)

_add_centroid(
    "centroid-a10-case2",
    generators=((-1, 0, 2), (1, 1, -6), (6, 0, -11)),
    u1=(22, 50, 12),
    printed_basis=_IDENTITY,
    twin="a10",
    provenance="A10 degeneration to P(1,4,25), second marked point",
    expected={
        "u0_printed": (F(13), F(30), F(7)),
        "u2_printed": (F(47, 150), F(1), F(49, 300)),
        "a": F(19, 30), "c": F(54, 95), "b": F(1, 20),
    },
)


# ---------------------------------------------------------------------------
# lct (germ) fixtures
# ---------------------------------------------------------------------------

class LctFixture(NamedTuple):
    support: GermSupport | QuasiHomogGerm  # a QuasiHomogGerm reports its weights and degree, not its monomials
    provenance: str
    expected: Fraction


def _generic_germ(b: int, c: int, d: int) -> GermSupport:
    """A generic degree-d curve at the order-c^2 point of P(1, b^2, c^2), in the chart of weights
    (1, b^2): every (i, j) with i + b^2 j <= bcd and i + b^2 j = bcd mod c^2."""
    top = b * c * d
    return GermSupport(frozenset(
        (i, j) for j in range(top // (b * b) + 1) for i in range(top - b * b * j + 1)
        if (i + b * b * j - top) % (c * c) == 0
    ))


LCT_FIXTURES: dict[str, LctFixture] = {
    "a9-germ": LctFixture(
        germ((2, 0), (0, 10)),
        "double point x^2 = y^10", F(3, 5)),
    "a12-germ": LctFixture(
        germ((2, 0), (0, 13)),
        "double point x^2 = y^13", F(15, 26)),
    "a3-germ": LctFixture(
        germ((2, 0), (0, 4)),
        "tacnode on a polystable quartic", F(3, 4)),
    "d6-germ": LctFixture(
        QuasiHomogGerm(2, 1, 5),
        "y(x - t1 y^2)(x - t2 y^2): weights (2,1), degree 5", F(3, 5)),
    "p114-nodal": LctFixture(
        germ((2, 0), (1, 1), (0, 2)),
        "even-degree curve nodal at the order-4 point", F(1)),
    "sextic-lct": LctFixture(
        germ((0, 3), (4, 1), (6, 0)),
        "z^3 + a(xy)^4 z + b(xy)^6 sextic germ", F(1, 2)),
    "p1425-d10": LctFixture(
        _generic_germ(2, 5, 1),
        "degree-10 curve at the order-25 point", F(1, 2)),
    "p1425-d20": LctFixture(
        _generic_germ(2, 5, 2),
        "degree-20 curve at the order-25 point", F(1, 4)),
    "p1425-d40": LctFixture(
        _generic_germ(2, 5, 4),
        "degree-40 curve at the order-25 point", F(1, 3)),
    "p1425-d70": LctFixture(
        _generic_germ(2, 5, 7),
        "degree-70 curve at the order-25 point (degree-7 exclusion input)", F(1, 4)),
}


# ---------------------------------------------------------------------------
# GIT fixtures
# ---------------------------------------------------------------------------

class BinaryFixture(NamedTuple):
    system: BinaryFormSystem
    provenance: str


BINARY_FIXTURES: dict[str, BinaryFixture] = {
    "quartic-binary-unstable": BinaryFixture(
        BinaryFormSystem("even", 4, {2: frozenset({(5, 3)})}),
        "octic x^5 y^3: a root of multiplicity 5 > 4"),
    "quartic-binary-ss": BinaryFixture(
        BinaryFormSystem("even", 4, {2: frozenset({(4, 4)})}),
        "octic x^4 y^4: torus-fixed with weight hull {0}"),
    "quintic-binary-f6": BinaryFixture(
        BinaryFormSystem("odd", 5, {1: frozenset({(6, 0), (0, 6)})}),
        "restricted degree-6 block x^6 + y^6: weights {6, -6}"),
}


class PlaneGitFixture(NamedTuple):
    curve: PlaneCurveSupport
    one_ps: OnePS
    provenance: str


PLANE_GIT_FIXTURES: dict[str, PlaneGitFixture] = {
    "q5-double-conic-line": PlaneGitFixture(
        PlaneCurveSupport(5, frozenset({(2, 2, 1), (1, 1, 3), (0, 0, 5)})),
        OnePS((-1, 1, 0)),
        "z(xy - z^2)^2: fixed by the diagonal torus"),
    "xy4-destabilized": PlaneGitFixture(
        PlaneCurveSupport(5, frozenset({(1, 4, 0)})),
        OnePS((-1, 2, -1)),
        "monomial quintic x y^4 destabilized by (-1, 2, -1)"),
}


# ---------------------------------------------------------------------------
# quintic stratum representatives
# ---------------------------------------------------------------------------

STRATUM_REPRESENTATIVES: dict[str, tuple[Fraction, ...]] = {
    "Sigma1": (F(1), F(0), F(0), F(0)),
    "Sigma2": (F(0), F(0), F(0), F(1)),
    "Sigma3": (F(0), F(1), F(0), F(0)),
    "Sigma4": (F(1), F(0), F(0), F(1)),
    "Sigma5": (F(0), F(1), F(0), F(1)),
    "Sigma7": (F(0), F(0), F(1), F(0)),
    "Sigma1-D6": (F(1), F(0)),
    "Sigma6": (F(0), F(1)),
}


# ---------------------------------------------------------------------------
# top-level registry for the CLI
# ---------------------------------------------------------------------------

REGISTRY_NAMES = sorted(
    set(WALL_FIXTURES)
    | set(_FIRST_WALL_ALIASES)
    | {"x26-delta", "p1425-delta"}
    | set(CENTROID_FIXTURES)
    | set(VOLUME_FIXTURES)
    | set(LCT_FIXTURES)
    | set(BINARY_FIXTURES)
    | {"quartic-binary"}
    | set(PLANE_GIT_FIXTURES)
    | {"quintic-strata"}
)
