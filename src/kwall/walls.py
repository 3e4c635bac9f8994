"""Wall solving from valuative data.

A wall case bundles a log discrepancy A(c) = A0 - c ord(D) and an expected
vanishing order S(c) = (alpha - beta c) S0, both affine in the coefficient c.
A(c) < S(c) proves K-instability; A(c) >= S(c) is only a necessary condition
for K-semistability and every report says so explicitly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional

from .exact import KwallError, _cleared, rat, fmt


class WallError(KwallError):
    pass


class Interval(namedtuple("Interval", "lo hi lo_closed hi_closed")):
    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction, lo_closed: bool = False, hi_closed: bool = False):
        self = super().__new__(cls, lo, hi, lo_closed, hi_closed)
        if lo > hi:
            raise WallError(f"field 'range': range {self} is inverted: its low end exceeds its high end")
        return self

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{fmt(self.lo)}, {fmt(self.hi)}{right}"


class WallCase(namedtuple("WallCase", "name A0 ordD S0 alpha beta valid_range")):
    """Valuative scenario with affine A(c) and S(c) on a coefficient range."""

    # no __slots__: the instance dict holds _form, outside equality, hashing and repr

    def __new__(cls, name: str, A0: Fraction, ordD: Fraction, S0: Fraction, alpha: Fraction, beta: Fraction,
                valid_range: Interval):
        values = tuple(rat(v) for v in (A0, ordD, S0, alpha, beta))
        form = _wall_form(*_cleared(values), valid_range)
        self = super().__new__(cls, name, *values, valid_range)
        self._form = form
        return self


def _wall_form(nums: tuple[int, ...], s: int, valid_range: Interval) -> tuple[int, ...]:
    """The cleared form of (A0, ordD, S0, alpha, beta) = nums / s, for a positive s in any common scale, on
    valid_range; the one path that checks a wall case."""
    a0, od, s0, al, be = nums
    g = math.gcd(s, a0, od, s0, al, be)
    if g != 1:
        a0, od, s0, al, be, s = a0 // g, od // g, s0 // g, al // g, be // g, s // g
    # alpha - beta c = (al q - be p) / (s q) at c = p / q, with s, q > 0: the sign is that of al q - be p
    lo, hi = valid_range.lo, valid_range.hi
    if al * lo.denominator - be * lo.numerator <= 0:
        raise WallError("field 'alpha': anti-canonical degree must be positive at the low end of the range")
    if al * hi.denominator - be * hi.numerator < 0:
        raise WallError("field 'alpha': anti-canonical degree must stay nonnegative on the range")
    # (A0, ordD, S0, alpha, beta) cleared over their least common denominator s, as (a0, od, s0, al, be, s):
    # what the wall solver reads
    return a0, od, s0, al, be, s


class WallReport(namedtuple("WallReport", "case wall unstable_below unstable_above degenerate", defaults=(False,))):
    """Solved wall data.  ``wall`` is the crossing inside the valid range, and
    unstable_below/above say whether A < S on each side of it; with no wall
    in the range A - S keeps one sign there, and both flags give it."""

    __slots__ = ()


def solve_wall(case: WallCase) -> WallReport:
    """Solve A(c) = S(c) exactly and classify each side by the sign of A - S: _solve_wall_form, then the report."""
    return WallReport(case, *_solve_wall_form(case._form, case.valid_range))


def _in_range(num: int, den: int, valid_range: Interval) -> bool:
    """Whether num / den (integers, den != 0) lies in valid_range, each end open or closed: the one membership rule."""
    lo, hi = valid_range.lo, valid_range.hi
    # num / den - lo and hi - num / den times the positive den^2 lo.den and den^2 hi.den
    above = den * (num * lo.denominator - lo.numerator * den)
    below = den * (hi.numerator * den - num * hi.denominator)
    return ((above > 0 or (above == 0 and valid_range.lo_closed))
            and (below > 0 or (below == 0 and valid_range.hi_closed)))


def _solve_wall_form(form: tuple[int, ...], valid_range: Interval) -> tuple[Optional[Fraction], bool, bool, bool]:
    """(wall, unstable_below, unstable_above, degenerate) of a wall form on its range; the one path that solves it.

    On the cleared form the margin A - S is (const + slope c) / s^2 with integer
    const and slope, so its signs and its root are theirs.
    """
    a0, od, s0, al, be, s = form
    const = a0 * s - al * s0  # s^2 times the margin at c = 0
    slope = be * s0 - od * s  # s^2 times d(margin)/dc
    if slope == 0 and const == 0:
        return None, False, False, True
    if slope != 0 and _in_range(-const, slope, valid_range):
        return Fraction(-const, slope), slope > 0, slope < 0, False
    # no root in the range: the margin keeps the sign it has at the midpoint p / q, (const q + slope p) / (q s^2),
    # with p = lo.num hi.den + hi.num lo.den and q = 2 lo.den hi.den > 0
    lo, hi = valid_range.lo, valid_range.hi
    p = lo.numerator * hi.denominator + hi.numerator * lo.denominator
    unstable = 2 * const * lo.denominator * hi.denominator + slope * p < 0
    return None, unstable, unstable, False


class QuinticStratumPoint(namedtuple("QuinticStratumPoint", "coords")):
    """Point of the quintic boundary parameter space: [s, r, h, u] on P(1,2,3,3)
    for the A>=9 double-point chart (h = p^2 - u), or [s1, s2] on P(1,2) for the
    two-tangent-conics chart."""

    __slots__ = ()

    def __new__(cls, coords: tuple[Fraction, ...]):
        cs = tuple(rat(c) for c in coords)
        if len(cs) not in (2, 4):
            raise WallError("field 'coords': stratum point needs 4 coordinates [s,r,h,u] or 2 [s1,s2]")
        if all(c == 0 for c in cs):
            raise WallError("field 'coords': stratum point cannot be the zero vector")
        return super().__new__(cls, cs)

    @property
    def chart(self) -> str:
        return "A9" if len(self.coords) == 4 else "D6"


class StratumVerdict(namedtuple("StratumVerdict", "stratum wall note")):
    """A quintic boundary stratum, its wall (None on the log canonical boundary) and its note."""

    __slots__ = ()


# the quintic boundary strata that carry a wall, in wall order: stratum Sigma_i has the
# i-th wall, solved from its wall case on the P^2 side; then the wall case on the replacement
# side, which must reach the same wall (Sigma1's is the toric barycenter, not a wall case yet),
# its note, the pairs below the wall and above it
_QUINTIC_STRATA = (
    ("Sigma1", "firstwall-d5", None, "double conic + transverse line",
     "(P^2, Q_5)", "(P(1,1,4), xyz^2+(ax^6+by^6)z+g(x,y))"),
    ("Sigma2", "a12", "x26", "A12 quintic", "(P^2, A12-quintic)", "(X_26, w=g(x,y))"),
    ("Sigma3", "a11red", "p114-deg", "reducible A11 quintic",
     "(P^2, A11-reducible quintics)", "(P(1,1,4), x^2z^2+y^6z+g(x,y))"),
    ("Sigma4", "a11irr", "p1425-case1", "irreducible A11 quintic",
     "(P^2, A11-irreducible quintics)", "(P(1,4,25), z^2+x^2y^12+x^10 g(x,y))"),
    ("Sigma5", "a10", "p1425-case2", "A10 quintic",
     "(P^2, A10-quintics)", "(P(1,4,25), z^2+x^6y^11+x^14 g(x,y))"),
)

_LC_BOUNDARY_NOTE = "lct = 3/5, no log Fano wall"


def _solved_wall(case_name: str) -> Fraction:
    from . import fixtures

    return solve_wall(fixtures.wall_case(case_name)).wall


def classify_quintic_stratum(p: QuinticStratumPoint) -> StratumVerdict:
    """Locally-closed stratification of the quintic boundary; a stratum's wall is
    solved from its wall case."""
    if p.chart == "D6":
        stratum = "Sigma1" if p.coords[1] == 0 else "Sigma6"
    else:
        s, r, h, u = p.coords
        if h != 0:
            stratum = "Sigma7"
        elif u == 0:
            stratum = "Sigma1" if r == 0 else "Sigma3"
        elif r == 0:
            stratum = "Sigma2" if s == 0 else "Sigma4"
        else:
            stratum = "Sigma5"
    for name, case_name, _, note, _, _ in _QUINTIC_STRATA:
        if name == stratum:
            return StratumVerdict(stratum, _solved_wall(case_name), note)
    return StratumVerdict(stratum, None, _LC_BOUNDARY_NOTE)


def first_wall(d: int) -> tuple[Fraction, str, WallReport]:
    """First wall for degree-d plane curves, derived by the wall solver.

    The scenario is the quotient-point valuation on the degeneration target:
    A0 = 1/2, ord(D) = 0 for even d and 1/2 for odd d, S(c) = (6 - 2dc)/6.
    The margin A - S is -1/2 + dc/3 for even d and -1/2 + c(d/3 - 1/2) for
    odd d; its root 3/(2d) or 3/(2d - 3) lies in the range (0, 3/d) for every
    d >= 4, so the report always has a wall.
    """
    if d < 4:
        raise WallError("field 'degree': degrees below 4 are out of scope")
    from . import fixtures

    case = fixtures.first_wall_case(d)
    report = solve_wall(case)
    tag = f"z^{d//2} = 0" if d % 2 == 0 else f"x y z^{(d - 1)//2} = 0"
    return report.wall, tag, report


class WallTableRow(namedtuple("WallTableRow", "index wall below above")):
    """The index-th quintic wall and the pairs below and above it."""

    __slots__ = ()


def quintic_wall_table() -> list[WallTableRow]:
    """The five quintic walls, each re-derived through the wall solver."""
    return [
        WallTableRow(i, _solved_wall(case_name), below, above)
        for i, (_, case_name, _, _, below, above) in enumerate(_QUINTIC_STRATA, start=1)
    ]


def admissibility_window(d: int, delta: Optional[Fraction] = None) -> Interval:
    """Coefficient window outside of which a surface is provably excluded from
    the degree-d moduli (a necessary condition).

    Lower bound (3/d)(1 - delta) for an upper bound delta on the surface's
    stability threshold; the full interval with no such bound.
    """
    hi = Fraction(3, d)
    if delta is None:
        return Interval(Fraction(0), hi)
    return Interval(hi * (1 - delta), hi, lo_closed=True)
