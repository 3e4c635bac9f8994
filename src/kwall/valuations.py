"""Monomial valuations over smooth and cyclic-quotient surface points.

Log discrepancies, orders of vanishing on curve germs, Newton-polygon log
canonical thresholds, Gorenstein index bounds, and stability-threshold upper
bounds.  Germ data is a monomial support with generic coefficients; a
quasi-homogeneous germ is given by its weights and degree and is the generic
germ on the monomials of that weighted degree, so ``lct_newton`` is the one
lct engine for both.

The Newton-polygon lct walks the compact Newton boundary: the staircase of
undominated monomials, its lower convex hull by a monotone chain with integer
cross products, and the diagonal's crossing of that hull.  It costs
O(n log n) integer operations for n monomials and builds one Fraction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .exact import KwallError, rat


class DomainError(KwallError):
    """Argument outside the documented domain (e.g. coefficient out of range)."""


class CyclicQuot(NamedTuple):
    """Cyclic quotient point of type 1/n(a, b); n = 1 is a smooth point.  Only
    n enters the valuations; a and b name the action."""

    n: int
    a: int = 1
    b: int = 1


SMOOTH_POINT = CyclicQuot(1)


class MonomialVal(namedtuple("MonomialVal", "point weights scale")):
    """Monomial valuation of weights (w1, w2) on the covering chart of ``point``.

    ``scale`` absorbs the two normalizations in use: scale = 1 gives the
    divisorial valuation ord_E with A = (w1 + w2)/n, while scale = n gives the
    pushforward of the chart valuation without dividing.  All downstream
    quantities (A, orders, S) are linear in scale.
    """

    __slots__ = ()

    def __new__(cls, point: CyclicQuot, weights: tuple[Fraction, Fraction], scale: Fraction = Fraction(1)):
        w1, w2 = rat(weights[0]), rat(weights[1])
        return super().__new__(cls, point, (w1, w2), rat(scale))


class GermSupport(namedtuple("GermSupport", "monomials")):
    """Support of a curve germ f(x, y) on the covering chart; coefficients are
    assumed generic (no cancellation)."""

    __slots__ = ()

    def __new__(cls, monomials: frozenset[tuple[int, int]]):
        mons = frozenset((int(i), int(j)) for i, j in monomials)
        if not mons:
            raise DomainError("field 'germ': germ support must be nonempty")
        if any(i < 0 or j < 0 for i, j in mons):
            raise DomainError("field 'germ': exponents must be nonnegative")
        return super().__new__(cls, mons)


def germ(*monomials: tuple[int, int]) -> GermSupport:
    return GermSupport(frozenset(monomials))


class QuasiHomogGerm(namedtuple("QuasiHomogGerm", "monomials w1 w2 degree")):
    """Generic quasi-homogeneous germ: the sum of every monomial x^i y^j of
    weighted degree w1 i + w2 j = degree, with generic coefficients.

    Those monomials lie on one lattice segment, whose two ends span the same
    Newton polygon as the whole support, so ``monomials`` holds the two ends.
    With g = gcd(w1, w2) there is no monomial unless g divides the degree.
    Otherwise, with (a, b) = (w1, w2)/g, the end with the least i has
    i = (degree/g) a^-1 mod b, and the end with the least j follows from it in
    steps of (b, -a).  This is O(log) integer work at any degree.  It is built
    from (w1, w2, degree), and ``lct_newton`` reads its ``monomials`` as those
    of a ``GermSupport``.
    """

    __slots__ = ()

    def __new__(cls, w1: int, w2: int, degree: int):
        d = degree
        if w1 <= 0 or w2 <= 0 or d <= 0:
            raise DomainError("field 'quasihomog': weights and degree must be positive")
        g = math.gcd(w1, w2)
        a, b = w1 // g, w2 // g
        # the least i >= 0 with w2 | d - w1 i, and its j: an end of the segment when g divides d
        i = d // g * pow(a, -1, b) % b
        j = (d - w1 * i) // w2
        if d % g or j < 0:
            raise DomainError(f"field 'quasihomog': no monomial x^i y^j has {w1} i + {w2} j = {d}")
        return super().__new__(cls, frozenset({(i, j), (i + b * (j // a), j % a)}), w1, w2, degree)


def log_discrepancy(v: MonomialVal) -> Fraction:
    """A_X(v) = scale (w1 + w2)/n for the weighted blow-up valuation over the quotient."""
    return v.scale * (v.weights[0] + v.weights[1]) / v.point.n


def ord_on_germ(v: MonomialVal, g: GermSupport) -> Fraction:
    """v(f) = scale min_{(i,j) in supp f} (i w1 + j w2)/n, assuming generic coefficients."""
    return v.scale * min(i * v.weights[0] + j * v.weights[1] for i, j in g.monomials) / v.point.n


def lct_newton(g: GermSupport | QuasiHomogGerm) -> Fraction:
    """lct of a generic germ with the given Newton polygon: min(1, 1/t*) where
    (t*, t*) is the diagonal's entry point into conv(supp) + R^2_+.

    The boundary of that region is a vertical ray, the compact Newton boundary
    and a horizontal ray.  The compact part is the lower convex hull of the
    staircase of undominated monomials (i ascending, j strictly descending).
    The diagonal meets the vertical ray when the first hull vertex has i >= j,
    the horizontal ray when no vertex has, and otherwise the edge that reaches
    the first vertex with i >= j.  Sorting dominates: O(n log n) integer
    operations in the n monomials, and one Fraction built at the end.
    """
    if (0, 0) in g.monomials:
        raise DomainError("field 'germ': lct undefined for a unit germ")
    hull: list[tuple[int, int]] = []
    for i, j in sorted(g.monomials):
        if hull and j >= hull[-1][1]:
            continue  # dominated: an earlier point has no larger i and no larger j
        while len(hull) >= 2:
            (io, jo), (ia, ja) = hull[-2], hull[-1]
            if (ia - io) * (j - jo) - (ja - jo) * (i - io) > 0:
                break  # a left turn: (ia, ja) stays on the lower hull
            hull.pop()
        hull.append((i, j))
    # t* = num/den
    for k, (i, j) in enumerate(hull):
        if i >= j:
            if k == 0:
                num, den = i, 1  # on the vertical ray
            else:
                ia, ja = hull[k - 1]  # the edge from (ia, ja), with ia < ja, meets the diagonal
                num, den = i * ja - ia * j, (i - j) - (ia - ja)
            break
    else:
        num, den = hull[-1][1], 1  # on the horizontal ray
    return Fraction(1) if num <= den else Fraction(den, num)


def index_bound(d: int, c: Fraction) -> int:
    """Largest local Gorenstein index allowed on a surface in the coefficient-c
    moduli of degree-d curve pairs.

    min(floor(3/(3 - cd)), d) when 3 does not divide d, with d replaced by
    2d/3 when it does.
    """
    c = rat(c)
    if d < 1:
        raise DomainError("field 'degree': degree must be positive")
    if not (0 < c < Fraction(3, d)):
        raise DomainError(f"field 'coeff': coefficient must lie in (0, 3/{d})")
    cap = Fraction(2 * d, 3) if d % 3 == 0 else Fraction(d)
    return int(min(Fraction(3) / (3 - c * d), cap).__floor__())


def delta_upper(A: Fraction, S0: Fraction, alpha: Fraction) -> Fraction:
    """Upper bound A/(alpha S0) for the stability threshold at c = 0.

    Only an upper bound: it uses one valuation (or, at fixture level, a
    declared finite list of them).
    """
    A, S0, alpha = rat(A), rat(S0), rat(alpha)
    return A / (alpha * S0)
