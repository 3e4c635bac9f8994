"""Centroid test for vanishing Futaki obstruction of complexity-one torus degenerations.

Input is a simplicial cone tau in a rank-3 lattice together with the Reeb
vector xi0 (interior to tau), the distinguished covector eta0*, and the
boundary-divisor vector u1.  The test computes the anticanonical vector u0
(pairing 1 against each generator), the exact area centroid u2 of the
cross-section tau^v ∩ {<., xi0> = 1} (a triangle, so u2 is the average of the
three dual rays scaled onto the hyperplane), and solves

    u2 = a (u0 - c u1) + b eta0*

for (a, c, b); the obstruction vanishes with the correct signs exactly when
a > 0 and b > 0, and then c is unique.  u0 is always the anticanonical vector
of the generators: any other vector would place a different wall.  A refused
cone names the scenario field at fault.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional

from .exact import (
    KwallError,
    SingularSystemError,
    Vec3,
    _adjugate_columns,
    _cleared,
    _cramer3,
    _fractions,
    _idot3,
    _lowest,
    fmt,
    vec3,
)


class ConeError(KwallError):
    pass


class CentroidCase(namedtuple("CentroidCase", "name generators xi0 eta0star u1")):
    """One simplicial-cone scenario of the centroid test.

    ``_cone`` keeps its generators, xi0, eta0* and u1 cleared, each as integer numerators over a
    positive denominator in lowest terms, and ``_form`` the checked form _cone_form derives from them.
    """

    # no __slots__: the instance dict holds _cone and _form, outside equality, hashing and repr

    def __new__(cls, name: str, generators: tuple[Vec3, Vec3, Vec3], xi0: Vec3, eta0star: Vec3, u1: Vec3):
        generators = tuple(vec3(*g) for g in generators)
        xi0, eta0star, u1 = vec3(*xi0), vec3(*eta0star), vec3(*u1)
        cone = tuple(map(_cleared, (*generators, xi0, eta0star, u1)))
        form = _cone_form(*cone)
        self = super().__new__(cls, name, generators, xi0, eta0star, u1)
        self._cone, self._form = cone, form
        return self


def _cone_form(*cleared: tuple[list[int], int]):
    """The cleared form of the cone whose generators, xi0, eta0* and u1 are given cleared, each as integer
    numerators over a positive denominator in lowest terms (what _cleared returns); the one path that checks
    a cone.

    With r_k = n_(k+1) x n_(k+2) (indices mod 3) and G the generator matrix, <r_k, n_j> is det G for j = k
    and 0 otherwise, so u0 = (r_0 + r_1 + r_2) / det G pairs to 1 with each generator.  The dual cone
    tau^v = {u : <u, n_j> >= 0} is spanned by the rays sign(det G) r_k.  A checked cone has det G != 0 and
    xi0 = sum lambda_j n_j with every lambda_j > 0, so <r_k, xi0> = lambda_k det G != 0 and
    v_k = r_k / <r_k, xi0> is that ray scaled onto the plane <., xi0> = 1, whatever the sign of det G.  The
    v_k lie in every halfplane, and det(r_0, r_1, r_2) = (det G)^2 != 0, so they are the vertices of a
    triangle, the cross-section, whose area centroid u2 is their average and lies on the plane with them.
    """
    g0, g1, g2, (xi, xs), eta, u1 = cleared
    # the toric setting: each generator is the primitive lattice vector on its ray
    for i, (row, s) in enumerate((g0, g1, g2)):
        if s != 1 or math.gcd(*row) != 1:
            n = ", ".join(fmt(x) for x in _fractions(row, s))
            raise ConeError(f"field 'generators[{i}]': ({n}) is not a primitive integer vector")
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = _adjugate_columns((g0[0], g1[0], g2[0]))
    det = _idot3(g0[0], (a0, a1, a2))
    if det == 0:
        raise ConeError("field 'generators': cone generators are linearly dependent")
    # xi0 = sum lambda_k n_k has lambda_k = <r_k, xi0> / det G = p_k / (xs det G), and xs > 0
    x0, x1, x2 = xi
    p0, p1, p2 = a0 * x0 + a1 * x1 + a2 * x2, b0 * x0 + b1 * x1 + b2 * x2, c0 * x0 + c1 * x1 + c2 * x2
    if p0 * det <= 0 or p1 * det <= 0 or p2 * det <= 0:
        raise ConeError("field 'xi0': Reeb vector must lie in the interior of the cone")
    if _idot3(eta[0], xi) != 0:
        raise ConeError("field 'eta0star': eta0* must pair to zero with the Reeb vector")
    # vertex k is xs r_k / p_k; their average over the common denominator 3 p0 p1 p2, reduced, with the
    # weights w_k = p0 p1 p2 / p_k
    w0, w1, w2 = p1 * p2, p0 * p2, p0 * p1
    total = [xs * (w0 * a0 + w1 * b0 + w2 * c0), xs * (w0 * a1 + w1 * b1 + w2 * c1), xs * (w0 * a2 + w1 * b2 + w2 * c2)]
    # (n, det, u2, u1, eta0*) with n = det G u0 = r_0 + r_1 + r_2, det = det G and u2, u1 and eta0* cleared:
    # what the centroid condition reads
    return [a0 + b0 + c0, a1 + b1 + c1, a2 + b2 + c2], det, _lowest(total, 3 * p0 * p1 * p2), u1, eta


class CentroidVerdict(namedtuple("CentroidVerdict", "u0 u2 solution verdict detail", defaults=("",))):
    """The centroid test's verdict: u0, u2, the solution (a, c, b) or None, the verdict ("unique-c",
    "no-solution" or "indeterminate") and its detail."""

    __slots__ = ()


def reeb_cross_section_centroid(case: CentroidCase) -> Vec3:
    """Exact area centroid u2 of the cross-section of the dual cone by the Reeb hyperplane, which
    _cone_form derives."""
    return _fractions(*case._form[2])  # type: ignore[return-value]


def solve_centroid_condition(case: CentroidCase) -> CentroidVerdict:
    """Decide whether the centroid decomposes as a(u0 - c u1) + b eta0* with a, b > 0:
    _solve_cone_form, then u0, u2 and the solution as Fractions."""
    n, det, u2 = case._form[:3]
    verdict, solution, detail = _solve_cone_form(case._form)
    return CentroidVerdict(tuple(Fraction(x, det) for x in n), _fractions(*u2), solution and _fractions(*solution),
                           verdict, detail)


def _solve_cone_form(form) -> tuple[str, Optional[tuple[tuple[int, int, int], int]], str]:
    """(verdict, solution, detail) of the centroid condition on a cone form, the solution (a, c, b) in the
    canonical form of ``exact._lowest``; the one path that solves it.

    Substituting p = a and q = ac makes the condition the linear system
    u2 = p u0 - q u1 + b eta0*; c = q/p is recovered afterwards.
    """
    n, det, (w, s), (v, us), (eta, es) = form
    # with u0 = n / det, u1 = v / us, eta0* = eta / es and u2 = w / s, the integer system
    # (n, -v, eta) z = w is the condition in z = s (p / det, q / us, b / es): its columns are those of
    # the condition scaled by nonzero numbers, so it has the same rank
    try:
        (z0, z1, z2), d = _cramer3(((n[0], -v[0], eta[0]), (n[1], -v[1], eta[1]), (n[2], -v[2], eta[2])), w)
    except SingularSystemError as exc:
        if not any(v):
            return "indeterminate", None, "u1 = 0: the coefficient never enters the condition"
        return "indeterminate", None, f"dependent system (rank {exc.rank}): coefficient not determined"
    # z = (z0, z1, z2) / d, so a = p = det z0 / (d s) and b = es z2 / (d s), with s, es > 0
    if det * z0 * d <= 0 or z2 * d <= 0:
        a, b = Fraction(det * z0, d * s), Fraction(es * z2, d * s)
        return "no-solution", None, f"sign conditions fail: a = {a}, b = {b}"
    # Cramer's rule is exact: rows (p, q, b) = u2 needs no re-check; c = q / p = us z1 / (det z0), all over d s det z0
    return "unique-c", _lowest((det * z0 * det * z0, us * z1 * d * s, es * z2 * det * z0), d * s * det * z0), ""
