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
from typing import NamedTuple, Optional

from .exact import (
    KwallError,
    SingularSystemError,
    Vec3,
    _adjugate_columns,
    _cleared,
    _idot3,
    fmt,
    solve_linear3,
    vec3,
)


class ConeError(KwallError):
    pass


class CentroidCase(namedtuple("CentroidCase", "name generators xi0 eta0star u1")):
    """One simplicial-cone scenario of the centroid test."""

    # no __slots__: the instance dict holds _form, outside equality, hashing and repr

    def __new__(cls, name: str, generators: tuple[Vec3, Vec3, Vec3], xi0: Vec3, eta0star: Vec3, u1: Vec3):
        gens = tuple(vec3(*g) for g in generators)
        self = super().__new__(cls, name, gens, vec3(*xi0), vec3(*eta0star), vec3(*u1))
        # the toric setting: each generator is the primitive lattice vector on its ray
        rows = []
        for i, n in enumerate(gens):
            row, s = _cleared(n)
            if s != 1 or math.gcd(*row) != 1:
                raise ConeError(
                    f"field 'generators[{i}]': ({', '.join(fmt(x) for x in n)}) is not a primitive integer vector"
                )
            rows.append(row)
        rays = _adjugate_columns(rows)
        det = _idot3(rows[0], rays[0])
        if det == 0:
            raise ConeError("field 'generators': cone generators are linearly dependent")
        # xi0 = sum lambda_k n_k has lambda_k = <r_k, xi0> / det G = p_k / (xs det G), and xs > 0
        xi, xs = _cleared(self.xi0)
        p = tuple(_idot3(r, xi) for r in rays)
        if any(pk * det <= 0 for pk in p):
            raise ConeError("field 'xi0': Reeb vector must lie in the interior of the cone")
        eta = _cleared(self.eta0star)
        if _idot3(eta[0], xi) != 0:
            raise ConeError("field 'eta0star': eta0* must pair to zero with the Reeb vector")
        # the dual rays r_k = n_(k+1) x n_(k+2) (indices mod 3), det G = <n_0, r_0>, with xi0 cleared as
        # xi / xs the pairings p_k = <r_k, xi>, and u1 and eta0* cleared, as (rays, det, xs, p, u1, eta0*):
        # what u0, u2 and the centroid condition read
        self._form = (rays, det, xs, p, _cleared(self.u1), eta)
        return self


class CentroidVerdict(NamedTuple):
    u0: Vec3
    u2: Vec3
    solution: Optional[tuple[Fraction, Fraction, Fraction]]  # (a, c, b)
    verdict: str  # "unique-c" | "no-solution" | "indeterminate"
    detail: str = ""


def reeb_cross_section_centroid(case: CentroidCase) -> Vec3:
    """Exact area centroid of the cross-section of the dual cone by the Reeb hyperplane.

    With r_k = n_(k+1) x n_(k+2) (indices mod 3) and G the generator matrix,
    <r_k, n_j> is det G for j = k and 0 otherwise, so the dual cone
    tau^v = {u : <u, n_j> >= 0} is spanned by the rays sign(det G) r_k.  A
    validated case has det G != 0 and xi0 = sum lambda_j n_j with every
    lambda_j > 0, so <r_k, xi0> = lambda_k det G != 0 and v_k = r_k / <r_k, xi0>
    is that ray scaled onto the plane <., xi0> = 1, whatever the sign of det G.
    The v_k lie in every halfplane, and det(r_0, r_1, r_2) = (det G)^2 != 0, so
    they are the vertices of a triangle, whose area centroid is their average
    and lies on the plane with them.  No check is left.
    """
    rays, _, xs, (p0, p1, p2), _, _ = case._form
    # vertex k is xs r_k / p_k; their average over the common denominator 3 p0 p1 p2
    weights = (p1 * p2, p0 * p2, p0 * p1)
    total = [sum(w * r[i] for w, r in zip(weights, rays)) for i in range(3)]
    return tuple(Fraction(xs * x, 3 * p0 * p1 * p2) for x in total)  # type: ignore[return-value]


def solve_centroid_condition(case: CentroidCase) -> CentroidVerdict:
    """Decide whether the centroid decomposes as a(u0 - c u1) + b eta0* with a, b > 0.

    Substituting p = a and q = ac makes the condition the linear system
    u2 = p u0 - q u1 + b eta0*; c = q/p is recovered afterwards.
    """
    # <r_k, n_j> is det G for j = k and 0 otherwise: this u0 = n / det pairs to 1 with each generator
    rays, det, _, (p0, p1, p2), (v, us), (eta, es) = case._form
    n = [sum(r[i] for r in rays) for i in range(3)]
    u0 = tuple(Fraction(x, det) for x in n)
    u2 = reeb_cross_section_centroid(case)
    # row i times det us es 3 p0 p1 p2, which every denominator of u0, u1, eta0* and u2 divides: an
    # integer system with the same solution
    t = 3 * p0 * p1 * p2
    scale = det * us * es * t
    rows = [(n[i] * us * es * t, -v[i] * det * es * t, eta[i] * det * us * t) for i in range(3)]
    rhs = [x.numerator * (scale // x.denominator) for x in u2]
    try:
        p, q, b = solve_linear3(rows, rhs)
    except SingularSystemError as exc:
        if not any(v):
            detail = "u1 = 0: the coefficient never enters the condition"
        else:
            detail = f"dependent system (rank {exc.rank}): coefficient not determined"
        return CentroidVerdict(u0, u2, None, "indeterminate", detail)
    if p <= 0 or b <= 0:
        return CentroidVerdict(u0, u2, None, "no-solution", f"sign conditions fail: a = {p}, b = {b}")
    # Cramer's rule is exact: rows (p, q, b) = u2 needs no re-check
    return CentroidVerdict(u0, u2, (p, q / p, b), "unique-c")
