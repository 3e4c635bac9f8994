"""Centroid test for vanishing Futaki obstruction of complexity-one torus degenerations.

Input is a simplicial cone tau in a rank-3 lattice together with the Reeb
vector xi0 (interior to tau), the distinguished covector eta0*, and the
boundary-divisor vector u1.  The test computes the anticanonical vector u0
(pairing 1 against each generator), the exact area centroid u2 of the
cross-section tau^v ∩ {<., xi0> = 1} (a triangle, so u2 is the average of the
three dual rays scaled onto the hyperplane), and solves

    u2 = a (u0 - c u1) + b eta0*

for (a, c, b); the obstruction vanishes with the correct signs exactly when
a > 0 and b > 0, and then c is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (
    KwallError,
    SingularSystemError,
    Vec3,
    _cleared,
    _icross,
    _idot3,
    _int_rows,
    det3,
    mat3,
    solve_linear3,
    v3_dot,
    vec3,
)


class ConeError(KwallError):
    pass


@dataclass(frozen=True)
class CentroidCase:
    """One simplicial-cone scenario of the centroid test."""

    name: str
    generators: tuple[Vec3, Vec3, Vec3]
    xi0: Vec3
    eta0star: Vec3
    u1: Vec3
    u0_override: Optional[Vec3] = None

    def __post_init__(self):
        gens = tuple(vec3(*g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "xi0", vec3(*self.xi0))
        object.__setattr__(self, "eta0star", vec3(*self.eta0star))
        object.__setattr__(self, "u1", vec3(*self.u1))
        if self.u0_override is not None:
            object.__setattr__(self, "u0_override", vec3(*self.u0_override))
        if det3(mat3(gens)) == 0:
            raise ConeError("cone generators are linearly dependent")
        # xi0 must be interior: positive coordinates in the generator basis
        cols = mat3([[gens[j][i] for j in range(3)] for i in range(3)])
        lams = solve_linear3(cols, self.xi0)
        if any(l <= 0 for l in lams):
            raise ConeError("Reeb vector must lie in the interior of the cone")
        if v3_dot(self.eta0star, self.xi0) != 0:
            raise ConeError("eta0* must pair to zero with the Reeb vector")


@dataclass(frozen=True)
class CentroidVerdict:
    u0: Vec3
    u2: Vec3
    solution: Optional[tuple[Fraction, Fraction, Fraction]]  # (a, c, b)
    verdict: str  # "unique-c" | "no-solution" | "indeterminate"
    detail: str = ""


def anticanonical_vector(generators: tuple[Vec3, Vec3, Vec3]) -> Vec3:
    """The u0 with <u0, n_i> = 1 for each primitive generator n_i."""
    try:
        return solve_linear3(mat3(generators), vec3(1, 1, 1))
    except SingularSystemError as exc:
        raise ConeError("degenerate cone: generators do not span") from exc


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
    # positive rescalings of the generators and of xi0 keep every scaled ray, so the rays and
    # the centroid are integer work; xi0 = xi / xs
    gens, _ = _int_rows(case.generators)
    xi, xs = _cleared(case.xi0)
    rays = [_icross(gens[1], gens[2]), _icross(gens[2], gens[0]), _icross(gens[0], gens[1])]
    # vertex k is xs r_k / p_k; their average over the common denominator 3 p0 p1 p2
    p0, p1, p2 = (_idot3(r, xi) for r in rays)
    weights = (p1 * p2, p0 * p2, p0 * p1)
    total = [sum(w * r[i] for w, r in zip(weights, rays)) for i in range(3)]
    return tuple(Fraction(xs * x, 3 * p0 * p1 * p2) for x in total)  # type: ignore[return-value]


def solve_centroid_condition(case: CentroidCase) -> CentroidVerdict:
    """Decide whether the centroid decomposes as a(u0 - c u1) + b eta0* with a, b > 0.

    Substituting p = a and q = ac makes the condition the linear system
    u2 = p u0 - q u1 + b eta0*; c = q/p is recovered afterwards.
    """
    u0 = case.u0_override if case.u0_override is not None else anticanonical_vector(case.generators)
    u2 = reeb_cross_section_centroid(case)
    m = mat3([[u0[i], -case.u1[i], case.eta0star[i]] for i in range(3)])
    try:
        p, q, b = solve_linear3(m, u2)
    except SingularSystemError as exc:
        if all(x == 0 for x in case.u1):
            detail = "u1 = 0: the coefficient never enters the condition"
        else:
            detail = f"dependent system (rank {exc.rank}): coefficient not determined"
        return CentroidVerdict(u0, u2, None, "indeterminate", detail)
    if p <= 0 or b <= 0:
        return CentroidVerdict(u0, u2, None, "no-solution", f"sign conditions fail: a = {p}, b = {b}")
    # Cramer's rule is exact: m (p, q, b) = u2 needs no re-check
    return CentroidVerdict(u0, u2, (p, q / p, b), "unique-c")
