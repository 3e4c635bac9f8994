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
    DegenerateInputError,
    KwallError,
    SingularSystemError,
    Vec3,
    det3,
    mat3,
    solve_linear3,
    v3_add,
    v3_cross,
    v3_dot,
    v3_scale,
    v3_sub,
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
    case: CentroidCase
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


def reeb_cross_section_centroid(case: CentroidCase) -> tuple[tuple[Vec3, Vec3, Vec3], Vec3]:
    """Cross-section of the dual cone by the Reeb hyperplane and its exact centroid.

    The dual cone tau^v = {u : <u, n_i> >= 0} of a simplicial cone is spanned
    by three rays, and because xi0 is interior to tau each pairs positively
    with it.  Scaled to <r, xi0> = 1 they are the vertices of the cross-section
    triangle, whose area centroid is their average.
    """
    n1, n2, n3 = case.generators
    rays = []
    for a, b, other in ((n2, n3, n1), (n1, n3, n2), (n1, n2, n3)):
        r = v3_cross(a, b)
        s = v3_dot(r, other)
        if s == 0:
            raise ConeError("degenerate cone: a dual ray pairs to zero with its generator")
        if s < 0:
            r = v3_scale(-1, r)
        pairing = v3_dot(r, case.xi0)
        if pairing <= 0:
            raise ConeError("Reeb vector on the cone boundary: cross-section unbounded")
        rays.append(v3_scale(Fraction(1) / pairing, r))
    # verify against the halfplane description of the dual cone
    if any(v3_dot(r, n) < 0 for r in rays for n in case.generators):
        raise ConeError("cross-section vertices violate the dual-cone halfplanes")
    if det3(rays) == 0:
        raise DegenerateInputError("cross-section degenerated to lower dimension")
    u2 = v3_scale(Fraction(1, 3), v3_add(rays[0], v3_add(rays[1], rays[2])))
    if v3_dot(u2, case.xi0) != 1:
        raise ConeError("centroid failed to land on the Reeb hyperplane")
    return (rays[0], rays[1], rays[2]), u2


def solve_centroid_condition(case: CentroidCase) -> CentroidVerdict:
    """Decide whether the centroid decomposes as a(u0 - c u1) + b eta0* with a, b > 0.

    Substituting p = a and q = ac makes the condition the linear system
    u2 = p u0 - q u1 + b eta0*; c = q/p is recovered afterwards.
    """
    u0 = case.u0_override if case.u0_override is not None else anticanonical_vector(case.generators)
    _, u2 = reeb_cross_section_centroid(case)
    m = mat3(
        [
            [u0[i], -case.u1[i], case.eta0star[i]]
            for i in range(3)
        ]
    )
    try:
        p, q, b = solve_linear3(m, u2)
    except SingularSystemError as exc:
        if all(x == 0 for x in case.u1):
            detail = "u1 = 0: the coefficient never enters the condition"
        else:
            detail = f"dependent system (rank {exc.rank}): coefficient not determined"
        return CentroidVerdict(case, u0, u2, None, "indeterminate", detail)
    if p <= 0 or b <= 0:
        return CentroidVerdict(
            case, u0, u2, None, "no-solution",
            f"sign conditions fail: a = {p}, b = {b}",
        )
    c = q / p
    sol = (p, c, b)
    # exactness check of the decomposition
    lhs = v3_add(
        v3_scale(p, v3_sub(u0, v3_scale(c, case.u1))), v3_scale(b, case.eta0star)
    )
    if lhs != u2:
        raise ConeError("the solved decomposition does not reproduce the centroid")
    return CentroidVerdict(case, u0, u2, sol, "unique-c")
