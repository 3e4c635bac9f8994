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
    _cleared,
    _icross,
    _idot3,
    _int_rows,
    det3,
    mat3,
    mat3_vec,
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
    # positive rescalings of the generators and of xi0 keep every sign below and every scaled
    # ray, so the rays, the checks and the centroid are integer work; xi0 = xi / xs
    gens, _ = _int_rows(case.generators)
    xi, xs = _cleared(case.xi0)
    rays, pairings = [], []
    for a, b, other in ((1, 2, 0), (0, 2, 1), (0, 1, 2)):
        r = _icross(gens[a], gens[b])
        s = _idot3(r, gens[other])
        if s == 0:
            raise ConeError("degenerate cone: a dual ray pairs to zero with its generator")
        if s < 0:
            r = (-r[0], -r[1], -r[2])
        pairing = _idot3(r, xi)
        if pairing <= 0:
            raise ConeError("Reeb vector on the cone boundary: cross-section unbounded")
        rays.append(r)
        pairings.append(pairing)
    # verify against the halfplane description of the dual cone
    if any(_idot3(r, n) < 0 for r in rays for n in gens):
        raise ConeError("cross-section vertices violate the dual-cone halfplanes")
    if _idot3(rays[0], _icross(rays[1], rays[2])) == 0:
        raise DegenerateInputError("cross-section degenerated to lower dimension")
    # vertex k is xs r_k / p_k; their average over the common denominator 3 p0 p1 p2
    p0, p1, p2 = pairings
    weights = (p1 * p2, p0 * p2, p0 * p1)
    total = [sum(w * r[i] for w, r in zip(weights, rays)) for i in range(3)]
    den = 3 * p0 * p1 * p2
    if _idot3(total, xi) != den:
        raise ConeError("centroid failed to land on the Reeb hyperplane")
    vertices = tuple(tuple(Fraction(xs * x, p) for x in r) for r, p in zip(rays, pairings))
    return vertices, tuple(Fraction(xs * x, den) for x in total)  # type: ignore[return-value]


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
    # exactness check of the decomposition: the columns of m are u0, -u1 and eta0*
    if mat3_vec(m, (p, c * p, b)) != u2:
        raise ConeError("the solved decomposition does not reproduce the centroid")
    return CentroidVerdict(case, u0, u2, sol, "unique-c")
