"""Hilbert-Mumford weights for plane curves, stability of the weighted binary-form
systems attached to curves on the degeneration surface, and the CM degree of
hypersurface families.

Sign convention throughout: mu < 0 for a one-parameter subgroup certifies
instability; a curve survives a direction as soon as one of its monomials has
nonpositive weight.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import KwallError, rat
from .walls import Interval


class GitError(KwallError):
    pass


class PlaneCurveSupport(namedtuple("PlaneCurveSupport", "degree monomials")):
    """Monomial support of a plane curve of the given degree."""

    __slots__ = ()

    def __new__(cls, degree: int, monomials: frozenset[tuple[int, int, int]]):
        mons = frozenset((int(a), int(b), int(c)) for a, b, c in monomials)
        if not mons:
            raise GitError("field 'monomials': curve support must be nonempty")
        for m in mons:
            if any(e < 0 for e in m):
                raise GitError("field 'monomials': exponents must be nonnegative")
            if sum(m) != degree:
                raise GitError(f"field 'monomials': monomial {m} does not have degree {degree}")
        return super().__new__(cls, degree, mons)


class OnePS(namedtuple("OnePS", "weights")):
    """Diagonal one-parameter subgroup in chosen coordinates; weights sum to zero."""

    __slots__ = ()

    def __new__(cls, weights: tuple[int, ...]):
        ws = tuple(int(w) for w in weights)
        if all(w == 0 for w in ws):
            raise GitError("field 'lambda': one-parameter subgroup must be nontrivial")
        if sum(ws) != 0:
            raise GitError("field 'lambda': torus weights must sum to zero")
        return super().__new__(cls, ws)


def hm_weight_plane(curve: PlaneCurveSupport, lam: OnePS) -> Fraction:
    """mu = -min over monomials of <exponents, lambda>.

    mu < 0 means every monomial has strictly positive weight, so the limit
    along lambda is zero and the curve is destabilized; any monomial of
    nonpositive weight blocks the direction.
    """
    return -min(
        sum(Fraction(e) * w for e, w in zip(mon, lam.weights))
        for mon in sorted(curve.monomials)
    )


# ---------------------------------------------------------------------------
# weighted systems of binary forms
# ---------------------------------------------------------------------------

class BinaryFormSystem(namedtuple("BinaryFormSystem", "parity degree forms")):
    """Monomial supports of the form blocks of a curve on the degeneration surface.

    Even parity (degree-d curves, d even): blocks j = 2..d/2 of binary forms of
    degree 4j, scaling weight j.  Odd parity: the restricted degree-6 block
    (coordinates x^6, y^6 only) of weight 1 plus blocks j = 2..(d-1)/2 of
    degree 4j + 2 and weight j.  A monomial of degree n is recorded as the pair
    (i, n - i).  ``parity`` is "even" or "odd", and ``forms`` maps each block
    index j to its support.
    """

    __slots__ = ()

    def __new__(cls, parity: str, degree: int, forms: dict[int, frozenset[tuple[int, int]]]):
        if parity not in ("even", "odd"):
            raise GitError("field 'parity': parity must be 'even' or 'odd'")
        if parity == "even" and degree % 2 != 0:
            raise GitError("field 'degree': even-parity system needs even degree")
        if parity == "odd" and degree % 2 != 1:
            raise GitError("field 'degree': odd-parity system needs odd degree")
        forms = {int(j): frozenset((int(i), int(k)) for i, k in supp) for j, supp in forms.items()}
        if not any(forms.values()):
            raise GitError("field 'forms': all-zero system is the excluded cone point")
        self = super().__new__(cls, parity, degree, forms)
        for j, supp in forms.items():
            deg = self.block_degree(j)
            for i, k in supp:
                if i < 0 or k < 0 or i + k != deg:
                    raise GitError(f"field 'forms.{j}': monomial {(i, k)} invalid in block {j} of degree {deg}")
                if parity == "odd" and j == 1 and (i, k) not in ((6, 0), (0, 6)):
                    raise GitError("field 'forms.1': the odd degree-6 block only carries x^6 and y^6")
        return self

    def block_degree(self, j: int) -> int:
        if self.parity == "even":
            if not 2 <= j <= self.degree // 2:
                raise GitError(f"field 'forms.{j}': even block index {j} out of range")
            return 4 * j
        if j == 1:
            return 6
        if not 2 <= j <= (self.degree - 1) // 2:
            raise GitError(f"field 'forms.{j}': odd block index {j} out of range")
        return 4 * j + 2

    def nonzero_blocks(self) -> list[int]:
        return sorted(j for j, supp in self.forms.items() if supp)


class StabilityCertificate(NamedTuple):
    """Destabilizing data: candidate root, 1-PS exponent pair (a on the root
    torus, r on the scaling torus), and the per-monomial weights it produces."""

    candidate: str
    a: int
    r: int
    weights: tuple[Fraction, ...]


class StabilityVerdict(NamedTuple):
    verdict: str  # "stable" | "strictly-semistable" | "unstable"
    certificate: Optional[StabilityCertificate] = None
    polystable: Optional[bool] = None  # decided only for torus-fixed limits
    detail: str = ""


def _candidate_orders(system: BinaryFormSystem) -> list[tuple[str, dict[int, list[tuple[int, int]]]]]:
    """Per candidate root: for each nonzero block the list of (order at root, block degree)
    over its nonzero monomials."""
    out = []
    for name, ordsel in (("x=0", lambda i, k: i), ("y=0", lambda i, k: k)):
        per_block: dict[int, list[tuple[int, int]]] = {}
        for j in system.nonzero_blocks():
            deg = system.block_degree(j)
            per_block[j] = [(ordsel(i, k), deg) for i, k in sorted(system.forms[j])]
        out.append((name, per_block))
    return out


def _normalized_weights(per_block: dict[int, list[tuple[int, int]]]) -> list[tuple[Fraction, int]]:
    """Weight vectors (2 ord - degree, block scaling weight) over nonzero monomials."""
    vecs = []
    for j, entries in per_block.items():
        for order, deg in entries:
            vecs.append((Fraction(2 * order - deg), j))
    return vecs


def binary_system_stability(system: BinaryFormSystem) -> StabilityVerdict:
    """Classify the system against every destabilizing direction.

    At each candidate root the pair (2 ord - degree, scaling weight) is
    collected per nonzero monomial; a direction destabilizes exactly when a
    linear functional that pairs negatively with the polarization character is
    nonnegative on all pairs, which happens iff every normalized weight is
    strictly positive.  Certificates carry integer 1-PS data whose replayed
    combined weights are all strictly positive.
    """
    candidates = _candidate_orders(system)
    max_j = max(system.nonzero_blocks())

    for name, per_block in candidates:
        vecs = _normalized_weights(per_block)
        if all(w > 0 for w, _ in vecs):
            a = max_j + 1
            cert = StabilityCertificate(
                candidate=name,
                a=a,
                r=-1,
                weights=tuple(a * w - j for w, j in vecs),
            )
            return StabilityVerdict("unstable", cert, detail=f"destabilized at {name}")

    for name, per_block in candidates:
        vecs = _normalized_weights(per_block)
        if all(w >= 0 for w, _ in vecs):
            torus_fixed = all(w == 0 for w, _ in vecs)
            cert = StabilityCertificate(candidate=name, a=1, r=0, weights=tuple(w for w, _ in vecs))
            if torus_fixed:
                return StabilityVerdict(
                    "strictly-semistable", cert, polystable=True,
                    detail=f"fixed by the boundary torus at {name}; orbit closed",
                )
            return StabilityVerdict(
                "strictly-semistable", cert, polystable=None,
                detail=f"degenerates along the zero-weight direction at {name}; polystability undetermined",
            )

    sym = "SL(2)" if system.parity == "even" else "sigma'-torus (x<->y swap not quotiented)"
    return StabilityVerdict("stable", None, polystable=True, detail=f"no destabilizing direction for {sym}")


def replay_certificate(system: BinaryFormSystem, cert: StabilityCertificate) -> list[Fraction]:
    """Recompute the combined weights a(2 ord - deg) + r j of an unstable certificate
    directly from the raw monomial data."""
    per_block = dict(_candidate_orders(system))[cert.candidate]
    return [cert.a * (2 * order - deg) + cert.r * j for j, entries in per_block.items() for order, deg in entries]


# ---------------------------------------------------------------------------
# CM degree for hypersurface families
# ---------------------------------------------------------------------------

def cm_degree(n: int, d: int, c: Fraction) -> Fraction:
    """Degree (n+1) c (n+1 - cd)^n of the CM line bundle on the space of
    degree-d hypersurfaces in P^n at coefficient c, for the n and d that
    ``cm_positivity_window`` accepts.

    A value with more digits than an int converts to text
    (``sys.get_int_max_str_digits()``, 0 for no limit) is refused before the
    power is taken, from bit lengths alone.  With c = a/b and the base
    n+1 - cd = p/q in lowest terms, the value's numerator is at least |p|^n / b
    and its denominator at least q^n / ((n+1)|a|) when a != 0, and
    2^(10k/3) > 10^k.
    """
    c = rat(c)
    if c == 0:
        return c
    base = n + 1 - c * d
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before Python 3.10.7
    bits = -(-10 * limit // 3)  # ceil(10 limit / 3)
    for part, power_bits, cancel in (
        ("numerator", abs(base.numerator).bit_length(), c.denominator),
        ("denominator", base.denominator.bit_length(), (n + 1) * abs(c.numerator)),
    ):
        if limit and (power_bits - 1) * n >= cancel.bit_length() + bits:
            raise GitError(f"value too large to print: its {part} has more than {limit} digits")
    return (n + 1) * c * base ** n


def cm_positivity_window(n: int, d: int) -> Interval:
    """{c : cm_degree(n, d, c) > 0} = (0, (n+1)/d), for hypersurfaces of degree d >= 2 in P^n, n >= 1."""
    if d < 2:
        raise GitError("field 'degree': degree must be at least 2")
    if n < 1:
        raise GitError("field 'n': dimension must be positive")
    return Interval(Fraction(0), Fraction(n + 1, d))
