"""Seeded document generator for the ``sweep`` workload, with independent oracles.

Every document carries the outcome the benchmark expects.  The expectation is
computed here from the construction (shoelace geometry, Newton-segment
arithmetic, closed forms, annotated fixture values); kwall only ever sees the
generated argv and scenario text.

A pass has a fixed composition (``PASS_MIX``) with sizes drawn log-uniformly
in strata, so the work per pass barely depends on the seed while every
document is fresh: no pass repeats another's inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

# documents per pass, by kind; the nine invalid classes are two documents each
PASS_MIX = {
    "toric": 24,
    "lct": 24,
    "centroid": 16,
    "two-ray": 16,
    "wall-case": 24,
    "first-wall": 24,
    "git-binary": 24,
}
INVALID_CLASSES = (
    "float-literal",
    "missing-field",
    "short-field",
    "reflex-vertex",
    "zero-direction",
    "dependent-generators",
    "unit-germ",
    "pentagram",
    "inverted-range",
)
INVALID_PER_CLASS = 2
# ROADMAP item 1: the seed accepts these classes with a confident answer.  A
# "spike-cycle" is a rare reflex-vertex document whose moved vertex lands on the
# line of a neighbouring edge, so the cycle doubles back on itself: like the
# pentagram it is not a simple cycle, and kwall strips the spike as collinear.
KNOWN_ACCEPTED = frozenset({"pentagram", "inverted-range", "spike-cycle"})

TORIC_VERTICES = (3, 64)
GERM_MONOMIALS = (2, 200)
FIRST_WALL_DEGREES = (4, 200)
GIT_DEGREES = (4, 200)


@dataclass(frozen=True)
class Doc:
    """One sweep document: the argv after ``--json``, an optional scenario text
    (passed as ``--file``), and the report fields it must produce.

    ``invalid`` names the invalid class; such a document must end in exit code 1
    with an ``error:`` line.  ``size`` is the input size the kind scales with.
    """

    kind: str
    command: tuple[str, ...]
    text: str | None
    expect: dict | None
    invalid: str | None = None
    size: int = 0


def fmt(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes log-uniform on [lo, hi], one per equal-probability stratum."""
    span = math.log(hi + 1) - math.log(lo)
    return [
        min(hi, int(math.exp(math.log(lo) + span * (k + rng.random()) / count)))
        for k in range(count)
    ]


def _scenario(kind: str, payload: dict) -> str:
    return json.dumps({"kind": kind, "payload": payload, "provenance": "bench sweep"})


def _vec(v) -> list[str]:
    return [fmt(F(x)) for x in v]


# ---------------------------------------------------------------------------
# plane geometry oracles (independent of kwall.exact)
# ---------------------------------------------------------------------------

def _shoelace(verts: list[tuple[F, F]]) -> tuple[F, tuple[F, F]]:
    """Twice the signed area and the area centroid of a simple vertex cycle."""
    twice = cx = cy = F(0)
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        c = x0 * y1 - x1 * y0
        twice += c
        cx += (x0 + x1) * c
        cy += (y0 + y1) * c
    return twice, (cx / (3 * twice), cy / (3 * twice))


def _doubles_back(verts: list[tuple[F, F]]) -> bool:
    """Whether the cycle turns back on itself at some vertex (a 180-degree turn)."""
    for a, b, c in zip(verts[-1:] + verts[:-1], verts, verts[1:] + verts[:1]):
        u, v = (b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])
        if u[0] * v[1] - u[1] * v[0] == 0 and u[0] * v[0] + u[1] * v[1] < 0:
            return True
    return False


def _parabola_polygon(rng: random.Random, n: int) -> list[tuple[F, F]]:
    """n rational points on a sheared parabola, in convex position, CCW."""
    den = rng.randint(1, 3)
    ks = sorted(rng.sample(range(-2 * n - 4, 2 * n + 5), n))
    shear = rng.randint(-2, 2)
    dx, dy = F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4))
    pts = []
    for k in ks:
        x, y = F(k, den), F(k * k, den * den)
        pts.append((x + shear * y + dx, y + dy))
    return pts


def _direction(rng: random.Random) -> tuple[int, int]:
    while True:
        w = (rng.randint(-4, 4), rng.randint(-4, 4))
        if w != (0, 0):
            return w


def _toric(rng: random.Random, n: int) -> Doc:
    verts = _parabola_polygon(rng, n)
    w = _direction(rng)
    anti_k = (F(rng.randint(1, 30)), F(rng.randint(0, 50)))
    twice, g = _shoelace(verts)
    levels = sorted({x * w[0] + y * w[1] for x, y in verts})
    m0 = levels[0]
    expect = {
        "engine": "toric",
        "vol(L)": fmt(abs(twice)),
        "nef threshold": fmt(levels[1] - m0),
        "pseudoeffective threshold": fmt(levels[-1] - m0),
        "S0": fmt(g[0] * w[0] + g[1] * w[1] - m0),
        "#pieces": len(levels) - 1,
    }
    payload = {"polygon": [_vec(v) for v in verts], "w": list(w), "anti_k": _vec(anti_k)}
    return Doc("toric", ("volume",), _scenario("toric", payload), expect, size=n)


def _triangle_twin(rng: random.Random) -> Doc:
    """Two-ray model whose profile is the toric profile of a random triangle.

    With the minimizing vertex unique, the cut at level t <= t1 removes a corner
    triangle of doubled area e t^2, and past t1 what remains is the top corner,
    a square in (T - t).
    """
    while True:
        verts = [(F(rng.randint(0, 16), rng.randint(1, 4)), F(rng.randint(0, 16), rng.randint(1, 4)))
                 for _ in range(3)]
        w = _direction(rng)
        (x0, y0), (x1, y1), (x2, y2) = verts
        levels = [x * w[0] + y * w[1] for x, y in verts]
        lo = min(levels)
        if (x1 - x0) * (y2 - y0) != (x2 - x0) * (y1 - y0) and levels.count(lo) == 1:
            break
    twice, g = _shoelace(verts)
    t1, T = sorted(lv - lo for lv in levels if lv != lo)
    V = abs(twice)
    e = V / (t1 * T)
    pieces = [(F(0), t1, (V, F(0), -e))]
    if t1 != T:
        c = (V - e * t1 * t1) / ((T - t1) ** 2)
        pieces.append((t1, T, (c * T * T, -2 * c * T, c)))
    anti_k = (F(rng.randint(1, 30)), F(rng.randint(0, 50)))
    expect = {
        "engine": "two-ray",
        "vol(L)": fmt(V),
        "nef threshold": fmt(t1),
        "pseudoeffective threshold": fmt(T),
        "pieces": [f"[{fmt(a)}, {fmt(b)}]: {fmt(p0)} + {fmt(p1)} t + {fmt(p2)} t^2"
                   for a, b, (p0, p1, p2) in pieces],
        "S0": fmt(g[0] * w[0] + g[1] * w[1] - lo),
    }
    payload = {"h2": fmt(V), "e2": fmt(e), "cross": "0", "neg_curve": _vec((t1 * e, V)),
               "L": ["1", "0"], "anti_k": _vec(anti_k)}
    return Doc("two-ray", ("volume",), _scenario("two-ray", payload), expect, size=3)


# ---------------------------------------------------------------------------
# germs: (a, 0) and (0, b) span the Newton boundary, so lct = min(1, 1/a + 1/b)
# ---------------------------------------------------------------------------

def _germ_support(rng: random.Random, m: int) -> tuple[int, int, list[tuple[int, int]]]:
    a, b = rng.randint(2, 40), rng.randint(2, 40)
    pad = 2 + math.isqrt(2 * m)
    mons = {(a, 0), (0, b)}
    while len(mons) < m:
        i, j = rng.randint(0, a + pad), rng.randint(0, b + pad)
        if i * b + j * a >= a * b:
            mons.add((i, j))
    return a, b, sorted(mons)


def _lct(rng: random.Random, m: int) -> Doc:
    a, b, mons = _germ_support(rng, m)
    expect = {
        "germ": " ".join(f"({i},{j})" for i, j in mons),
        "lct": fmt(min(F(1), F(1, a) + F(1, b))),
    }
    order = mons[:]
    rng.shuffle(order)
    payload = {"germ": [list(mn) for mn in order]}
    return Doc("lct", ("lct",), _scenario("lct", payload), expect, size=m)


# ---------------------------------------------------------------------------
# centroid: the eight appendix cones with their annotated (a, c, b), moved by
# random unimodular maps (the solution is invariant)
# ---------------------------------------------------------------------------

CENTROID_CONES = (
    (((6, -6, -13), (-1, 1, 2), (1, 1, 2)), (-1, 25, -12), (F(3, 5), F(8, 15), F(1, 30))),
    (((-1, 1, -2), (6, -6, 13), (19, -6, 13)), (-1, 25, 13), (F(3, 5), F(8, 15), F(56, 195))),
    (((0, 0, -1), (-1, 1, -2), (1, 0, 6)), (12, 10, -1), (F(11, 6), F(6, 11), F(3, 4))),
    (((0, 0, 1), (-1, 1, 2), (1, 0, -6)), (12, 10, 2), (F(11, 6), F(6, 11), F(1, 4))),
    (((-4, 1, -1), (1, 0, -6), (0, 0, 1)), (12, 50, 2), (F(23, 60), F(63, 115), F(1, 20))),
    (((-4, 1, 1), (1, 0, 6), (0, 0, -1)), (12, 50, 0), (F(23, 60), F(63, 115), F(37, 100))),
    (((-1, 0, -2), (1, 1, 6), (6, 0, 11)), (22, 50, -11), (F(19, 30), F(54, 95), F(31, 100))),
    (((-1, 0, 2), (1, 1, -6), (6, 0, -11)), (22, 50, 12), (F(19, 30), F(54, 95), F(1, 20))),
)
XI0, ETA0 = (0, 1, 0), (0, 0, 1)


def _matmul(a, b):
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(3)) for c in range(3)) for r in range(3))


def _matvec(m, v):
    return tuple(sum(m[r][k] * v[k] for k in range(3)) for r in range(3))


def _inverse_transpose(m):
    """(m^-1)^T of an integer matrix with det = +-1: the cofactor matrix over det."""
    cof = [[0] * 3 for _ in range(3)]
    for r in range(3):
        for c in range(3):
            rows = [i for i in range(3) if i != r]
            cols = [j for j in range(3) if j != c]
            minor = m[rows[0]][cols[0]] * m[rows[1]][cols[1]] - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
            cof[r][c] = (-1) ** (r + c) * minor
    det = sum(m[0][c] * cof[0][c] for c in range(3))
    assert det in (1, -1)
    return tuple(tuple(x * det for x in row) for row in cof)


def _unimodular(rng: random.Random):
    m = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        shear = [[int(r == c) for c in range(3)] for r in range(3)]
        shear[i][j] = rng.randint(-2, 2)
        m = _matmul(m, shear)
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    return _matmul(m, [[signs[r] if perm[r] == c else 0 for c in range(3)] for r in range(3)])


def _centroid(rng: random.Random, index: int) -> Doc:
    gens, u1, (a, c, b) = CENTROID_CONES[index % len(CENTROID_CONES)]
    g = _unimodular(rng)
    gt = _inverse_transpose(g)
    payload = {
        "generators": [list(_matvec(g, n)) for n in gens],
        "xi0": list(_matvec(g, XI0)),
        "eta0star": list(_matvec(gt, ETA0)),
        "u1": list(_matvec(gt, u1)),
    }
    expect = {"verdict": "unique-c", "(a, c, b)": f"({fmt(a)}, {fmt(c)}, {fmt(b)})"}
    return Doc("centroid", ("centroid",), _scenario("centroid", payload), expect, size=3)


# ---------------------------------------------------------------------------
# walls: the crossing of two affine functions; first walls by closed form
# ---------------------------------------------------------------------------

def _wall_numbers(rng: random.Random):
    lo = F(rng.randint(0, 5), rng.randint(5, 12))
    hi = lo + F(rng.randint(1, 12), rng.randint(2, 12))
    S0 = F(rng.randint(1, 60), rng.randint(1, 30))
    beta = F(rng.randint(0, 30), rng.randint(1, 6))
    alpha = beta * hi + F(rng.randint(0, 20), rng.randint(1, 6))
    if alpha == beta * lo:
        alpha += 1
    while True:
        ordD = F(rng.randint(0, 60), rng.randint(1, 4))
        if beta * S0 != ordD:
            break
    return lo, hi, S0, alpha, beta, ordD


def _wall_case(rng: random.Random) -> Doc:
    lo, hi, S0, alpha, beta, ordD = _wall_numbers(rng)
    slope = beta * S0 - ordD
    inside = rng.random() < 0.5
    width = hi - lo
    cstar = lo + width * F(rng.randint(1, 99), 100) if inside else hi + width * F(rng.randint(0, 99), 50)
    A0 = alpha * S0 - slope * cstar
    const = A0 - alpha * S0
    expect = {"range": f"({fmt(lo)}, {fmt(hi)})"}
    if lo < cstar < hi:
        expect["wall"] = fmt(cstar)
        side = ">" if slope < 0 else "<"
        expect["verdict"] = (f"K-unstable for c {side} {fmt(cstar)}; "
                             "necessary condition for K-semistability passes on the other side")
    else:
        expect["wall"] = "none in range"
        mid = (lo + hi) / 2
        expect["verdict"] = ("K-unstable on the whole range" if const + slope * mid < 0
                             else "necessary condition passes on the whole range")
    payload = {"A0": fmt(A0), "ordD": fmt(ordD), "S0": fmt(S0), "alpha": fmt(alpha),
               "beta": fmt(beta), "range": [fmt(lo), fmt(hi)]}
    return Doc("wall-case", ("wall",), _scenario("wall-case", payload), expect, size=1)


def _first_wall(d: int) -> Doc:
    wall = F(3, 2 * d) if d % 2 == 0 else F(3, 2 * d - 3)
    return Doc("first-wall", ("first-wall", "--degree", str(d)), None,
               {"degree": str(d), "first wall": fmt(wall)}, size=d)


# ---------------------------------------------------------------------------
# GIT: block j has degree 4j; a monomial (i, 4j - i) has weight 2i - 4j at the
# root x = 0 and 4j - 2i at y = 0, so the verdict is fixed by construction
# ---------------------------------------------------------------------------

def _git_binary(rng: random.Random, d: int, flavour: int) -> Doc:
    forms: dict[int, set] = {}
    for j in rng.sample(range(2, d // 2 + 1), min(d // 2 - 1, rng.randint(1, 12))):
        deg = 4 * j
        if flavour == 0:  # every weight at x = 0 positive
            picks = {rng.randint(2 * j + 1, deg) for _ in range(rng.randint(1, 4))}
        elif flavour == 1:  # every weight at y = 0 positive
            picks = {rng.randint(0, 2 * j - 1) for _ in range(rng.randint(1, 4))}
        elif flavour == 2:  # torus-fixed: weight 0 at both roots
            picks = {2 * j}
        else:  # some weight negative at each root
            picks = {0, deg} | {rng.randint(0, deg) for _ in range(rng.randint(0, 3))}
        forms[j] = {(i, deg - i) for i in picks}
    verdict, detail = (
        ("unstable", "destabilized at x=0"),
        ("unstable", "destabilized at y=0"),
        ("strictly-semistable", "fixed by the boundary torus at x=0; orbit closed"),
        ("stable", "no destabilizing direction for SL(2)"),
    )[flavour]
    payload = {"parity": "even", "degree": d,
               "forms": {str(j): [list(m) for m in sorted(ms)] for j, ms in sorted(forms.items())}}
    return Doc("git-binary", ("git", "binary"), _scenario("git-binary", payload),
               {"verdict": verdict, "detail": detail, "degree": str(d)}, size=d)


# ---------------------------------------------------------------------------
# invalid documents
# ---------------------------------------------------------------------------

def _invalid(rng: random.Random, cls: str) -> Doc:
    if cls == "float-literal":
        text = ('{"kind": "two-ray", "payload": {"h2": 0.5, "e2": "1/26", "neg_curve": ["5", "26"],'
                ' "L": ["1", "0"]}}')
        return Doc("invalid", ("volume",), text, None, cls)
    if cls == "missing-field":
        verts = _parabola_polygon(rng, rng.randint(3, 8))
        return Doc("invalid", ("volume",), _scenario("toric", {"polygon": [_vec(v) for v in verts]}), None, cls)
    if cls == "short-field":
        payload = {"h2": "1", "e2": "1/6", "neg_curve": ["2", "6"], "L": ["1"]}
        return Doc("invalid", ("volume",), _scenario("two-ray", payload), None, cls)
    if cls == "reflex-vertex":
        verts = _parabola_polygon(rng, rng.randint(4, 12))
        k = rng.randrange(len(verts))
        prev, nxt = verts[k - 1], verts[(k + 1) % len(verts)]
        mid = ((prev[0] + nxt[0]) / 2, (prev[1] + nxt[1]) / 2)
        # push the vertex halfway past the chord of its neighbours: a reflex turn
        verts[k] = (mid[0] - (verts[k][0] - mid[0]) / 2, mid[1] - (verts[k][1] - mid[1]) / 2)
        payload = {"polygon": [_vec(v) for v in verts], "w": list(_direction(rng))}
        return Doc("invalid", ("volume",), _scenario("toric", payload), None,
                   "spike-cycle" if _doubles_back(verts) else cls)
    if cls == "zero-direction":
        verts = _parabola_polygon(rng, rng.randint(3, 8))
        return Doc("invalid", ("volume",), _scenario("toric", {"polygon": [_vec(v) for v in verts], "w": [0, 0]}),
                   None, cls)
    if cls == "dependent-generators":
        gens, u1, _ = CENTROID_CONES[rng.randrange(len(CENTROID_CONES))]
        n1, n2 = gens[0], gens[1]
        payload = {"generators": [list(n1), list(n2), [x + y for x, y in zip(n1, n2)]],
                   "xi0": list(XI0), "eta0star": list(ETA0), "u1": list(u1)}
        return Doc("invalid", ("centroid",), _scenario("centroid", payload), None, cls)
    if cls == "unit-germ":
        _, _, mons = _germ_support(rng, rng.randint(2, 20))
        payload = {"germ": [[0, 0]] + [list(m) for m in mons]}
        return Doc("invalid", ("lct",), _scenario("lct", payload), None, cls)
    if cls == "pentagram":
        verts = _parabola_polygon(rng, 5)
        star = [verts[i] for i in (0, 2, 4, 1, 3)]
        payload = {"polygon": [_vec(v) for v in star], "w": list(_direction(rng)), "anti_k": ["3", "5"]}
        return Doc("invalid", ("volume",), _scenario("toric", payload), None, cls)
    if cls == "inverted-range":
        lo, hi, S0, alpha, beta, ordD = _wall_numbers(rng)
        payload = {"A0": fmt(alpha * S0), "ordD": fmt(ordD), "S0": fmt(S0), "alpha": fmt(alpha),
                   "beta": fmt(beta), "range": [fmt(hi), fmt(lo)]}
        return Doc("invalid", ("wall",), _scenario("wall-case", payload), None, cls)
    raise ValueError(cls)


def generate_pass(seed: int, index: int) -> list[Doc]:
    """The documents of pass ``index`` for ``seed``, in the order they run."""
    rng = random.Random(f"kwall-sweep:{seed}:{index}")
    docs: list[Doc] = []
    docs += [_toric(rng, n) for n in _strata(rng, PASS_MIX["toric"], *TORIC_VERTICES)]
    docs += [_lct(rng, m) for m in _strata(rng, PASS_MIX["lct"], *GERM_MONOMIALS)]
    docs += [_centroid(rng, k) for k in range(PASS_MIX["centroid"])]
    docs += [_triangle_twin(rng) for _ in range(PASS_MIX["two-ray"])]
    docs += [_wall_case(rng) for _ in range(PASS_MIX["wall-case"])]
    docs += [_first_wall(d) for d in _strata(rng, PASS_MIX["first-wall"], *FIRST_WALL_DEGREES)]
    git_degrees = [d + d % 2 for d in _strata(rng, PASS_MIX["git-binary"], *GIT_DEGREES)]
    docs += [_git_binary(rng, min(d, GIT_DEGREES[1]), k % 4) for k, d in enumerate(git_degrees)]
    docs += [_invalid(rng, cls) for cls in INVALID_CLASSES for _ in range(INVALID_PER_CLASS)]
    rng.shuffle(docs)
    return docs
