"""Generators for every named graph family, expected constants, truncations.

This module is the one home of the family facts: each family's parameters
and their minimums (enforced by ``FamilySpec``, which also rejects a
parameter the family does not take), the Smith trees' legs and Coxeter
numbers (``SMITH_TREES``), and the closed forms: ``expected_constant``
states C_G and C0 for every family that has one (for the Smith families
C0 = 1 + 2cos(pi/h), h the Coxeter number), and its kind says how a
computed C_G is checked against it.

Each generator re-validates its output (degrees and edge counts, which with
connectivity pin the simple families and their diameters, strongly-regular
parameters or tree shape, as appropriate) and fails loudly on a mismatch, so
a construction bug cannot silently ship a wrong catalog graph.  The sporadic
graphs are embedded as verified edge lists; for those the validated
invariants pin the isomorphism class.  The Doyle graph's check is a stored
witness: two automorphisms whose orbit closure is every vertex, so it is
vertex-transitive and its diameter is one vertex's eccentricity.  No
generator searches for automorphisms.

Dynkin-style conventions used here: D_n is a path on n-1 vertices with an
extra leaf on its second vertex; E_k is a path on k-1 vertices with an extra
leaf on its third vertex; the hatted (extended) versions are the trees with
adjacency spectral radius exactly 2.  The D and E trees and their extensions
are pinned up to isomorphism by the recognizers ``spider_legs``, ``is_d_n``
and ``is_d_hat``, which the classifier also uses to name them; no generator
computes a spectrum.  That the pinned trees have the stated C0 is checked by
``dublo verify``'s ``smith_c0_table`` row.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from itertools import chain
from fractions import Fraction
from typing import NamedTuple, Sequence

from .doubling import counting_measure, doubling_report
from .errors import SizeCapError, ValidationError
from .graphs import DEFAULT_SIZE_CAP, Graph, single_source, structural_facts
from .spectral import perron
from .symmetry import orbit

THREE_LEGS_POLY = (1.0, 1.0, -5.0, -3.0)  # x^3 + x^2 - 5x - 3
E8_RATIO_POLY = (1.0, -6.0, 11.0, -4.0, -10.0, 14.0, -8.0, 2.0, 0.0)


def poly_largest_root(coeffs: Sequence[float]) -> float:
    """Largest real root of a polynomial (coefficients highest degree first), correctly rounded.

    The coefficients are read as exact rationals.  The Sturm sequence of p,
    divided by gcd(p, p') so that a repeated root counts once, counts by its
    sign variations the distinct roots above any point.  Bisection on that
    count over the finite floats, in the order of their bit patterns, ends in
    at most 64 steps at two adjacent floats around the root; the count at
    their exact midpoint picks the nearer.
    """
    if len(coeffs) < 2 or coeffs[0] == 0 or not all(map(math.isfinite, coeffs)):
        raise ValidationError("need degree >= 1 and finite coefficients, the leading one non-zero")
    p = [Fraction(c) for c in coeffs]
    seq = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while rem := _poly_divmod(seq[-2], seq[-1])[1]:
        seq.append([-c for c in rem])
    sturm = []
    for f in seq:  # divided by the gcd, in integers (a positive scale keeps every sign)
        q = _poly_divmod(f, seq[-1])[0]
        scale = math.lcm(*(c.denominator for c in q))
        sturm.append([int(c * scale) for c in q])

    def variations(values) -> int:
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_infinity = variations(f[0] for f in sturm)

    def roots_above(x: float | Fraction) -> int:
        a, b = x.as_integer_ratio()
        values = []
        for f in sturm:  # b^deg f(a / b), Horner in integers
            acc, power = 0, 1
            for c in f:
                acc, power = acc * a + c * power, power * b
            values.append(acc)
        return variations(values) - at_infinity

    top = sys.float_info.max
    if not roots_above(-top) or roots_above(top):
        raise ValidationError("no real root found in the float range")
    lo, hi = -_float_rank(top), _float_rank(top)
    while hi - lo > 1:  # a root lies above lo's float, none above hi's
        mid = (lo + hi) // 2
        if roots_above(_rank_float(mid)):
            lo = mid
        else:
            hi = mid
    below, above = _rank_float(lo), _rank_float(hi)
    return above if roots_above((Fraction(below) + Fraction(above)) / 2) else below


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list, list]:
    """Quotient and remainder of a / b, highest degree first; the remainder has no leading 0."""
    a, quotient = list(a), []
    while len(a) >= len(b):
        c = a[0] / b[0]
        quotient.append(c)
        a = [x - c * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
    while a and a[0] == 0:
        a.pop(0)
    return quotient, a


def _float_rank(x: float) -> int:
    """Position of x among the floats: adjacent floats have adjacent ranks, and 0.0 has 0."""
    bits = int.from_bytes(struct.pack("<d", x), "little", signed=True)
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def _rank_float(rank: int) -> float:
    return math.copysign(struct.unpack("<d", abs(rank).to_bytes(8, "little"))[0], rank)


# every family and the minimum of each parameter it takes; FamilySpec enforces it and
# rejects any other parameter
_FAMILY_PARAMS: dict[str, dict[str, int]] = {
    "complete": {"n": 1},
    "star": {"n": 1},
    "cycle": {"n": 3},
    "path": {"n": 1},
    "complete_bipartite": {"m": 1, "n": 1},
    "wheel": {"n": 4},
    "friendship": {"n": 1},
    "cocktail_party": {"n": 2},
    "petersen": {},
    "hoffman_singleton": {},
    "clebsch": {},
    "d_n": {"n": 4},
    "d_hat_n": {"n": 5},
    "e6": {},
    "e7": {},
    "e8": {},
    "e6_hat": {},
    "e7_hat": {},
    "e8_hat": {},
    "three_legs": {},
    "doyle": {},
    "grid_ray_truncation": {"depth": 1},
}
FAMILY_NAMES = tuple(_FAMILY_PARAMS)

_DOYLE_EDGES = (
    (0, 5), (0, 7), (0, 22), (0, 26), (1, 3), (1, 8), (1, 23), (1, 24), (2, 4), (2, 6),
    (2, 21), (2, 25), (3, 11), (3, 16), (3, 17), (4, 9), (4, 15), (4, 17), (5, 10),
    (5, 15), (5, 16), (6, 10), (6, 22), (6, 23), (7, 11), (7, 21), (7, 23), (8, 9),
    (8, 21), (8, 22), (9, 14), (9, 16), (10, 12), (10, 17), (11, 13), (11, 15),
    (12, 20), (12, 25), (12, 26), (13, 18), (13, 24), (13, 26), (14, 19), (14, 24),
    (14, 25), (15, 19), (16, 20), (17, 18), (18, 23), (18, 25), (19, 21), (19, 26),
    (20, 22), (20, 24),
)

# two automorphisms of the Doyle graph whose orbit closure from 0 is every vertex
_DOYLE_WITNESS = (
    (3, 22, 14, 6, 25, 17, 9, 1, 20, 12, 4, 23, 15, 7, 26, 18, 10, 2, 21, 13, 5, 24, 16, 8, 0,
     19, 11),
    (4, 23, 12, 7, 26, 15, 10, 2, 18, 13, 5, 21, 16, 8, 24, 19, 11, 0, 22, 14, 3, 25, 17, 6, 1,
     20, 9),
)

_HOFFMAN_SINGLETON_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 6), (0, 7), (0, 8), (0, 9), (1, 12), (1, 17), (1, 26),
    (1, 27), (1, 28), (1, 29), (2, 10), (2, 11), (2, 13), (2, 14), (2, 15), (2, 16),
    (3, 4), (3, 5), (3, 30), (3, 35), (3, 40), (3, 45), (4, 11), (4, 17), (4, 34),
    (4, 39), (4, 44), (4, 49), (5, 10), (5, 12), (5, 33), (5, 38), (5, 43), (5, 48),
    (6, 18), (6, 22), (6, 31), (6, 39), (6, 43), (6, 47), (7, 19), (7, 23), (7, 34),
    (7, 37), (7, 41), (7, 48), (8, 20), (8, 24), (8, 33), (8, 36), (8, 42), (8, 49),
    (9, 21), (9, 25), (9, 32), (9, 38), (9, 44), (9, 46), (10, 17), (10, 18), (10, 19),
    (10, 20), (10, 21), (11, 12), (11, 32), (11, 37), (11, 42), (11, 47), (12, 31),
    (12, 36), (12, 41), (12, 46), (13, 22), (13, 26), (13, 30), (13, 36), (13, 44),
    (13, 48), (14, 23), (14, 27), (14, 31), (14, 38), (14, 40), (14, 49), (15, 24),
    (15, 28), (15, 34), (15, 35), (15, 43), (15, 46), (16, 25), (16, 29), (16, 33),
    (16, 39), (16, 41), (16, 45), (17, 22), (17, 23), (17, 24), (17, 25), (18, 26),
    (18, 32), (18, 35), (18, 41), (18, 49), (19, 27), (19, 30), (19, 39), (19, 42),
    (19, 46), (20, 28), (20, 31), (20, 37), (20, 44), (20, 45), (21, 29), (21, 34),
    (21, 36), (21, 40), (21, 47), (22, 33), (22, 37), (22, 40), (22, 46), (23, 32),
    (23, 36), (23, 43), (23, 45), (24, 30), (24, 38), (24, 41), (24, 47), (25, 31),
    (25, 35), (25, 42), (25, 48), (26, 34), (26, 38), (26, 42), (26, 45), (27, 33),
    (27, 35), (27, 44), (27, 47), (28, 32), (28, 39), (28, 40), (28, 48), (29, 30),
    (29, 37), (29, 43), (29, 49), (30, 31), (30, 32), (31, 34), (32, 33), (33, 34),
    (35, 36), (35, 37), (36, 39), (37, 38), (38, 39), (40, 41), (40, 42), (41, 44),
    (42, 43), (43, 44), (45, 46), (45, 47), (46, 49), (47, 48), (48, 49),
)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int | None = None
    m: int | None = None
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILY_NAMES:
            raise ValidationError(f"unknown family {self.family!r}")
        takes = _FAMILY_PARAMS[self.family]
        for param in ("n", "m", "depth"):
            value = getattr(self, param)
            if param not in takes:
                if value is not None:
                    raise ValidationError(f"family {self.family!r} takes no parameter {param}")
            elif value is None or value < takes[param]:
                raise ValidationError(f"family {self.family!r} needs {param} >= {takes[param]}")


# the largest n with C_G(L_n) = C0(L_n)
PATH_C0_EQUALITY_MAX_N = 8


@dataclass(frozen=True)
class ExpectedConstant:
    """The stated constants of a family; ``proven`` says what ``c_g`` is.

    "exact": C_G equals c_g (and c_g_exact, when given); "lower_bound_only":
    C_G >= c_g; "strict_upper_bound": C_G < c_g; "c0_only": only C0 is stated.
    A ``literature_value`` is a value printed in the literature; where it
    disagrees, the note says why (Clebsch).
    """

    c_g: float | None
    c0: float
    proven: str
    c_g_exact: Fraction | None = None
    literature_value: float | None = None
    note: str | None = None


def _fail(spec: FamilySpec, what: str) -> None:
    raise ValidationError(f"self-check failed for {spec}: {what}")


class SmithTree(NamedTuple):
    legs: tuple[int, ...]  # sorted leg lengths of the spider
    coxeter: int | None  # h with radius 2cos(pi/h); None for radius exactly 2


# the exceptional Smith trees; D_n and D_hat_n are the recognizers below
SMITH_TREES = {
    "e6": SmithTree((1, 2, 2), 12),
    "e7": SmithTree((1, 2, 3), 18),
    "e8": SmithTree((1, 2, 4), 30),
    "e6_hat": SmithTree((2, 2, 2), None),
    "e7_hat": SmithTree((1, 3, 3), None),
    "e8_hat": SmithTree((1, 2, 5), None),
}
SMITH_TREES["three_legs"] = SMITH_TREES["e6_hat"]  # the same tree under its paper name


def spider_legs(g: Graph) -> tuple[int, ...] | None:
    """Sorted leg lengths if g is a spider (a tree with one vertex of degree >= 3), else None.

    A spider is its legs up to isomorphism, so equal legs pin the tree.
    """
    facts = structural_facts(g)
    if facts.has_cycle or facts.count_deg_ge3 != 1:
        return None
    center = next(v for v in range(g.n) if g.degree(v) >= 3)
    legs = []
    for start in g.adj[center]:
        length, prev, cur = 1, center, start
        while g.degree(cur) == 2:
            prev, cur = cur, next(w for w in g.adj[cur] if w != prev)
            length += 1
        legs.append(length)
    return tuple(sorted(legs))


def is_d_n(g: Graph) -> bool:
    """g is D_n: a spider with legs (1, 1, k)."""
    legs = spider_legs(g)
    return legs is not None and len(legs) == 3 and legs[:2] == (1, 1)


def is_d_hat(g: Graph) -> bool:
    """g is D_hat_n: a tree whose four leaves each hang off a vertex of degree >= 3.

    A tree with four leaves has one vertex of degree 4 (then, all leaves at
    it, the 4-leaf star) or two of degree 3, each then holding two leaves.
    """
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    return (
        not structural_facts(g).has_cycle
        and len(leaves) == 4
        and all(g.degree(g.adj[v][0]) >= 3 for v in leaves)
    )


def _legs_tree(legs: tuple[int, ...], cap: int) -> Graph:
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges, cap=cap)


def _smith_c0(coxeter: int | None) -> float:
    """C0 = 1 + 2cos(pi/h) of a Dynkin tree with Coxeter number h, or 3 for radius 2 (h None).

    The Dynkin trees A_n (paths), D_n and E6-E8 have spectral radius
    2cos(pi/h); cycles and the extended (hatted) trees have radius exactly 2
    (Smith's theorem).
    """
    return 3.0 if coxeter is None else 1 + 2 * math.cos(math.pi / coxeter)


def _check_srg(spec: FamilySpec, g: Graph, n: int, k: int, lam: int, mu: int) -> None:
    """Strongly-regular parameter check; pins the sporadic graphs."""
    if g.n != n:
        _fail(spec, f"vertex count {g.n} != {n}")
    if set(g.degrees) != {k}:
        _fail(spec, f"not {k}-regular")
    adj = [set(a) for a in g.adj]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = len(adj[u] & adj[v])
            want = lam if v in adj[u] else mu
            if common != want:
                _fail(spec, f"common-neighbor count {common} at ({u},{v}), want {want}")


def _is_automorphism(g: Graph, perm: tuple[int, ...]) -> bool:
    """perm is a bijection mapping every neighbour list onto a neighbour list."""
    return sorted(perm) == list(range(g.n)) and all(
        tuple(sorted(perm[w] for w in g.adj[v])) == g.adj[perm[v]] for v in range(g.n)
    )


def generate(spec: FamilySpec, cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Build the family member and run its structural self-check."""
    fam, n = spec.family, spec.n
    if fam == "complete":
        g = Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)), cap=cap)
        # every vertex adjacent to all others is K_n
        if n >= 2 and set(g.degrees) != {n - 1}:
            _fail(spec, "complete graph structure")
        return g
    if fam == "star":
        g = Graph.from_edges(n + 1, ((0, i) for i in range(1, n + 1)), cap=cap)
        if sorted(g.degrees, reverse=True) != [n] + [1] * n:
            _fail(spec, "star degrees")
        return g
    if fam == "cycle":
        g = Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)), cap=cap)
        # a connected 2-regular graph is C_n
        if set(g.degrees) != {2} or g.m != n:
            _fail(spec, "cycle structure")
        return g
    if fam == "path":
        g = Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)), cap=cap)
        # a connected tree (m = n - 1) of maximum degree <= 2 is P_n
        if g.m != n - 1 or (n >= 2 and max(g.degrees) > 2):
            _fail(spec, "path structure")
        return g
    if fam == "complete_bipartite":
        m = spec.m
        g = Graph.from_edges(
            m + n, ((i, m + j) for i in range(m) for j in range(n)), cap=cap
        )
        if sorted(g.degrees) != sorted([n] * m + [m] * n):
            _fail(spec, "bipartite degrees")
        return g
    if fam == "wheel":
        spokes = ((0, i) for i in range(1, n))
        rim = ((i, i % (n - 1) + 1) for i in range(1, n))
        g = Graph.from_edges(n, chain(spokes, rim), cap=cap)
        # the hub reaches every vertex, so the diameter is 2 unless all degrees are n - 1
        if g.degree(0) != n - 1 or any(g.degree(v) != 3 for v in range(1, n)):
            _fail(spec, "wheel degrees")
        return g
    if fam == "friendship":
        edges = (e for a in range(1, 2 * n, 2) for e in ((0, a), (0, a + 1), (a, a + 1)))
        g = Graph.from_edges(2 * n + 1, edges, cap=cap)
        # the hub reaches every vertex, so the diameter is 2 unless all degrees are 2n
        if g.degree(0) != 2 * n or any(g.degree(v) != 2 for v in range(1, 2 * n + 1)):
            _fail(spec, "friendship degrees")
        return g
    if fam == "cocktail_party":
        edges = (
            (i, j)
            for i in range(2 * n)
            for j in range(i + 1, 2 * n)
            if not (i // 2 == j // 2)
        )
        g = Graph.from_edges(2 * n, edges, cap=cap)
        # (2n-2)-regular on 2n vertices: two non-adjacent vertices share the other 2n-2 >= 2
        if set(g.degrees) != {2 * n - 2}:
            _fail(spec, "cocktail party structure")
        return g
    if fam == "petersen":
        edges = []
        for i in range(5):
            edges += [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]
        g = Graph.from_edges(10, edges, cap=cap)
        _check_srg(spec, g, 10, 3, 0, 1)
        return g
    if fam == "hoffman_singleton":
        g = Graph.from_edges(50, _HOFFMAN_SINGLETON_EDGES, cap=cap)
        _check_srg(spec, g, 50, 7, 0, 1)  # unique (50,7,0,1) Moore graph, girth 5
        return g
    if fam == "clebsch":
        # folded 5-cube: GF(2)^4, adjacent iff difference is a unit vector or all-ones
        deltas = (0b0001, 0b0010, 0b0100, 0b1000, 0b1111)
        edges = [
            (x, x ^ d) for x in range(16) for d in deltas if x < (x ^ d)
        ]
        g = Graph.from_edges(16, edges, cap=cap)
        _check_srg(spec, g, 16, 5, 0, 2)
        return g
    if fam == "d_n":
        edges = chain(((i, i + 1) for i in range(n - 2)), [(1, n - 1)])
        g = Graph.from_edges(n, edges, cap=cap)
        if not is_d_n(g):
            _fail(spec, "not a spider with legs (1, 1, k)")
        return g
    if fam == "d_hat_n":
        core = n - 4
        legs = [(0, core), (0, core + 1), (core - 1, core + 2), (core - 1, core + 3)]
        edges = chain(((i, i + 1) for i in range(core - 1)), legs)
        g = Graph.from_edges(n, edges, cap=cap)
        if not is_d_hat(g):
            _fail(spec, "not a tree with its four leaves at vertices of degree >= 3")
        return g
    if fam in SMITH_TREES:
        legs = SMITH_TREES[fam].legs
        if fam in ("e6", "e7", "e8"):
            k = {"e6": 6, "e7": 7, "e8": 8}[fam]
            g = Graph.from_edges(k, [(i, i + 1) for i in range(k - 2)] + [(2, k - 1)], cap=cap)
        else:
            g = _legs_tree(legs, cap)
        if spider_legs(g) != legs:
            _fail(spec, f"not a spider with legs {legs}")
        return g
    if fam == "doyle":
        g = Graph.from_edges(27, _DOYLE_EDGES, cap=cap)
        if set(g.degrees) != {4}:
            _fail(spec, "doyle degrees")
        if not all(_is_automorphism(g, perm) for perm in _DOYLE_WITNESS):
            _fail(spec, "doyle witness is not an automorphism")
        if len(orbit(0, _DOYLE_WITNESS)) != g.n:
            _fail(spec, "doyle vertex transitivity")
        # on a vertex-transitive graph every eccentricity is the diameter
        if max(single_source(g, 0)) != 3:
            _fail(spec, "doyle diameter")
        return g
    if fam == "grid_ray_truncation":
        return _grid_ray(spec.depth, cap)
    raise ValidationError(f"no generator for family {spec.family!r}")


def _grid_ray(depth: int, cap: int) -> Graph:
    """Square lattice plus a ray at the origin, truncated at radius 3*depth+1.

    Vertex (x, y, z) is labelled "x,y,z"; the probe of ``truncation_study``
    is "0,0,depth" on the ray.  The truncation radius leaves every ball
    B((0,0,k), 2k+1) with k <= depth untouched by the boundary.
    """
    radius = 3 * depth + 1
    n = 2 * radius * (radius + 1) + 1 + radius  # the lattice ball |x| + |y| <= radius, the ray
    if n > cap:  # checked before the build, which is quadratic in depth
        raise SizeCapError(f"graph has {n} vertices, cap is {cap}")
    index: dict[tuple[int, int, int], int] = {}
    labels: list[str] = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if abs(x) + abs(y) <= radius:
                index[(x, y, 0)] = len(labels)
                labels.append(f"{x},{y},0")
    for p in range(1, radius + 1):
        index[(0, 0, p)] = len(labels)
        labels.append(f"0,0,{p}")
    edges = []
    for (x, y, z), i in index.items():
        if z == 0:
            for dx, dy in ((1, 0), (0, 1)):
                j = index.get((x + dx, y + dy, 0))
                if j is not None:
                    edges.append((i, j))
        else:
            edges.append((i, index[(0, 0, z - 1)]))
    return Graph.from_edges(n, edges, labels=tuple(labels), cap=cap)


def expected_constant(spec: FamilySpec) -> ExpectedConstant:
    """Closed-form constants stated for the family, with a provenance flag."""
    fam, n = spec.family, spec.n
    if fam == "complete":
        return ExpectedConstant(float(n), float(n), "exact", Fraction(n))
    if fam == "star":
        return ExpectedConstant(1 + math.sqrt(n), 1 + math.sqrt(n), "exact")
    if fam == "cycle":
        return ExpectedConstant(3.0, _smith_c0(None), "exact", Fraction(3))
    if fam == "path":
        return ExpectedConstant(
            None, _smith_c0(n + 1), "c0_only",
            note=f"C < 3 with C -> 3 as n grows; C equals c0 iff n <= {PATH_C0_EQUALITY_MAX_N}",
        )
    if fam == "complete_bipartite":
        value = 1 + math.sqrt(spec.m * n)
        return ExpectedConstant(value, value, "exact")
    if fam == "wheel":
        return ExpectedConstant(2 + math.sqrt(n), 2 + math.sqrt(n), "exact")
    if fam == "friendship":
        value = 1 + 0.5 * (1 + math.sqrt(1 + 8 * n))
        return ExpectedConstant(value, value, "exact")
    if fam == "cocktail_party":
        return ExpectedConstant(float(2 * n - 1), float(2 * n - 1), "exact", Fraction(2 * n - 1))
    if fam == "petersen":
        return ExpectedConstant(4.0, 4.0, "exact", Fraction(4))
    if fam == "hoffman_singleton":
        return ExpectedConstant(8.0, 8.0, "exact", Fraction(8))
    if fam == "clebsch":
        return ExpectedConstant(
            6.0, 6.0, "exact", Fraction(6), literature_value=5.0,
            note=(
                "discrepancy: the value 5 sometimes stated for R_{4,16} implies a "
                "4-regular graph; the standard (16,5,0,2) Clebsch graph shipped "
                "here is 5-regular with diameter 2, hence C = 6"
            ),
        )
    if fam == "d_n":
        return ExpectedConstant(
            None, _smith_c0(2 * (n - 1)), "c0_only",
            note="upper bound 3 is known exactly; strictness is reported numerically per n",
        )
    if fam == "d_hat_n":
        return ExpectedConstant(3.0, _smith_c0(None), "exact", Fraction(3))
    if fam in SMITH_TREES:
        c0 = _smith_c0(SMITH_TREES[fam].coxeter)
        if fam in ("e6", "e7"):
            return ExpectedConstant(
                3.0, c0, "strict_upper_bound", note="C < 3, certified by an exact-rational measure"
            )
        if fam == "e8":
            return ExpectedConstant(
                poly_largest_root(E8_RATIO_POLY), c0, "lower_bound_only",
                note="C >= largest root of its ratio polynomial; equality not asserted",
            )
        if fam in ("e7_hat", "e8_hat"):
            return ExpectedConstant(None, c0, "c0_only", note="C > 3 (Perron-measure comparison)")
        # e6_hat, also named three_legs; the paper prints the value under that name
        literature = 3.0861 if fam == "three_legs" else None
        return ExpectedConstant(1 + poly_largest_root(THREE_LEGS_POLY), c0, "exact",
                                literature_value=literature)
    if fam == "doyle":
        return ExpectedConstant(5.4, 5.0, "exact", Fraction(27, 5))
    raise ValidationError(f"family {spec.family!r} has no stated constant")


# each truncation family's member at a depth, so the family table checks every depth
_TRUNCATIONS = {
    "path_N": lambda depth: FamilySpec("path", n=depth),
    "path_Z": lambda depth: FamilySpec("path", n=2 * depth + 1),
    "d_infinity": lambda depth: FamilySpec("d_n", n=depth),
    "grid_ray": lambda depth: FamilySpec("grid_ray_truncation", depth=depth),
}
TRUNCATION_FAMILIES = tuple(_TRUNCATIONS)


def truncation_study(family: str, depths: list[int], cap: int = DEFAULT_SIZE_CAP) -> list[dict]:
    """Finite-truncation series standing in for an infinite graph.

    Per depth: the truncation's c0 (monotone non-decreasing along the chain)
    and a counting-measure record; for grid_ray the record is the ball-count
    ratio at the probe, the vertex labelled "0,0,depth", in both the
    (2k+1, k) and the (2k, k) radius pairings.  Every depth's graph comes
    from ``generate``, and every depth's ``FamilySpec`` is checked before any
    graph is built.
    """
    if family not in TRUNCATION_FAMILIES:
        raise ValidationError(f"unknown truncation family {family!r}")
    if not depths or any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValidationError("depths must be strictly increasing")
    specs = [_TRUNCATIONS[family](depth) for depth in depths]
    records = []
    for depth, spec in zip(depths, specs):
        g = generate(spec, cap=cap)
        record = {"depth": depth, "n": g.n, "c0": perron(g).c0}
        if family == "grid_ray":
            dist = single_source(g, g.labels.index(f"0,0,{depth}"))
            ball_k, ball_2k, ball_2k1 = (
                sum(1 for d in dist if d <= r) for r in (depth, 2 * depth, 2 * depth + 1)
            )
            record.update(
                probe_ball_k=ball_k,
                probe_ball_2k=ball_2k,
                probe_ball_2k1=ball_2k1,
                counting_ratio=Fraction(ball_2k1, ball_k),
                counting_ratio_2r=Fraction(ball_2k, ball_k),
            )
        else:
            report = doubling_report(g, mu=counting_measure(g))
            record.update(
                c_counting=report.c_mu, per_k=[(p.k, p.value, p.witness) for p in report.per_k]
            )
        records.append(record)
    return records


def catalog() -> list[tuple[str, Graph]]:
    """Named sample of every family, for property tests and sweeps."""
    entries: list[tuple[str, FamilySpec]] = [
        ("K_3", FamilySpec("complete", n=3)),
        ("K_5", FamilySpec("complete", n=5)),
        ("K_8", FamilySpec("complete", n=8)),
        ("S_2", FamilySpec("star", n=2)),
        ("S_4", FamilySpec("star", n=4)),
        ("S_9", FamilySpec("star", n=9)),
        ("C_4", FamilySpec("cycle", n=4)),
        ("C_5", FamilySpec("cycle", n=5)),
        ("C_9", FamilySpec("cycle", n=9)),
        ("C_12", FamilySpec("cycle", n=12)),
        ("L_2", FamilySpec("path", n=2)),
        ("L_5", FamilySpec("path", n=5)),
        ("L_9", FamilySpec("path", n=9)),
        ("L_12", FamilySpec("path", n=12)),
        ("K_2,3", FamilySpec("complete_bipartite", m=2, n=3)),
        ("K_3,3", FamilySpec("complete_bipartite", m=3, n=3)),
        ("W_6", FamilySpec("wheel", n=6)),
        ("W_9", FamilySpec("wheel", n=9)),
        ("F_2", FamilySpec("friendship", n=2)),
        ("F_4", FamilySpec("friendship", n=4)),
        ("cocktail_3", FamilySpec("cocktail_party", n=3)),
        ("cocktail_5", FamilySpec("cocktail_party", n=5)),
        ("petersen", FamilySpec("petersen")),
        ("clebsch", FamilySpec("clebsch")),
        ("doyle", FamilySpec("doyle")),
        ("hoffman_singleton", FamilySpec("hoffman_singleton")),
        ("D_5", FamilySpec("d_n", n=5)),
        ("D_8", FamilySpec("d_n", n=8)),
        ("D_hat_6", FamilySpec("d_hat_n", n=6)),
        ("D_hat_9", FamilySpec("d_hat_n", n=9)),
        ("E6", FamilySpec("e6")),
        ("E7", FamilySpec("e7")),
        ("E8", FamilySpec("e8")),
        ("three_legs", FamilySpec("three_legs")),
        ("E7_hat", FamilySpec("e7_hat")),
        ("E8_hat", FamilySpec("e8_hat")),
    ]
    return [(name, generate(spec)) for name, spec in entries]
