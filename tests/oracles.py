"""Reference implementations that the tests check the package against.

None of these is on the compute path.  The grid oracle evaluates doubling
ratios on every point of a simplex grid and reduces by the Aut(G) orbits of
``symmetry.orbit_partition``, not by the optimizer's distance colour
refinement, so it does not share the reduction it checks.  The chromatic
number serves Wilf's bound chi <= 1 + r(A); the mediant inequality and
symmetrization under automorphisms are the averaging facts that make a
class-constant minimizer exist.  The D-type tree measure is the closed-form
witness of C = 3 on D_n.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Sequence

import numpy as np

from dublo import Graph, Measure, SizeCapError, ValidationError, distances, max_radius_index
from dublo.doubling import Weight
from dublo.families import is_d_n
from dublo.symmetry import Perm, orbit_partition

BRUTE_FORCE_VERTEX_CAP = 5


@dataclass(frozen=True)
class BruteForceResult:
    c_g: float
    measure: Measure
    resolution: int
    grid_error: float
    dims: int


def brute_force_details(
    g: Graph, grid_resolution: int = 200, symmetric: bool = True
) -> BruteForceResult:
    """Grid-search oracle: min of C_mu over a simplex grid of measures.

    Independent of the LP route: evaluates doubling ratios directly on every
    grid point.  With ``symmetric=True`` the grid runs over measures constant
    on the Aut(G) orbits, an exact reduction (averaging a minimizer over the
    group keeps it one); every connected graph on <= 5 vertices has a
    non-trivial automorphism, keeping the grid at most 4-dimensional.
    """
    if g.n > BRUTE_FORCE_VERTEX_CAP:
        raise SizeCapError(f"brute force capped at {BRUTE_FORCE_VERTEX_CAP} vertices")
    if grid_resolution < 2:
        raise ValidationError("grid resolution must be >= 2")
    dt = distances(g)
    kmax = max_radius_index(dt.diam)
    class_of = orbit_partition(g).orbit_of if symmetric else tuple(range(g.n))
    dims = max(class_of) + 1  # orbits are numbered 0, 1, ... by first vertex
    member = np.equal.outer(class_of, np.arange(dims)).astype(float)
    count = [(dt.dist <= r).astype(float) @ member for r in range(2 * kmax + 2)]

    w = np.ones((1, 1), dtype=np.int64) if dims == 1 else _grid(grid_resolution, dims)
    best_val = math.inf
    best_row = None
    chunk = 200_000
    for s in range(0, w.shape[0], chunk):
        block = w[s : s + chunk].T.astype(float)
        worst = None
        for k in range(kmax + 1):
            ratios = (count[2 * k + 1] @ block) / (count[k] @ block)
            layer = ratios.max(axis=0)
            worst = layer if worst is None else np.maximum(worst, layer)
        i = int(np.argmin(worst))
        if worst[i] < best_val:
            best_val = float(worst[i])
            best_row = w[s + i]
    assert best_row is not None
    weights = tuple(int(best_row[class_of[v]]) for v in range(g.n))
    mu = Measure(weights)
    # distortion allowance: moving each simplex coordinate by up to
    # delta = dims / resolution rescales every ball ratio by at most
    # (1 + delta/w)/(1 - delta/w) around the smallest normalized weight w
    total = float(sum(best_row))
    w_min = float(best_row.min()) / total
    delta = dims / float(grid_resolution)
    anchor = max(w_min - delta, delta / 10.0)
    grid_error = best_val * (2 * delta / anchor)
    return BruteForceResult(best_val, mu, grid_resolution, grid_error, dims)


def brute_force_cg(g: Graph, grid_resolution: int = 200) -> float:
    """Oracle value only; see brute_force_details for the witness and error."""
    return brute_force_details(g, grid_resolution).c_g


_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _grid(total: int, parts: int) -> np.ndarray:
    key = (total, parts)
    if key not in _GRID_CACHE:
        if len(_GRID_CACHE) > 8:
            _GRID_CACHE.clear()
        _GRID_CACHE[key] = _compositions(total, parts)
    return _GRID_CACHE[key]


def _compositions(total: int, parts: int) -> np.ndarray:
    """All positive integer compositions of ``total`` into ``parts`` parts."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    if parts == 2:
        a = np.arange(1, total, dtype=np.int64)
        return np.stack([a, total - a], axis=1)
    blocks = []
    for first in range(1, total - parts + 2):
        rest = _compositions(total - first, parts - 1)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


# ---------------------------------------------------------------- chromatic number

CHROMATIC_SIZE_CAP = 64


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by saturation-ordered backtracking."""
    if g.n > CHROMATIC_SIZE_CAP:
        raise SizeCapError(
            f"chromatic_number capped at {CHROMATIC_SIZE_CAP} vertices, got {g.n}"
        )
    if g.n == 1:
        return 1
    if g.m == 0:
        return 1
    lower = 2
    upper = max(g.degrees) + 1
    for k in range(lower, upper + 1):
        if _k_colorable(g, k):
            return k
    raise AssertionError("greedy bound violated")  # unreachable


def _k_colorable(g: Graph, k: int) -> bool:
    n = g.n
    colors = [-1] * n
    forbidden = [set() for _ in range(n)]
    used = 0

    def pick() -> int:
        best, score = -1, (-1, -1)
        for v in range(n):
            if colors[v] < 0:
                s = (len(forbidden[v]), len(g.adj[v]))
                if s > score:
                    score, best = s, v
        return best

    def backtrack(used: int) -> bool:
        v = pick()
        if v < 0:
            return True
        # at most one brand-new color: breaks color-permutation symmetry
        for c in range(min(used + 1, k)):
            if c in forbidden[v]:
                continue
            colors[v] = c
            touched = []
            dead = False
            for w in g.adj[v]:
                if colors[w] < 0 and c not in forbidden[w]:
                    forbidden[w].add(c)
                    touched.append(w)
                    if len(forbidden[w]) >= k:
                        dead = True
            if not dead and backtrack(max(used, c + 1)):
                return True
            for w in touched:
                forbidden[w].discard(c)
            colors[v] = -1
        return False

    return backtrack(used)


# ---------------------------------------------------------------- mediant, symmetrization


class MediantResult(NamedTuple):
    value: Weight
    mediant: Weight
    equal: bool


def mediant_max(pairs: Sequence[tuple[Weight, Weight]]) -> MediantResult:
    """Largest ratio among positive (numerator, denominator) pairs.

    Always >= the mediant (sum of numerators over sum of denominators), with
    equality exactly when all ratios coincide.
    """
    if not pairs:
        raise ValidationError("mediant_max needs at least one pair")
    exact = all(isinstance(x, Rational) for pair in pairs for x in pair)
    div = Fraction if exact else operator.truediv
    ratios: list[Weight] = []
    for a, b in pairs:
        if a <= 0 or b <= 0:
            raise ValidationError(f"non-positive entry in pair ({a}, {b})")
        ratios.append(div(a, b))
    value = max(ratios)
    mediant = div(sum(a for a, _ in pairs), sum(b for _, b in pairs))
    equal = all(abs(r - value) <= (0 if exact else 1e-12) * abs(value) for r in ratios)
    return MediantResult(value, mediant, equal)


def symmetrize(mu: Measure, auts: list[Perm]) -> Measure:
    """mu_F(v) = sum over sigma in F of mu(sigma(v)); F-invariant by construction."""
    if not auts:
        raise ValidationError("need a non-empty set of automorphisms")
    n = len(mu)
    weights = []
    for v in range(n):
        weights.append(sum(mu[perm[v]] for perm in auts))
    return Measure(tuple(weights))


def d_infinity_measure(g: Graph) -> Measure:
    """The weights (1 on the two fork leaves, 2 elsewhere) used for D-type trees."""
    if not is_d_n(g):
        raise ValidationError("d_infinity measure expects a D_n tree")
    branch = next(v for v in range(g.n) if g.degree(v) == 3)
    fork_leaves = [v for v in g.adj[branch] if g.degree(v) == 1]
    weights = [2] * g.n
    for v in fork_leaves:
        weights[v] = 1
    return Measure(tuple(weights))
