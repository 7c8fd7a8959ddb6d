"""Automorphism groups, orbit partitions, vertex transitivity.

The search is a distance-profile-refined backtracking: a vertex may only map
to vertices with the same sorted distance row, and every partial assignment
must preserve pairwise distances.  The full group is listed only for modest
orders.  Everything else comes from one stabilizer chain (Sims): at each chain
vertex the search looks for one automorphism per image outside the orbit
closure of those already found there.  The level orbits multiply to the group
order, the closure of every automorphism found gives the orbits of Aut(G),
and the first level decides vertex transitivity.  This handles e.g. the
Hoffman-Singleton graph (order 252000) without listing the group.  Nothing on
the compute path calls this module; it is the independent reference for
Aut(G) behind the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import SizeCapError
from .graphs import Graph, distances

AUT_VERTEX_CAP = 256
DEFAULT_GROUP_LIMIT = 100_000

Perm = tuple[int, ...]


class _AutSearch:
    """Backtracking over distance-preserving vertex bijections."""

    def __init__(self, g: Graph):
        if g.n > AUT_VERTEX_CAP:
            raise SizeCapError(f"automorphism search capped at {AUT_VERTEX_CAP} vertices")
        self.n = g.n
        self.dist = distances(g).dist
        profiles = [tuple(sorted(self.dist[v].tolist())) for v in range(self.n)]
        classes: dict[tuple, list[int]] = {}
        for v, p in enumerate(profiles):
            classes.setdefault(p, []).append(v)
        self.profile = profiles
        self.classes = classes
        # deterministic order: grow a connected prefix, rarest class first
        first = min(range(self.n), key=lambda v: (len(classes[profiles[v]]), v))
        order = [first]
        seen = {first}
        while len(order) < self.n:
            frontier = [
                v
                for v in range(self.n)
                if v not in seen and any(u in seen for u in g.adj[v])
            ]
            nxt = min(frontier, key=lambda v: (len(classes[profiles[v]]), v))
            order.append(nxt)
            seen.add(nxt)
        self.order = order

    def _consistent(self, v: int, w: int, mapping: dict[int, int]) -> bool:
        if self.profile[v] != self.profile[w]:
            return False
        dv, dw = self.dist[v], self.dist[w]
        return all(dv[u] == dw[x] for u, x in mapping.items())

    def extensions(self, prefix: dict[int, int]) -> Iterator[Perm]:
        """Every automorphism extending the prefix map, in search order.

        The prefix's own pairs are not checked against each other; callers
        pass an injective one that preserves distances.
        """
        todo = [v for v in self.order if v not in prefix]
        mapping = dict(prefix)
        used = set(mapping.values())

        def backtrack(i: int) -> Iterator[Perm]:
            if i == len(todo):
                yield tuple(mapping[v] for v in range(self.n))
                return
            v = todo[i]
            for w in self.classes[self.profile[v]]:
                if w in used or not self._consistent(v, w, mapping):
                    continue
                mapping[v] = w
                used.add(w)
                yield from backtrack(i + 1)
                del mapping[v]
                used.discard(w)

        return backtrack(0)


def automorphisms(g: Graph) -> list[Perm]:
    """The complete automorphism group as explicit permutation tuples.

    Deterministic order; the identity is always present.  Raises SizeCapError
    when the group would exceed ``DEFAULT_GROUP_LIMIT`` elements (use
    orbit_partition for such graphs, it never materializes the group).
    """
    perms: list[Perm] = []
    for perm in _AutSearch(g).extensions({}):
        perms.append(perm)
        if len(perms) > DEFAULT_GROUP_LIMIT:
            raise SizeCapError(
                f"automorphism group exceeds listing limit {DEFAULT_GROUP_LIMIT}"
            )
    perms.sort()
    return perms


def orbit(v: int, perms: Sequence[Perm]) -> set[int]:
    """The closure of {v} under the given permutations."""
    seen, frontier = {v}, [v]
    while frontier:
        u = frontier.pop()
        for perm in perms:
            if perm[u] not in seen:
                seen.add(perm[u])
                frontier.append(perm[u])
    return seen


def _stabilizer_chain(g: Graph) -> Iterator[tuple[set[int], list[Perm]]]:
    """(orbit, automorphisms found) at each vertex of a stabilizer chain.

    Level i is the pointwise stabilizer of the first i search-order vertices;
    its automorphisms, with those of the later levels, generate it.
    """
    search = _AutSearch(g)
    fixed: dict[int, int] = {}
    for v in search.order:
        found: list[Perm] = []
        closure = {v}
        for w in search.classes[search.profile[v]]:
            if w in closure or w in fixed or not search._consistent(v, w, fixed):
                continue
            perm = next(search.extensions({**fixed, v: w}), None)
            if perm is not None:
                found.append(perm)
                closure = orbit(v, found)
        yield closure, found
        fixed[v] = v


@dataclass(frozen=True)
class OrbitPartition:
    orbit_of: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]
    group_order: int


def orbit_partition(g: Graph) -> OrbitPartition:
    """Vertex orbits under Aut(G) plus the exact group order.

    Both come from one stabilizer chain, so large groups need not be
    enumerated.  Orbits are numbered by their first vertex.
    """
    gens, order = [], 1
    for closure, found in _stabilizer_chain(g):
        gens += found
        order *= len(closure)
    orbit_of = [-1] * g.n
    orbits: list[tuple[int, ...]] = []
    for v in range(g.n):
        if orbit_of[v] < 0:
            members = tuple(sorted(orbit(v, gens)))
            for u in members:
                orbit_of[u] = len(orbits)
            orbits.append(members)
    return OrbitPartition(tuple(orbit_of), tuple(orbits), order)


def is_vertex_transitive(g: Graph) -> bool:
    """True iff Aut(G) has a single vertex orbit: the chain's first level."""
    closure, _ = next(_stabilizer_chain(g))
    return len(closure) == g.n
