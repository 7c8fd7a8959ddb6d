"""Shared test helpers: random graphs, exhaustive enumerations, oracles.

Everything here is deliberately independent of the package internals it is
used to check (e.g. the graph6 encoder below is a second implementation of
the format, and tree enumeration has its own canonical form).
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, permutations

from dublo import Graph, Measure


def random_connected_graph(rand: random.Random, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus Bernoulli extra edges; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add((rand.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rand.random() < extra:
                edges.add((u, v))
    return Graph.from_edges(n, edges)


def random_tree(rand: random.Random, n: int) -> Graph:
    return random_connected_graph(rand, n, extra=0.0)


def random_int_measure(rand: random.Random, n: int, hi: int = 20) -> Measure:
    return Measure(tuple(rand.randint(1, hi) for _ in range(n)))


def random_float_measure(rand: random.Random, n: int) -> Measure:
    return Measure(tuple(rand.uniform(0.05, 10.0) for _ in range(n)))


def _graph_from_pairs(n: int, text: str) -> Graph:
    return Graph.from_edges(n, [tuple(map(int, pair.split("-"))) for pair in text.split()])


# cubic; 8 distance colour refinement classes but 9 Aut orbits; C_G = 4.131504664197564
G18 = _graph_from_pairs(
    18,
    "0-2 0-5 0-13 1-7 1-8 1-14 2-9 2-16 3-4 3-11 3-13 4-5 4-14 5-16 6-8 6-9 6-14 "
    "7-12 7-15 8-12 9-10 10-11 10-13 11-15 12-17 15-17 16-17",
)

# 4-regular, diameter 3, not vertex-transitive, yet a single refinement class
G10 = _graph_from_pairs(
    10,
    "0-2 0-3 0-5 0-8 1-2 1-4 1-7 1-9 2-4 2-7 3-5 3-6 3-8 4-5 4-9 5-6 6-8 6-9 7-8 7-9",
)


# ---------------------------------------------------------------- graph6 oracle


def g6_encode_oracle(n: int, edges: set[tuple[int, int]]) -> str:
    """Independent graph6 encoder, structured differently from the package's."""
    assert n <= 62, "oracle only covers the short form"
    out = [n + 63]
    acc, nbits = 0, 0
    for col in range(1, n):
        for row in range(col):
            bit = 1 if ((row, col) in edges or (col, row) in edges) else 0
            acc = acc * 2 + bit
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        acc <<= 6 - nbits
        out.append(acc + 63)
    return bytes(out).decode("ascii")


# ---------------------------------------------------------------- enumerations


def _connected_edge_set(n: int, eset) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in eset:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def _canon_small(n: int, eset) -> tuple:
    best = None
    for p in permutations(range(n)):
        key = tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in eset))
        if best is None or key < best:
            best = key
    return best


def connected_graphs_exactly(n: int) -> list[Graph]:
    """All connected graphs on exactly n labeled-collapsed vertices, n <= 5."""
    assert n <= 5
    if n == 1:
        return [Graph(1, ((),))]
    pairs = list(combinations(range(n), 2))
    seen: dict[tuple, Graph] = {}
    for mask in range(1 << len(pairs)):
        eset = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if not _connected_edge_set(n, eset):
            continue
        key = _canon_small(n, eset)
        if key not in seen:
            seen[key] = Graph.from_edges(n, eset)
    return [seen[k] for k in sorted(seen)]


def _ahu_rooted(adj: list[list[int]], root: int, parent: int) -> str:
    forms = sorted(
        _ahu_rooted(adj, c, root) for c in adj[root] if c != parent
    )
    return "(" + "".join(forms) + ")"


def _centroids(adj: list[list[int]]) -> list[int]:
    """Centroid vertices, by O(n^2) component-size recomputation (n <= 10)."""
    n = len(adj)
    if n == 1:
        return [0]
    cents: list[int] = []
    best = None
    for v in range(n):
        comp_sizes = []
        seen = [False] * n
        seen[v] = True
        for w in adj[v]:
            if seen[w]:
                continue
            count = 0
            queue = deque([w])
            seen[w] = True
            while queue:
                a = queue.popleft()
                count += 1
                for b in adj[a]:
                    if not seen[b]:
                        seen[b] = True
                        queue.append(b)
            comp_sizes.append(count)
        heaviest = max(comp_sizes)
        if best is None or heaviest < best:
            best, cents = heaviest, [v]
        elif heaviest == best:
            cents.append(v)
    return cents


def tree_canonical(g: Graph) -> str:
    """AHU canonical string of a free tree, rooted at its centroid(s)."""
    adj = [list(a) for a in g.adj]
    cents = _centroids(adj)
    if len(cents) == 1:
        return _ahu_rooted(adj, cents[0], -1)
    a, b = cents
    return "|".join(sorted((_ahu_rooted(adj, a, b), _ahu_rooted(adj, b, a))))


def all_trees(n: int) -> list[Graph]:
    """All free trees on n vertices up to isomorphism (apex growth + AHU)."""
    if n == 1:
        return [Graph(1, ((),))]
    smaller = all_trees(n - 1)
    seen: dict[str, Graph] = {}
    for t in smaller:
        for attach in range(t.n):
            edges = t.edges() + [(attach, t.n)]
            g = Graph.from_edges(t.n + 1, edges)
            key = tree_canonical(g)
            if key not in seen:
                seen[key] = g
    return list(seen.values())
