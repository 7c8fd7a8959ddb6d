"""Shared test helpers: random graphs, exhaustive enumerations, small references.

Everything here is deliberately independent of the package internals it is
used to check (e.g. the graph6 encoder below is a second implementation of
the format, and tree enumeration has its own canonical form).
"""

from __future__ import annotations

import functools
import random
from collections import deque
from itertools import chain, permutations, product
from unittest import mock

import numpy as np

from dublo import Graph, Measure, OptimizationResult, least_doubling, optimizer, perron


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


def relabel(g: Graph, rand: random.Random) -> Graph:
    """The same graph under a uniformly random vertex permutation."""
    perm = list(range(g.n))
    rand.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def distance_classes_by_rows(dist: np.ndarray) -> tuple[int, ...]:
    """Reference distance colour refinement: equal signatures found by
    ``np.unique(axis=0)`` on the sorted rows, classes numbered by first vertex."""
    colour = np.zeros(len(dist), dtype=np.int64)
    count = 1
    while True:
        signatures = np.sort(dist * count + colour, axis=1)
        _, first, inverse = np.unique(signatures, axis=0, return_index=True, return_inverse=True)
        colour = np.argsort(np.argsort(first))[inverse.ravel()]
        if len(first) == count:
            return tuple(colour.tolist())
        count = len(first)


def row_tables(dist: np.ndarray, diam: int, classes) -> tuple[np.ndarray, np.ndarray]:
    """Reference (den, num) class-split counts of every k-major reduced LP row.

    Row (k, i) counts, per class, the vertices within k (den) and 2k + 1 (num)
    of the i-th class's first vertex, one ``np.bincount`` per row.
    """
    classes = np.asarray(classes)
    _, first = np.unique(classes, return_index=True)
    return tuple(
        np.array(
            [
                np.bincount(classes[dist[rep] <= radius(k)], minlength=len(first))
                for k in range(diam // 2 + 1)
                for rep in first
            ],
            dtype=np.int64,
        )
        for radius in (lambda k: k, lambda k: 2 * k + 1)
    )


def floyd_warshall(g: Graph) -> np.ndarray:
    """Reference all-pairs hop distances, int32: Floyd-Warshall in numpy, no BFS."""
    d = np.full((g.n, g.n), np.inf)
    for u, v in g.edges():
        d[u, v] = d[v, u] = 1.0
    np.fill_diagonal(d, 0.0)
    for k in range(g.n):
        np.minimum(d, d[:, [k]] + d[[k], :], out=d)
    return d.astype(np.int32)


def random_tree(rand: random.Random, n: int) -> Graph:
    return random_connected_graph(rand, n, extra=0.0)


def random_int_measure(rand: random.Random, n: int, hi: int = 20) -> Measure:
    return Measure(tuple(rand.randint(1, hi) for _ in range(n)))


def random_float_measure(rand: random.Random, n: int) -> Measure:
    return Measure(tuple(rand.uniform(0.05, 10.0) for _ in range(n)))


def perron_measure(g: Graph) -> Measure:
    """The Perron eigenvector, min entry 1, as a measure: it flattens every B(v,1)/mu(v)."""
    return Measure(tuple(float(w) for w in perron(g).eigvec))


def unreduced_least_doubling(g: Graph, **kw) -> OptimizationResult:
    """``least_doubling`` on the unreduced LP: every vertex is its own class."""
    with mock.patch.object(optimizer, "_distance_classes", lambda dt: tuple(range(g.n))):
        return least_doubling(g, **kw)


def hub_tail(leaves: int) -> Graph:
    """K_{1,leaves} with a path of ``leaves`` more vertices hung at the hub 0."""
    star = [(0, v) for v in range(1, leaves + 1)]
    path = list(zip([0, *range(leaves + 1, 2 * leaves)], range(leaves + 1, 2 * leaves + 1)))
    return Graph.from_edges(2 * leaves + 1, star + path)


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
    if n <= 62:
        out = [n + 63]
    else:  # '~' and 3 big-endian base-64 digits, or '~~' and 6 above 258047
        width = 3 if n <= 258047 else 6
        out = [126] * (width // 3) + [n // 64**i % 64 + 63 for i in range(width - 1, -1, -1)]
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


def _refined_cells(n: int, edges) -> list[list[int]]:
    """Cells of the colour refinement that starts from the degrees, in colour order.

    Each round ranks the signatures (colour, sorted neighbour colours), so a
    cell's place depends on the graph alone, never on the labelling.
    """
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colour = [len(a) for a in nbrs]
    while True:
        signatures = [(colour[v], tuple(sorted(colour[w] for w in nbrs[v]))) for v in range(n)]
        rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        refined = [rank[sig] for sig in signatures]
        if len(rank) == len(set(colour)):
            return [[v for v in range(n) if refined[v] == c] for c in range(len(rank))]
        colour = refined


def _canonical_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Least sorted edge list over the labellings that number the refined cells in order.

    Only permutations inside each cell are tried; the cells' order is an
    isomorphism invariant, so isomorphic graphs get equal forms.
    """
    best = None
    for blocks in product(*(permutations(cell) for cell in _refined_cells(n, edges))):
        pos = [0] * n
        for i, v in enumerate(chain.from_iterable(blocks)):
            pos[v] = i
        code = tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges))
        if best is None or code < best:
            best = code
    return best


@functools.cache
def _connected_codes(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    if n == 1:
        return ((),)
    found = set()
    for code in _connected_codes(n - 1):
        for mask in range(1, 1 << (n - 1)):
            joins = tuple((v, n - 1) for v in range(n - 1) if mask >> v & 1)
            found.add(_canonical_edges(n, code + joins))
    return tuple(sorted(found))


def connected_graphs_exactly(n: int) -> list[Graph]:
    """Every connected graph on n vertices up to isomorphism, each in its canonical labelling.

    One-vertex extension of each (n-1)-vertex class, deduplicated by a
    canonical form: deleting a leaf of a spanning tree leaves a connected
    graph on n - 1 vertices, so each graph is one of those plus a vertex
    joined to a nonempty subset, and ``_canonical_edges`` keeps one of each
    class.  Sorted by canonical form.
    """
    return [Graph.from_edges(n, code) for code in _connected_codes(n)]


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
