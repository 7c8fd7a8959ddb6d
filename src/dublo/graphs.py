"""Immutable simple connected graphs, shortest-path tables and balls.

Vertices are dense indices ``0..n-1``; external labels from parsed input are
kept in a side map for reporting only.  Every constructor validates that the
graph is simple and connected, since everything downstream assumes it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ParseError, SizeCapError, ValidationError

DEFAULT_SIZE_CAP = 512


@dataclass(frozen=True)
class Graph:
    """Simple connected graph with sorted per-vertex neighbor tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValidationError("adjacency length does not match vertex count")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValidationError("label map length does not match vertex count")
        seen_edges = set()
        for v, nbrs in enumerate(self.adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValidationError(f"neighbor list of {v} not sorted/deduplicated")
            for w in nbrs:
                if w == v:
                    raise ValidationError(f"self-loop at vertex {v}")
                if not 0 <= w < self.n:
                    raise ValidationError(f"neighbor {w} of {v} out of range")
                seen_edges.add((v, w))
        for v, w in seen_edges:
            if (w, v) not in seen_edges:
                raise ValidationError(f"adjacency not symmetric on ({v},{w})")
        if -1 in single_source(self, 0):
            raise ValidationError("graph is not connected")

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) with u < v, sorted."""
        return [(v, w) for v in range(self.n) for w in self.adj[v] if v < w]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @cached_property
    def _distance_table(self) -> DistanceTable:
        """BFS from every vertex, on first use only; ``distances`` is its one reader."""
        n = self.n
        dist = np.full((n, n), -1, dtype=np.int32)
        for s in range(n):
            row = dist[s]
            row[s] = 0
            queue = deque([s])
            while queue:
                v = queue.popleft()
                dv = row[v]
                for w in self.adj[v]:
                    if row[w] < 0:
                        row[w] = dv + 1
                        queue.append(w)
        dist.setflags(write=False)
        return DistanceTable(dist, int(dist.max()))

    def adjacency_matrix(self) -> np.ndarray:
        degrees = np.fromiter(map(len, self.adj), dtype=np.intp, count=self.n)
        columns = np.fromiter(chain.from_iterable(self.adj), dtype=np.intp, count=degrees.sum())
        a = np.zeros((self.n, self.n), dtype=np.float64)
        a[np.repeat(np.arange(self.n), degrees), columns] = 1.0
        return a

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        labels: tuple[str, ...] | None = None,
        cap: int = DEFAULT_SIZE_CAP,
    ) -> "Graph":
        """Build a graph from an iterable of index pairs, collapsing duplicates."""
        if n > cap:
            raise SizeCapError(f"graph has {n} vertices, cap is {cap}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs), labels)


def parse_edge_list(text: str, cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Parse a whitespace-separated edge list, one ``u v`` pair per line.

    ``#`` starts a comment; labels may be arbitrary tokens and are mapped to
    dense indices in first-appearance order (the original tokens are kept as
    the graph's labels).
    """
    index: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []

    def vid(token: str) -> int:
        if token not in index:
            index[token] = len(labels)
            labels.append(token)
        return index[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        if parts[0] == parts[1]:
            raise ValidationError(f"line {lineno}: self-loop on {parts[0]!r}")
        edges.append((vid(parts[0]), vid(parts[1])))
    if not labels:
        raise ParseError("empty input: no edges found")
    return Graph.from_edges(len(labels), edges, labels=tuple(labels), cap=cap)


_G6_HEADER = ">>graph6<<"
_G6_DIGITS = (1, 3, 6)  # base-64 digits of n after 0, 1 or 2 '~'


def _g6_values(chunk: bytes, part: str) -> list[int]:
    """The 6-bit value of each graph6 digit, every byte in 63..126."""
    for c in chunk:
        if not 63 <= c <= 126:
            raise ParseError(f"invalid graph6 {part} byte {c}")
    return [c - 63 for c in chunk]


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, offset of the adjacency bits): 0, 1 or 2 '~', then 1, 3 or 6 digits."""
    tildes = 2 if data.startswith(b"~~") else int(data.startswith(b"~"))
    end = tildes + _G6_DIGITS[tildes]
    if len(data) < end:
        raise ParseError("truncated graph6 vertex count")
    n = 0
    for v in _g6_values(data[tildes:end], "header"):
        n = n << 6 | v
    return n, end


def parse_graph6(data: bytes | str, cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Decode one standard graph6 record into a connected Graph."""
    if isinstance(data, str):
        if not data.isascii():
            raise ParseError("non-ASCII character in graph6 record")
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(_G6_HEADER.encode()):
        data = data[len(_G6_HEADER):]
    n, off = _g6_decode_n(data)
    if n < 1:
        raise ValidationError("graph6 record with zero vertices")
    if n > cap:
        raise SizeCapError(f"graph6 record has {n} vertices, cap is {cap}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[off:]
    if len(body) != nbytes:
        raise ParseError(f"graph6 body has {len(body)} bytes, expected {nbytes}")
    bits: list[int] = []
    for v in _g6_values(body, "body"):
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ParseError("graph6 record has nonzero trailing bits")
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
    return Graph.from_edges(n, edges, cap=cap)


def write_graph6(g: Graph) -> str:
    """Encode a graph as a standard graph6 ASCII record."""
    n = g.n
    tildes = 0 if n <= 62 else 1 if n <= 258047 else 2
    shifts = range(6 * _G6_DIGITS[tildes] - 6, -1, -6)
    head = "~" * tildes + "".join(chr(((n >> s) & 63) + 63) for s in shifts)
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(1 if g.has_edge(row, col) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        v = 0
        for b in bits[i : i + 6]:
            v = (v << 1) | b
        chars.append(chr(v + 63))
    return head + "".join(chars)


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs hop distances (BFS-exact) plus the diameter."""

    dist: np.ndarray
    diam: int


def single_source(g: Graph, src: int) -> list[int]:
    """BFS hop distance from src to every vertex, -1 where it is unreachable."""
    dist = [-1] * g.n
    dist[src] = 0
    queue = [src]
    for v in queue:  # the loop reads the vertices appended behind it
        step = dist[v] + 1
        for w in g.adj[v]:
            if dist[w] < 0:
                dist[w] = step
                queue.append(w)
    return dist


def distances(g: Graph) -> DistanceTable:
    """Exact hop distances of g, from the one table kept on g and freed with it."""
    return g._distance_table


def ball(g: Graph, v: int, r: int) -> frozenset[int]:
    """Closed ball: vertices within hop distance r of v."""
    if not 0 <= v < g.n:
        raise ValidationError(f"vertex {v} out of range")
    if r < 0:
        raise ValidationError(f"radius {r} must be >= 0")
    return frozenset(np.flatnonzero(distances(g).dist[v] <= r).tolist())


@dataclass(frozen=True)
class StructuralFacts:
    max_degree: int
    is_regular: bool
    has_cycle: bool
    count_deg_ge3: int


def structural_facts(g: Graph) -> StructuralFacts:
    """Cheap structural predicates used by the classifier and reports."""
    degs = g.degrees
    return StructuralFacts(
        max_degree=max(degs),
        is_regular=len(set(degs)) == 1,
        has_cycle=g.m >= g.n,  # connected graph is a tree iff m = n - 1
        count_deg_ge3=sum(1 for d in degs if d >= 3),
    )
