"""Immutable simple connected graphs, shortest-path tables, balls and ball matrices.

Vertices are dense indices ``0..n-1``; external labels from parsed input are
kept in a side map for reporting only.  Every constructor validates that the
graph is simple and connected, since everything downstream assumes it.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SizeCapError, ValidationError

DEFAULT_SIZE_CAP = 512
_ENV_SIZE_CAP = "DUBLO_SIZE_CAP"


def size_cap() -> int:
    """Default vertex cap, overridable through the DUBLO_SIZE_CAP env var."""
    raw = os.environ.get(_ENV_SIZE_CAP)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{_ENV_SIZE_CAP} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ValidationError(f"{_ENV_SIZE_CAP} must be >= 2, got {cap}")
    return cap


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
        if not self._connected():
            raise ValidationError("graph is not connected")

    def _connected(self) -> bool:
        seen = bytearray(self.n)
        seen[0] = 1
        queue = deque([0])
        count = 1
        while queue:
            v = queue.popleft()
            for w in self.adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    queue.append(w)
        return count == self.n

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

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for v, nbrs in enumerate(self.adj):
            a[v, list(nbrs)] = 1.0
        return a

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        labels: tuple[str, ...] | None = None,
        cap: int | None = None,
    ) -> "Graph":
        """Build a graph from an iterable of index pairs, collapsing duplicates."""
        cap = size_cap() if cap is None else cap
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


def parse_edge_list(text: str, cap: int | None = None) -> Graph:
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


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, offset of the adjacency bits) from a graph6 record."""
    if not data:
        raise ParseError("empty graph6 record")
    b = data[0]
    if b == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise ParseError("truncated graph6 long vertex count")
            vals = [c - 63 for c in data[2:8]]
            if any(v < 0 or v > 63 for v in vals):
                raise ParseError("malformed graph6 vertex count")
            n = 0
            for v in vals:
                n = (n << 6) | v
            return n, 8
        if len(data) < 4:
            raise ParseError("truncated graph6 medium vertex count")
        vals = [c - 63 for c in data[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise ParseError("malformed graph6 vertex count")
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        return n, 4
    if not 63 <= b <= 125:
        raise ParseError(f"malformed graph6 header byte {b}")
    return b - 63, 1


def parse_graph6(data: bytes | str, cap: int | None = None) -> Graph:
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
    effective_cap = size_cap() if cap is None else cap
    if n > effective_cap:
        raise SizeCapError(f"graph6 record has {n} vertices, cap is {effective_cap}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[off:]
    if len(body) != nbytes:
        raise ParseError(f"graph6 body has {len(body)} bytes, expected {nbytes}")
    bits: list[int] = []
    for c in body:
        v = c - 63
        if v < 0 or v > 63:
            raise ParseError(f"invalid graph6 body byte {c}")
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
    return Graph.from_edges(n, edges, cap=effective_cap)


def write_graph6(g: Graph) -> str:
    """Encode a graph as a standard graph6 ASCII record."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
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

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def distances(g: Graph) -> DistanceTable:
    """BFS from every vertex; exact hop distances on a connected graph."""
    n = g.n
    dist = np.full((n, n), -1, dtype=np.int32)
    for s in range(n):
        row = dist[s]
        row[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            dv = row[v]
            for w in g.adj[v]:
                if row[w] < 0:
                    row[w] = dv + 1
                    queue.append(w)
    dist.setflags(write=False)
    return DistanceTable(dist, int(dist.max()))


def ball(dt: DistanceTable, v: int, r: int) -> frozenset[int]:
    """Closed ball: vertices within hop distance r of v."""
    if not 0 <= v < dt.n:
        raise ValidationError(f"vertex {v} out of range")
    if r < 0:
        raise ValidationError(f"radius {r} must be >= 0")
    return frozenset(np.flatnonzero(dt.dist[v] <= r).tolist())


def ball_matrix(dt: DistanceTable, r: int) -> np.ndarray:
    """0/1 matrix with entry (v, w) = 1 iff d(v, w) <= r, so mu(B(v,r)) = (M_r mu)_v."""
    if r < 0:
        raise ValidationError(f"radius {r} must be >= 0")
    return (dt.dist <= r).astype(np.float64)


@dataclass(frozen=True)
class StructuralFacts:
    degrees: tuple[int, ...]
    max_degree: int
    is_regular: bool
    has_cycle: bool
    count_deg_ge3: int
    diam: int


def structural_facts(g: Graph, dt: DistanceTable | None = None) -> StructuralFacts:
    """Cheap structural predicates used by the classifier and reports."""
    degs = g.degrees
    if dt is None:
        dt = distances(g)
    return StructuralFacts(
        degrees=degs,
        max_degree=max(degs),
        is_regular=len(set(degs)) == 1,
        has_cycle=g.m >= g.n,  # connected graph is a tree iff m = n - 1
        count_deg_ge3=sum(1 for d in degs if d >= 3),
        diam=dt.diam,
    )
