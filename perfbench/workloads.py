"""Seeded request pools for the benchmark workloads.

Everything here is independent of the dublo package: graphs are built as
plain adjacency lists and encoded to graph6 by a second implementation of the
format, so the program only ever sees graph6 text or a family name.

Pools are laid out in blocks, and every block holds the same mix of sizes,
densities and jumps, so the mix a timed run gets through does not depend on
how many blocks it finishes.  What sets a request's cost is the same for
every seed: the random tree and graph shapes come from a generator seeded
with the workload name.  The seed draws a fresh vertex labelling of every
random graph and the order within each block.  Drawing the shapes from the
seed as well, and rotating sizes between blocks, moved the median latency by
20-30% between seeds; the labelling is what the program sees, and the float
LP cost barely depends on it.  The circulants are not relabelled, because the
automorphism search cost does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("corpus", "symmetric", "certificate")


@dataclass
class Request:
    """One CLI call: its argv, its stdin, and the graph the answer must fit."""

    label: str
    argv: list[str]
    stdin: str
    n: int
    adj: list[list[int]]
    kind: str  # "batch" | "compute" | "certificate"
    known: dict = field(default_factory=dict)  # closed-form expectations


# ---------------------------------------------------------------- graphs


def adjacency(n: int, edges) -> list[list[int]]:
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return [sorted(s) for s in nbrs]


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random recursive tree (callers relabel it, so labels carry no structure)."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def random_connected(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Random tree plus each remaining pair with probability p."""
    edges = set(random_tree(rng, n))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


def circulant(n: int, jumps) -> list[tuple[int, int]]:
    return [(i, (i + j) % n) for i in range(n) for j in jumps]


def hypercube(d: int) -> list[tuple[int, int]]:
    return [(x, x ^ (1 << b)) for x in range(1 << d) for b in range(d) if x < x ^ (1 << b)]


# The named families below follow the program's documented conventions
# (same vertex labels), so a returned minimizer can be re-evaluated on them.


def path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def e_tree(k: int) -> list[tuple[int, int]]:
    """E_k: a path on k-1 vertices with an extra leaf on its third vertex."""
    return path(k - 1) + [(2, k - 1)]


def three_legs() -> list[tuple[int, int]]:
    return [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]


def petersen() -> list[tuple[int, int]]:
    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]
    return edges


def clebsch() -> list[tuple[int, int]]:
    deltas = (0b0001, 0b0010, 0b0100, 0b1000, 0b1111)
    return [(x, x ^ d) for x in range(16) for d in deltas if x < x ^ d]


def graph6(n: int, adj: list[list[int]]) -> str:
    """Standard graph6 record (n <= 62 uses the one-byte header)."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    sets = [set(a) for a in adj]
    bits = [1 if r in sets[c] else 0 for c in range(1, n) for r in range(c)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return head + body


# ---------------------------------------------------------------- requests


def g6_request(label: str, kind: str, n: int, edges, known=None) -> Request:
    adj = adjacency(n, edges)
    text = graph6(n, adj) + "\n"
    if kind == "batch":
        argv = ["batch", "--input", "-"]
    else:
        argv = ["compute", "--input", "-", "--format", "g6"]
        if kind == "certificate":
            argv.append("--certificate")
    return Request(label, argv, text, n, adj, kind, dict(known or {}))


def family_request(
    family: str, kind: str, n: int, edges, size: int | None = None, known=None
) -> Request:
    argv = ["compute", "--family", family]
    if size is not None:
        argv += ["--n", str(size)]
    if kind == "certificate":
        argv.append("--certificate")
    label = family if size is None else f"{family}_{size}"
    return Request(label, argv, "", n, adjacency(n, edges), kind, dict(known or {}))


def _corpus_block(shape: random.Random, rng: random.Random) -> list[Request]:
    out = []
    for n in range(6, 25, 3):
        for p in (0.0, 0.1, 0.2, 0.3):
            edges = relabel(rng, n, random_connected(shape, n, p))
            out.append(g6_request(f"rand_n{n}_p{p:.1f}", "batch", n, edges))
    rng.shuffle(out)
    return out


# Small jumps keep the automorphism search cost a smooth function of n, so a
# run's latency mix does not hinge on a few pathological circulants.
JUMP_SETS = ((1,), (1, 2), (1, 3), (1, 4), (1, 2, 3), (1, 2, 4))


def _symmetric_block(rng: random.Random, named: dict, block: int) -> list[Request]:
    out = []
    for i, jumps in enumerate(JUMP_SETS):
        for lo in (12, 28):
            # n moves by at most 3 from block to block, so every block costs
            # about the same and a run's mix does not depend on how far it got
            n = lo + 2 * i + (block + i) % 4
            known = {"counting": True}
            if jumps == (1,):
                known["c_g"] = "3"  # every cycle has C_G = 3
            label = f"C_{n}(" + ",".join(map(str, jumps)) + ")"
            out.append(g6_request(label, "compute", n, circulant(n, jumps), known))
    for d in (4, 5, 6):
        out.append(g6_request(f"Q{d}", "compute", 1 << d, hypercube(d), {"counting": True}))
    out.append(family_request("petersen", "compute", 10, petersen(), known={"counting": True, "c_g": "4"}))
    out.append(family_request("clebsch", "compute", 16, clebsch(), known={"counting": True, "c_g": "6"}))
    out.append(named["doyle"]("compute"))
    rng.shuffle(out)
    return out


def _certificate_block(shape: random.Random, rng: random.Random, named: dict) -> list[Request]:
    out = []
    for n in (9, 11, 13):
        edges = relabel(rng, n, random_tree(shape, n))
        out.append(g6_request(f"tree_n{n}", "certificate", n, edges))
        edges = relabel(rng, n, random_connected(shape, n, 1.5 / n))
        out.append(g6_request(f"sparse_n{n}", "certificate", n, edges))
    out.append(family_request("e6", "certificate", 6, e_tree(6)))
    out.append(family_request("e7", "certificate", 7, e_tree(7)))
    out.append(family_request("three_legs", "certificate", 7, three_legs()))
    out.append(named["doyle"]("certificate"))
    rng.shuffle(out)
    return out


def build_pool(workload: str, seed: int, named: dict, blocks: int) -> list[Request]:
    """The seeded request sequence of one workload, ``blocks`` strata-balanced blocks.

    ``named`` maps a family name to a factory ``kind -> Request`` for the
    named graphs whose edge lists are not rebuilt here (see run.py).
    """
    shape = random.Random(workload)  # graph shapes: the same for every seed
    rng = random.Random(f"{workload}:{seed}")  # labellings and order
    make = {
        "corpus": lambda b: _corpus_block(shape, rng),
        "symmetric": lambda b: _symmetric_block(rng, named, b),
        "certificate": lambda b: _certificate_block(shape, rng, named),
    }[workload]
    pool: list[Request] = []
    for block in range(blocks):
        pool.extend(make(block))
    return pool


WARMUP_ARGV = {
    "corpus": (["batch", "--input", "-"], "EhCG\n"),  # graph6 of the path P6
    "symmetric": (["compute", "--family", "cycle", "--n", "12"], ""),
    "certificate": (["compute", "--family", "e6", "--certificate"], ""),
}
