"""Answer checks that share no code with the program under test.

Distances come from a BFS written here, the spectral bound and Perron vector
from ``numpy.linalg.eigh``, and every doubling ratio is re-evaluated from the
distance table.  Certificates are re-checked in exact ``Fraction`` arithmetic.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction

import numpy as np

TOL = 1e-9  # the CLI's default bisection tolerance


class Facts:
    """Reference quantities of one input graph, computed once."""

    def __init__(self, n: int, adj: list[list[int]]):
        self.n = n
        self.m = sum(len(a) for a in adj) // 2
        self.dist = bfs_distances(n, adj)
        self.diam = int(self.dist.max())
        self.k_max = self.diam // 2
        a = np.zeros((n, n))
        for v, nbrs in enumerate(adj):
            a[v, nbrs] = 1.0
        vals, vecs = np.linalg.eigh(a)
        self.c0 = 1.0 + float(vals[-1])
        self.perron = np.abs(vecs[:, -1])
        self._balls: dict[int, np.ndarray] = {}

    def ball(self, r: int) -> np.ndarray:
        if r not in self._balls:
            self._balls[r] = (self.dist <= r).astype(float)
        return self._balls[r]

    def constant(self, w) -> float:
        """C_mu of a positive float measure: max over k <= diam // 2 and centres."""
        w = np.asarray(w, dtype=float)
        return max(
            float(((self.ball(2 * k + 1) @ w) / (self.ball(k) @ w)).max())
            for k in range(self.k_max + 1)
        )

    def exact_balls(self, mu: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
        """(mu(B(v,k)), mu(B(v,2k+1))) for every k <= diam // 2 and centre v, exactly."""
        out = []
        for k in range(self.k_max + 1):
            for v in range(self.n):
                d = self.dist[v]
                inner = sum((mu[w] for w in range(self.n) if d[w] <= k), Fraction(0))
                outer = sum((mu[w] for w in range(self.n) if d[w] <= 2 * k + 1), Fraction(0))
                out.append((inner, outer))
        return out

    def counting_ratio(self) -> Fraction:
        return max(
            Fraction(int((self.dist[v] <= 2 * k + 1).sum()), int((self.dist[v] <= k).sum()))
            for k in range(self.k_max + 1)
            for v in range(self.n)
        )


def bfs_distances(n: int, adj: list[list[int]]) -> np.ndarray:
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        row = dist[s]
        row[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if row[w] < 0:
                    row[w] = row[v] + 1
                    queue.append(w)
    if (dist < 0).any():
        raise ValueError("benchmark input graph is not connected")
    return dist


def _frac(x) -> Fraction:
    return Fraction(x) if isinstance(x, (int, str)) else Fraction(str(x))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _common(facts: Facts, row: dict) -> list[str]:
    bad = []
    if row.get("n") != facts.n:
        bad.append(f"n {row.get('n')} != {facts.n}")
    if row.get("diam") != facts.diam:
        bad.append(f"diam {row.get('diam')} != {facts.diam}")
    c0, c_g = row["c0"], row["c_g"]
    if not _close(c0, facts.c0, 1e-8):
        bad.append(f"c0 {c0} != eigh {facts.c0}")
    if c_g < facts.c0 - TOL:
        bad.append(f"c_g {c_g} below C0 {facts.c0}")
    if facts.diam <= 2 and not _close(c_g, facts.c0, 1e-8):
        bad.append(f"diameter <= 2 but c_g {c_g} != C0 {facts.c0}")
    return bad


def check_batch(facts: Facts, out: str) -> list[str]:
    """One-graph `dublo batch` output: the row and its independent bounds."""
    payload = json.loads(out)
    rows = payload.get("rows", [])
    if payload.get("skipped") != 0 or len(rows) != 1:
        return [f"batch returned {len(rows)} rows, skipped {payload.get('skipped')}"]
    row = rows[0]
    bad = _common(facts, row)
    # the bisection starts from the better of the Perron and counting measures
    start = min(facts.constant(facts.perron), facts.constant(np.ones(facts.n)))
    if row["c_g"] > start * (1 + 1e-7):
        bad.append(f"c_g {row['c_g']} above the Perron/counting bound {start}")
    if not _close(row["gap"], row["c_g"] - row["c0"], 1e-9):
        bad.append("gap != c_g - c0")
    lem_gap = facts.constant(facts.perron) - facts.c0
    if abs(lem_gap - 1e-7) > 1e-8 and row["lemachorra_equal"] != (lem_gap <= 1e-7):
        bad.append(f"lemachorra_equal {row['lemachorra_equal']} but gap {lem_gap}")
    return bad


def check_compute(facts: Facts, out: str, known: dict, certificate: bool) -> list[str]:
    """`dublo compute` output: bracket, minimizer, symmetric and exact checks."""
    p = json.loads(out)
    bad = _common(facts, p)
    if p.get("m") != facts.m:
        bad.append(f"m {p.get('m')} != {facts.m}")
    c_g = p["c_g"]
    lo, hi = p["bracket"]
    if hi - lo > TOL * (1 + 1e-6) + 1e-11 * c_g or not _close(hi, c_g, 1e-11):
        bad.append(f"bracket ({lo}, {hi}) wider than tol or not ending at c_g")
    weights = p["minimizer"]
    if len(weights) != facts.n or min(weights) <= 0:
        bad.append("minimizer is not a positive measure on every vertex")
    elif facts.constant(weights) > c_g * (1 + 1e-9):
        bad.append(f"minimizer constant {facts.constant(weights)} > c_g {c_g}")
    if known.get("counting"):
        ratio = facts.counting_ratio()
        if not _close(c_g, float(ratio), 1e-8):
            bad.append(f"c_g {c_g} != counting ratio {ratio}")
        if "c_g" in known and ratio != Fraction(known["c_g"]):
            bad.append(f"counting ratio {ratio} != closed form {known['c_g']}")
    exact = p.get("c_g_exact")
    if exact is not None:
        if not _close(float(_frac(exact)), c_g, 1e-8):
            bad.append(f"c_g_exact {exact} far from c_g {c_g}")
        if known.get("counting") and _frac(exact) != facts.counting_ratio():
            bad.append(f"c_g_exact {exact} != counting ratio {facts.counting_ratio()}")
    if certificate:
        bad += _check_certificate(facts, p)
    return bad


def _check_certificate(facts: Facts, p: dict) -> list[str]:
    cert = p.get("certificate")
    if cert is None:
        return ["no certificate in output"]
    t = _frac(cert["t"])
    mu = [_frac(w) for w in cert["measure"]]
    if len(mu) != facts.n or min(mu) <= 0:
        return ["certificate measure is not positive on every vertex"]
    balls = facts.exact_balls(mu)
    slacks = [t * inner - outer for inner, outer in balls]
    reported = [_frac(s) for s in cert["slacks"]]
    bad = []
    if min(slacks) < 0:
        bad.append(f"exact slack {min(slacks)} < 0 at t = {t}")
    if not set(reported) <= set(slacks) or len(reported) > len(slacks):
        bad.append("reported slacks do not match the exact re-evaluation")
    if reported and _frac(cert["min_slack"]) != min(reported):
        bad.append("min_slack is not the least reported slack")
    exact_c = max(outer / inner for inner, outer in balls)
    if _frac(cert["c_mu_exact"]) != exact_c:
        bad.append(f"c_mu_exact {cert['c_mu_exact']} != exact {exact_c}")
    if exact_c > t or float(exact_c) < facts.c0 - TOL:
        bad.append(f"certified constant {exact_c} outside [C0, t]")
    if abs(float(t) - p["c_g"]) > 1e-6:
        bad.append(f"certificate t {float(t)} is not next to c_g {p['c_g']}")
    return bad


def check_verify(out: str, rc: int, rows_expected: int = 52) -> list[str]:
    """`dublo verify`: every catalog row passes."""
    p = json.loads(out)
    rows = p.get("rows", [])
    passed = sum(1 for r in rows if r.get("pass"))
    if rc != 0 or passed != rows_expected or len(rows) != rows_expected or p.get("failures"):
        return [f"verify: {passed}/{len(rows)} rows passed, exit code {rc}"]
    return []
