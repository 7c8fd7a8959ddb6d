"""Perron radius/eigenvector, c0, chromatic number, and their invariants."""

import math
import random
import time

import numpy as np
import pytest

from dublo import (
    Graph,
    SizeCapError,
    SolverError,
    ball,
    generate,
    perron,
)
from dublo.families import FamilySpec, catalog

from oracles import chromatic_number
from util import hub_tail, perron_measure, random_connected_graph

GOLDEN = (1 + math.sqrt(5)) / 2


def test_perron_k5_radius_4():
    res = perron(generate(FamilySpec("complete", n=5)))
    assert abs(res.radius - 4.0) <= 1e-12
    assert res.eigvec.min() == 1.0 and res.eigvec.max() == 1.0


def test_perron_star4_radius_2():
    res = perron(generate(FamilySpec("star", n=4)))
    assert abs(res.radius - 2.0) <= 1e-12


def test_perron_path4_golden_ratio():
    res = perron(generate(FamilySpec("path", n=4)))
    assert abs(res.radius - GOLDEN) <= 1e-12
    assert abs(res.radius - 2 * math.cos(math.pi / 5)) <= 1e-12


def test_perron_single_vertex():
    res = perron(Graph(1, ((),)))
    assert res.radius == 0.0


def test_perron_positive_eigvec_and_residual():
    rand = random.Random(2024)
    for _ in range(10):
        g = random_connected_graph(rand, rand.randint(2, 20))
        res = perron(g)
        assert (res.eigvec > 0).all()
        assert res.eigvec.min() == pytest.approx(1.0)
        assert res.residual <= 1e-12
        assert 0 < res.radius <= max(g.degrees)


def test_perron_nonconvergence_raises(monkeypatch):
    from dublo import SolverError, spectral

    # LAPACK's top eigenvector has exact zeros in this tail, so the loop starts
    # from all-ones, which needs 124 steps to close at EIG_TOL; no start closes it in 5
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 5)
    with pytest.raises(SolverError, match="did not reach .* in 5 iterations"):
        perron(hub_tail(50))


def test_c0_cycles_equal_3():
    for n in (3, 5, 8, 12):
        assert perron(generate(FamilySpec("cycle", n=n))).c0 == pytest.approx(3.0, abs=1e-12)


def test_c0_friendship_2():
    expected = 1 + 0.5 * (1 + math.sqrt(17))
    assert perron(generate(FamilySpec("friendship", n=2))).c0 == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(3.561553, abs=1e-6)


def test_c0_wheel_9():
    assert perron(generate(FamilySpec("wheel", n=9))).c0 == pytest.approx(5.0, abs=1e-12)


def test_regularity_radius_identity_and_residual():
    for name, g in catalog():
        res = perron(g)
        assert res.residual <= 1e-12, name
        degs = set(g.degrees)
        if len(degs) == 1:
            assert abs(res.radius - max(degs)) <= 1e-12, name
        else:
            assert res.radius < max(degs) - 1e-11, name


def test_strict_subgraph_monotonicity_on_catalog():
    # delete one edge that keeps the graph connected, or a leaf vertex
    for name, g in catalog():
        if g.n > 30:
            continue
        base = perron(g).radius
        sub = None
        for u, v in g.edges():
            edges = [e for e in g.edges() if e != (u, v)]
            try:
                sub = Graph.from_edges(g.n, edges)
                break
            except Exception:
                continue
        if sub is None:
            continue
        assert perron(sub).radius < base, name


def test_perron_measure_three_legs_roles():
    g = generate(FamilySpec("three_legs"))
    mu = perron_measure(g)
    center = next(v for v in range(7) if g.degree(v) == 3)
    mids = [v for v in range(7) if g.degree(v) == 2]
    leaves = [v for v in range(7) if g.degree(v) == 1]
    assert mu[center] == pytest.approx(3.0, abs=1e-9)
    for v in mids:
        assert mu[v] == pytest.approx(2.0, abs=1e-9)
    for v in leaves:
        assert mu[v] == pytest.approx(1.0, abs=1e-9)


def test_perron_measure_complete_uniform():
    mu = perron_measure(generate(FamilySpec("complete", n=6)))
    assert all(w == pytest.approx(1.0, abs=1e-12) for w in mu.weights)


def test_perron_measure_friendship_hub_rim_ratio():
    for n in (2, 3, 5):
        g = generate(FamilySpec("friendship", n=n))
        mu = perron_measure(g)
        hub = mu[0]
        rims = mu.weights[1:]
        expected = 4 * n / (1 + math.sqrt(1 + 8 * n))
        assert hub / rims[0] == pytest.approx(expected, rel=1e-9)
        assert max(rims) == pytest.approx(min(rims), rel=1e-12)


def test_perron_measure_wheel_hub_rim_ratio():
    for n in (5, 7, 9):
        g = generate(FamilySpec("wheel", n=n))
        mu = perron_measure(g)
        hub, rims = mu[0], mu.weights[1:]
        assert hub / rims[0] == pytest.approx((n - 1) / (1 + math.sqrt(n)), rel=1e-9)
        assert max(rims) == pytest.approx(min(rims), rel=1e-12)


def test_perron_measure_flatness():
    for name, g in catalog():
        mu = perron_measure(g)
        ratios = [sum(mu[w] for w in ball(g, v, 1)) / mu[v] for v in range(g.n)]
        assert max(ratios) - min(ratios) <= 1e-11, name


# ---------------------------------------------------------------- chromatic


def test_chromatic_c5():
    assert chromatic_number(generate(FamilySpec("cycle", n=5))) == 3


def test_chromatic_k4():
    assert chromatic_number(generate(FamilySpec("complete", n=4))) == 4


def test_chromatic_petersen():
    # cross-check: an odd cycle rules out 2, and backtracking finds a 3-coloring
    g = generate(FamilySpec("petersen"))
    assert chromatic_number(g) == 3


def test_chromatic_bipartite():
    assert chromatic_number(generate(FamilySpec("complete_bipartite", m=3, n=4))) == 2


def test_chromatic_size_cap():
    g = generate(FamilySpec("path", n=65))
    with pytest.raises(SizeCapError):
        chromatic_number(g)


def test_chromatic_bounded_by_c0_on_catalog():
    for name, g in catalog():
        chi = chromatic_number(g)
        assert chi <= perron(g).c0 + 1e-9, name


def _tailed(core_edges, core_n: int, tail: int, anchor: int = 0) -> Graph:
    """A core graph with a path of ``tail`` extra vertices hanging from ``anchor``."""
    edges = list(core_edges)
    prev = anchor
    for v in range(core_n, core_n + tail):
        edges.append((prev, v))
        prev = v
    return Graph.from_edges(core_n + tail, edges)


def _clique_edges(k: int):
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def test_perron_radius_on_vectors_spanning_huge_ranges():
    # min-1 Perron vectors here reach ~1e299 and ~1e229: x @ x overflows
    cases = [
        _tailed(_clique_edges(100), 100, 150),
        _tailed([(0, i) for i in range(1, 201)], 201, 200),
    ]
    for g in cases:
        res = perron(g)
        top = np.linalg.eigvalsh(g.adjacency_matrix())[-1]
        assert abs(res.radius - top) <= 1e-10
        assert np.isfinite(res.eigvec).all() and res.eigvec.min() == 1.0
        assert res.residual <= 1e-10


def test_perron_overflow_fails_fast():
    # the min-1 Perron vector of K_150 with a 160-vertex tail exceeds the float range
    g = _tailed(_clique_edges(150), 150, 160)
    start = time.perf_counter()
    with pytest.raises(SolverError, match="overflowed"):
        perron(g)
    assert time.perf_counter() - start < 2.0


def _circulant(n: int, jumps) -> Graph:
    return Graph.from_edges(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def _hypercube(d: int) -> Graph:
    return Graph.from_edges(1 << d, [(v, v ^ (1 << i)) for v in range(1 << d) for i in range(d)])


def test_regular_graphs_close_on_the_first_step_at_the_degree():
    # all-ones is the exact Perron vector of a regular graph, so it stays the start
    cases = [_circulant(n, jumps) for n, jumps in ((12, (1,)), (17, (1, 3)), (30, (1, 2, 4)),
                                                   (41, (1, 4)))]
    cases += [_hypercube(4), generate(FamilySpec("petersen")), generate(FamilySpec("doyle"))]
    for g in cases:
        res = perron(g)
        assert res.iterations == 1, g.edges()
        assert res.radius == g.degree(0), g.edges()
        assert (res.eigvec == 1.0).all()


def test_warm_started_radius_matches_eigvalsh():
    rand = random.Random(1212)
    graphs = [g for _, g in catalog()]
    graphs += [random_connected_graph(rand, rand.randint(2, 40), extra=rand.choice((0.0, 0.1, 0.3)))
               for _ in range(50)]
    for g in graphs:
        top = np.linalg.eigvalsh(g.adjacency_matrix())[-1]
        assert abs(perron(g).radius - top) <= 1e-12, g.edges()


def test_eigh_start_closes_a_long_path_in_a_few_steps():
    # from all-ones, path_500 took 189,347 steps
    res = perron(generate(FamilySpec("path", n=500)))
    assert res.iterations <= 3
    assert res.residual <= 1e-12


def test_no_graph_needs_more_steps_than_from_all_ones(monkeypatch):
    from dublo import spectral

    cases = [hub_tail(leaves) for leaves in (8, 30, 50, 70, 100)]
    cases += [_tailed(_clique_edges(100), 100, 150),
              _tailed([(0, i) for i in range(1, 201)], 201, 200)]
    warm = [perron(g).iterations for g in cases]
    monkeypatch.setattr(spectral, "_start", lambda g, a: np.ones(g.n))
    cold = [perron(g).iterations for g in cases]
    assert all(w <= c for w, c in zip(warm, cold)), (warm, cold)
