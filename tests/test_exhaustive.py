"""Every connected graph on up to 7 vertices, each once up to isomorphism.

``util.connected_graphs_exactly`` extends each (n-1)-vertex class by one
vertex and keeps one graph per canonical form.  The 995 graphs on 2 to 7
vertices are swept through graph6, the class reduction, the spectral lower
bound and the classifier.
"""

from collections import Counter
from itertools import combinations, permutations

import pytest

from dublo import classify_leq3, least_doubling, parse_graph6, write_graph6

from util import connected_graphs_exactly, g6_encode_oracle, unreduced_least_doubling

A001349 = (1, 1, 2, 6, 21, 112, 853)  # connected graphs on n = 1, 2, ... vertices


@pytest.fixture(scope="module")
def sweep():
    graphs = [g for n in range(2, 8) for g in connected_graphs_exactly(n)]
    assert len(graphs) == 995
    return graphs


def test_counts_match_oeis_a001349():
    assert [len(connected_graphs_exactly(n)) for n in range(1, 8)] == list(A001349)


def _full_canon(n, edges):
    """Least sorted edge list over all n! relabellings."""
    return min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in permutations(range(n))
    )


def _connected(n, edges):
    reached, frontier = {0}, [0]
    for u in frontier:
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(reached) == n


def test_up_to_5_vertices_every_edge_set_is_found_once():
    # the reference tries all 2^(n choose 2) edge sets and every relabelling
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        subsets = ([p for i, p in enumerate(pairs) if mask >> i & 1] for mask in range(1 << len(pairs)))
        want = {_full_canon(n, edges) for edges in subsets if _connected(n, edges)}
        got = [_full_canon(n, g.edges()) for g in connected_graphs_exactly(n)]
        assert len(got) == len(set(got)) and set(got) == want, n


def test_graph6_round_trip_on_every_graph(sweep):
    for g in sweep:
        record = write_graph6(g)
        assert record == g6_encode_oracle(g.n, set(g.edges()))
        assert parse_graph6(record).edges() == g.edges()


def test_reduction_is_exact_and_c_g_is_at_least_c0_on_every_graph(sweep):
    for g in sweep:
        reduced = least_doubling(g)
        full = unreduced_least_doubling(g)
        assert abs(reduced.c_g - full.c_g) <= 5e-9, g.edges()
        assert reduced.c_g >= reduced.lower_bound_spectral - 1e-9, g.edges()


def test_classifier_agrees_with_the_optimizer_on_every_graph(sweep):
    # cross_check raises SolverError where the verdict and the optimizer disagree
    verdicts = Counter(classify_leq3(g, cross_check=True).verdict for g in sweep)
    assert verdicts == {"gt3": 975, "leq3_strict": 12, "eq3": 8}
