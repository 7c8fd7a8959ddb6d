"""Graph construction, parsing, distances, balls, structural facts."""

import gc
import random
import weakref

import numpy as np
import pytest

from dublo import (
    Graph,
    ParseError,
    SizeCapError,
    ValidationError,
    ball,
    distances,
    generate,
    parse_edge_list,
    parse_graph6,
    structural_facts,
    write_graph6,
)
from dublo.families import FamilySpec, catalog

from util import (
    connected_graphs_exactly,
    floyd_warshall,
    g6_encode_oracle,
    hub_tail,
    random_connected_graph,
)


def test_parse_single_edge():
    g = parse_edge_list("0 1")
    assert g.n == 2 and g.m == 1


def test_parse_triangle_with_comments():
    g = parse_edge_list("# triangle\n0 1\n1 2 # closing\n2 0\n")
    assert g.n == 3 and g.m == 3
    assert set(g.degrees) == {2}


def test_parse_disconnected_rejected():
    with pytest.raises(ValidationError, match="not connected"):
        parse_edge_list("0 1\n2 3")


def test_parse_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        parse_edge_list("0 0")


def test_parse_empty_rejected():
    with pytest.raises(ParseError, match="empty"):
        parse_edge_list("# nothing here\n")


def test_parse_malformed_line():
    with pytest.raises(ParseError):
        parse_edge_list("0 1 2")


def test_parse_token_labels_dense_first_appearance():
    g = parse_edge_list("alpha beta\nbeta gamma")
    assert g.labels == ("alpha", "beta", "gamma")
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_duplicate_edges_collapse():
    g = parse_edge_list("0 1\n1 0\n0 1")
    assert g.m == 1


def test_graph_requires_symmetric_adjacency():
    with pytest.raises(ValidationError, match="symmetric"):
        Graph(2, ((1,), ()))


def test_size_cap():
    edges = [(i, i + 1) for i in range(599)]
    with pytest.raises(SizeCapError):
        Graph.from_edges(600, edges)
    g = Graph.from_edges(600, edges, cap=1000)
    assert g.n == 600


def test_library_ignores_the_size_cap_env(monkeypatch):
    # no environment variable sets a cap: library calls take their cap argument only
    monkeypatch.setenv("DUBLO_SIZE_CAP", "3")
    assert parse_edge_list("0 1\n1 2\n2 3").n == 4
    with pytest.raises(SizeCapError, match="cap is 3"):
        parse_edge_list("0 1\n1 2\n2 3", cap=3)


# ---------------------------------------------------------------- graph6


def test_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.m == 1


def test_graph6_c5_from_independent_writer():
    c5 = generate(FamilySpec("cycle", n=5))
    record = g6_encode_oracle(5, set(c5.edges()))
    g = parse_graph6(record)
    assert g.n == 5 and g.m == 5 and set(g.degrees) == {2}
    assert g.adj == c5.adj


def test_graph6_disconnected_rejected():
    # 3 isolated vertices: n=3, no bits set
    with pytest.raises(ValidationError, match="not connected"):
        parse_graph6("B?")


def test_graph6_trailing_bits_rejected():
    # K_2 body with a stray low bit: 'A' + chr(63 + 0b010001)
    with pytest.raises(ParseError, match="trailing"):
        parse_graph6("A" + chr(63 + 0b010001))


def test_graph6_non_ascii_rejected():
    # a replaced character would read as '?', a valid all-zero body byte
    with pytest.raises(ParseError, match="non-ASCII"):
        parse_graph6("E\u00e9~w")


def test_graph6_malformed_header():
    # a vertex-count digit outside 63..126, in the short, medium and long forms
    cases = [(bytes([5, 70]), 5), ("\x7f", 127), ("~?\x7f?", 127), ("~?5?", 53), ("~~????\x7f?", 127)]
    for record, byte in cases:
        with pytest.raises(ParseError, match=f"invalid graph6 header byte {byte}"):
            parse_graph6(record)


def test_graph6_roundtrip_random():
    rand = random.Random(1007)
    for _ in range(40):
        n = rand.randint(2, 50)
        g = random_connected_graph(rand, n)
        back = parse_graph6(write_graph6(g))
        assert back.adj == g.adj


def test_graph6_roundtrip_oracle_agreement():
    rand = random.Random(31)
    cases = [random_connected_graph(rand, rand.randint(2, 40)) for _ in range(25)]
    cases += [g for _, g in catalog()]
    for g in cases:
        assert write_graph6(g) == g6_encode_oracle(g.n, set(g.edges()))


def test_graph6_header_prefix_accepted():
    g = parse_graph6(">>graph6<<A_")
    assert g.n == 2


def test_graph6_medium_form_roundtrip():
    # n > 62 forces the 4-byte vertex-count encoding
    for spec, header in ((FamilySpec("path", n=100), "~?@c"), (FamilySpec("complete", n=64), "~?@?")):
        g = generate(spec)
        record = write_graph6(g)
        assert record.startswith(header)
        assert record == g6_encode_oracle(g.n, set(g.edges()))
        assert parse_graph6(record).adj == g.adj


def test_graph6_medium_and_long_vertex_counts_decode_alike():
    # n = 5 in the 1-, 3- and 6-digit forms; the first reader takes the shortest
    p5 = generate(FamilySpec("path", n=5))
    assert write_graph6(p5) == "DhC"
    for record in ("DhC", "~??DhC", "~~?????DhC"):
        assert parse_graph6(record).adj == p5.adj, record


def test_graph6_vertex_count_over_the_cap_is_refused_before_the_body():
    # the records have no body: reading one would be a ParseError
    with pytest.raises(SizeCapError, match="262144 vertices, cap is 512"):
        parse_graph6("~~??@???")
    with pytest.raises(SizeCapError, match="100 vertices, cap is 64"):
        parse_graph6("~?@c", cap=64)


@pytest.mark.parametrize("record", ["", "~", "~?", "~??", "~~", "~~?????"])
def test_graph6_truncated_vertex_count(record):
    with pytest.raises(ParseError, match="truncated graph6 vertex count"):
        parse_graph6(record)


# ---------------------------------------------------------------- distances


def test_distances_path():
    g = generate(FamilySpec("path", n=3))
    dt = distances(g)
    assert dt.dist[0][2] == 2 and dt.diam == 2


def test_distances_petersen_diam2():
    assert distances(generate(FamilySpec("petersen"))).diam == 2


def test_distances_doyle_diam3():
    assert distances(generate(FamilySpec("doyle"))).diam == 3


def test_distance_table_axioms_random():
    rand = random.Random(7)
    for _ in range(15):
        g = random_connected_graph(rand, rand.randint(2, 12))
        dt = distances(g)
        d = dt.dist
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        for v in range(g.n):
            for w in range(g.n):
                assert (d[v][w] == 1) == g.has_edge(v, w)
        # triangle inequality
        for u in range(g.n):
            assert (d <= d[:, [u]] + d[u][None, :]).all()


def test_distances_match_floyd_warshall():
    rand = random.Random(2024)
    cases = [g for _, g in catalog()]
    cases += [g for n in range(1, 6) for g in connected_graphs_exactly(n)]
    cases += [
        random_connected_graph(rand, rand.randint(2, 40), extra=rand.choice((0.0, 0.05, 0.3)))
        for _ in range(40)
    ]
    cases += [hub_tail(leaves) for leaves in (1, 2, 7, 30)]
    for g in cases:
        dt = distances(g)
        want = floyd_warshall(g)
        assert dt.dist.dtype == np.int32 and np.array_equal(dt.dist, want), g.edges()
        assert dt.diam == want.max()


def test_distances_keeps_one_table_per_graph_and_frees_it_with_the_graph():
    g = generate(FamilySpec("petersen"))
    assert distances(g) is distances(g)
    twin = generate(FamilySpec("petersen"))  # equal, but another object: its own table
    assert twin == g and distances(twin) is not distances(g)
    table = weakref.ref(distances(g))
    del g
    gc.collect()
    assert table() is None


# ---------------------------------------------------------------- balls


def test_ball_basics_c5():
    g = generate(FamilySpec("cycle", n=5))
    b = ball(g, 0, 1)
    assert b == frozenset({0, 1, 4}) and len(b) == 3


def test_ball_complete():
    g = generate(FamilySpec("complete", n=6))
    assert len(ball(g, 2, 1)) == 6


def test_ball_three_legs_leaf_radius3():
    # leaf ball of radius 3 reaches everything except the two opposite leaves;
    # enumeration oracle: distances on the 7-vertex tree
    g = generate(FamilySpec("three_legs"))
    dt = distances(g)
    leaf = next(v for v in range(7) if g.degree(v) == 1)
    by_hand = {w for w in range(7) if dt.dist[leaf][w] <= 3}
    assert ball(g, leaf, 3) == frozenset(by_hand)
    assert len(by_hand) == 5
    other_leaves = [v for v in range(7) if g.degree(v) == 1 and v != leaf]
    far = [v for v in other_leaves if v not in by_hand]
    assert len(far) == 2


def test_ball_radius_saturates_at_diam():
    rand = random.Random(99)
    g = random_connected_graph(rand, 9)
    dt = distances(g)
    for v in range(g.n):
        assert len(ball(g, v, dt.diam)) == g.n
        assert ball(g, v, 0) == frozenset({v})


def test_ball_vertex_out_of_range():
    g = generate(FamilySpec("path", n=3))
    with pytest.raises(ValidationError):
        ball(g, 5, 1)


def test_ball_matrix_identity_and_monotone():
    g = generate(FamilySpec("path", n=3))
    dt = distances(g)
    m0 = dt.dist <= 0
    assert (m0 == np.eye(3)).all()
    m1 = dt.dist <= 1
    assert (m1 >= m0).all()
    # L_3 at r=1 is tridiagonal
    assert (m1 == np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]])).all()
    assert (dt.dist <= dt.diam).all()


def test_ball_matrix_k3_all_ones():
    g = generate(FamilySpec("complete", n=3))
    assert (distances(g).dist <= 1).all()


def test_ball_matrix_row_sums_are_degree_plus_one():
    rand = random.Random(5)
    for _ in range(10):
        g = random_connected_graph(rand, rand.randint(2, 15))
        m1 = distances(g).dist <= 1
        assert (m1.sum(axis=1) == np.array(g.degrees) + 1).all()


# ---------------------------------------------------------------- facts


def test_structural_facts_c6():
    facts = structural_facts(generate(FamilySpec("cycle", n=6)))
    assert facts.has_cycle and facts.is_regular and facts.max_degree == 2


def test_structural_facts_star():
    facts = structural_facts(generate(FamilySpec("star", n=4)))
    assert not facts.has_cycle and facts.max_degree == 4 and facts.count_deg_ge3 == 1


def test_structural_facts_three_legs():
    g = generate(FamilySpec("three_legs"))
    facts = structural_facts(g)
    assert not facts.has_cycle and facts.max_degree == 3 and facts.count_deg_ge3 == 1
    assert distances(g).diam == 4
