"""Automorphism groups, orbits, symmetrization, vertex transitivity."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dublo import (
    Measure,
    SizeCapError,
    automorphisms,
    ball,
    catalog,
    counting_measure,
    distances,
    doubling_report,
    generate,
    is_vertex_transitive,
    least_doubling,
    orbit_partition,
    parse_edge_list,
)
from dublo.families import FamilySpec
from dublo import symmetry
from dublo.symmetry import DEFAULT_GROUP_LIMIT

from oracles import symmetrize
from util import G10, G18, random_connected_graph, random_int_measure, unreduced_least_doubling


def test_k4_group_order_24():
    assert len(automorphisms(generate(FamilySpec("complete", n=4)))) == 24


def test_c5_dihedral_order_10():
    assert len(automorphisms(generate(FamilySpec("cycle", n=5)))) == 10


def test_petersen_order_120():
    auts = automorphisms(generate(FamilySpec("petersen")))
    assert len(auts) == 120
    # cross-check against orbit-stabilizer counting (independent route)
    part = orbit_partition(generate(FamilySpec("petersen")))
    assert part.group_order == 120


def test_identity_always_present():
    rand = random.Random(404)
    for _ in range(10):
        g = random_connected_graph(rand, rand.randint(2, 8))
        auts = automorphisms(g)
        assert tuple(range(g.n)) in auts


def test_permutations_preserve_adjacency_and_balls():
    rand = random.Random(8)
    for _ in range(8):
        g = random_connected_graph(rand, rand.randint(3, 9))
        dt = distances(g)
        for perm in automorphisms(g)[:12]:
            for u in range(g.n):
                for v in g.adj[u]:
                    assert perm[v] in g.adj[perm[u]]
            v = rand.randrange(g.n)
            k = rand.randint(0, dt.diam)
            image = frozenset(perm[w] for w in ball(g, v, k))
            assert image == ball(g, perm[v], k)


def test_group_listing_limit(monkeypatch):
    from dublo import symmetry

    monkeypatch.setattr(symmetry, "DEFAULT_GROUP_LIMIT", 1000)
    with pytest.raises(SizeCapError, match="limit 1000"):
        automorphisms(generate(FamilySpec("complete", n=9)))


def test_orbits_star():
    part = orbit_partition(generate(FamilySpec("star", n=3)))
    assert len(part.orbits) == 2
    assert part.group_order == 6  # leaves permute freely


def test_orbits_three_legs():
    g = generate(FamilySpec("three_legs"))
    part = orbit_partition(g)
    assert len(part.orbits) == 3  # center, mids, leaves
    by_size = sorted(len(o) for o in part.orbits)
    assert by_size == [1, 3, 3]
    assert part.group_order == 6


def test_orbits_petersen_single():
    part = orbit_partition(generate(FamilySpec("petersen")))
    assert len(part.orbits) == 1


def test_orbit_partition_from_explicit_group_agrees():
    rand = random.Random(21)
    graphs = [(f"random_{i}", random_connected_graph(rand, rand.randint(3, 8))) for i in range(8)]
    graphs += catalog()
    graphs += [
        (f"random_{i}", random_connected_graph(rand, rand.randint(9, 14), rand.choice((0, 0.3))))
        for i in range(8, 32)
    ]
    too_large = []
    for name, g in graphs:
        b = orbit_partition(g)
        if b.group_order > DEFAULT_GROUP_LIMIT:
            too_large.append(name)
            continue
        # the full group's orbits, each the closure of its first vertex
        auts = automorphisms(g)
        orbits = sorted({tuple(sorted(symmetry.orbit(v, auts))) for v in range(g.n)})
        assert b.orbits == tuple(orbits), name
        assert b.orbit_of == tuple(next(i for i, o in enumerate(orbits) if v in o) for v in range(g.n))
        assert b.group_order == len(auts)
    assert too_large == ["S_9", "hoffman_singleton"]


def test_orbits_share_degree_and_distance_profile():
    rand = random.Random(77)
    for _ in range(8):
        g = random_connected_graph(rand, rand.randint(3, 10))
        dt = distances(g)
        part = orbit_partition(g)
        for orbit in part.orbits:
            profiles = {tuple(sorted(dt.dist[v].tolist())) for v in orbit}
            assert len(profiles) == 1


def test_trivial_group_means_singleton_orbits():
    # smallest asymmetric graph has 6 vertices
    g = parse_edge_list("0 1\n1 2\n2 3\n3 4\n1 5\n2 4")
    part = orbit_partition(g)
    if part.group_order == 1:
        assert all(len(o) == 1 for o in part.orbits)


def test_hoffman_singleton_order_without_listing():
    part = orbit_partition(generate(FamilySpec("hoffman_singleton")))
    assert part.group_order == 252000
    assert len(part.orbits) == 1


def test_symmetrize_constant_measure():
    g = generate(FamilySpec("cycle", n=4))
    auts = automorphisms(g)
    mu = symmetrize(Measure((2, 2, 2, 2)), auts)
    assert all(w == 2 * len(auts) for w in mu.weights)


def test_symmetrize_l3_reflection():
    g = generate(FamilySpec("path", n=3))
    identity = (0, 1, 2)
    reflection = (2, 1, 0)
    mu = symmetrize(Measure((1, 2, 4)), [identity, reflection])
    assert mu.weights == (5, 4, 5)


def test_symmetrize_full_group_constant_on_orbits():
    rand = random.Random(212)
    g = generate(FamilySpec("cycle", n=6))
    auts = automorphisms(g)
    mu = symmetrize(random_int_measure(rand, 6), auts)
    assert len(set(mu.weights)) == 1


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_symmetrization_never_hurts(data):
    seed = data.draw(st.integers(0, 10**6))
    rand = random.Random(seed)
    g = random_connected_graph(rand, rand.randint(2, 8))
    auts = automorphisms(g)
    subset_size = rand.randint(1, len(auts))
    subset = rand.sample(auts, subset_size)
    mu = random_int_measure(rand, g.n)
    before = doubling_report(g, mu=mu)
    after = doubling_report(g, mu=symmetrize(mu, subset))
    for pb, pa in zip(before.per_k, after.per_k):
        assert pa.value <= pb.value


def test_vertex_transitive_families():
    assert is_vertex_transitive(generate(FamilySpec("cycle", n=7)))
    assert is_vertex_transitive(generate(FamilySpec("complete", n=5)))
    assert not is_vertex_transitive(generate(FamilySpec("star", n=3)))
    assert is_vertex_transitive(generate(FamilySpec("doyle")))
    assert not is_vertex_transitive(generate(FamilySpec("wheel", n=7)))


def test_transitive_catalog_counting_agrees_with_optimizer():
    specs = [
        FamilySpec("cycle", n=8),
        FamilySpec("complete", n=6),
        FamilySpec("petersen"),
        FamilySpec("doyle"),
        FamilySpec("cocktail_party", n=3),
    ]
    for spec in specs:
        g = generate(spec)
        counting = doubling_report(g, mu=counting_measure(g))
        res = least_doubling(g, tol=1e-9)
        assert abs(res.c_g - float(counting.c_mu)) <= 1e-7, spec


def test_orbit_reduced_and_full_lp_agree():
    specs = [
        FamilySpec("three_legs"),
        FamilySpec("d_n", n=7),
        FamilySpec("path", n=9),
        FamilySpec("e7_hat"),
    ]
    rand = random.Random(1307)
    others = [G18, G10] + [random_connected_graph(rand, rand.randint(2, 9)) for _ in range(12)]
    for i, g in enumerate([generate(spec) for spec in specs] + others):
        reduced = least_doubling(g, tol=1e-9)
        full = unreduced_least_doubling(g, tol=1e-9)
        assert abs(reduced.c_g - full.c_g) <= 5e-9, g.edges()
        assert max(reduced.classes) + 1 < g.n or i >= len(specs)
        assert full.classes == tuple(range(g.n))


def test_reduction_classes_are_equitable_unions_of_orbits():
    rand = random.Random(1994)
    graphs = [g for _, g in catalog()] + [G18, G10]
    graphs += [random_connected_graph(rand, rand.randint(2, 10)) for _ in range(20)]
    for g in graphs:
        classes = least_doubling(g).classes
        assert list(dict.fromkeys(classes)) == list(range(max(classes) + 1))
        dist = distances(g).dist
        profiles: dict = {}
        for v in range(g.n):
            profile = Counter((int(dist[v, w]), classes[w]) for w in range(g.n))
            assert profiles.setdefault(classes[v], profile) == profile, g.edges()
        if max(classes) > 0:  # a single class holds every orbit; skips HS's search
            for orbit in orbit_partition(g).orbits:
                assert len({classes[v] for v in orbit}) == 1, g.edges()
    # the refinement is strictly coarser than the orbits here
    assert max(least_doubling(G18).classes) + 1 == 8 < len(orbit_partition(G18).orbits)


def test_e8_has_trivial_group():
    g = generate(FamilySpec("e8"))
    part = orbit_partition(g)
    assert part.group_order == 1
    assert all(len(o) == 1 for o in part.orbits)
