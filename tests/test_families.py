"""Family generators, expected constants, truncation series."""

import math
from fractions import Fraction

import pytest

from dublo import (
    Graph,
    SizeCapError,
    ValidationError,
    ball,
    distances,
    doubling_report,
    expected_constant,
    generate,
    least_doubling,
    perron,
    truncation_study,
)
from dublo.families import FAMILY_NAMES, FamilySpec

from oracles import d_infinity_measure


def test_unknown_family_rejected():
    with pytest.raises(ValidationError):
        FamilySpec("moebius")


def test_friendship_structure():
    g = generate(FamilySpec("friendship", n=2))
    assert g.n == 5 and g.degree(0) == 4
    assert all(g.degree(v) == 2 for v in range(1, 5))


def test_doyle_structure():
    g = generate(FamilySpec("doyle"))
    assert g.n == 27 and set(g.degrees) == {4}
    assert distances(g).diam == 3


def test_doyle_self_check_rejects_a_witness_that_is_not_an_automorphism(monkeypatch):
    from dublo import families

    good, other = families._DOYLE_WITNESS
    swapped = list(good)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    monkeypatch.setattr(families, "_DOYLE_WITNESS", (tuple(swapped), other))
    with pytest.raises(ValidationError, match="not an automorphism"):
        generate(FamilySpec("doyle"))


def test_smith_self_check_rejects_a_tree_with_other_legs(monkeypatch):
    from dublo import families

    e7 = families.SMITH_TREES["e7"]
    monkeypatch.setitem(
        families.SMITH_TREES, "e7", e7._replace(legs=families.SMITH_TREES["e8"].legs)
    )
    with pytest.raises(ValidationError, match="self-check failed"):
        generate(FamilySpec("e7"))


@pytest.mark.parametrize(
    "family, sizes",
    [
        ("complete", range(1, 12)),
        ("cycle", range(3, 14)),
        ("path", range(1, 14)),
        ("wheel", range(4, 14)),
        ("friendship", range(1, 10)),
        ("cocktail_party", range(2, 10)),
    ],
)
def test_simple_families_check_without_a_distance_table(monkeypatch, family, sizes):
    # degrees and edge counts, with connectivity, already fix these graphs' diameters
    def refuse(g):
        raise AssertionError("distance table built by the self-check")

    monkeypatch.setattr(Graph, "_distance_table", property(refuse))
    graphs = [generate(FamilySpec(family, n=n)) for n in sizes]
    monkeypatch.undo()
    for n, g in zip(sizes, graphs):
        assert distances(g).diam == {
            "complete": min(1, n - 1), "cycle": n // 2, "path": n - 1,
            "wheel": 1 if n == 4 else 2, "friendship": 1 if n == 1 else 2, "cocktail_party": 2,
        }[family]


def test_e8_hat_structure():
    g = generate(FamilySpec("e8_hat"))
    assert g.n == 9
    assert perron(g).radius == pytest.approx(2.0, abs=1e-12)
    assert perron(g).c0 == pytest.approx(3.0, abs=1e-11)


def test_hoffman_singleton_structure():
    g = generate(FamilySpec("hoffman_singleton"))
    assert g.n == 50 and g.m == 175 and set(g.degrees) == {7}
    assert distances(g).diam == 2


def test_clebsch_structure():
    g = generate(FamilySpec("clebsch"))
    assert g.n == 16 and set(g.degrees) == {5}
    assert distances(g).diam == 2


def test_d_n_smallest_is_star():
    g = generate(FamilySpec("d_n", n=4))
    assert sorted(g.degrees) == [1, 1, 1, 3]


def test_d_hat_smallest_is_4star():
    g = generate(FamilySpec("d_hat_n", n=5))
    assert sorted(g.degrees) == [1, 1, 1, 1, 4]


def test_three_legs_alias_e6_hat():
    a = generate(FamilySpec("three_legs"))
    b = generate(FamilySpec("e6_hat"))
    assert a.adj == b.adj


def test_invalid_params():
    with pytest.raises(ValidationError):
        generate(FamilySpec("cycle", n=2))
    with pytest.raises(ValidationError):
        generate(FamilySpec("d_n", n=3))
    with pytest.raises(ValidationError):
        generate(FamilySpec("complete_bipartite", m=0, n=2))


# the parameters each family takes, at their least values
MINIMUMS = {
    "complete": {"n": 1},
    "star": {"n": 1},
    "cycle": {"n": 3},
    "path": {"n": 1},
    "complete_bipartite": {"m": 1, "n": 1},
    "wheel": {"n": 4},
    "friendship": {"n": 1},
    "cocktail_party": {"n": 2},
    "d_n": {"n": 4},
    "d_hat_n": {"n": 5},
    "grid_ray_truncation": {"depth": 1},
}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_family_spec_enforces_each_parameter_minimum(family):
    need = MINIMUMS.get(family, {})
    assert generate(FamilySpec(family, **need)).n >= 1
    for param, minimum in need.items():
        for bad in (minimum - 1, None):
            with pytest.raises(ValidationError, match=f"needs {param} >= {minimum}"):
                FamilySpec(family, **{**need, param: bad})


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_family_spec_rejects_a_parameter_the_family_does_not_take(family):
    need = MINIMUMS.get(family, {})
    for param in {"n", "m", "depth"} - set(need):
        with pytest.raises(ValidationError, match=f"{family!r} takes no parameter {param}"):
            FamilySpec(family, **need, **{param: 99})


@pytest.mark.parametrize("m, n", [(0, 3), (-1, 3), (3, 0)])
def test_expected_constant_refuses_what_generate_refuses(m, n):
    with pytest.raises(ValidationError, match="complete_bipartite"):
        expected_constant(FamilySpec("complete_bipartite", m=m, n=n))


def test_every_catalog_family_passes_self_check():
    # generate() re-validates; absence of exceptions is the assertion
    specs = [
        FamilySpec("complete", n=4),
        FamilySpec("star", n=5),
        FamilySpec("cycle", n=9),
        FamilySpec("path", n=7),
        FamilySpec("complete_bipartite", m=3, n=4),
        FamilySpec("wheel", n=8),
        FamilySpec("friendship", n=4),
        FamilySpec("cocktail_party", n=4),
        FamilySpec("petersen"),
        FamilySpec("hoffman_singleton"),
        FamilySpec("clebsch"),
        FamilySpec("d_n", n=9),
        FamilySpec("d_hat_n", n=8),
        FamilySpec("e6"),
        FamilySpec("e7"),
        FamilySpec("e8"),
        FamilySpec("e6_hat"),
        FamilySpec("e7_hat"),
        FamilySpec("e8_hat"),
        FamilySpec("doyle"),
    ]
    for spec in specs:
        g = generate(spec)
        assert g.n >= 1


# ---------------------------------------------------------------- constants


def test_expected_wheel():
    exp = expected_constant(FamilySpec("wheel", n=9))
    assert exp.c_g == pytest.approx(5.0) and exp.proven == "exact"


def test_expected_hoffman_singleton():
    exp = expected_constant(FamilySpec("hoffman_singleton"))
    assert exp.c_g == 8.0 and exp.c_g_exact == Fraction(8)


def test_expected_three_legs():
    exp = expected_constant(FamilySpec("three_legs"))
    assert exp.c_g == pytest.approx(3.086130197651494, abs=1e-10)


def test_expected_path_is_c0_only():
    exp = expected_constant(FamilySpec("path", n=12))
    assert exp.proven == "c0_only" and exp.c_g is None
    assert exp.c0 == pytest.approx(1 + 2 * math.cos(math.pi / 13))


def test_expected_e8_lower_bound_only():
    exp = expected_constant(FamilySpec("e8"))
    assert exp.proven == "lower_bound_only"
    assert exp.c_g == pytest.approx(3.02058, abs=1e-5)


def test_expected_clebsch_flags_discrepancy():
    exp = expected_constant(FamilySpec("clebsch"))
    assert exp.literature_value == 5.0 and exp.c_g == 6.0
    assert "discrepancy" in exp.note


def test_expected_no_constant_for_grid_ray():
    with pytest.raises(ValidationError):
        expected_constant(FamilySpec("grid_ray_truncation", depth=2))


def test_wheel_4_is_k4():
    g = generate(FamilySpec("wheel", n=4))
    assert g.m == 6 and set(g.degrees) == {3}
    assert expected_constant(FamilySpec("wheel", n=4)).c_g == pytest.approx(4.0)


def test_friendship_1_is_k3():
    g = generate(FamilySpec("friendship", n=1))
    assert g.n == 3 and g.m == 3
    exp = expected_constant(FamilySpec("friendship", n=1))
    assert exp.c_g == pytest.approx(3.0)
    assert exp.c_g == pytest.approx(float(expected_constant(FamilySpec("complete", n=3)).c_g))


def test_diameter2_families_match_expected():
    specs = [
        FamilySpec("friendship", n=3),
        FamilySpec("wheel", n=6),
        FamilySpec("complete_bipartite", m=2, n=5),
        FamilySpec("cocktail_party", n=4),
        FamilySpec("petersen"),
        FamilySpec("clebsch"),
    ]
    for spec in specs:
        exp = expected_constant(spec)
        res = least_doubling(generate(spec))
        assert res.c_g == pytest.approx(exp.c_g, abs=1e-6), spec


def test_smith_catalog_c0_closed_forms():
    for n in range(1, 31):
        g = generate(FamilySpec("path", n=n))
        assert perron(g).c0 == pytest.approx(1 + 2 * math.cos(math.pi / (n + 1)), abs=1e-9)
    for n in range(4, 31):
        g = generate(FamilySpec("d_n", n=n))
        assert perron(g).c0 == pytest.approx(
            1 + 2 * math.cos(math.pi / (2 * (n - 1))), abs=1e-9
        )
    for fam, h in (("e6", 12), ("e7", 18), ("e8", 30)):
        assert perron(generate(FamilySpec(fam))).c0 == pytest.approx(
            1 + 2 * math.cos(math.pi / h), abs=1e-9
        )
    for n in range(3, 31):
        assert perron(generate(FamilySpec("cycle", n=n))).c0 == pytest.approx(3, abs=1e-9)
    for n in range(5, 31):
        assert perron(generate(FamilySpec("d_hat_n", n=n))).c0 == pytest.approx(3, abs=1e-9)
    for fam in ("e6_hat", "e7_hat", "e8_hat"):
        assert perron(generate(FamilySpec(fam))).c0 == pytest.approx(3, abs=1e-9)


# ---------------------------------------------------------------- truncations


def test_truncation_path_series_monotone():
    records = truncation_study("path_N", list(range(2, 21)))
    c0s = [r["c0"] for r in records]
    assert all(b > a for a, b in zip(c0s, c0s[1:]))
    assert all(c <= 3 + 1e-9 for c in c0s)
    for r in records:
        assert r["c0"] == pytest.approx(1 + 2 * math.cos(math.pi / (r["n"] + 1)), abs=1e-9)


def test_truncation_path_z():
    records = truncation_study("path_Z", [2, 5, 10])
    assert [r["n"] for r in records] == [5, 11, 21]


def test_truncation_depths_must_increase():
    with pytest.raises(ValidationError):
        truncation_study("path_N", [4, 4])


@pytest.mark.parametrize(
    "family, depths, message",
    [
        ("path_N", [0, 1], "'path' needs n >= 1"),
        ("path_Z", [-1, 1], "'path' needs n >= 1"),
        ("d_infinity", [3, 4], "'d_n' needs n >= 4"),
        ("grid_ray", [0, 1], "'grid_ray_truncation' needs depth >= 1"),
        ("grid_ray", [-1, 1], "'grid_ray_truncation' needs depth >= 1"),
    ],
)
def test_truncation_depths_meet_the_family_minimums(family, depths, message):
    with pytest.raises(ValidationError, match=message):
        truncation_study(family, depths)


def test_truncation_d_infinity_measure_exactly_3():
    records = truncation_study("d_infinity", [10, 20])
    assert all(r["c0"] <= 3 + 1e-9 for r in records)
    g = generate(FamilySpec("d_n", n=20))
    mu = d_infinity_measure(g)
    assert sorted(mu.weights)[:2] == [1, 1] and set(mu.weights) == {1, 2}
    report = doubling_report(g, mu=mu)
    assert report.c_mu == Fraction(3)  # exact rational evaluation


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("e6"),
        FamilySpec("e8_hat"),
        FamilySpec("d_hat_n", n=8),
        FamilySpec("d_hat_n", n=5),
        FamilySpec("path", n=5),
        FamilySpec("cycle", n=6),
    ],
    ids=["e6", "e8_hat", "d_hat_8", "d_hat_5", "path_5", "cycle_6"],
)
def test_d_infinity_measure_refuses_every_other_graph(spec):
    with pytest.raises(ValidationError, match="expects a D_n tree"):
        d_infinity_measure(generate(spec))


def test_grid_ray_counts_match_closed_form():
    # |B((0,0,k),k)| = 2k+1;  |B((0,0,k),2k+1)| = 2k^2+9k+6 (ball counts by BFS)
    records = truncation_study("grid_ray", [2, 4, 8], cap=2000)
    for r in records:
        k = r["depth"]
        assert r["probe_ball_k"] == 2 * k + 1
        assert r["probe_ball_2k1"] == 2 * k * k + 9 * k + 6
        assert r["counting_ratio"] == Fraction(2 * k * k + 9 * k + 6, 2 * k + 1)


def test_grid_ray_ratio_growth():
    records = truncation_study("grid_ray", [2, 8], cap=2000)
    r2, r8 = records
    assert r8["counting_ratio"] > r2["counting_ratio"]
    # the doubling-definition ratio B(2k)/B(k) more than doubles from k=2 to 8
    assert r8["counting_ratio_2r"] >= 2 * r2["counting_ratio_2r"]


def test_grid_ray_library_calls_take_the_default_cap():
    # depth 8 has 1326 vertices, over the 512 every other library graph build caps at
    with pytest.raises(SizeCapError, match="1326 vertices, cap is 512"):
        generate(FamilySpec("grid_ray_truncation", depth=8))
    with pytest.raises(SizeCapError, match="cap is 512"):
        truncation_study("grid_ray", [8])
    assert generate(FamilySpec("grid_ray_truncation", depth=8), cap=2000).n == 1326
    assert truncation_study("grid_ray", [8], cap=2000)[0]["n"] == 1326


def test_grid_ray_probe_is_on_ray():
    g = generate(FamilySpec("grid_ray_truncation", depth=3))
    probe = g.labels.index("0,0,3")
    assert g.degree(probe) == 2


def test_grid_ray_records_are_read_at_the_0_0_depth_vertex():
    records = truncation_study("grid_ray", [1, 2])
    assert [
        (r["n"], r["probe_ball_k"], r["probe_ball_2k"], r["probe_ball_2k1"]) for r in records
    ] == [(45, 3, 8, 17), (120, 5, 19, 32)]
    assert [r["c0"] for r in records] == pytest.approx([4.644317861987888, 4.857515274643453])
    for r in records:
        k = r["depth"]
        g = generate(FamilySpec("grid_ray_truncation", depth=k))
        probe = g.labels.index(f"0,0,{k}")
        balls = [len(ball(g, probe, radius)) for radius in (k, 2 * k, 2 * k + 1)]
        assert balls == [r["probe_ball_k"], r["probe_ball_2k"], r["probe_ball_2k1"]]
        assert (r["counting_ratio"], r["counting_ratio_2r"]) == (
            Fraction(balls[2], balls[0]), Fraction(balls[1], balls[0])
        )
