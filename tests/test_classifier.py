"""Structural C <= 3 classification against the optimizer and closed forms."""

import math

import pytest

from dublo import (
    ValidationError,
    classify_leq3,
    generate,
    least_doubling,
    perron,
    smith_c0_table,
    structural_lower_bound,
)
from dublo.families import FamilySpec

from util import all_trees


def test_lower_bound_k4_cycle():
    reason = structural_lower_bound(generate(FamilySpec("complete", n=4)))
    assert reason is not None and "(i)" in reason


def test_lower_bound_s5_degree():
    reason = structural_lower_bound(generate(FamilySpec("star", n=5)))
    assert reason is not None and "(ii)" in reason


def test_lower_bound_d_hat_two_branches():
    reason = structural_lower_bound(generate(FamilySpec("d_hat_n", n=8)))
    assert reason is not None and "(iii)" in reason


def test_lower_bound_none_for_single_branch_trees():
    for fam in ("e7_hat", "three_legs", "e8"):
        assert structural_lower_bound(generate(FamilySpec(fam))) is None
    assert structural_lower_bound(generate(FamilySpec("path", n=6))) is None


def test_lower_bound_reason_implies_c0_at_least_3():
    specs = [
        FamilySpec("complete", n=4),
        FamilySpec("star", n=5),
        FamilySpec("d_hat_n", n=8),
        FamilySpec("cycle", n=7),
        FamilySpec("wheel", n=6),
    ]
    for spec in specs:
        g = generate(spec)
        assert structural_lower_bound(g) is not None
        assert perron(g).c0 >= 3 - 1e-9


def test_lower_bound_reason_implies_c0_at_least_3_random():
    import random

    from util import random_connected_graph

    rand = random.Random(1812)
    for _ in range(50):
        g = random_connected_graph(rand, rand.randint(3, 12))
        if structural_lower_bound(g) is not None:
            assert perron(g).c0 >= 3 - 1e-9


def test_classify_paths_strict():
    v = classify_leq3(generate(FamilySpec("path", n=12)))
    assert v.verdict == "leq3_strict" and v.family_match == "L_n"


def test_classify_e8_gt3():
    v = classify_leq3(generate(FamilySpec("e8")))
    assert v.verdict == "gt3" and v.family_match is None
    assert v.reasons


def test_classify_d_hat6_eq3():
    v = classify_leq3(generate(FamilySpec("d_hat_n", n=6)))
    assert v.verdict == "eq3" and v.family_match == "D_hat_n"


def test_classify_c9_eq3():
    v = classify_leq3(generate(FamilySpec("cycle", n=9)))
    assert v.verdict == "eq3" and v.family_match == "C_n"


def test_classify_builds_no_distance_table(monkeypatch):
    from dublo import graphs

    def refuse(g):
        raise AssertionError("distance table built by the classifier")

    monkeypatch.setattr(graphs, "distances", refuse)
    specs = [FamilySpec("path", n=40), FamilySpec("cycle", n=40), FamilySpec("e8")]
    verdicts = [classify_leq3(generate(spec)).verdict for spec in specs]
    assert verdicts == ["leq3_strict", "eq3", "gt3"]


def test_classify_star4_is_smallest_d_hat():
    v = classify_leq3(generate(FamilySpec("star", n=4)))
    assert v.verdict == "eq3" and v.family_match == "D_hat_n"


def test_classify_e6_e7_strict():
    for fam in ("e6", "e7"):
        v = classify_leq3(generate(FamilySpec(fam)))
        assert v.verdict == "leq3_strict"
        assert v.family_match == fam.upper()


def test_classify_hatted_gt3():
    for fam in ("three_legs", "e7_hat", "e8_hat"):
        v = classify_leq3(generate(FamilySpec(fam)))
        assert v.verdict == "gt3"


def test_classify_d_family_strict_with_numeric_note():
    for n in (4, 6, 9, 14):
        v = classify_leq3(generate(FamilySpec("d_n", n=n)))
        assert v.verdict == "leq3_strict" and v.family_match == "D_n"
        assert v.numeric_cross_check is not None
        assert v.numeric_cross_check.c_g < 3


def test_classify_cycle_with_chord_gt3():
    from dublo import parse_edge_list

    g = parse_edge_list("0 1\n1 2\n2 3\n3 0\n0 2")
    v = classify_leq3(g)
    assert v.verdict == "gt3"


def test_cross_check_agrees():
    for spec in (
        FamilySpec("path", n=9),
        FamilySpec("cycle", n=6),
        FamilySpec("d_hat_n", n=7),
        FamilySpec("e7"),
        FamilySpec("e8"),
        FamilySpec("star", n=6),
    ):
        v = classify_leq3(generate(spec), cross_check=True)
        assert v.numeric_cross_check is not None


# ---------------------------------------------------------------- smith table


def test_smith_values():
    assert smith_c0_table(FamilySpec("e6")) == pytest.approx(1 + 2 * math.cos(math.pi / 12))
    assert smith_c0_table(FamilySpec("e6")) == pytest.approx(2.931852, abs=1e-6)
    assert smith_c0_table(FamilySpec("d_n", n=5)) == pytest.approx(2.847759, abs=1e-6)
    assert smith_c0_table(FamilySpec("e6_hat")) == 3.0
    assert smith_c0_table(FamilySpec("cycle", n=11)) == 3.0
    assert smith_c0_table(FamilySpec("path", n=4)) == pytest.approx(
        1 + 2 * math.cos(math.pi / 5)
    )


def test_smith_table_has_one_home():
    from dublo import classifier, families

    # the facade takes it from families; no other module re-exports it
    assert smith_c0_table is families.smith_c0_table
    assert "smith_c0_table" not in vars(classifier)


def test_smith_unsupported():
    with pytest.raises(ValidationError):
        smith_c0_table(FamilySpec("petersen"))


def test_smith_matches_spectral_module():
    for n in range(2, 31):
        g = generate(FamilySpec("path", n=n))
        assert abs(smith_c0_table(FamilySpec("path", n=n)) - perron(g).c0) <= 1e-9
    for n in range(4, 31):
        g = generate(FamilySpec("d_n", n=n))
        assert abs(smith_c0_table(FamilySpec("d_n", n=n)) - perron(g).c0) <= 1e-9


# ---------------------------------------------------------------- tree sweep


def test_small_tree_catalog_membership():
    # among all trees on <= 9 vertices, exactly the L/D/E6/E7 shapes are <= 3
    for n in range(1, 10):
        for g in all_trees(n):
            v = classify_leq3(g)
            if v.verdict in ("leq3_strict", "eq3"):
                assert v.family_match in ("L_n", "D_n", "D_hat_n", "E6", "E7"), (n, g.adj)
            else:
                assert v.family_match is None


def _position(c: float) -> str:
    if c < 3 - 1e-6:
        return "leq3_strict"
    if c > 3 + 1e-6:
        return "gt3"
    return "eq3"


def test_tree_sweep_agrees_with_optimizer_n10():
    for n in range(2, 11):
        for g in all_trees(n):
            assert classify_leq3(g).verdict == _position(least_doubling(g).c_g), g.adj


def test_catalog_agrees_with_optimizer():
    from dublo.families import catalog

    for name, g in catalog():
        assert classify_leq3(g).verdict == _position(least_doubling(g).c_g), name
