"""Metamorphic checks: relabelling the vertices changes no reported quantity."""

import json
import random
from collections import Counter

import pytest

from dublo import FamilySpec, Graph, classify_leq3, generate, least_doubling, write_graph6
from dublo.cli import EXIT_OK, main
from dublo.optimizer import DEFAULT_BISECT_TOL, LP_SOLVE_CAP

from util import hub_tail, random_connected_graph, relabel

NAMED = (
    FamilySpec("three_legs"),
    FamilySpec("e7"),
    FamilySpec("d_n", n=8),
    FamilySpec("wheel", n=6),
    FamilySpec("petersen"),
    FamilySpec("cycle", n=9),
)


def _cases() -> list[tuple[str, Graph, Graph]]:
    rand = random.Random(20211117)
    graphs = [(spec.family, generate(spec)) for spec in NAMED]
    graphs += [
        (f"random_{i}", random_connected_graph(rand, rand.randint(5, 10), extra=0.2))
        for i in range(5)
    ]
    graphs.append(("hub_tail_8", hub_tail(8)))  # CFS's path depends on its start here
    return [(name, g, relabel(g, rand)) for name, g in graphs]


CASES = _cases()


@pytest.mark.parametrize("name,g,h", CASES, ids=[c[0] for c in CASES])
def test_relabelling_keeps_constants_and_verdict(name, g, h):
    a, b = least_doubling(g), least_doubling(h)
    assert abs(a.c_g - b.c_g) <= 1e-9
    assert abs(a.lower_bound_spectral - b.lower_bound_spectral) <= 1e-12
    assert a.lemachorra()["equal"] == b.lemachorra()["equal"]
    assert sorted(Counter(a.classes).values()) == sorted(Counter(b.classes).values())
    assert classify_leq3(g).verdict == classify_leq3(h).verdict


def test_relabelling_keeps_batch_rows(tmp_path, capsys):
    rows = []
    for column in (1, 2):  # original graphs, then their relabellings
        path = tmp_path / f"graphs{column}.g6"
        path.write_text("".join(write_graph6(case[column]) + "\n" for case in CASES))
        assert main(["batch", "--input", str(path)]) == EXIT_OK
        rows.append(json.loads(capsys.readouterr().out)["rows"])
    original, relabelled = rows
    assert len(original) == len(relabelled) == len(CASES)
    for r, s in zip(original, relabelled):
        for key in ("index", "n", "diam", "lemachorra_equal"):
            assert r[key] == s[key]
        for key in ("c0", "c_g", "gap"):
            assert s[key] == pytest.approx(r[key], abs=1e-9)


def test_relabelling_hub_tail_100_keeps_the_run_under_the_lp_cap():
    # cold solves hit the cap (SizeCapError, exit 3) on two of these labellings
    g = hub_tail(100)
    results = [least_doubling(h) for h in [g] + [relabel(g, random.Random(s)) for s in range(6)]]
    for res in results:
        assert res.method_notes["lp_solves"] < LP_SOLVE_CAP
    c_g = [res.c_g for res in results]
    assert max(c_g) - min(c_g) <= DEFAULT_BISECT_TOL
