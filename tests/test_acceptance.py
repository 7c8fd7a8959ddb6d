"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` (or `dublo verify` for the
CLI flavor of the constants table).  Tolerances are pinned here, not tuned:
eps_c = 1e-6 on constants unless a criterion states its own.
"""

import math
import operator
import random
from fractions import Fraction

from dublo import (
    FeasibilityProblem,
    Graph,
    Measure,
    check_lemachorra,
    classify_leq3,
    counting_measure,
    distances,
    doubling_report,
    generate,
    least_doubling,
    perron,
    poly_largest_root,
    truncation_study,
)
from dublo.families import E8_RATIO_POLY, THREE_LEGS_POLY, FamilySpec, catalog
from dublo.symmetry import automorphisms

from oracles import brute_force_details, chromatic_number, mediant_max, symmetrize
from util import (
    all_trees,
    connected_graphs_exactly,
    random_connected_graph,
    random_int_measure,
)

EPS_C = 1e-6


def _report(num: int, ok: bool, detail: str) -> None:
    flag = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {flag}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cg(spec: FamilySpec, **kw) -> float:
    return least_doubling(generate(spec), **kw).c_g


def test_criterion_01_closed_form_constants():
    bad = []

    def expect(label, measured, expected):
        if abs(measured - expected) > EPS_C:
            bad.append((label, measured, expected))

    for n in range(3, 9):
        expect(f"K_{n}", _cg(FamilySpec("complete", n=n)), float(n))
    for n in range(2, 10):
        expect(f"S_{n}", _cg(FamilySpec("star", n=n)), 1 + math.sqrt(n))
    for n in range(3, 13):
        expect(f"C_{n}", _cg(FamilySpec("cycle", n=n)), 3.0)
    for m, n in ((1, 2), (2, 3), (3, 3), (2, 5)):
        expect(
            f"K_{m},{n}",
            _cg(FamilySpec("complete_bipartite", m=m, n=n)),
            1 + math.sqrt(m * n),
        )
    for n in range(5, 11):
        expect(f"W_{n}", _cg(FamilySpec("wheel", n=n)), 2 + math.sqrt(n))
    for n in range(1, 6):
        expect(
            f"F_{n}",
            _cg(FamilySpec("friendship", n=n)),
            1 + 0.5 * (1 + math.sqrt(1 + 8 * n)),
        )
    for n in range(2, 6):
        expect(f"cocktail_{n}", _cg(FamilySpec("cocktail_party", n=n)), float(2 * n - 1))
    expect("petersen", _cg(FamilySpec("petersen")), 4.0)
    expect("hoffman_singleton", _cg(FamilySpec("hoffman_singleton")), 8.0)
    _report(1, not bad, f"closed-form constants, 41 graphs within {EPS_C:g} {bad or ''}")


def test_criterion_02_three_legs():
    value = _cg(FamilySpec("three_legs"))
    root = poly_largest_root(THREE_LEGS_POLY)
    ok = abs(value - (1 + root)) <= 1e-6 and abs(value - 3.0861) <= 1e-4
    _report(2, ok, f"three-legs C = {value:.9f} vs 1 + root = {1 + root:.9f}")


def test_criterion_03_doyle_exact():
    g = generate(FamilySpec("doyle"))
    res = least_doubling(g, certificate=True)
    counting = doubling_report(g, mu=counting_measure(g))
    values = [p.value for p in counting.per_k]
    ok = (
        res.c_g_exact == Fraction(27, 5)
        and counting.c_mu == Fraction(27, 5)
        and set(values) == {Fraction(5), Fraction(27, 5)}
    )
    _report(3, ok, f"doyle certificate {res.c_g_exact}, counting max{{27/5, 5}} = {counting.c_mu}")


def test_criterion_04_e8_bound_and_e6_e7_strict():
    root = poly_largest_root(E8_RATIO_POLY)
    e8 = _cg(FamilySpec("e8"))
    ok = abs(root - 3.02058) <= 1e-4 and e8 >= root - 1e-4
    strict = {}
    for fam in ("e6", "e7"):
        res = least_doubling(generate(FamilySpec(fam)), certificate=True)
        strict[fam] = res.certificate.t
        ok = ok and res.certificate.t < 3 - Fraction(1, 10**9)
    _report(
        4,
        ok,
        f"E8 value {e8:.6f} >= {root:.6f} - 1e-4; "
        f"E6 cert {float(strict['e6']):.6f} and E7 cert {float(strict['e7']):.6f} < 3 - 1e-9",
    )


def test_criterion_05_smith_spectral_table():
    worst = 0.0

    def check(spec, expected):
        nonlocal worst
        worst = max(worst, abs(perron(generate(spec)).c0 - expected))

    for n in range(1, 31):
        check(FamilySpec("path", n=n), 1 + 2 * math.cos(math.pi / (n + 1)))
    for n in range(4, 31):
        check(FamilySpec("d_n", n=n), 1 + 2 * math.cos(math.pi / (2 * (n - 1))))
    check(FamilySpec("e6"), 1 + 2 * math.cos(math.pi / 12))
    check(FamilySpec("e7"), 1 + 2 * math.cos(math.pi / 18))
    check(FamilySpec("e8"), 1 + 2 * math.cos(math.pi / 30))
    for n in range(3, 31):
        check(FamilySpec("cycle", n=n), 3.0)
    for n in range(5, 31):
        check(FamilySpec("d_hat_n", n=n), 3.0)
    for fam in ("e6_hat", "e7_hat", "e8_hat"):
        check(FamilySpec(fam), 3.0)
    _report(5, worst <= 1e-9, f"Smith c0 table, worst deviation {worst:.2e} <= 1e-9")


def test_criterion_06_path_threshold():
    ok = True
    gaps = {}
    for n in range(2, 13):
        rec = check_lemachorra(generate(FamilySpec("path", n=n)))
        gap = rec["c_mu0_full"] - rec["c0"]
        gaps[n] = gap
        ok = ok and ((gap <= 1e-7) if n <= 8 else (gap > 1e-4))
    _report(
        6,
        ok,
        f"lemachorra equality iff n <= 8 (gap at n=8: {gaps[8]:.1e}, at n=9: {gaps[9]:.2e})",
    )


def _random_diam2_graph(rand: random.Random):
    while True:
        n = rand.randint(4, 12)
        g = random_connected_graph(rand, n, extra=rand.uniform(0.35, 0.7))
        if distances(g).diam == 2:
            return g


def test_criterion_07_diameter2_law():
    rand = random.Random(20260810)
    checked = 0
    ok = True
    for _ in range(200):
        g = _random_diam2_graph(rand)
        for _ in range(5):
            mu = random_int_measure(rand, g.n, hi=50)
            report = doubling_report(g, mu=mu)
            ok = ok and report.c_mu == report.per_k[0].value  # exact equality
            checked += 1
    _report(7, ok and checked == 1000, f"C_mu = C_mu^0 exactly on {checked} diam-2 cases")


def test_criterion_08_oracle_equivalence():
    worst = -1.0
    count = 0
    ok = True
    for n in range(1, 6):
        for g in connected_graphs_exactly(n):
            bf = brute_force_details(g, 200)
            lp = least_doubling(g)
            gap = bf.c_g - lp.c_g
            ok = ok and (-1e-8 <= gap <= bf.grid_error + 1e-6)
            worst = max(worst, gap - bf.grid_error)
            count += 1
    _report(
        8,
        ok and count == 31,
        f"grid oracle vs optimizer on {count} graphs (<=5 vertices), resolution 200",
    )


def test_criterion_09_property_suites():
    rand = random.Random(987)
    ok = True

    # mediant inequality with its equality condition, 500 cases
    for _ in range(500):
        k = rand.randint(1, 10)
        pairs = [(rand.randint(1, 999), rand.randint(1, 999)) for _ in range(k)]
        value, mediant, equal = mediant_max(pairs)
        ok = ok and mediant <= value
        ok = ok and equal == (len({Fraction(a, b) for a, b in pairs}) == 1)

    # symmetrization never increases any restricted constant, 500 cases
    for _ in range(500):
        g = random_connected_graph(rand, rand.randint(2, 8))
        auts = automorphisms(g)
        subset = rand.sample(auts, rand.randint(1, len(auts)))
        mu = random_int_measure(rand, g.n)
        before = doubling_report(g, mu=mu)
        after = doubling_report(g, mu=symmetrize(mu, subset))
        ok = ok and all(a.value <= b.value for b, a in zip(before.per_k, after.per_k))

    # convexity: sum of measures never beats the worse part, 500 cases
    for _ in range(500):
        g = random_connected_graph(rand, rand.randint(2, 9))
        m1, m2 = random_int_measure(rand, g.n), random_int_measure(rand, g.n)
        r1 = doubling_report(g, mu=m1)
        r2 = doubling_report(g, mu=m2)
        rs = doubling_report(g, mu=Measure(tuple(map(operator.add, m1.weights, m2.weights))))
        ok = ok and all(
            s.value <= max(a.value, b.value)
            for a, b, s in zip(r1.per_k, r2.per_k, rs.per_k)
        )

    # feasibility is monotone in t, 500 cases
    for _ in range(500):
        g = random_connected_graph(rand, rand.randint(2, 6))
        problem = FeasibilityProblem(g)
        t = rand.uniform(1.6, 4.5)
        if problem.check(t) is not None:
            ok = ok and problem.check(t + rand.uniform(0.05, 1.5)) is not None

    # strict C0 monotonicity on 100 proper-subgraph pairs
    pairs_checked = 0
    while pairs_checked < 100:
        g = random_connected_graph(rand, rand.randint(3, 12), extra=0.35)
        sub = None
        if g.m > g.n - 1:
            edges = g.edges()
            rand.shuffle(edges)
            for e in edges:
                remaining = [x for x in g.edges() if x != e]
                try:
                    sub = Graph.from_edges(g.n, remaining)
                    break
                except Exception:
                    continue
        if sub is None:
            leaf = next((v for v in range(g.n) if g.degree(v) == 1), None)
            if leaf is None:
                continue
            keep = [v for v in range(g.n) if v != leaf]
            relabel = {v: i for i, v in enumerate(keep)}
            sub = Graph.from_edges(
                g.n - 1,
                [(relabel[u], relabel[v]) for u, v in g.edges() if leaf not in (u, v)],
            )
        ok = ok and perron(sub).radius < perron(g).radius
        pairs_checked += 1

    # chromatic number bounded by c0 across the catalog
    for name, g in catalog():
        ok = ok and chromatic_number(g) <= perron(g).c0 + 1e-9

    _report(9, ok, "mediant/symmetrization/convexity/monotone-feasibility (500 each), "
                   "100 subgraph pairs, chromatic bound on catalog")


def test_criterion_10_truncation_studies():
    c0s = [perron(generate(FamilySpec("path", n=n))).c0 for n in range(2, 65)]
    ok = all(b > a for a, b in zip(c0s, c0s[1:]))
    ok = ok and c0s[-1] > 2.99 and all(c <= 3 + 1e-9 for c in c0s)

    records = truncation_study("grid_ray", [2, 8], cap=2000)  # depth 8 has 1326 vertices
    r2, r8 = records
    # frozen BFS counts: 32/5 at k=2, 206/17 at k=8 for the (2k+1, k) pair
    ok = ok and r2["counting_ratio"] == Fraction(32, 5)
    ok = ok and r8["counting_ratio"] == Fraction(206, 17)
    ok = ok and r8["counting_ratio"] > r2["counting_ratio"]
    # doubling-pair ratio B(2k)/B(k) grows by a factor >= 2 from k=2 to k=8
    ok = ok and r8["counting_ratio_2r"] >= 2 * r2["counting_ratio_2r"]
    _report(
        10,
        ok,
        f"path c0 monotone to {c0s[-1]:.5f}; grid_ray ratios "
        f"{float(r2['counting_ratio']):.3f} -> {float(r8['counting_ratio']):.3f} "
        f"(doubling pair {float(r2['counting_ratio_2r']):.3f} -> "
        f"{float(r8['counting_ratio_2r']):.3f}, factor >= 2)",
    )


def test_criterion_11_classification_sweep():
    ok = True
    count = 0
    for n in range(1, 10):
        for g in all_trees(n):
            res = least_doubling(g)
            verdict = classify_leq3(g).verdict
            if res.c_g < 3 - 1e-6:
                agrees = verdict == "leq3_strict"
            elif res.c_g > 3 + 1e-6:
                agrees = verdict == "gt3"
            else:
                agrees = verdict == "eq3"
            ok = ok and agrees
            count += 1
    for n in range(3, 13):
        g = generate(FamilySpec("cycle", n=n))
        res = least_doubling(g)
        ok = ok and classify_leq3(g).verdict == "eq3" and abs(res.c_g - 3) <= 1e-6
        count += 1
    _report(11, ok, f"classifier vs optimizer on {count} instances (trees <= 9 + cycles <= 12)")
