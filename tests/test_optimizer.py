"""Feasibility oracle, bisection, certificates, brute force, polynomial roots."""

import math
import random
import time
from fractions import Fraction

import pytest

from dublo import (
    FeasibilityProblem,
    Measure,
    SizeCapError,
    ValidationError,
    brute_force_cg,
    brute_force_details,
    check_lemachorra,
    counting_measure,
    distances,
    doubling_report,
    feasible,
    generate,
    is_vertex_transitive,
    least_doubling,
    poly_largest_root,
)
from dublo.families import E8_RATIO_POLY, THREE_LEGS_POLY, FamilySpec

from util import G10, connected_graphs_exactly, random_connected_graph

THREE_LEGS_ROOT = 2.086130197651494  # largest zero of x^3 + x^2 - 5x - 3


def test_feasible_k2_at_2():
    g = generate(FamilySpec("complete", n=2))
    mu = feasible(g, distances(g), t=2.0)
    assert mu is not None
    assert min(mu.weights) == pytest.approx(1.0)


def test_feasible_c6_below_3_rejected():
    g = generate(FamilySpec("cycle", n=6))
    assert feasible(g, distances(g), t=2.9) is None


def test_feasible_c6_at_3_uniform():
    g = generate(FamilySpec("cycle", n=6))
    dt = distances(g)
    mu = feasible(g, dt, t=3.0)
    assert mu is not None
    report = doubling_report(g, dt, mu)
    assert float(report.c_mu) <= 3.0 + 1e-9
    # uniform weights satisfy all 12 constraints at t = 3 (direct verification)
    uniform = doubling_report(g, dt, counting_measure(g))
    assert uniform.c_mu == Fraction(3)


def test_feasible_rejects_t_below_1():
    g = generate(FamilySpec("complete", n=2))
    with pytest.raises(ValidationError):
        feasible(g, distances(g), t=0.5)


def test_feasibility_problem_constraint_count():
    g = generate(FamilySpec("three_legs"))
    problem = FeasibilityProblem(g, distances(g))
    assert problem.constraint_count == 7 * 3
    assert problem.k_max == 2
    assert problem.reduced_rows == 7 * 3


def test_feasibility_problem_orbit_reduction_rows():
    from dublo import orbit_partition

    g = generate(FamilySpec("three_legs"))
    problem = FeasibilityProblem(g, distances(g), orbit_partition(g).orbit_of)
    assert problem.n_vars == 3
    assert problem.reduced_rows == 3 * 3
    assert problem.constraint_count == 7 * 3  # full count unchanged
    mu = problem.check(3.2)
    assert mu is not None and len(mu) == 7  # expanded back to vertices


def test_monotone_feasibility_random():
    rand = random.Random(42)
    for _ in range(30):
        g = random_connected_graph(rand, rand.randint(2, 7))
        dt = distances(g)
        problem = FeasibilityProblem(g, dt)
        t = rand.uniform(1.5, 5.0)
        t2 = t + rand.uniform(0.01, 2.0)
        if problem.check(t) is not None:
            assert problem.check(t2) is not None


def test_least_doubling_k5():
    res = least_doubling(generate(FamilySpec("complete", n=5)))
    assert res.c_g == pytest.approx(5.0, abs=1e-9)
    assert res.method_notes["diam2_shortcut"]


def test_least_doubling_three_legs():
    res = least_doubling(generate(FamilySpec("three_legs")))
    assert res.c_g == pytest.approx(1 + THREE_LEGS_ROOT, abs=1e-6)
    assert res.c_g == pytest.approx(3.0861, abs=1e-4)
    assert res.bracket[1] - res.bracket[0] <= 1e-9
    assert res.lower_bound_spectral == pytest.approx(3.0, abs=1e-10)


def test_least_doubling_k23():
    res = least_doubling(generate(FamilySpec("complete_bipartite", m=2, n=3)))
    assert res.c_g == pytest.approx(1 + math.sqrt(6), abs=1e-9)
    assert res.c_g == pytest.approx(3.449490, abs=1e-6)


def test_least_doubling_doyle_certificate_exact():
    res = least_doubling(generate(FamilySpec("doyle")), certificate=True)
    assert res.c_g == pytest.approx(5.4, abs=1e-9)
    assert res.c_g_exact == Fraction(27, 5)
    assert res.certificate is not None
    assert res.certificate.c_mu_exact == Fraction(27, 5)
    assert res.method_notes["vertex_transitive"]


def test_single_class_without_transitivity_is_exact():
    # one refinement class but two Aut orbits: every ball size is still
    # vertex-independent, so the counting measure is optimal
    assert not is_vertex_transitive(G10)
    res = least_doubling(G10, certificate=True)
    assert set(res.classes) == {0}
    assert res.c_g_exact == 5
    assert res.certificate is not None and res.certificate.c_mu_exact == 5


def test_single_class_above_orbit_search_cap():
    g = generate(FamilySpec("cycle", n=260))
    start = time.perf_counter()
    res = least_doubling(g)
    assert time.perf_counter() - start < 2.0
    assert res.c_g_exact == 3
    assert res.method_notes["orbit_count"] == 1


def test_three_legs_explicit_optimal_weights():
    # the known optimizing weights by vertex role, in terms of the cubic's root r:
    # leaves 1, mid vertices (1+r)/2, center (r^2 + r - 2)/2; they achieve 1 + r
    g = generate(FamilySpec("three_legs"))
    r = THREE_LEGS_ROOT
    by_degree = {1: 1.0, 2: (1 + r) / 2, 3: (r * r + r - 2) / 2}
    mu = Measure(tuple(by_degree[g.degree(v)] for v in range(7)))
    report = doubling_report(g, distances(g), mu)
    assert float(report.c_mu) == pytest.approx(1 + r, abs=1e-9)


def test_bracket_low_end_is_infeasible_or_spectral():
    for spec in (FamilySpec("three_legs"), FamilySpec("e8"), FamilySpec("cycle", n=7)):
        g = generate(spec)
        dt = distances(g)
        res = least_doubling(g)
        t_lo = res.bracket[0]
        if abs(t_lo - res.lower_bound_spectral) > 1e-12:
            assert FeasibilityProblem(g, dt).check(t_lo) is None, spec


def test_sandwich_invariant():
    rand = random.Random(5150)
    for _ in range(12):
        g = random_connected_graph(rand, rand.randint(2, 8))
        res = least_doubling(g)
        assert res.c_g >= res.lower_bound_spectral - 1e-9
        assert float(res.minimizer_report.c_mu) <= res.bracket[1] + 1e-9
        assert min(res.minimizer.weights) > 0


def test_minimizer_sum_stays_optimal():
    # two routes to a minimizer; their sum must again be (near-)minimal
    g = generate(FamilySpec("three_legs"))
    dt = distances(g)
    a = least_doubling(g, orbit_reduction=True).minimizer
    b = least_doubling(g, orbit_reduction=False).minimizer
    combined = Measure(tuple(x + y for x, y in zip(a.weights, b.weights)))
    c_g = least_doubling(g).c_g
    assert float(doubling_report(g, dt, combined).c_mu) <= c_g + 1e-8


def test_diam2_shortcut_agrees_with_forced_bisection():
    for spec in (
        FamilySpec("wheel", n=7),
        FamilySpec("friendship", n=3),
        FamilySpec("star", n=5),
        FamilySpec("complete_bipartite", m=2, n=4),
        FamilySpec("petersen"),
    ):
        g = generate(spec)
        short = least_doubling(g)
        forced = least_doubling(g, force_bisection=True)
        assert short.method_notes["diam2_shortcut"]
        assert not forced.method_notes["diam2_shortcut"]
        assert abs(short.c_g - forced.c_g) <= 1e-8, spec


def test_certificate_e6_e7_below_3():
    for fam in ("e6", "e7"):
        res = least_doubling(generate(FamilySpec(fam)), certificate=True)
        cert = res.certificate
        assert cert is not None
        assert cert.c_mu_exact < 3 - Fraction(1, 10**9)
        assert all(s >= 0 for s in cert.slacks)
        assert all(w >= 1 for w in cert.measure.weights)


def test_exact_simplex_sharp_at_d_hat_boundary():
    # C = 3 exactly here, so rational feasibility flips exactly at t = 3
    for n in (5, 6, 9):
        g = generate(FamilySpec("d_hat_n", n=n))
        problem = FeasibilityProblem(g, distances(g))
        at_3 = problem.check_exact(Fraction(3))
        assert at_3 is not None
        mu, slacks = at_3
        assert all(s >= 0 for s in slacks)
        assert doubling_report(g, distances(g), mu).c_mu <= Fraction(3)
        assert problem.check_exact(Fraction(3) - Fraction(1, 10**6)) is None


def test_exact_simplex_cycle_boundary():
    g = generate(FamilySpec("cycle", n=8))
    problem = FeasibilityProblem(g, distances(g))
    assert problem.check_exact(Fraction(3)) is not None
    assert problem.check_exact(Fraction(29999, 10000)) is None


def test_exact_and_float_routes_agree_off_boundary():
    rand = random.Random(60042)
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(2, 6))
        dt = distances(g)
        c = least_doubling(g).c_g
        problem = FeasibilityProblem(g, dt)
        above = Fraction(c + 0.01).limit_denominator(10**6)
        exact = problem.check_exact(above)
        assert exact is not None
        mu, slacks = exact
        assert min(slacks) >= 0
        if c - 0.01 > 1.0:
            below = Fraction(c - 0.01).limit_denominator(10**6)
            assert problem.check_exact(below) is None
            assert problem.check(float(below)) is None


def test_certificate_exact_measure_verifies():
    res = least_doubling(generate(FamilySpec("three_legs")), certificate=True)
    cert = res.certificate
    g = generate(FamilySpec("three_legs"))
    report = doubling_report(g, distances(g), cert.measure)
    assert report.c_mu == cert.c_mu_exact
    assert cert.c_mu_exact <= cert.t


# ---------------------------------------------------------------- lemachorra


def test_lemachorra_wheel_equal():
    rec = check_lemachorra(generate(FamilySpec("wheel", n=7)))
    assert rec["equal"]


def test_lemachorra_three_legs_not_equal():
    rec = check_lemachorra(generate(FamilySpec("three_legs")))
    assert not rec["equal"]
    assert rec["c_mu0_full"] >= 10 / 3 - 1e-9


def test_lemachorra_path9_not_equal():
    rec = check_lemachorra(generate(FamilySpec("path", n=9)))
    assert not rec["equal"]


def test_lemachorra_path_threshold():
    for n in range(2, 13):
        rec = check_lemachorra(generate(FamilySpec("path", n=n)))
        assert rec["equal"] == (n <= 8), n


# ---------------------------------------------------------------- brute force


def test_brute_force_k3():
    value = brute_force_cg(generate(FamilySpec("complete", n=3)), 100)
    assert value == pytest.approx(3.0, abs=1e-9)


def test_brute_force_k2():
    assert brute_force_cg(generate(FamilySpec("complete", n=2)), 50) == pytest.approx(2.0)


def test_brute_force_s3():
    details = brute_force_details(generate(FamilySpec("star", n=3)), 200)
    expected = 1 + math.sqrt(3)
    assert details.c_g == pytest.approx(expected, abs=details.grid_error + 1e-9)
    assert details.c_g >= expected - 1e-9  # grid values upper-bound the optimum


def test_brute_force_cap():
    with pytest.raises(SizeCapError):
        brute_force_cg(generate(FamilySpec("cycle", n=6)), 10)


def test_brute_force_symmetric_matches_raw():
    for g in connected_graphs_exactly(4):
        sym = brute_force_details(g, 60, symmetric=True)
        raw = brute_force_details(g, 60, symmetric=False)
        assert abs(sym.c_g - raw.c_g) <= sym.grid_error + raw.grid_error


def test_oracle_agreement_small():
    rand = random.Random(777)
    for n in (1, 2, 3, 4):
        for g in connected_graphs_exactly(n):
            details = brute_force_details(g, 120)
            lp = least_doubling(g)
            assert details.c_g >= lp.c_g - 1e-8
            assert details.c_g - lp.c_g <= details.grid_error + 1e-6


# ---------------------------------------------------------------- roots


def test_poly_root_three_legs():
    root = poly_largest_root(THREE_LEGS_POLY)
    assert root == pytest.approx(THREE_LEGS_ROOT, abs=1e-11)
    assert root == pytest.approx(2.086130, abs=1e-6)


def test_poly_root_e8():
    root = poly_largest_root(E8_RATIO_POLY)
    assert root == pytest.approx(3.02058, abs=1e-5)
    # independent oracle: numpy companion-matrix roots
    import numpy as np

    candidates = [z.real for z in np.roots(E8_RATIO_POLY) if abs(z.imag) < 1e-9]
    assert root == pytest.approx(max(candidates), abs=1e-10)


def test_poly_root_quadratic():
    assert poly_largest_root((1.0, 0.0, -1.0)) == pytest.approx(1.0, abs=1e-12)


def test_poly_root_errors():
    with pytest.raises(ValidationError):
        poly_largest_root((0.0, 1.0))
    with pytest.raises(ValidationError):
        poly_largest_root((1.0, 0.0, 1.0))  # x^2 + 1 has no real root


def test_e8_value_against_poly_bound():
    res = least_doubling(generate(FamilySpec("e8")))
    bound = poly_largest_root(E8_RATIO_POLY)
    assert res.c_g >= bound - 1e-4
