"""Feasibility oracle, the CFS iteration, certificates, brute force, polynomial roots."""

import importlib
import inspect
import math
import pkgutil
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dublo import (
    FeasibilityProblem,
    Measure,
    SizeCapError,
    SolverError,
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
    orbit_partition,
    perron_measure,
    poly_largest_root,
)
import dublo
from dublo import optimizer
from dublo.doubling import _masses_and_report
from dublo.families import E8_RATIO_POLY, THREE_LEGS_POLY, FamilySpec, catalog

from util import (
    G10,
    connected_graphs_exactly,
    distance_classes_by_rows,
    hub_tail,
    random_connected_graph,
    random_tree,
    relabel,
    row_tables,
)

THREE_LEGS_ROOT = 2.086130197651494  # largest zero of x^3 + x^2 - 5x - 3


def test_feasible_k2_at_2():
    g = generate(FamilySpec("complete", n=2))
    mu = feasible(g, t=2.0)
    assert mu is not None
    assert min(mu.weights) == pytest.approx(1.0)


def test_feasible_c6_below_3_rejected():
    g = generate(FamilySpec("cycle", n=6))
    assert feasible(g, t=2.9) is None


def test_feasible_c6_at_3_uniform():
    g = generate(FamilySpec("cycle", n=6))
    mu = feasible(g, t=3.0)
    assert mu is not None
    report = doubling_report(g, mu=mu)
    assert float(report.c_mu) <= 3.0 + 1e-9
    # uniform weights satisfy all 12 constraints at t = 3 (direct verification)
    uniform = doubling_report(g, mu=counting_measure(g))
    assert uniform.c_mu == Fraction(3)


def test_no_entry_point_takes_a_distance_table():
    # the table is always the graph's own, from distances(g): no public
    # function or method of any module takes one
    taking = []
    for info in pkgutil.iter_modules(dublo.__path__):
        module = importlib.import_module(f"dublo.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                keys = [key for key in vars(obj) if key == "__init__" or key[0] != "_"]
                members = [getattr(obj, key) for key in keys]
            for fn in filter(inspect.isroutine, members):
                for param in inspect.signature(fn).parameters.values():
                    if param.name == "dt" or "DistanceTable" in str(param.annotation):
                        taking.append(f"{module.__name__}.{fn.__qualname__}({param.name})")
    assert taking == []
    assert inspect.signature(feasible).parameters["t"].kind is inspect.Parameter.KEYWORD_ONLY


def test_feasible_rejects_t_below_1():
    g = generate(FamilySpec("complete", n=2))
    with pytest.raises(ValidationError):
        feasible(g, t=0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_t_is_rejected(t):
    g = generate(FamilySpec("three_legs"))
    with pytest.raises(ValidationError, match="finite"):
        feasible(g, t=t)
    with pytest.raises(ValidationError, match="finite"):
        FeasibilityProblem(g).check(t)


def test_highs_binding_exposes_the_names_check_uses():
    # a private scipy module: pin every name the solve reads
    _core = optimizer._highs_binding()
    from scipy.optimize._highspy import _core as by_name

    assert _core is by_name  # one module, however it was first loaded
    assert isinstance(_core.kHighsInf, float) and _core.kHighsInf == math.inf
    assert _core.MatrixFormat.kColwise is not None  # read by passModel's array overload
    assert _core.ObjSense.kMinimize is not None
    assert _core.HighsModelStatus.kOptimal is not None
    assert _core.HighsStatus.kError is not None
    highs = _core._Highs()
    for method in ("setOptionValue", "passModel", "run", "getModelStatus", "modelStatusToString",
                   "getObjectiveValue", "getSolution"):
        assert callable(getattr(highs, method)), method


def _solve_through_highs_lp(problem: FeasibilityProblem, a: np.ndarray) -> tuple[float, np.ndarray]:
    """``FeasibilityProblem._solve``'s LP, handed to HiGHS as a ``HighsLp`` object."""
    _core = optimizer._highs_binding()
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("primal_feasibility_tolerance", 1e-10)
    highs.setOptionValue("dual_feasibility_tolerance", 1e-10)
    m, nv = a.shape
    matrix = np.zeros((nv + 1, m + 1))
    matrix[:nv, :m] = a.T
    matrix[:nv, m] = problem.var_sizes
    matrix[nv, :m] = -1.0
    inf = _core.kHighsInf
    lp = _core.HighsLp()
    lp.num_col_, lp.num_row_ = nv + 1, m + 1
    lp.col_cost_ = np.append(np.zeros(nv), 1.0)
    lp.col_lower_ = np.append(np.zeros(nv), -inf)
    lp.col_upper_ = np.full(nv + 1, inf)
    lp.row_lower_ = np.append(np.full(m, -inf), 1.0)
    lp.row_upper_ = np.append(np.zeros(m), 1.0)
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = nv + 1, m + 1
    lp.a_matrix_.start_ = np.arange(0, (m + 1) * (nv + 2), m + 1)
    lp.a_matrix_.index_ = np.tile(np.arange(m + 1), nv + 1)
    lp.a_matrix_.value_ = matrix.ravel()
    assert highs.passModel(lp) != _core.HighsStatus.kError
    highs.run()
    assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal
    return highs.getObjectiveValue(), np.array(highs.getSolution().col_value[:nv])


def test_array_handoff_matches_a_highs_lp_bit_for_bit(monkeypatch):
    # the same model passed as arrays or as a HighsLp object gives the same answer
    solve = FeasibilityProblem._solve
    lps = []  # (problem, scaled row matrix, value, weights) of every LP least_doubling solves

    def recorded(self, a):
        value, w = solve(self, a)
        lps.append((self, a.copy(), value, w))
        return value, w

    monkeypatch.setattr(FeasibilityProblem, "_solve", recorded)
    rand = random.Random(15)
    for _ in range(20):
        least_doubling(random_connected_graph(rand, rand.randint(8, 24), extra=0.1))
    assert len(lps) >= 40
    for problem, a, value, w in lps:
        ref_value, ref_w = _solve_through_highs_lp(problem, a)
        assert value == ref_value
        assert np.array_equal(w, ref_w)


def test_unusable_lp_coefficient_is_a_solver_error():
    # HiGHS drops a NaN coefficient without a word, and after refusing a model
    # (an entry of 1e15 or more) it would still report the previous answer
    problem = FeasibilityProblem(generate(FamilySpec("three_legs")))
    assert problem.check(3.2) is not None
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="finite"):
            problem.check(3.2, scale=np.zeros(problem.n_vars))  # 0/0 and -x/0 rows
    den, num = problem.rows(np.arange(problem.reduced_rows))
    a = num - 3.2 * den
    for bad, reason in ((math.nan, "finite"), (math.inf, "finite"), (1e15, "rejected")):
        a[0, 0] = bad
        with pytest.raises(SolverError, match=reason):
            problem._solve(a)


def test_highs_binding_matches_linprog(monkeypatch):
    # linprog, scipy's public HiGHS route, is the independent reference
    from scipy.optimize import linprog

    solve = FeasibilityProblem._solve
    lps = []  # (problem, scaled row matrix, value) of every LP least_doubling solves

    def recorded(self, a):
        value, w = solve(self, a)
        lps.append((self, a.copy(), value))
        return value, w

    monkeypatch.setattr(FeasibilityProblem, "_solve", recorded)
    rand = random.Random(2024)
    for _ in range(20):
        least_doubling(random_connected_graph(rand, rand.randint(8, 20), extra=0.1))
    least_doubling(hub_tail(8))
    assert len(lps) >= 40
    for problem, a, value in lps:
        m, nv = a.shape
        ref = linprog(
            np.append(np.zeros(nv), 1.0),
            A_ub=np.hstack([a, -np.ones((m, 1))]),
            b_ub=np.zeros(m),
            A_eq=np.append(problem.var_sizes, 0.0)[None, :],
            b_eq=[1.0],
            bounds=[(0, None)] * nv + [(None, None)],
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert ref.status == 0
        assert (ref.fun > optimizer._FEAS_EPS) == (value > optimizer._FEAS_EPS)
        assert abs(ref.fun - value) <= 1e-12


def _spoil_cone(a, w):
    return np.where(w == w.min(), 0.0, w)


def _spoil_ratio(a, w):
    # a positive entry of a: the row's ratio under a large weight there exceeds t
    spoiled = w.copy()
    spoiled[np.unravel_index(a.argmax(), a.shape)[1]] += 1e6 * w.max()
    return spoiled


@pytest.mark.parametrize("spoil, reason", [(_spoil_cone, "cone boundary"),
                                           (_spoil_ratio, "direct ratio exceeds t")])
def test_refused_lp_answer_is_an_error_not_a_lower_end(monkeypatch, capsys, spoil, reason):
    # an accepted LP answer that fails the re-checks is no evidence of
    # infeasibility: least_doubling stops with exit 4 instead of making t_lo = t
    from dublo.cli import EXIT_SOLVER, main

    solve = FeasibilityProblem._solve

    def spoiled(self, a):
        value, w = solve(self, a)
        return value, spoil(a, w)

    monkeypatch.setattr(FeasibilityProblem, "_solve", spoiled)
    g = generate(FamilySpec("three_legs"))
    problem = FeasibilityProblem(g)
    with pytest.raises(SolverError, match=reason):
        problem.check(3.2)
    with pytest.raises(SolverError, match=rf"t = .*{reason}"):
        least_doubling(g)
    assert main(["compute", "--family", "three_legs"]) == EXIT_SOLVER
    assert reason in capsys.readouterr().err


def test_distance_classes_match_the_row_unique_reference():
    # the byte-keyed refinement groups and numbers exactly as np.unique(axis=0) does
    rand = random.Random(1515)
    graphs = [g for _, g in catalog()]
    graphs += [
        random_connected_graph(rand, rand.randint(5, 40), extra=rand.choice((0.0, 0.05, 0.2)))
        for _ in range(100)
    ]
    for g in graphs:
        for h in (g, relabel(g, rand)):
            dt = distances(h)
            assert optimizer._distance_classes(dt) == distance_classes_by_rows(dt.dist), h.edges()


def test_rows_match_the_full_table_reference():
    # rows built per id equal the full class-split tables, reduced or not
    rand = random.Random(1717)
    graphs = [g for _, g in catalog()]
    graphs += [
        random_connected_graph(rand, rand.randint(5, 30), extra=rand.choice((0.0, 0.05, 0.2)))
        for _ in range(50)
    ]
    for g in graphs:
        for h in (g, relabel(g, rand)):
            dt = distances(h)
            for classes in (optimizer._distance_classes(dt), tuple(range(h.n))):
                problem = FeasibilityProblem(h, classes)
                want = row_tables(dt.dist, dt.diam, classes)
                got = problem.rows(np.arange(problem.reduced_rows))
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), h.edges()


def test_row_masses_are_the_reference_rows_times_the_reduced_weights():
    rand = random.Random(1718)
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(5, 20), extra=0.1)
        dt = distances(g)
        classes = optimizer._distance_classes(dt)
        problem = FeasibilityProblem(g, classes)
        mu = perron_measure(g)
        x = np.array([mu[v] for v in problem.reps])
        got = problem.row_masses(_masses_and_report(g, dt, mu)[0])
        for a, table in zip(got, row_tables(dt.dist, dt.diam, classes)):
            assert a == pytest.approx(table @ x, rel=1e-13)


def test_feasibility_problem_constraint_count():
    g = generate(FamilySpec("three_legs"))
    problem = FeasibilityProblem(g)
    assert problem.constraint_count == 7 * 3
    assert problem.k_max == 2
    assert problem.reduced_rows == 7 * 3


def test_feasibility_problem_orbit_reduction_rows():
    from dublo import orbit_partition

    g = generate(FamilySpec("three_legs"))
    problem = FeasibilityProblem(g, orbit_partition(g).orbit_of)
    assert problem.n_vars == 3
    assert problem.reduced_rows == 3 * 3
    assert problem.constraint_count == 7 * 3  # full count unchanged
    mu = problem.check(3.2)
    assert mu is not None and len(mu) == 7  # expanded back to vertices


def test_monotone_feasibility_random():
    rand = random.Random(42)
    for _ in range(30):
        g = random_connected_graph(rand, rand.randint(2, 7))
        problem = FeasibilityProblem(g)
        t = rand.uniform(1.5, 5.0)
        t2 = t + rand.uniform(0.01, 2.0)
        if problem.check(t) is not None:
            assert problem.check(t2) is not None


def test_row_subset_answer_is_not_full_feasibility():
    # the radius-0 rows alone only ask A mu <= (t - 1) mu, feasible from C0 = 3,
    # while C_G = 3.0861; check answers for the rows it is given
    g = generate(FamilySpec("three_legs"))
    problem = FeasibilityProblem(g)
    radius0 = np.arange(problem.n_vars)
    mu = problem.check(3.05, radius0)
    assert mu is not None and len(mu) == 7
    assert float(doubling_report(g, mu=mu).c_mu) > 3.05
    assert problem.check(3.05) is None


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
    assert set(res.classes) == {0}


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
    assert set(res.classes) == {0}


def test_three_legs_explicit_optimal_weights():
    # the known optimizing weights by vertex role, in terms of the cubic's root r:
    # leaves 1, mid vertices (1+r)/2, center (r^2 + r - 2)/2; they achieve 1 + r
    g = generate(FamilySpec("three_legs"))
    r = THREE_LEGS_ROOT
    by_degree = {1: 1.0, 2: (1 + r) / 2, 3: (r * r + r - 2) / 2}
    mu = Measure(tuple(by_degree[g.degree(v)] for v in range(7)))
    report = doubling_report(g, mu=mu)
    assert float(report.c_mu) == pytest.approx(1 + r, abs=1e-9)


def test_bracket_low_end_is_infeasible_or_spectral():
    # the lower end comes from LPs on row subsets; the full system agrees
    graphs = [generate(FamilySpec(name)) for name in ("three_legs", "e8")]
    graphs += [generate(FamilySpec("cycle", n=7)), generate(FamilySpec("path", n=40)), hub_tail(8)]
    for i, g in enumerate(graphs):
        res = least_doubling(g)
        t_lo = res.bracket[0]
        if abs(t_lo - res.lower_bound_spectral) > 1e-12:
            assert FeasibilityProblem(g).check(t_lo) is None, i


def test_sandwich_invariant():
    rand = random.Random(5150)
    for _ in range(12):
        g = random_connected_graph(rand, rand.randint(2, 8))
        res = least_doubling(g)
        assert res.c_g >= res.lower_bound_spectral - 1e-9
        assert float(res.minimizer_report.c_mu) <= res.bracket[1] + 1e-9
        assert min(res.minimizer.weights) > 0
        if distances(g).diam <= 2 or set(res.classes) == {0}:
            assert res.method_notes["lp_solves"] == 0


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_bracket_is_at_most_tol_wide_in_floats(tol):
    rand = random.Random(int(-math.log10(tol)))
    graphs = [random_connected_graph(rand, rand.randint(5, 14), extra=0.15) for _ in range(12)]
    for g in graphs + [generate(FamilySpec("three_legs")), hub_tail(6)]:
        res = least_doubling(g, tol)
        lo, hi = res.bracket
        assert hi - lo <= tol
        assert lo >= res.lower_bound_spectral
        assert float(doubling_report(g, mu=res.minimizer).c_mu) <= hi == res.c_g


def _counting_solves(monkeypatch):
    """Record the row count of every LP that FeasibilityProblem.check solves."""
    rows = []
    check = FeasibilityProblem.check

    def counted(self, t, subset=None, scale=None):
        rows.append(self.reduced_rows if subset is None else len(subset))
        return check(self, t, subset, scale)

    monkeypatch.setattr(FeasibilityProblem, "check", counted)
    return rows


def test_cfs_needs_few_solves_on_few_rows(monkeypatch):
    rows = _counting_solves(monkeypatch)
    for name in ("three_legs", "e8"):
        res = least_doubling(generate(FamilySpec(name)))
        assert len(rows) == res.method_notes["lp_solves"] <= 8, name
        rows.clear()
    g = generate(FamilySpec("path", n=120))
    res = least_doubling(g)
    assert res.c_g < 3
    assert len(rows) == res.method_notes["lp_solves"]
    assert max(rows) <= 200 < FeasibilityProblem(g).reduced_rows


def test_hub_and_tail_finishes_under_the_cap():
    # the slow case for CFS: each step still lowers the upper end to a
    # measure's own constant, which the exact certificate confirms
    for leaves in (20, 50):
        res = least_doubling(hub_tail(leaves), certificate=True)
        assert 0 < res.method_notes["lp_solves"] < optimizer.LP_SOLVE_CAP
        assert res.bracket[1] - res.bracket[0] <= 1e-9
        assert abs(float(res.certificate.c_mu_exact) - res.c_g) <= 1e-12 * res.c_g


def test_lp_solve_cap_raises_size_cap_error(monkeypatch, capsys):
    from dublo.cli import EXIT_VALIDATION, main

    monkeypatch.setattr(optimizer, "LP_SOLVE_CAP", 2)
    with pytest.raises(SizeCapError, match="2 LP solves"):
        least_doubling(generate(FamilySpec("path", n=40)))
    assert main(["compute", "--family", "path", "--n", "40"]) == EXIT_VALIDATION
    assert "2 LP solves" in capsys.readouterr().err


def test_tolerance_finer_than_the_lp_is_rejected():
    # no witnessed upper end gets within 1e-13 of a proven-infeasible t
    with pytest.raises(ValidationError, match="finer than the LP's accuracy"):
        least_doubling(generate(FamilySpec("three_legs")), 1e-13)


def test_minimizer_sum_stays_optimal():
    # two routes to a minimizer; their sum must again be (near-)minimal
    g = generate(FamilySpec("three_legs"))
    a = least_doubling(g, orbit_reduction=True).minimizer
    b = least_doubling(g, orbit_reduction=False).minimizer
    combined = Measure(tuple(x + y for x, y in zip(a.weights, b.weights)))
    c_g = least_doubling(g).c_g
    assert float(doubling_report(g, mu=combined).c_mu) <= c_g + 1e-8


def test_diam2_perron_measure_closes_the_bracket():
    # no LP runs, and the LP agrees that the reported constant is C_G
    for spec in (
        FamilySpec("wheel", n=7),
        FamilySpec("friendship", n=3),
        FamilySpec("star", n=5),
        FamilySpec("complete_bipartite", m=2, n=4),
        FamilySpec("petersen"),
    ):
        g = generate(spec)
        res = least_doubling(g)
        assert res.method_notes["diam2_shortcut"], spec
        assert res.method_notes["lp_solves"] == 0, spec
        problem = FeasibilityProblem(g)
        assert problem.check(res.c_g + 1e-8) is not None, spec
        assert problem.check(res.c_g - 1e-6) is None, spec


def test_single_class_bracket_is_the_counting_constant():
    # the counting measure is the only class-constant measure, so no LP runs
    for g in (generate(FamilySpec("doyle")), G10, generate(FamilySpec("cycle", n=31))):
        res = least_doubling(g)
        c = float(res.c_g_exact)
        assert res.method_notes["lp_solves"] == 0
        assert res.bracket == (c, c) and res.c_g == c
    # Doyle's counting constant 27/5 is above C0 = 5, so the unreduced LP bisects
    doyle = generate(FamilySpec("doyle"))
    unreduced = least_doubling(doyle, orbit_reduction=False)
    assert unreduced.method_notes["lp_solves"] > 0
    assert abs(unreduced.c_g - least_doubling(doyle).c_g) <= 1e-8


def test_perron_measure_attaining_c0_closes_the_bracket():
    for n in (4, 6, 8):
        g = generate(FamilySpec("path", n=n))
        res = least_doubling(g)
        assert distances(g).diam >= 3
        assert res.method_notes["lp_solves"] == 0, n
        assert res.minimizer == perron_measure(g), n
        assert res.bracket[1] - res.bracket[0] <= 1e-9, n
    for spec in (FamilySpec("path", n=9), FamilySpec("d_n", n=6)):
        assert least_doubling(generate(spec)).method_notes["lp_solves"] > 0, spec


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
        problem = FeasibilityProblem(g)
        at_3 = problem.check_exact(Fraction(3))
        assert at_3 is not None
        mu, slacks = at_3
        assert all(s >= 0 for s in slacks)
        assert doubling_report(g, mu=mu).c_mu <= Fraction(3)
        assert problem.check_exact(Fraction(3) - Fraction(1, 10**6)) is None


def test_exact_simplex_cycle_boundary():
    g = generate(FamilySpec("cycle", n=8))
    problem = FeasibilityProblem(g)
    assert problem.check_exact(Fraction(3)) is not None
    assert problem.check_exact(Fraction(29999, 10000)) is None


def test_exact_and_float_routes_agree_off_boundary():
    rand = random.Random(60042)
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(2, 6))
        c = least_doubling(g).c_g
        problem = FeasibilityProblem(g)
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
    report = doubling_report(g, mu=cert.measure)
    assert report.c_mu == cert.c_mu_exact
    assert cert.c_mu_exact <= cert.t


def _direct_slacks(g, mu, t):
    """t mu(B(v, k)) - mu(B(v, 2k+1)) per (k, vertex), summed directly."""
    dt = distances(g)

    def ball(v, r):
        return sum(Fraction(mu[w]) for w in range(g.n) if dt.dist[v][w] <= r)

    k_max = dt.diam // 2
    return tuple(t * ball(v, k) - ball(v, 2 * k + 1) for k in range(k_max + 1) for v in range(g.n))


def test_certificate_slacks_are_the_direct_row_sums():
    graphs = [generate(FamilySpec(name)) for name in ("e6", "e7", "three_legs", "doyle")]
    graphs += [generate(FamilySpec("d_n", n=7)), generate(FamilySpec("cycle", n=9))]
    graphs += [generate(FamilySpec("wheel", n=7))]  # diameter 2: the Perron minimizer
    rand = random.Random(77)
    graphs += [random_connected_graph(rand, rand.randint(4, 9)) for _ in range(4)]
    for g in graphs:
        res = least_doubling(g, certificate=True)
        cert = res.certificate
        assert cert is not None
        assert cert.slacks == _direct_slacks(g, cert.measure, cert.t)


def test_certificate_is_the_minimizer_without_the_exact_simplex(monkeypatch):
    import dublo.exactlp  # noqa: F401  (loaded, so its own binding is patched too)

    def refuse(*args, **kwargs):
        raise AssertionError("exact simplex reached from least_doubling")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "dublo"]:
        if hasattr(module, "feasible_min_one"):
            monkeypatch.setattr(module, "feasible_min_one", refuse)
    monkeypatch.setattr(FeasibilityProblem, "check_exact", refuse)
    graphs = [generate(FamilySpec(name)) for name in ("e6", "e7", "three_legs")]
    graphs += [generate(FamilySpec("d_n", n=7)), generate(FamilySpec("wheel", n=7))]
    graphs += [random_tree(random.Random(79), 11)]
    for g in graphs:
        res = least_doubling(g, certificate=True)
        cert = res.certificate
        assert cert is not None
        assert list(cert.measure.weights) == list(res.minimizer.weights)
        assert cert.t == cert.c_mu_exact
        assert min(cert.slacks) == 0
        assert cert.t >= res.bracket[0] - 1e-12
        assert cert.t <= res.c_g * (1 + 1e-10)


def test_certificate_path_60_is_fast():
    g = generate(FamilySpec("path", n=60))
    start = time.perf_counter()
    res = least_doubling(g, certificate=True)
    assert time.perf_counter() - start < 5.0
    cert = res.certificate
    assert cert is not None and set(res.method_notes) == {"lp_solves", "diam2_shortcut"}
    assert len(cert.slacks) == 60 * 30 and min(cert.slacks) >= 0
    assert cert.t <= res.c_g * (1 + 1e-10)


def test_path_500_peaks_below_64_mb():
    # the LPs impose at most 501 of path_500's 62,500 reduced rows, so no
    # table over all of them may be built (full tables peaked at 477 MB)
    g = generate(FamilySpec("path", n=500))
    tracemalloc.start()
    try:
        least_doubling(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_each_measure_gets_one_ball_mass_pass(monkeypatch):
    # the Perron and counting measures and every LP answer: one pass over all
    # vertices each, which gives both the report and the LP's row masses
    from dublo import doubling

    passes, answers = [], []
    ball_masses, check = doubling._ball_masses, FeasibilityProblem.check

    def counted_masses(dist, *args):
        passes.append(dist.shape[0])
        return ball_masses(dist, *args)

    def counted_check(self, *args):
        answers.append(check(self, *args))
        return answers[-1]

    monkeypatch.setattr(doubling, "_ball_masses", counted_masses)
    # and under the name an import into optimizer would bind, so no pass goes unseen
    monkeypatch.setattr(optimizer, "_ball_masses", counted_masses, raising=False)
    monkeypatch.setattr(FeasibilityProblem, "check", counted_check)
    rand = random.Random(19)
    graphs = [hub_tail(12), generate(FamilySpec("three_legs"))]
    graphs += [random_connected_graph(rand, rand.randint(8, 20), extra=0.1) for _ in range(5)]
    for g in graphs:
        passes.clear()
        answers.clear()
        least_doubling(g)
        assert answers, g.edges()
        assert passes == [g.n] * (2 + sum(a is not None for a in answers)), g.edges()


def test_max_ratio_is_the_report_constant():
    rand = random.Random(78)
    for _ in range(10):
        g = random_connected_graph(rand, rand.randint(3, 12))
        dt = distances(g)
        res = least_doubling(g)
        den, num = row_tables(dt.dist, dt.diam, res.classes)
        weights = np.array([res.minimizer[v] for v in FeasibilityProblem(g, res.classes).reps])
        assert ((num @ weights) / (den @ weights)).max() == pytest.approx(
            float(doubling_report(g, mu=res.minimizer).c_mu), rel=1e-13
        )


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


def test_oracle_classes_are_the_orbits_up_to_five_vertices():
    # the symmetric oracle groups by distance classes; on these 31 graphs they
    # are the Aut(G) orbits, numbered alike, so its grids are the orbit grids
    graphs = [g for n in range(1, 6) for g in connected_graphs_exactly(n)]
    assert len(graphs) == 31
    for g in graphs:
        assert optimizer._distance_classes(distances(g)) == orbit_partition(g).orbit_of, g.edges()


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
