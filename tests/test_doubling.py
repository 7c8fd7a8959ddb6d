"""Measures, restricted constants, doubling reports, mediant properties."""

import math
import operator
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dublo import (
    Measure,
    ValidationError,
    counting_measure,
    distances,
    doubling_report,
    generate,
    load_measure_text,
    max_radius_index,
    parse_edge_list,
)
from dublo.doubling import exact_slacks
from dublo.families import FamilySpec

from oracles import mediant_max
from util import random_connected_graph, random_float_measure, random_int_measure


def test_max_radius_index():
    assert [max_radius_index(d) for d in range(7)] == [0, 0, 1, 1, 2, 2, 3]


def test_measure_rejects_nonpositive():
    with pytest.raises(ValidationError):
        Measure((1.0, 0.0))
    with pytest.raises(ValidationError):
        Measure((1.0, -2.0))


def test_counting_measure_is_exact_ones():
    g = generate(FamilySpec("petersen"))
    mu = counting_measure(g)
    assert mu.weights == (1,) * 10 and mu.is_exact


def test_restricted_constant_c5_counting():
    g = generate(FamilySpec("cycle", n=5))
    report = doubling_report(g, mu=counting_measure(g))
    assert report.per_k[0] == (0, Fraction(3), 0)
    assert report.per_k[1].value == Fraction(5, 3)


def test_restricted_constant_three_legs_perron_leaf():
    g = generate(FamilySpec("three_legs"))
    weights = [0] * 7
    for v in range(7):
        weights[v] = {3: 3, 2: 2, 1: 1}[g.degree(v)]
    mu = Measure(tuple(weights))
    _, value, witness = doubling_report(g, mu=mu).per_k[1]
    assert value == Fraction(10, 3)
    assert g.degree(witness) == 1  # a leaf attains it


def test_restricted_constant_complete_any_measure():
    g = generate(FamilySpec("complete", n=5))
    rand = random.Random(3)
    for _ in range(10):
        mu = random_int_measure(rand, 5)
        value = doubling_report(g, mu=mu).per_k[0].value
        assert value == Fraction(sum(mu.weights), min(mu.weights))
        assert value >= 5 or sum(mu.weights) == 5 * min(mu.weights)


def test_doubling_report_k2_counting():
    g = generate(FamilySpec("complete", n=2))
    report = doubling_report(g, mu=counting_measure(g))
    assert report.c_mu == 2 and len(report.per_k) - 1 == 0


def test_doubling_report_c5_counting():
    g = generate(FamilySpec("cycle", n=5))
    report = doubling_report(g, mu=counting_measure(g))
    assert report.c_mu == Fraction(3)
    assert [p.value for p in report.per_k] == [Fraction(3), Fraction(5, 3)]


def test_doubling_report_reads_the_graphs_own_balls():
    # a 6-cycle's table used to reach a 6-path's report and gave C_mu = 9
    g = generate(FamilySpec("path", n=6))
    assert doubling_report(g, mu=Measure((1, 2, 3, 4, 5, 6))).c_mu == Fraction(7, 2)


def test_exact_slacks_rejects_a_measure_of_the_wrong_length():
    g = generate(FamilySpec("path", n=7))
    with pytest.raises(ValidationError, match="6 weights for a 7-vertex graph"):
        exact_slacks(g, Measure((1,) * 6))


def test_doubling_report_three_legs_exceeds_c0():
    g = generate(FamilySpec("three_legs"))
    weights = tuple({3: 3, 2: 2, 1: 1}[g.degree(v)] for v in range(7))
    report = doubling_report(g, mu=Measure(weights))
    assert report.c_mu >= Fraction(10, 3)
    per0 = report.per_k[0]
    assert per0.value == Fraction(3)
    assert report.c_mu > per0.value


def test_witness_attains_reported_ratio():
    rand = random.Random(11)
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(2, 10))
        dt = distances(g)
        mu = random_int_measure(rand, g.n)
        report = doubling_report(g, mu=mu)
        for k, value, witness in report.per_k:
            num = sum(mu[w] for w in range(g.n) if dt.dist[witness][w] <= 2 * k + 1)
            den = sum(mu[w] for w in range(g.n) if dt.dist[witness][w] <= k)
            assert Fraction(num, den) == value


def test_float_and_exact_modes_agree():
    rand = random.Random(42)
    for _ in range(60):
        g = random_connected_graph(rand, rand.randint(2, 12))
        mu_int = random_int_measure(rand, g.n)
        mu_float = Measure(tuple(float(w) for w in mu_int.weights))
        exact = doubling_report(g, mu=mu_int)
        approx = doubling_report(g, mu=mu_float)
        assert isinstance(exact.c_mu, Fraction) and not isinstance(approx.c_mu, Fraction)
        for pe, pf in zip(exact.per_k, approx.per_k):
            assert abs(float(pe.value) - pf.value) <= 1e-12
            assert pe.witness == pf.witness


def test_scale_invariance():
    rand = random.Random(13)
    g = random_connected_graph(rand, 8)
    mu = random_int_measure(rand, 8)
    base = doubling_report(g, mu=mu)
    scaled = doubling_report(g, mu=Measure(tuple(Fraction(7, 3) * w for w in mu.weights)))
    assert base.c_mu == scaled.c_mu
    assert [p.value for p in base.per_k] == [p.value for p in scaled.per_k]


def test_lower_bound_2_when_n_ge_2():
    rand = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rand, rand.randint(2, 9))
        mu = random_int_measure(rand, g.n)
        report = doubling_report(g, mu=mu)
        assert report.c_mu >= 2
        assert report.per_k[0].value >= 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_convexity_per_k(data):
    seed = data.draw(st.integers(0, 10**6))
    rand = random.Random(seed)
    g = random_connected_graph(rand, rand.randint(2, 9))
    mu1 = random_int_measure(rand, g.n)
    mu2 = random_int_measure(rand, g.n)
    r1 = doubling_report(g, mu=mu1)
    r2 = doubling_report(g, mu=mu2)
    rsum = doubling_report(g, mu=Measure(tuple(map(operator.add, mu1.weights, mu2.weights))))
    for p1, p2, ps in zip(r1.per_k, r2.per_k, rsum.per_k):
        assert ps.value <= max(p1.value, p2.value)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_diameter2_collapse(data):
    seed = data.draw(st.integers(0, 10**6))
    rand = random.Random(seed)
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(3, 12), extra=0.55)
        dt = distances(g)
        if dt.diam == 2:
            break
    else:
        return
    mu = random_int_measure(rand, g.n)
    report = doubling_report(g, mu=mu)
    assert report.c_mu == report.per_k[0].value  # C_mu = C_mu^0 exactly


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_local_max_lemma(data):
    # a vertex of degree >= 3 with some neighbor at least as heavy forces C0 >= 3
    seed = data.draw(st.integers(0, 10**6))
    rand = random.Random(seed)
    for _ in range(30):
        g = random_connected_graph(rand, rand.randint(4, 10))
        heavy = [v for v in range(g.n) if g.degree(v) >= 3]
        if heavy:
            break
    else:
        return
    v = rand.choice(heavy)
    weights = [Fraction(rand.randint(1, 20)) for _ in range(g.n)]
    nbr = rand.choice(list(g.adj[v]))
    weights[nbr] = weights[v] + rand.randint(0, 5)
    report = doubling_report(g, mu=Measure(tuple(weights)))
    assert report.per_k[0].value >= 3


# ---------------------------------------------------------------- mediant


def test_mediant_trivial_cases():
    assert mediant_max([(1, 1), (1, 1)]) == (Fraction(1), Fraction(1), True)
    value, mediant, equal = mediant_max([(3, 1), (1, 2)])
    assert value == Fraction(3) and mediant == Fraction(4, 3) and not equal
    value, _, equal = mediant_max([(2, 1), (4, 2), (6, 3)])
    assert value == Fraction(2) and equal


def test_mediant_errors():
    with pytest.raises(ValidationError):
        mediant_max([])
    with pytest.raises(ValidationError):
        mediant_max([(1, 1), (0, 2)])


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
        min_size=1,
        max_size=12,
    )
)
def test_mediant_inequality_and_equality_condition(pairs):
    value, mediant, equal = mediant_max(pairs)
    assert mediant <= value
    ratios = {Fraction(a, b) for a, b in pairs}
    assert equal == (len(ratios) == 1)
    assert (mediant == value) == equal


# ---------------------------------------------------------------- measure io


def test_measure_file_roundtrip():
    g = parse_edge_list("a b\nb c")
    mu = Measure((Fraction(1, 3), 2, 0.5))
    text = "".join(f"{label} {w}\n" for label, w in zip(g.labels, mu.weights))
    back = load_measure_text(text, g)
    assert back.weights == (Fraction(1, 3), 2, 0.5)


def test_measure_file_fraction_and_decimal():
    g = parse_edge_list("0 1\n1 2")
    mu = load_measure_text("0 1/3\n1 2\n2 0.25\n", g)
    assert mu.weights == (Fraction(1, 3), 2, 0.25)


def test_measure_file_missing_vertex():
    g = parse_edge_list("0 1\n1 2")
    with pytest.raises(Exception, match="missing"):
        load_measure_text("0 1\n1 2\n", g)


# ---------------------------------------------------------------- mass table vs reference


def reference_per_k(g, dt, mu):
    """Per-centre Fraction loop over explicit balls: an independent reference."""
    out = []
    for k in range(max_radius_index(dt.diam) + 1):
        best, witness = None, 0
        for v in range(g.n):
            row = dt.dist[v]
            num = Fraction(sum(mu[w] for w in np.flatnonzero(row <= 2 * k + 1)))
            den = Fraction(sum(mu[w] for w in np.flatnonzero(row <= k)))
            if best is None or num / den > best:
                best, witness = num / den, v
        out.append((k, best, witness))
    return out


def _measures(rand, n):
    yield "counting", Measure((1,) * n)
    yield "fraction", Measure(
        tuple(Fraction(rand.randint(1, 60), rand.randint(1, 40)) for _ in range(n))
    )
    # scaled totals far above 2^63, so ball masses need Python ints
    big = tuple(Fraction(rand.randint(2**63 // n, 2**66), rand.randint(1, 9)) for _ in range(n))
    scale = math.lcm(*(w.denominator for w in big))
    assert sum(w * scale for w in big) >= 2**63
    yield "big", Measure(big)


def test_exact_report_matches_reference_loop():
    rand = random.Random(2718)
    for _ in range(40):
        g = random_connected_graph(rand, rand.randint(1, 16), extra=rand.choice([0.0, 0.1, 0.4]))
        dt = distances(g)
        for kind, mu in _measures(rand, g.n):
            report = doubling_report(g, mu=mu)
            expected = reference_per_k(g, dt, mu)
            assert [tuple(p) for p in report.per_k] == expected, kind
            assert all(isinstance(p.value, Fraction) for p in report.per_k)
            assert report.c_mu == max(value for _, value, _ in expected)
    # every row ties under a single-class counting measure: the first row wins
    for spec in (FamilySpec("cycle", n=40), FamilySpec("hoffman_singleton")):
        g = generate(spec)
        dt = distances(g)
        report = doubling_report(g, mu=counting_measure(g))
        assert [tuple(p) for p in report.per_k] == reference_per_k(g, dt, counting_measure(g))
        assert all(p.witness == 0 for p in report.per_k), spec


def test_float_report_matches_ball_matrix_products():
    rand = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rand, rand.randint(2, 16))
        mu = random_float_measure(rand, g.n)
        w = mu.as_array()
        dist = distances(g).dist
        for k, value, witness in doubling_report(g, mu=mu).per_k:
            ratios = ((dist <= 2 * k + 1) @ w) / ((dist <= k) @ w)
            assert value == pytest.approx(ratios.max(), rel=1e-14)
            assert ratios[witness] == pytest.approx(ratios.max(), rel=1e-14)


def test_exact_counting_report_path_300_is_fast():
    g = generate(FamilySpec("path", n=300))
    distances(g)  # the table is built before the timer starts
    start = time.perf_counter()
    report = doubling_report(g, mu=counting_measure(g))
    assert time.perf_counter() - start < 1.0
    assert report.c_mu == 3 and report.per_k[0] == (0, Fraction(3), 1)
