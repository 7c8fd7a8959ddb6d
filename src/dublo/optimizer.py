"""Least doubling constant C_G = inf_mu C_mu by bisection over LP feasibility.

For a candidate t, a doubling measure with constant <= t exists iff the
homogeneous system mu(B(v, 2k+1)) <= t * mu(B(v, k)) (all centers v, all radius
indices k) admits a strictly positive solution; scaling makes that equivalent
to a solution with mu >= 1.  The sublevel sets are convex cones, so bisection
between the spectral lower bound 1 + r(A_G) and any cheap feasible constant
converges to C_G.  Symmetric minimizers always exist on finite graphs, which
lets the LP collapse vertices into automorphism orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from . import exactlp
from .doubling import (
    DoublingReport,
    Measure,
    counting_measure,
    doubling_report,
    max_radius_index,
)
from .errors import SizeCapError, SolverError, ValidationError
from .graphs import DistanceTable, Graph, distances
from .spectral import DEFAULT_EIG_TOL, perron
from .symmetry import OrbitPartition, orbit_partition

DEFAULT_BISECT_TOL = 1e-9
BISECT_ITERATION_CAP = 60
EXACT_CONSTRAINT_CAP = 2000
LEMACHORRA_TOL = 1e-7
_FEAS_EPS = 1e-11


class FeasibilityProblem:
    """Linearized doubling constraints for one graph, optionally orbit-reduced.

    Variables are per-vertex weights, or per-orbit weights when an orbit
    partition is supplied (one representative row per orbit then suffices,
    because orbit-constant measures make same-orbit rows identical).
    """

    def __init__(
        self,
        g: Graph,
        dt: DistanceTable | None = None,
        orbits: OrbitPartition | None = None,
    ):
        self.g = g
        self.dt = dt or distances(g)
        self.k_max = max_radius_index(self.dt.diam)
        self.orbits = orbits
        dist = self.dt.dist
        if orbits is None or len(orbits.orbits) == g.n:
            self.reps = list(range(g.n))
            self.var_sizes = np.ones(g.n)
            member_count = np.eye(g.n)
            self._expand_map = None
        else:
            self.reps = [orbit[0] for orbit in orbits.orbits]
            self.var_sizes = np.array([len(o) for o in orbits.orbits], dtype=float)
            member_count = np.zeros((g.n, len(orbits.orbits)))
            for v, o in enumerate(orbits.orbit_of):
                member_count[v, o] = 1.0
            self._expand_map = orbits.orbit_of
        self.n_vars = member_count.shape[1]
        # integer counts |B(rep, r) ∩ orbit| for every radius needed
        self.count: list[np.ndarray] = []
        for r in range(2 * self.k_max + 2):
            rows = (dist[self.reps] <= r).astype(float) @ member_count
            self.count.append(rows)

    @property
    def constraint_count(self) -> int:
        """Full (unreduced) constraint count n * (k_max + 1)."""
        return self.g.n * (self.k_max + 1)

    @property
    def reduced_rows(self) -> int:
        return len(self.reps) * (self.k_max + 1)

    def expand(self, weights: Sequence) -> tuple:
        if self._expand_map is None:
            return tuple(weights)
        return tuple(weights[self._expand_map[v]] for v in range(self.g.n))

    def check(self, t: float) -> Measure | None:
        """Float LP: minimal max-violation over the weight simplex.

        Returns a strictly positive measure (min weight 1) whose ratios are
        re-verified directly against t, or None.  The direct check means the
        feasible side of a bisection always holds a genuine witness, whatever
        the LP's internal tolerances did.  Raises SolverError on breakdown.
        """
        nv = self.n_vars
        rows = [self.count[2 * k + 1] - t * self.count[k] for k in range(self.k_max + 1)]
        a = np.vstack(rows)
        m = a.shape[0]
        a_ub = np.hstack([a, -np.ones((m, 1))])
        c = np.zeros(nv + 1)
        c[-1] = 1.0
        a_eq = np.concatenate([self.var_sizes, [0.0]])[None, :]
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=np.zeros(m),
            A_eq=a_eq,
            b_eq=[1.0],
            bounds=[(0, None)] * nv + [(None, None)],
            method="highs",
            options={
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        if res.status != 0:
            raise SolverError(f"linprog failed (status {res.status}): {res.message}")
        if res.fun > _FEAS_EPS:
            return None
        w = res.x[:nv]
        if w.min() <= 1e-12 * max(w.max(), 1e-30):
            return None  # numerically on the cone boundary
        if self.max_ratio(w) > t * (1 + 1e-11):
            return None  # LP accepted it, direct evaluation does not
        full = np.array(self.expand(w))
        full = full / full.min()
        return Measure(tuple(float(x) for x in full))

    def max_ratio(self, weights: np.ndarray) -> float:
        """Largest doubling ratio of a (reduced) weight vector, evaluated directly."""
        worst = 1.0
        for k in range(self.k_max + 1):
            num = self.count[2 * k + 1] @ weights
            den = self.count[k] @ weights
            worst = max(worst, float((num / den).max()))
        return worst

    def check_exact(self, t: Fraction) -> tuple[Measure, tuple[Fraction, ...]] | None:
        """Exact-rational feasibility at rational t; measure plus per-row slacks."""
        if self.constraint_count > EXACT_CONSTRAINT_CAP:
            raise SizeCapError(
                f"exact mode capped at {EXACT_CONSTRAINT_CAP} constraints, "
                f"got {self.constraint_count}"
            )
        rows: list[list[Fraction]] = []
        for k in range(self.k_max + 1):
            num = self.count[2 * k + 1]
            den = self.count[k]
            for i in range(len(self.reps)):
                rows.append(
                    [
                        Fraction(int(num[i, j])) - t * Fraction(int(den[i, j]))
                        for j in range(self.n_vars)
                    ]
                )
        x = exactlp.feasible_min_one(rows)
        if x is None:
            return None
        slacks = tuple(-sum(a * xi for a, xi in zip(row, x)) for row in rows)
        mu = Measure(self.expand(x))
        return mu, slacks


def feasible(
    g: Graph,
    dt: DistanceTable | None = None,
    t: float = 2.0,
    orbits: OrbitPartition | None = None,
) -> Measure | None:
    """Measure with mu >= 1 and all doubling ratios <= t, or None."""
    if t < 1:
        raise ValidationError("candidate constant must be >= 1")
    return FeasibilityProblem(g, dt, orbits).check(t)


@dataclass(frozen=True)
class Certificate:
    """Exact-rational feasibility witness: C_G <= t with the measure in hand."""

    t: Fraction
    measure: Measure
    c_mu_exact: Fraction
    slacks: tuple[Fraction, ...]


@dataclass(frozen=True)
class OptimizationResult:
    c_g: float
    bracket: tuple[float, float]
    minimizer: Measure
    lower_bound_spectral: float
    method_notes: dict
    minimizer_report: DoublingReport
    perron_report: DoublingReport  # full report of the Perron measure
    certificate: Certificate | None = None
    c_g_exact: Fraction | None = None

    def lemachorra(self) -> dict:
        """The check_lemachorra record, from this run's Perron pass."""
        return _lemachorra_record(self.lower_bound_spectral, self.perron_report, LEMACHORRA_TOL)


def _rationalize_above(t: float, pad: float) -> Fraction:
    q = Fraction(t + pad).limit_denominator(10**12)
    while float(q) < t + pad / 2:
        q += Fraction(1, 10**12)
    return q


def least_doubling(
    g: Graph,
    tol: float = DEFAULT_BISECT_TOL,
    *,
    certificate: bool = False,
    force_bisection: bool = False,
    orbit_reduction: bool = True,
    eig_tol: float = DEFAULT_EIG_TOL,
    dt: DistanceTable | None = None,
) -> OptimizationResult:
    """Compute C_G with a bracketing interval of width <= tol.

    Shortcuts: diameter <= 2 forces C_G = 1 + r(A_G); vertex-transitive graphs
    are cross-checked against the counting measure, which is then a minimizer.
    ``certificate=True`` additionally produces an exact-rational feasible
    measure slightly above the bracket (exact equality for the transitive
    case, where the counting constant is a rational).
    """
    if tol <= 0:
        raise ValidationError("tolerance must be > 0")
    dt = dt or distances(g)
    c0, mu0, report0 = _perron_pass(g, dt, eig_tol)
    notes: dict = {
        "diam": dt.diam,
        "k_max": max_radius_index(dt.diam),
        "diam2_shortcut": False,
        "vertex_transitive": False,
        "orbit_reduction": False,
        "orbit_count": None,
        "counting_cross_check": None,
        "lp_solves": 0,
    }

    if dt.diam <= 2 and not force_bisection:
        notes["diam2_shortcut"] = True
        result_cert = None
        if certificate:
            problem = FeasibilityProblem(g, dt, _try_orbits(g, orbit_reduction, notes))
            result_cert = _certificate_or_fallback(problem, c0, tol, notes)
        return OptimizationResult(
            c_g=c0,
            bracket=(c0, c0),
            minimizer=mu0,
            lower_bound_spectral=c0,
            method_notes=notes,
            minimizer_report=report0,
            perron_report=report0,
            certificate=result_cert,
        )

    orbits = _try_orbits(g, orbit_reduction, notes)
    transitive = orbits is not None and len(orbits.orbits) == 1

    counting_report = doubling_report(g, dt, counting_measure(g))
    c_counting = counting_report.c_mu  # exact Fraction-valued rational

    problem = FeasibilityProblem(g, dt, orbits)

    t_lo = c0
    t_hi = min(float(report0.c_mu), float(c_counting))
    best_mu = (
        counting_measure(g) if float(c_counting) <= float(report0.c_mu) else mu0
    )
    t_hi = max(t_hi, t_lo)

    start = problem.check(t_lo + min(tol, 1e-12))
    notes["lp_solves"] += 1
    if start is not None:
        t_hi = t_lo
        best_mu = start
    else:
        while t_hi - t_lo > tol:
            if notes["lp_solves"] >= BISECT_ITERATION_CAP:
                raise SolverError(
                    f"bisection exceeded {BISECT_ITERATION_CAP} LP solves"
                )
            mid = 0.5 * (t_lo + t_hi)
            found = problem.check(mid)
            notes["lp_solves"] += 1
            if found is None:
                t_lo = mid
            else:
                t_hi = mid
                best_mu = found

    minimizer_report = doubling_report(g, dt, best_mu)
    if float(minimizer_report.c_mu) > t_hi + 1e-9:
        raise SolverError(
            "re-verification failed: minimizer constant "
            f"{float(minimizer_report.c_mu)} exceeds bracket {t_hi}"
        )

    c_g_exact = None
    if transitive:
        notes["vertex_transitive"] = True
        notes["counting_cross_check"] = float(c_counting)
        if abs(float(c_counting) - t_hi) > max(10 * tol, 1e-8):
            raise SolverError(
                "vertex-transitive cross-check failed: counting constant "
                f"{float(c_counting)} vs bisection {t_hi}"
            )
        c_g_exact = Fraction(c_counting)

    cert = None
    if certificate:
        if transitive:
            cert = Certificate(
                t=Fraction(c_counting),
                measure=counting_measure(g),
                c_mu_exact=Fraction(c_counting),
                slacks=_counting_slacks(problem, Fraction(c_counting)),
            )
        else:
            cert = _certificate_or_fallback(problem, t_hi, tol, notes)

    return OptimizationResult(
        c_g=t_hi,
        bracket=(t_lo, t_hi),
        minimizer=best_mu,
        lower_bound_spectral=c0,
        method_notes=notes,
        minimizer_report=minimizer_report,
        perron_report=report0,
        certificate=cert,
        c_g_exact=c_g_exact,
    )


def _perron_pass(
    g: Graph, dt: DistanceTable, eig_tol: float
) -> tuple[float, Measure, DoublingReport]:
    """C0 = 1 + r(A_G), the Perron measure and its full doubling report."""
    spectrum = perron(g, eig_tol)
    mu0 = Measure(tuple(float(w) for w in spectrum.eigvec))
    return 1.0 + spectrum.radius, mu0, doubling_report(g, dt, mu0)


def _try_orbits(g: Graph, enabled: bool, notes: dict) -> OrbitPartition | None:
    if not enabled:
        return None
    try:
        orbits = orbit_partition(g)
    except SizeCapError:
        return None
    notes["orbit_count"] = len(orbits.orbits)
    notes["orbit_reduction"] = len(orbits.orbits) < g.n
    return orbits if len(orbits.orbits) < g.n else None


def _counting_slacks(problem: FeasibilityProblem, t: Fraction) -> tuple[Fraction, ...]:
    ones = [Fraction(1)] * problem.n_vars
    slacks = []
    for k in range(problem.k_max + 1):
        num = problem.count[2 * k + 1]
        den = problem.count[k]
        for i in range(len(problem.reps)):
            n_val = sum(Fraction(int(num[i, j])) * ones[j] for j in range(problem.n_vars))
            d_val = sum(Fraction(int(den[i, j])) * ones[j] for j in range(problem.n_vars))
            slacks.append(t * d_val - n_val)
    return tuple(slacks)


def _certificate_or_fallback(
    problem: FeasibilityProblem, t_hi: float, tol: float, notes: dict
) -> Certificate | None:
    """Exact certificate, or None (with a note) past the exact-mode size cap.

    The float route already re-verifies the minimizer's constant directly, so
    falling back keeps the result checked, just not exact-rational.
    """
    try:
        return _exact_certificate(problem, t_hi, tol)
    except SizeCapError as exc:
        notes["certificate_fallback"] = str(exc)
        return None


def _exact_certificate(
    problem: FeasibilityProblem, t_hi: float, tol: float
) -> Certificate:
    pad = max(2 * tol, 2e-9)
    for attempt in range(3):
        t_exact = _rationalize_above(t_hi, pad * (10**attempt))
        found = problem.check_exact(t_exact)
        if found is not None:
            mu, slacks = found
            rep = doubling_report(problem.g, problem.dt, mu)
            return Certificate(
                t=t_exact, measure=mu, c_mu_exact=Fraction(rep.c_mu), slacks=slacks
            )
    raise SolverError(f"exact certificate not found near t = {t_hi}")


def check_lemachorra(g: Graph, tol: float = LEMACHORRA_TOL) -> dict:
    """Compare the Perron measure's full constant against C_G^0.

    Equality (within tol) certifies C_G = C_G^0 without running the optimizer.
    """
    c0, _, report0 = _perron_pass(g, distances(g), DEFAULT_EIG_TOL)
    return _lemachorra_record(c0, report0, tol)


def _lemachorra_record(c0: float, perron_report: DoublingReport, tol: float) -> dict:
    c_full = float(perron_report.c_mu)
    return {"c0": c0, "c_mu0_full": c_full, "equal": c_full - c0 <= tol}


BRUTE_FORCE_VERTEX_CAP = 5


@dataclass(frozen=True)
class BruteForceResult:
    c_g: float
    measure: Measure
    resolution: int
    grid_error: float
    dims: int


def brute_force_details(
    g: Graph, grid_resolution: int = 200, symmetric: bool = True
) -> BruteForceResult:
    """Grid-search oracle: min of C_mu over a simplex grid of measures.

    Independent of the LP route: evaluates doubling reports directly on every
    grid point.  With ``symmetric=True`` the grid runs over orbit-constant
    measures (symmetrization never increases any restricted constant, so a
    symmetric minimizer exists); every connected graph on <= 5 vertices has a
    non-trivial automorphism, keeping the grid at most 4-dimensional.
    """
    if g.n > BRUTE_FORCE_VERTEX_CAP:
        raise SizeCapError(f"brute force capped at {BRUTE_FORCE_VERTEX_CAP} vertices")
    if grid_resolution < 2:
        raise ValidationError("grid resolution must be >= 2")
    dt = distances(g)
    kmax = max_radius_index(dt.diam)
    if symmetric:
        orbits = orbit_partition(g)
        orbit_of = orbits.orbit_of
        dims = len(orbits.orbits)
    else:
        orbit_of = tuple(range(g.n))
        dims = g.n
    member = np.zeros((g.n, dims))
    for v, o in enumerate(orbit_of):
        member[v, o] = 1.0
    count = [
        (dt.dist <= r).astype(float) @ member for r in range(2 * kmax + 2)
    ]

    if dims == 1:
        w = np.ones((1, 1), dtype=np.int64)
    else:
        w = _grid(grid_resolution, dims)
    best_val = math.inf
    best_row = None
    chunk = 200_000
    for s in range(0, w.shape[0], chunk):
        block = w[s : s + chunk].T.astype(float)
        worst = None
        for k in range(kmax + 1):
            ratios = (count[2 * k + 1] @ block) / (count[k] @ block)
            layer = ratios.max(axis=0)
            worst = layer if worst is None else np.maximum(worst, layer)
        i = int(np.argmin(worst))
        if worst[i] < best_val:
            best_val = float(worst[i])
            best_row = w[s + i]
    assert best_row is not None
    weights = tuple(int(best_row[orbit_of[v]]) for v in range(g.n))
    mu = Measure(weights)
    # distortion allowance: moving each simplex coordinate by up to
    # delta = dims / resolution rescales every ball ratio by at most
    # (1 + delta/w)/(1 - delta/w) around the smallest normalized weight w
    total = float(sum(best_row))
    w_min = float(best_row.min()) / total
    delta = dims / float(grid_resolution)
    anchor = max(w_min - delta, delta / 10.0)
    grid_error = best_val * (2 * delta / anchor)
    return BruteForceResult(best_val, mu, grid_resolution, grid_error, dims)


def brute_force_cg(g: Graph, grid_resolution: int = 200) -> float:
    """Oracle value only; see brute_force_details for the witness and error."""
    return brute_force_details(g, grid_resolution).c_g


_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _grid(total: int, parts: int) -> np.ndarray:
    key = (total, parts)
    if key not in _GRID_CACHE:
        if len(_GRID_CACHE) > 8:
            _GRID_CACHE.clear()
        _GRID_CACHE[key] = _compositions(total, parts)
    return _GRID_CACHE[key]


def _compositions(total: int, parts: int) -> np.ndarray:
    """All positive integer compositions of ``total`` into ``parts`` parts."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    if parts == 2:
        a = np.arange(1, total, dtype=np.int64)
        return np.stack([a, total - a], axis=1)
    if parts == 3:
        blocks = []
        for first in range(1, total - 1):
            b = np.arange(1, total - first, dtype=np.int64)
            blocks.append(
                np.stack([np.full_like(b, first), b, total - first - b], axis=1)
            )
        return np.vstack(blocks)
    blocks = []
    for first in range(1, total - parts + 2):
        rest = _compositions(total - first, parts - 1)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def poly_largest_root(
    coeffs: Sequence[float], tol: float = 1e-12, floor: float | None = None
) -> float:
    """Largest real root of a polynomial (coefficients highest degree first).

    Brackets from the Cauchy bound and scans downward for the rightmost sign
    change, then bisects to tol.
    """
    coeffs = [float(c) for c in coeffs]
    if not coeffs or coeffs[0] == 0:
        raise ValidationError("leading coefficient must be non-zero")

    def p(x: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    cauchy = 1.0 + max(abs(c) for c in coeffs[1:]) / abs(coeffs[0]) if len(coeffs) > 1 else 1.0
    lo_limit = -cauchy if floor is None else floor
    hi = cauchy
    steps = 4096
    xs = np.linspace(hi, lo_limit, steps + 1)
    vals = [p(float(x)) for x in xs]
    bracket = None
    for i in range(steps):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            return float(xs[i])
        if a * b < 0:
            bracket = (float(xs[i + 1]), float(xs[i]))
            break
    else:
        if vals[-1] == 0.0:
            return float(xs[-1])
        raise ValidationError("no real root found above the search floor")
    lo, hi = bracket
    flo = p(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = p(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_gap(g: Graph, grid_resolution: int = 200, tol: float = DEFAULT_BISECT_TOL) -> float:
    """|least_doubling - brute force| for small graphs; testing helper."""
    bf = brute_force_details(g, grid_resolution)
    lp = least_doubling(g, tol)
    return abs(lp.c_g - bf.c_g)
