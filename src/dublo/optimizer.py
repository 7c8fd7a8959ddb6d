"""Least doubling constant C_G = inf_mu max_i N_i mu / D_i mu, a generalized fractional program.

Row i is a (center, radius index k) pair with D_i mu = mu(B(v, k)) and
N_i mu = mu(B(v, 2k+1)).  For a candidate t, a doubling measure with
constant <= t exists iff the homogeneous system N_i mu <= t D_i mu admits a
strictly positive solution; scaling makes that equivalent to a solution with
mu >= 1.  The LP keeps one variable and one row per class of a distance
colour refinement, which is exact (see ``_distance_classes``).

The bracket starts from the two measures every run evaluates, and the LP only
narrows it.  A measure with constant C0 satisfies A mu <= r mu, which by
Perron-Frobenius subinvariance only the Perron vector does, so C_G = C0
exactly when the Perron measure attains C0 (always at diameter <= 2).  With a
single class the counting measure is the only class-constant measure, so its
constant is C_G.

Otherwise a Dinkelbach-type iteration (Crouzeix, Ferland and Schaible, *An
algorithm for generalized fractional programs*, JOTA 47, 1985) lowers the
upper end: from the best measure x so far, one LP at t = t_hi - tol with every
row N_i - t D_i divided by D_i x.  A feasible answer is a measure whose
directly evaluated constant becomes t_hi; an infeasible one makes t the
lower end, and the bracket is then tol wide.  The LP imposes only a growing
subset of rows: the radius-0 rows plus those with the highest ratios at the
start, and each answer is solved again with the inactive rows nearest to
binding until no inactive row lies above the LP's value, so every step is
the full LP's.  A subset without a solution proves the full system has none.
Only imposed rows are built; each measure gets one ball-mass pass, which
gives both its constant and its row masses for the start order and that test.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import Sequence

import numpy as np

from .doubling import (
    DoublingReport,
    Measure,
    _masses_and_report,
    counting_measure,
    doubling_report,
    exact_slacks,
    max_radius_index,
)
from .errors import SizeCapError, SolverError, ValidationError
from .graphs import DistanceTable, Graph, distances
from .spectral import DEFAULT_EIG_TOL, perron

DEFAULT_BISECT_TOL = 1e-9
LP_SOLVE_CAP = 60
EXACT_CONSTRAINT_CAP = 2000
LEMACHORRA_TOL = 1e-7
_FEAS_EPS = 1e-11


class FeasibilityProblem:
    """Linearized doubling constraints for one graph, optionally class-reduced.

    Variables are per-vertex weights, or per-class weights when ``classes``
    (each vertex's class in an equitable partition, such as
    ``_distance_classes``) is supplied; one row per class then suffices,
    because class-constant measures make same-class rows identical.  Rows,
    (k, representative) pairs numbered k-major, are built only when imposed.
    """

    def __init__(self, g: Graph, classes: Sequence[int] | None = None):
        self.g = g
        self.dt = distances(g)
        self.k_max = max_radius_index(self.dt.diam)
        self._expand_map = np.arange(g.n) if classes is None else np.asarray(classes)
        _, first, sizes = np.unique(self._expand_map, return_index=True, return_counts=True)
        self.reps = first
        self.var_sizes = sizes.astype(float)
        self.n_vars = len(first)
        self._highs = None  # the HiGHS instance, made by the first solve
        # class indicator: vertex v lies in class c exactly when entry (v, c) is 1
        self._indicator = np.equal.outer(self._expand_map, np.arange(self.n_vars)).astype(float)

    @property
    def constraint_count(self) -> int:
        """Full (unreduced) constraint count n * (k_max + 1)."""
        return self.g.n * (self.k_max + 1)

    @property
    def reduced_rows(self) -> int:
        return len(self.reps) * (self.k_max + 1)

    def expand(self, weights: Sequence) -> tuple:
        return tuple(weights[c] for c in self._expand_map)

    def rows(self, ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(den, num): int64 |B(rep, r) ∩ class| at r = k and 2k+1 for k-major rows ``ids``.

        Every row by default.  Float products of 0/1 entries, exact below 2**53.
        """
        k, i = np.divmod(np.arange(self.reduced_rows) if ids is None else ids, self.n_vars)
        dist = self.dt.dist[self.reps[i]]
        return tuple(
            ((dist <= r[:, None]) @ self._indicator).astype(np.int64) for r in (k, 2 * k + 1)
        )

    def row_masses(self, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(den, num) of every k-major row, read from a measure's ball-mass table."""
        return tuple(masses[self.reps].T.reshape(2, -1))

    def check(
        self, t: float, rows: np.ndarray | None = None, scale: np.ndarray | None = None
    ) -> Measure | None:
        """Float LP: minimal max-violation over the weight simplex.

        Solved by HiGHS via scipy's bundled binding, each solve cold.  Imposes
        the k-major reduced ``rows`` (every row by default), whose counts
        ``self.rows`` builds for this call only.  With ``scale``, reduced
        weights x, each row N_i - t D_i is divided by D_i x, its radius-k ball
        mass under x.  Returns a strictly positive measure (min weight 1)
        whose ratios on the imposed rows are re-verified directly against t,
        or None when the LP's value exceeds ``_FEAS_EPS``, which
        proves t infeasible: scaling keeps the feasible set, and rows with no
        common solution leave the full system none.  An accepted answer on
        the cone boundary, or one whose direct ratios exceed t, proves
        nothing either way and raises SolverError, as does any HiGHS status
        other than optimal.  A non-finite t raises ValidationError.
        """
        if not math.isfinite(t):
            raise ValidationError(f"candidate constant must be finite, got {t!r}")
        den, num = self.rows(rows)
        a = num - t * den
        if scale is not None:
            a /= (den @ scale)[:, None]
        value, w = self._solve(a)
        if value > _FEAS_EPS:
            return None
        if w.min() <= 1e-12 * max(w.max(), 1e-30):
            raise SolverError(f"LP at t = {t!r} accepted a weight on the cone boundary")
        if ((num @ w) / (den @ w)).max() > t * (1 + 1e-11):
            raise SolverError(f"LP at t = {t!r} accepted weights whose direct ratio exceeds t")
        full = np.array(self.expand(w))
        return Measure(tuple((full / full.min()).tolist()))

    def _solve(self, a: np.ndarray) -> tuple[float, np.ndarray]:
        """Min s subject to a w <= s, var_sizes . w = 1, w >= 0: (s, w).

        The model is dense and column-wise, the weight columns then s, and is
        handed to HiGHS as plain arrays (``passModel``'s array overload, no
        ``HighsLp`` object).
        """
        highs = _highs_binding()
        if not np.isfinite(a).all():  # HiGHS would drop a NaN coefficient unseen
            raise SolverError("LP coefficients must be finite")
        if self._highs is None:
            self._highs = highs._Highs()
            self._highs.setOptionValue("output_flag", False)
            self._highs.setOptionValue("primal_feasibility_tolerance", 1e-10)
            self._highs.setOptionValue("dual_feasibility_tolerance", 1e-10)
        m, nv = a.shape
        matrix = np.zeros((nv + 1, m + 1))  # one row per column
        matrix[:nv, :m] = a.T
        matrix[:nv, m] = self.var_sizes
        matrix[nv, :m] = -1.0
        inf = highs.kHighsInf
        status = self._highs.passModel(
            nv + 1, m + 1, matrix.size,
            highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,  # offset 0
            np.append(np.zeros(nv), 1.0),  # cost
            np.append(np.zeros(nv), -inf), np.full(nv + 1, inf),  # column bounds
            np.append(np.full(m, -inf), 1.0), np.append(np.zeros(m), 1.0),  # row bounds
            np.arange(0, matrix.size, m + 1, dtype=np.int32),  # column starts
            np.tile(np.arange(m + 1, dtype=np.int32), nv + 1),  # row indices
            matrix.ravel(),
            np.zeros(nv + 1, dtype=np.int32),  # integrality: every column continuous
        )
        if status == highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP model")  # it would keep the last one
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            raise SolverError(f"HiGHS failed: {self._highs.modelStatusToString(status)}")
        return self._highs.getObjectiveValue(), np.array(self._highs.getSolution().col_value[:nv])

    def reduce(self, mu: Measure) -> np.ndarray:
        """Reduced weights of a class-constant measure, scaled to total mass 1."""
        x = np.array([float(mu[v]) for v in self.reps])
        return x / (self.var_sizes @ x)

    def check_exact(self, t: Fraction) -> tuple[Measure, tuple[Fraction, ...]] | None:
        """Exact-rational feasibility at rational t; measure plus per-row slacks.

        A dense Fraction simplex, kept off the compute path as the independent
        exact reference that boundary tests compare against.
        """
        from . import exactlp

        if self.constraint_count > EXACT_CONSTRAINT_CAP:
            raise SizeCapError(
                f"exact mode capped at {EXACT_CONSTRAINT_CAP} constraints, "
                f"got {self.constraint_count}"
            )
        den, num = self.rows()
        x = exactlp.feasible_min_one((num.astype(object) - t * den.astype(object)).tolist())
        if x is None:
            return None
        mu = Measure(self.expand(x))
        return mu, exact_slacks(self.g, mu, t)[1]


def _highs_binding():
    """scipy's bundled HiGHS binding ``scipy.optimize._highspy._core``, loaded on first use.

    It is loaded from its file: importing it by name would first run all of
    scipy.optimize's imports, 0.7 s and 50 MB of RSS against 0.02 s and 5 MB
    (scipy 1.17.1, x86-64 Linux).  It is registered under its own name, so
    an import of scipy.optimize, before or after, shares the one module.
    """
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        import scipy

        folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
        paths = [folder / f"_core{suffix}" for suffix in EXTENSION_SUFFIXES]
        found = [path for path in paths if path.exists()]
        if not found:
            raise ImportError(f"scipy {scipy.__version__} has no HiGHS binding in {folder}")
        spec = importlib.util.spec_from_file_location(name, found[0])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def feasible(g: Graph, *, t: float) -> Measure | None:
    """Measure with mu >= 1 and all doubling ratios <= t, or None."""
    if not 1 <= t < math.inf:  # NaN fails this too
        raise ValidationError(f"candidate constant must be finite and >= 1, got {t!r}")
    return FeasibilityProblem(g).check(t)


@dataclass(frozen=True)
class Certificate:
    """Exact witness of C_G <= t: the reported minimizer with exact weights.

    ``t`` is the measure's exact C_mu, and ``slacks`` holds t mu(B(v, k)) -
    mu(B(v, 2k+1)) for every vertex v and radius index k, k-major, so the
    certificate does not rest on the class reduction.
    """

    t: Fraction
    measure: Measure
    slacks: tuple[Fraction, ...]

    @property
    def c_mu_exact(self) -> Fraction:
        """The measure's exact C_mu, which is ``t``."""
        return self.t


@dataclass(frozen=True)
class OptimizationResult:
    c_g: float
    bracket: tuple[float, float]
    minimizer: Measure
    lower_bound_spectral: float
    method_notes: dict
    minimizer_report: DoublingReport
    perron_report: DoublingReport  # full report of the Perron measure
    classes: tuple[int, ...]  # reduction class of every vertex, numbered by first vertex
    certificate: Certificate | None = None
    c_g_exact: Fraction | None = None

    def lemachorra(self) -> dict:
        """The check_lemachorra record, from this run's Perron pass."""
        return _lemachorra_record(self.lower_bound_spectral, self.perron_report)


def least_doubling(
    g: Graph,
    tol: float = DEFAULT_BISECT_TOL,
    *,
    certificate: bool = False,
    orbit_reduction: bool = True,
    eig_tol: float = DEFAULT_EIG_TOL,
) -> OptimizationResult:
    """Compute C_G with a bracketing interval of width <= tol.

    The bracket runs from C0, or from the exact counting constant
    ``c_g_exact`` when the reduction leaves a single class, up to the better
    of the Perron and counting measures' constants, ties going to Perron.
    The CFS iteration only narrows it (see the module docstring); c_g is the
    minimizer's own constant, and the lower end is C0 or a t at which the
    LP is infeasible.  More than ``LP_SOLVE_CAP`` LP solves raise
    SizeCapError, and a tol below the LP's accuracy (about 1e-11 relative)
    ValidationError.  ``certificate=True`` certifies the reported
    minimizer: its float weights are exact dyadic rationals, so its exact
    C_mu and every row slack are read from the integer ball-mass table.
    """
    if not 0 < tol < math.inf:  # NaN fails this too
        raise ValidationError("tolerance must be finite and > 0")
    dt = distances(g)
    classes = _distance_classes(dt) if orbit_reduction else tuple(range(g.n))
    c0, mu0 = _perron_pass(g, eig_tol)
    masses0, report0 = _masses_and_report(g, dt, mu0)
    counting_masses, counting = _masses_and_report(g, dt, counting_measure(g))
    c_g_exact = counting.c_mu if max(classes) == 0 else None  # a single class
    # only what the run decided; diam2_shortcut stays because the perfbench tracer reads it
    notes: dict = {"diam2_shortcut": dt.diam <= 2, "lp_solves": 0}

    # each measure's one ball-mass table gives its report and its LP row masses
    if float(counting.c_mu) < float(report0.c_mu):
        best_mu, minimizer_report, best = counting_measure(g), counting, counting_masses
    else:
        best_mu, minimizer_report, best = mu0, report0, masses0
    t_lo = c0 if c_g_exact is None else float(c_g_exact)
    t_hi = max(float(minimizer_report.c_mu), t_lo)
    if t_hi - t_lo > tol:
        problem = FeasibilityProblem(g, classes)
        x = problem.reduce(best_mu)
        den_x, num_x = problem.row_masses(best)
        batch = max(problem.n_vars, 8)
        active = np.zeros(problem.reduced_rows, dtype=bool)
        active[: problem.n_vars] = True  # radius-0 rows: every weight stays positive
        active[np.argsort(-(num_x / den_x), kind="stable")[:batch]] = True
        t = _below(t_hi, tol)
        while t_hi - t_lo > tol:
            if notes["lp_solves"] >= LP_SOLVE_CAP:
                raise SizeCapError(
                    f"least_doubling stopped at {LP_SOLVE_CAP} LP solves, "
                    f"bracket ({t_lo!r}, {t_hi!r})"
                )
            found = problem.check(t, np.flatnonzero(active), x)
            notes["lp_solves"] += 1
            if found is None:
                t_lo = t
                continue
            masses, report = _masses_and_report(g, dt, found)
            if float(report.c_mu) < t_hi:
                t_hi, best_mu, minimizer_report, best = float(report.c_mu), found, report, masses
            # found is the full LP's optimum (the CFS step) once no inactive
            # row lies above the active maximum, and feasible at t once none
            # lies above 0; else add the inactive rows nearest to binding
            den_w, num_w = problem.row_masses(masses)
            v = (num_w - t * den_w) / den_x
            rest = np.flatnonzero(~active)
            if rest.size and v[rest].max() > min(v[active].max(), 0.0):
                active[rest[np.argsort(-v[rest], kind="stable")[:batch]]] = True
                continue
            x, t, last = problem.reduce(best_mu), _below(t_hi, tol), t
            den_x = problem.row_masses(best)[0]
            if t == last:  # no step below t_hi: found meets t only within check's 1e-11
                raise ValidationError(
                    f"tolerance {tol!r} is finer than the LP's accuracy at t = {t!r}"
                )

    cert = None
    if certificate:
        exact_mu = Measure(tuple(Fraction(w) for w in best_mu.weights))
        t, slacks = exact_slacks(g, exact_mu)
        cert = Certificate(t=t, measure=exact_mu, slacks=slacks)

    return OptimizationResult(
        c_g=t_hi,
        bracket=(t_lo, t_hi),
        minimizer=best_mu,
        lower_bound_spectral=c0,
        method_notes=notes,
        minimizer_report=minimizer_report,
        perron_report=report0,
        classes=classes,
        certificate=cert,
        c_g_exact=c_g_exact,
    )


def _below(t_hi: float, tol: float) -> float:
    """t_hi - tol, raised by ulps until t_hi - t <= tol holds in floats."""
    t = t_hi - tol
    while t_hi - t > tol:
        t = math.nextafter(t, t_hi)
    return t


def _perron_pass(g: Graph, eig_tol: float) -> tuple[float, Measure]:
    """C0 = 1 + r(A_G) and the Perron measure."""
    spectrum = perron(g, eig_tol)
    return spectrum.c0, Measure(tuple(float(w) for w in spectrum.eigvec))


def _distance_classes(dt: DistanceTable) -> tuple[int, ...]:
    """Class of every vertex under colour refinement of the distance colouring.

    From one class, each round splits vertices by their sorted (distance,
    class) pairs, the first round by their sorted distance rows, until the
    class count stops growing.  Equal signatures are found by their bytes
    (one ``np.void`` scalar per row).  Classes are numbered by their first
    vertex, as ``orbit_partition`` numbers orbits.

    The reduction is exact because the stable partition is equitable: each
    ball matrix satisfies B_r S = S Q_r for the class indicator matrix S.
    B_r is symmetric, so averaging over classes commutes with it and maps a
    measure with mu(B(v, 2k+1)) <= t mu(B(v, k)) to a class-constant one.
    Automorphisms preserve every signature, so classes are never finer than
    the Aut(G) orbits.
    """
    colour = np.zeros(len(dt.dist), dtype=np.int64)
    count = 1
    while True:
        signatures = np.ascontiguousarray(np.sort(dt.dist * count + colour, axis=1))
        rows = signatures.view(np.dtype((np.void, signatures[0].nbytes))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        colour = np.argsort(np.argsort(first))[inverse]
        if len(first) == count:
            return tuple(colour.tolist())
        count = len(first)


def check_lemachorra(g: Graph) -> dict:
    """Compare the Perron measure's full constant against C_G^0.

    Equality (within ``LEMACHORRA_TOL``) certifies C_G = C_G^0 without
    running the optimizer.
    """
    c0, mu0 = _perron_pass(g, DEFAULT_EIG_TOL)
    return _lemachorra_record(c0, doubling_report(g, mu=mu0))


def _lemachorra_record(c0: float, perron_report: DoublingReport) -> dict:
    c_full = float(perron_report.c_mu)
    return {"c0": c0, "c_mu0_full": c_full, "equal": c_full - c0 <= LEMACHORRA_TOL}


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
    grid point.  With ``symmetric=True`` the grid runs over measures constant
    on the ``_distance_classes``, an exact reduction (a minimizer constant on
    them exists); classes are never finer than the Aut(G) orbits, and every
    connected graph on <= 5 vertices has a non-trivial automorphism, keeping
    the grid at most 4-dimensional.
    """
    if g.n > BRUTE_FORCE_VERTEX_CAP:
        raise SizeCapError(f"brute force capped at {BRUTE_FORCE_VERTEX_CAP} vertices")
    if grid_resolution < 2:
        raise ValidationError("grid resolution must be >= 2")
    dt = distances(g)
    kmax = max_radius_index(dt.diam)
    class_of = _distance_classes(dt) if symmetric else tuple(range(g.n))
    dims = max(class_of) + 1  # classes are numbered 0, 1, ... by first vertex
    member = np.equal.outer(class_of, np.arange(dims)).astype(float)
    count = [(dt.dist <= r).astype(float) @ member for r in range(2 * kmax + 2)]

    w = np.ones((1, 1), dtype=np.int64) if dims == 1 else _grid(grid_resolution, dims)
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
    weights = tuple(int(best_row[class_of[v]]) for v in range(g.n))
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
    blocks = []
    for first in range(1, total - parts + 2):
        rest = _compositions(total - first, parts - 1)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)
