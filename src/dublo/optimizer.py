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
Every measure on this path is a vertex-weight array; only the reported
minimizer (and, with a certificate, its exact copy) becomes a ``Measure``.
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
    doubling_report,
    exact_slacks,
    max_radius_index,
)
from .errors import SizeCapError, SolverError, ValidationError
from .graphs import DistanceTable, Graph, distances
from .spectral import perron

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
        # the last optimal basis: column statuses, the normalisation row's
        # status, and each imposed row's status by k-major row id
        self._basis = None
        self.cold_retries = 0  # warm starts that ended non-optimal and were solved again cold
        # class indicator: vertex v lies in class c exactly when entry (v, c) is 1
        self._indicator = np.equal.outer(self._expand_map, np.arange(self.n_vars)).astype(float)

    @property
    def constraint_count(self) -> int:
        """Full (unreduced) constraint count n * (k_max + 1)."""
        return self.g.n * (self.k_max + 1)

    @property
    def reduced_rows(self) -> int:
        return len(self.reps) * (self.k_max + 1)

    def rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(den, num): int64 |B(rep, r) ∩ class| at r = k and 2k+1 for k-major rows ``ids``.

        Float products of 0/1 entries, exact below 2**53.
        """
        k, i = np.divmod(ids, self.n_vars)
        dist = self.dt.dist[self.reps[i]]
        return tuple(
            ((dist <= r[:, None]) @ self._indicator).astype(np.int64) for r in (k, 2 * k + 1)
        )

    def row_masses(self, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(den, num) of every k-major row, read from a measure's ball-mass table."""
        return tuple(masses[self.reps].T.reshape(2, -1))

    def check(
        self, t: float, rows: np.ndarray | None = None, scale: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Float LP: minimal max-violation over the weight simplex.

        Solved by HiGHS via scipy's bundled binding, each solve warm-started
        from the last optimal basis (see ``_solve``).  Imposes the k-major
        reduced ``rows`` (every row by default), whose counts ``self.rows``
        builds for this call only.  With ``scale``, reduced
        weights x, each row N_i - t D_i is divided by D_i x, its radius-k ball
        mass under x.  Returns strictly positive vertex weights (min 1)
        whose ratios on the imposed rows are re-verified directly against t,
        or None when the LP's value exceeds ``_FEAS_EPS``, which
        proves t infeasible: scaling keeps the feasible set, and rows with no
        common solution leave the full system none.  An accepted answer with
        a non-finite weight, on the cone boundary, or whose direct ratios
        exceed t proves nothing either way and raises SolverError, as does
        any HiGHS status other than optimal.  A non-finite t raises
        ValidationError.
        """
        if not math.isfinite(t):
            raise ValidationError(f"candidate constant must be finite, got {t!r}")
        ids = np.arange(self.reduced_rows) if rows is None else np.asarray(rows)
        den, num = self.rows(ids)
        a = num - t * den
        if scale is not None:
            a /= (den @ scale)[:, None]
        value, w = self._solve(a, ids)
        if value > _FEAS_EPS:
            return None
        if not np.isfinite(w).all():  # both checks below are false on NaN
            raise SolverError(f"LP at t = {t!r} accepted a non-finite weight")
        if w.min() <= 1e-12 * max(w.max(), 1e-30):
            raise SolverError(f"LP at t = {t!r} accepted a weight on the cone boundary")
        if ((num @ w) / (den @ w)).max() > t * (1 + 1e-11):
            raise SolverError(f"LP at t = {t!r} accepted weights whose direct ratio exceeds t")
        full = w[self._expand_map]
        return full / full.min()

    def _solve(self, a: np.ndarray, ids: np.ndarray) -> tuple[float, np.ndarray]:
        """Min s subject to a w <= s, var_sizes . w = 1, w >= 0: (s, w).

        The model is dense and column-wise, the weight columns then s, and is
        handed to HiGHS as plain arrays (``passModel``'s array overload, no
        ``HighsLp`` object).  Row j of ``a`` is the k-major row ``ids[j]``.

        The simplex starts from the last optimal basis: every column and the
        normalisation row keep their status, a row imposed before keeps its
        own, and a new row starts basic.  That basis is set only when its
        basic count equals the row count, else the solve is cold.  A warm
        run that ends other than optimal is run once more cold and counted
        in ``cold_retries``; a cold run that ends so raises SolverError.
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
        keys, warm = ids.tolist(), False
        if self._basis is not None:
            cols, norm, known = self._basis
            basic = highs.HighsBasisStatus.kBasic
            rows = [known.get(i, basic) for i in keys] + [norm]
            if (cols + rows).count(basic) == m + 1:
                basis = highs.HighsBasis()
                basis.col_status, basis.row_status = cols, rows
                warm = self._highs.setBasis(basis) != highs.HighsStatus.kError
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal and warm:
            self.cold_retries += 1
            self._highs.clearSolver()
            self._highs.run()
            status = self._highs.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            raise SolverError(f"HiGHS failed: {self._highs.modelStatusToString(status)}")
        basis = self._highs.getBasis()
        rows = basis.row_status
        self._basis = (basis.col_status, rows[m], dict(zip(keys, rows)))
        return self._highs.getObjectiveValue(), np.array(self._highs.getSolution().col_value[:nv])

    def reduce(self, weights: np.ndarray) -> np.ndarray:
        """Reduced weights of class-constant vertex weights, scaled to total mass 1."""
        x = weights[self.reps].astype(float)
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
        den, num = self.rows(np.arange(self.reduced_rows))
        x = exactlp.feasible_min_one((num.astype(object) - t * den.astype(object)).tolist())
        if x is None:
            return None
        mu = Measure(tuple(x[c] for c in self._expand_map))
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
    w = FeasibilityProblem(g).check(t)
    return None if w is None else Measure(tuple(w.tolist()))


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


@dataclass(frozen=True)
class OptimizationResult:
    c_g: float
    bracket: tuple[float, float]
    minimizer: Measure
    lower_bound_spectral: float
    method_notes: dict
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
    classes = _distance_classes(dt)
    spectrum = perron(g)
    c0, w0 = spectrum.c0, spectrum.eigvec
    masses0, report0 = _masses_and_report(dt, w0)
    ones = np.ones(g.n, dtype=np.int64)  # the counting measure, exact
    counting_masses, counting = _masses_and_report(dt, ones)
    c_g_exact = counting.c_mu if max(classes) == 0 else None  # a single class
    # only what the run decided; diam2_shortcut stays because the perfbench tracer reads it
    notes: dict = {"diam2_shortcut": dt.diam <= 2, "lp_solves": 0}

    # each measure's one ball-mass table gives its constant and its LP row masses
    if float(counting.c_mu) < float(report0.c_mu):
        best_w, c_best, best = ones, float(counting.c_mu), counting_masses
    else:
        best_w, c_best, best = w0, float(report0.c_mu), masses0
    t_lo = c0 if c_g_exact is None else float(c_g_exact)
    t_hi = max(c_best, t_lo)
    if t_hi - t_lo > tol:
        problem = FeasibilityProblem(g, classes)
        x = problem.reduce(best_w)
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
            masses, report = _masses_and_report(dt, found)
            if float(report.c_mu) < t_hi:
                t_hi, best_w, best = float(report.c_mu), found, masses
            # found is the full LP's optimum (the CFS step) once no inactive
            # row lies above the active maximum, and feasible at t once none
            # lies above 0; else add the inactive rows nearest to binding
            den_w, num_w = problem.row_masses(masses)
            v = (num_w - t * den_w) / den_x
            rest = np.flatnonzero(~active)
            if rest.size and v[rest].max() > min(v[active].max(), 0.0):
                active[rest[np.argsort(-v[rest], kind="stable")[:batch]]] = True
                continue
            x, t, last = problem.reduce(best_w), _below(t_hi, tol), t
            den_x = problem.row_masses(best)[0]
            if t == last:  # no step below t_hi: found meets t only within check's 1e-11
                raise ValidationError(
                    f"tolerance {tol!r} is finer than the LP's accuracy at t = {t!r}"
                )

    weights = best_w.tolist()  # Python floats, or the counting measure's ints
    cert = None
    if certificate:
        exact_mu = Measure(tuple(map(Fraction, weights)))
        t, slacks = exact_slacks(g, exact_mu)
        cert = Certificate(t=t, measure=exact_mu, slacks=slacks)

    return OptimizationResult(
        c_g=t_hi,
        bracket=(t_lo, t_hi),
        minimizer=Measure(tuple(weights)),
        lower_bound_spectral=c0,
        method_notes=notes,
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
    spectrum = perron(g)
    mu0 = Measure(tuple(spectrum.eigvec.tolist()))
    return _lemachorra_record(spectrum.c0, doubling_report(g, mu=mu0))


def _lemachorra_record(c0: float, perron_report: DoublingReport) -> dict:
    c_full = float(perron_report.c_mu)
    return {"c0": c0, "c_mu0_full": c_full, "equal": c_full - c0 <= LEMACHORRA_TOL}
