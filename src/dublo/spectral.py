"""Spectral radius and Perron eigenvector of the adjacency matrix.

A Collatz-Wielandt loop of power iteration on A + I certifies the radius (the
shift breaks the -lambda_1 oscillation on bipartite graphs; the reported
radius is the shifted limit minus one).  It starts from LAPACK's top
eigenvector (``numpy.linalg.eigh``), which usually closes the bracket on the
first step; when that vector is not strictly positive and finite after
scaling (tail entries that underflow on hub-and-tail graphs), it starts from
all-ones instead, which is also exact on regular graphs.  Either way the
start is only a guess: the Collatz-Wielandt bracket is the certificate.  The
eigenvector is normalized to minimum entry 1, matching the optimizer's
mu >= 1 convention.  The bracket closes at the one tolerance ``EIG_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .graphs import Graph

EIG_TOL = 1e-12
MAX_ITERATIONS = 10**6


@dataclass(frozen=True)
class SpectralResult:
    radius: float
    eigvec: np.ndarray  # strictly positive, min entry 1
    residual: float
    iterations: int

    @property
    def c0(self) -> float:
        """C0 = 1 + r(A_G), the restricted doubling constant at radius 0."""
        return 1.0 + self.radius


def _start(g: Graph, a: np.ndarray) -> np.ndarray:
    """The power iteration's first iterate: |top eigenvector of a|, min entry 1, or all-ones."""
    degrees = g.degrees
    if min(degrees) == max(degrees):  # all-ones is the Perron vector
        return np.ones(g.n)
    v = np.abs(np.linalg.eigh(a)[1][:, -1])
    if v.min() > 0:
        with np.errstate(over="ignore"):
            x = v / v.min()
        if np.isfinite(x).all():
            return x
    return np.ones(g.n)  # a zero (an underflowed tail) or an overflow: the plain start


def perron(g: Graph) -> SpectralResult:
    """Spectral radius and Perron eigenvector to within ``EIG_TOL``.

    Starts from ``_start``'s guess and stops when the Collatz-Wielandt
    bracket closes: for a positive iterate x,
    min_v (Ax)_v / x_v <= r(A) <= max_v (Ax)_v / x_v, so a bracket width
    <= EIG_TOL bounds the radius error directly (and is scale-free, which
    matters for graphs whose Perron vector spans many orders of magnitude).  The
    reported residual is the eigen-residual of the max-normalized vector and
    never exceeds the bracket width.  More than ``MAX_ITERATIONS`` steps
    raise SolverError.
    """
    if g.n == 1:
        return SpectralResult(0.0, np.ones(1), 0.0, 0)
    a = g.adjacency_matrix()
    x = _start(g, a)
    for it in range(1, MAX_ITERATIONS + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
            ax = a @ x
            ratios = ax / x
            spread = float(ratios.max() - ratios.min())
        if not np.isfinite(spread):
            raise SolverError(f"power iteration overflowed after {it} iterations")
        if spread <= EIG_TOL:
            # x @ ax / (x @ x) on x / 2^e: an exact scaling, so the same quotient, never overflowing
            e = np.frexp(x.max())[1]
            s = np.ldexp(x, -e)
            radius = float(s @ np.ldexp(ax, -e) / (s @ s))
            u = x / x.max()
            residual = float(np.max(np.abs(a @ u - radius * u)))
            return SpectralResult(radius, x / x.min(), residual, it)
        y = ax + x  # (A + I) x keeps iterates strictly positive
        x = y / y.min()
    raise SolverError(
        f"power iteration bracket did not reach {EIG_TOL} in {MAX_ITERATIONS} iterations"
    )
