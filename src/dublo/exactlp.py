"""Exact rational feasibility for homogeneous ratio constraints.

Solves: find x >= 1 (componentwise) with A x <= 0, all entries Fractions,
via a dense phase-1 simplex with Bland's rule (finite termination).  It is
not on the compute path: ``least_doubling`` certifies its float minimizer
directly.  ``FeasibilityProblem.check_exact`` wraps it as the independent
exact reference that the C = 3 boundary tests compare against, so a plain
tableau on desk-scale systems is the simplest trustworthy choice.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SolverError

PIVOT_CAP = 50_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


def feasible_min_one(A: list[list[Fraction]]) -> list[Fraction] | None:
    """Exact solution of {A x <= 0, x >= 1}, or None when infeasible."""
    m = len(A)
    if m == 0:
        return []
    nv = len(A[0])
    # substitute x = 1 + y with y >= 0:  A y <= b,  b = -A . 1
    b = [-sum(row) for row in A]

    # rows are sign-normalized so rhs >= 0; rows that flip need an artificial
    ncols = nv + m + sum(1 for bi in b if bi < 0)
    tab: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    next_art = nv + m
    for i in range(m):
        row = [Fraction(a) for a in A[i]]
        bi = Fraction(b[i])
        if bi < 0:
            row = [-a for a in row]
            bi = -bi
            slack = -_ONE
        else:
            slack = _ONE
        full = row + [_ZERO] * (ncols - nv)
        full[nv + i] = slack
        if slack < 0:
            full[next_art] = _ONE
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(nv + i)
        tab.append(full)
        rhs.append(bi)

    first_art = nv + m
    # phase-1 objective: minimize the artificial sum; price row starts as the
    # sum of rows whose basic variable is artificial
    price = [_ZERO] * ncols
    objective = _ZERO
    for i in range(m):
        if basis[i] >= first_art:
            for j in range(ncols):
                price[j] += tab[i][j]
            objective += rhs[i]

    if objective == 0:
        return [_ONE] * nv if nv else []

    for _pivot in range(PIVOT_CAP):
        enter = -1
        for j in range(first_art):  # artificials never re-enter
            if price[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = rhs[i] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise SolverError("phase-1 simplex claims unbounded objective")
        piv = tab[leave][enter]
        inv = _ONE / piv
        tab[leave] = [a * inv for a in tab[leave]]
        rhs[leave] *= inv
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * p for a, p in zip(tab[i], tab[leave])]
                rhs[i] -= f * rhs[leave]
        if price[enter] != 0:
            f = price[enter]
            price = [a - f * p for a, p in zip(price, tab[leave])]
            objective -= f * rhs[leave]
        basis[leave] = enter
        if objective == 0:
            break
    else:
        raise SolverError(f"phase-1 simplex exceeded {PIVOT_CAP} pivots")

    if objective != 0:
        return None

    y = [_ZERO] * nv
    for i, col in enumerate(basis):
        if col < nv:
            y[col] = rhs[i]
    x = [_ONE + v for v in y]
    for row in A:
        if sum(a * xi for a, xi in zip(row, x)) > 0:
            raise SolverError("exact simplex produced an invalid solution")
    return x
