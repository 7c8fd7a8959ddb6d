"""Measures on graphs and evaluation of doubling constants.

The full doubling constant of a measure reduces, for finite diameter, to the
radius pairs ``(k, 2k+1)`` with ``0 <= k <= ceil((diam-1)/2)``; larger radii
are redundant because the balls saturate.  Every ball mass comes from one
table, ``mass[i, r] = mu(B(c_i, r))`` for ``r = 0..diam``, built by one
histogram pass over the distance rows and a cumulative sum; one helper turns
its doubling radii into the per-k maxima and witnesses.  Exact measures
(every weight an int or ``Fraction``) are scaled to integers by the lcm of
their denominators, so exact evaluation is the float computation run on
integer arrays, and its ratios are exact ``Fraction`` values, which is what
certificate-grade comparisons at the C = 3 boundary use; ``exact_slacks``
reads the certificate's per-row slacks from the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .graphs import DistanceTable, Graph, distances

Weight = float | int | Fraction


def max_radius_index(diam: int) -> int:
    """Largest radius index k needed: ceil((diam - 1) / 2), i.e. diam // 2."""
    return max(0, diam) // 2


@dataclass(frozen=True)
class Measure:
    """Strictly positive weight per vertex; ints/Fractions keep it exact."""

    weights: tuple[Weight, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValidationError("measure needs at least one weight")
        for i, w in enumerate(self.weights):
            if isinstance(w, float) and not np.isfinite(w):
                raise ValidationError(f"weight {i} is not finite")
            if w <= 0:
                raise ValidationError(f"weight {i} must be > 0, got {w}")

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, v: int) -> Weight:
        return self.weights[v]

    @property
    def is_exact(self) -> bool:
        return all(isinstance(w, Rational) for w in self.weights)

    def as_array(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights], dtype=np.float64)


def counting_measure(g: Graph) -> Measure:
    """Weight 1 on every vertex (exact)."""
    return Measure((1,) * g.n)


class PerRadius(NamedTuple):
    k: int
    value: Weight
    witness: int


@dataclass(frozen=True)
class DoublingReport:
    """C_mu together with the per-radius restricted constants and witnesses."""

    c_mu: Weight
    per_k: tuple[PerRadius, ...]  # k = 0..max_radius_index(diam)


# mu is keyword-only: perfbench/tracer.py reads it as args[2] when given, else kwargs["mu"]
def doubling_report(g: Graph, *, mu: Measure) -> DoublingReport:
    """Evaluate every restricted constant; C_mu is their maximum."""
    weights = _scaled_integers(mu.weights)[0] if mu.is_exact else mu.as_array()
    return _masses_and_report(distances(g), weights)[1]


def _masses_and_report(
    dt: DistanceTable, weights: np.ndarray
) -> tuple[np.ndarray, DoublingReport]:
    """A weight array's ``_ball_masses`` table around every vertex, and the report read from it.

    Float weights give a float report; integer weights an exact one.
    """
    masses = _ball_masses(dt.dist, weights, dt.diam)
    per_k = tuple(PerRadius(k, *top) for k, top in enumerate(_max_ratios(masses)))
    return masses, DoublingReport(max(p.value for p in per_k), per_k)


def _scaled_integers(weights: Sequence[Weight]) -> tuple[np.ndarray, int]:
    """Exact weights times the lcm of their denominators, and that lcm.

    The dtype is int64, or object (Python ints) when the scaled total, which
    bounds every ball mass, could overflow int64.
    """
    scale = math.lcm(*(Fraction(w).denominator for w in weights))
    ints = [int(w * scale) for w in weights]
    return np.array(ints, dtype=np.int64 if sum(ints) < 2**63 else object), scale


def _ball_masses(dist: np.ndarray, weights: np.ndarray, diam: int) -> np.ndarray:
    """Ball masses around each row's centre at radii k, then 2k+1, for k = 0..k_max.

    One histogram pass adds each weight to the bucket of its distance from
    each centre, a cumulative sum over r = 0..diam makes the table
    mass[i, r] = mu(B(c_i, r)), and the doubling radii are read from it (2k+1
    capped at diam, where balls saturate).  The dtype is the weights'.
    """
    if len(weights) != len(dist):
        raise ValidationError(f"measure has {len(weights)} weights for a {len(dist)}-vertex graph")
    buckets = np.zeros((dist.shape[0], diam + 1), dtype=weights.dtype)
    np.add.at(buckets, (np.arange(dist.shape[0])[:, None], dist), weights)
    np.cumsum(buckets, axis=1, out=buckets)
    ks = np.arange(max_radius_index(diam) + 1)
    return buckets[:, np.concatenate([ks, np.minimum(2 * ks + 1, diam)])]


def _max_ratios(masses: np.ndarray) -> list[tuple[Weight, int]]:
    """Per k, the largest mass(2k+1) / mass(k) over the rows of ``_ball_masses``, and its row.

    Ties go to the smallest row.  Float masses give floats; integer masses
    give exact Fractions, the float ratios only picking the candidates, which
    are compared by cross-multiplying Python ints.
    """
    den, num = np.split(masses, 2, axis=1)
    ratios = (num / den).astype(np.float64)
    if masses.dtype.kind == "f":
        return list(zip(ratios.max(axis=0).tolist(), ratios.argmax(axis=0).tolist()))
    best = []
    for k, top in enumerate(ratios.max(axis=0)):
        near = np.flatnonzero(ratios[:, k] >= top * (1 - 1e-9))
        p, q, row = 0, 1, 0
        for i, a, b in zip(near.tolist(), num[near, k].tolist(), den[near, k].tolist()):
            if a * q > p * b:  # strictly larger, so ties keep the smallest row
                p, q, row = a, b, i
        best.append((Fraction(p, q), row))
    return best


def exact_slacks(
    g: Graph, mu: Measure, t: Fraction | None = None
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact t mu(B(v, k)) - mu(B(v, 2k+1)) for every (k, v) row, k-major, and t.

    ``mu`` must be exact.  Without ``t`` it is the measure's own C_mu, read
    from the same integer table, so the least slack is then exactly 0.
    """
    dt = distances(g)
    ints, scale = _scaled_integers(mu.weights)
    masses = _ball_masses(dt.dist, ints, dt.diam)
    if t is None:
        t = max(value for value, _ in _max_ratios(masses))
    den, num = np.split(masses.astype(object), 2, axis=1)
    p, q = t.numerator, t.denominator
    return t, tuple(Fraction(int(s), q * scale) for s in (p * den - q * num).T.ravel())


def _parse_weight(token: str) -> Weight:
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad fraction weight {token!r}") from exc
    try:
        if token.isdigit() or (token.startswith("-") and token[1:].isdigit()):
            return int(token)
        return float(token)
    except ValueError as exc:
        raise ParseError(f"bad weight {token!r}") from exc


def load_measure_text(text: str, g: Graph) -> Measure:
    """Read 'vertex weight' lines; weights are decimals or fractions 'p/q'.

    Vertices are matched against the graph's labels when present, else
    interpreted as dense indices.  Every vertex must get exactly one weight.
    """
    by_label = (
        {lab: i for i, lab in enumerate(g.labels)} if g.labels is not None else None
    )
    weights: dict[int, Weight] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'vertex weight', got {raw!r}")
        token, wtok = parts
        if by_label is not None and token in by_label:
            v = by_label[token]
        else:
            try:
                v = int(token)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: unknown vertex {token!r}") from exc
            if not 0 <= v < g.n:
                raise ParseError(f"line {lineno}: vertex {v} out of range")
        if v in weights:
            raise ParseError(f"line {lineno}: duplicate weight for vertex {token!r}")
        weights[v] = _parse_weight(wtok)
    missing = [v for v in range(g.n) if v not in weights]
    if missing:
        raise ParseError(f"missing weights for vertices {missing}")
    return Measure(tuple(weights[v] for v in range(g.n)))
