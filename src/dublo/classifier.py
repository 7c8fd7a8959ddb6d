"""Structural classification of finite graphs by their least doubling constant.

The catalog of graphs with C_G <= 3 is exactly: paths, cycles, the D-family
trees and their extension D_hat, plus the two exceptional trees E6 and E7.
Recognition is purely structural (degree multiset and tree shape), so the
delicate boundary cases with spectral radius exactly 2 but C_G > 3 (the
hatted trees and E8) are decided without floating-point peril.  The one
genuinely open strictness question, whether a D-family tree sits strictly
below 3, is settled numerically per instance, since only the upper bound
C <= 3 has a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SolverError
from .families import SMITH_TREES, FamilySpec, expected_constant, is_d_hat, is_d_n, spider_legs
from .graphs import Graph, structural_facts
from .optimizer import DEFAULT_BISECT_TOL, OptimizationResult, least_doubling

# a computed C_G this close to 3 reads as 3, both in the D_n verdict and in the
# cross-check of every verdict
_MARGIN = 1e-7
# the verdicts in the order of the values they cover
_POSITIONS = ("leq3_strict", "eq3", "gt3")


@dataclass(frozen=True)
class ClassificationVerdict:
    verdict: str  # "leq3_strict" | "eq3" | "gt3"
    family_match: str | None
    reasons: tuple[str, ...]
    numeric_cross_check: OptimizationResult | None = None


def structural_lower_bound(g: Graph) -> str | None:
    """First structural condition forcing C0_G >= 3, or None.

    None means: a tree with maximum degree <= 3 and at most one vertex of
    degree 3.  The conditions bound C0 only; a cycle, for instance, still
    allows C_G = 3 itself.
    """
    facts = structural_facts(g)
    if facts.has_cycle:
        return "(i) contains a cycle"
    if facts.max_degree > 3:
        return f"(ii) vertex of degree {facts.max_degree} > 3"
    if facts.count_deg_ge3 >= 2:
        return f"(iii) {facts.count_deg_ge3} vertices of degree >= 3"
    return None


def classify_leq3(
    g: Graph, tol: float = DEFAULT_BISECT_TOL, cross_check: bool = False
) -> ClassificationVerdict:
    """Place C_G relative to 3 and name the catalog family when C_G <= 3."""
    facts = structural_facts(g)
    reasons: list[str] = []
    rule = structural_lower_bound(g)
    if rule is not None:
        reasons.append(rule + " => C0 >= 3")

    verdict: str
    family: str | None = None
    numeric: OptimizationResult | None = None

    if facts.has_cycle:
        if facts.is_regular and facts.max_degree == 2:
            verdict, family = "eq3", "C_n"
            reasons.append("pure cycle: C = 3 exactly")
        else:
            verdict = "gt3"
            reasons.append("strictly contains a cycle, so C0 > 3")
    elif facts.max_degree <= 2:
        verdict, family = "leq3_strict", "L_n"
        reasons.append("path: C < 3")
    elif facts.max_degree >= 4:
        if is_d_hat(g):
            verdict, family = "eq3", "D_hat_n"  # the 4-leaf star is the smallest D_hat
            reasons.append("4-leaf star: C = C0 = 3 exactly")
        else:
            verdict = "gt3"
            reasons.append("strictly contains the 4-leaf star, so C0 > 3")
    elif facts.count_deg_ge3 >= 2:
        if is_d_hat(g):
            verdict, family = "eq3", "D_hat_n"
            reasons.append("D_hat tree: C = C0 = 3 exactly")
        else:
            verdict = "gt3"
            reasons.append("tree strictly containing a D_hat tree, so C0 > 3")
    else:
        legs = spider_legs(g)  # a tree with one branch vertex is a spider
        tree = next((name for name, t in SMITH_TREES.items() if t.legs == legs), None)
        expected = None if tree is None else expected_constant(FamilySpec(tree))
        if is_d_n(g):
            numeric = least_doubling(g, tol)
            family = "D_n"
            if _position(numeric.c_g) == "leq3_strict":
                verdict = "leq3_strict"
                reasons.append(
                    f"D-family tree: C <= 3 always, C = {numeric.c_g:.9f} < 3 numerically"
                )
            else:
                verdict = "eq3"
                reasons.append("D-family tree: C <= 3 always, value within margin of 3")
        elif expected is None:
            verdict = "gt3"
            reasons.append("spider tree strictly containing an extended tree, so C0 > 3")
        elif expected.proven == "strict_upper_bound" and expected.c_g <= 3:
            verdict, family = "leq3_strict", tree.upper()
            reasons.append(f"{family} tree: C < 3")
        elif expected.proven == "lower_bound_only":
            verdict = "gt3"
            reasons.append(
                f"{tree.upper()} tree: spectral radius below 2 but C >= {expected.c_g:.7f} "
                "(largest root of its ratio polynomial)"
            )
        else:
            verdict = "gt3"
            reasons.append("extended tree with spectral radius exactly 2 but C > 3")

    if cross_check:
        if numeric is None:
            numeric = least_doubling(g, tol)
        # C_G lies anywhere in the bracket, whose width is up to tol: the check
        # fails only when no point of the bracket, within the margin, fits the verdict
        lo, hi = numeric.bracket
        low, high = (_POSITIONS.index(_position(end)) for end in (lo - _MARGIN, hi + _MARGIN))
        if not low <= _POSITIONS.index(verdict) <= high:
            raise SolverError(
                f"classification {verdict} disagrees with optimizer "
                f"bracket [{lo}, {hi}] ({_POSITIONS[low]} to {_POSITIONS[high]})"
            )

    return ClassificationVerdict(verdict, family, tuple(reasons), numeric)


def _position(c_g: float) -> str:
    """Where a computed C_G lies relative to 3, with the one margin of every verdict."""
    if c_g < 3 - _MARGIN:
        return "leq3_strict"
    if c_g > 3 + _MARGIN:
        return "gt3"
    return "eq3"
