"""dublo: least doubling constants and spectral theory on finite graphs.

Core objects: Graph / DistanceTable / Measure; the restricted doubling
constants and their optimizer (a Dinkelbach-type LP iteration with row
generation, reduced by distance colour refinement, exact-rational
certificates); generators for the named graph families; and the structural
classifier for the C_G <= 3 catalog.
"""

from .classifier import ClassificationVerdict, classify_leq3, structural_lower_bound
from .doubling import (
    DoublingReport,
    Measure,
    counting_measure,
    doubling_report,
    load_measure_text,
    max_radius_index,
)
from .errors import DubloError, ParseError, SizeCapError, SolverError, ValidationError
from .families import (
    ExpectedConstant,
    FamilySpec,
    catalog,
    expected_constant,
    generate,
    poly_largest_root,
    truncation_study,
)
from .graphs import (
    DistanceTable,
    Graph,
    StructuralFacts,
    ball,
    distances,
    parse_edge_list,
    parse_graph6,
    structural_facts,
    write_graph6,
)
from .optimizer import (
    Certificate,
    FeasibilityProblem,
    OptimizationResult,
    check_lemachorra,
    feasible,
    least_doubling,
)
from .spectral import SpectralResult, perron
from .symmetry import (
    OrbitPartition,
    automorphisms,
    is_vertex_transitive,
    orbit_partition,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ClassificationVerdict",
    "DistanceTable",
    "DoublingReport",
    "DubloError",
    "ExpectedConstant",
    "FamilySpec",
    "FeasibilityProblem",
    "Graph",
    "Measure",
    "OptimizationResult",
    "OrbitPartition",
    "ParseError",
    "SizeCapError",
    "SolverError",
    "SpectralResult",
    "StructuralFacts",
    "ValidationError",
    "automorphisms",
    "ball",
    "catalog",
    "check_lemachorra",
    "classify_leq3",
    "counting_measure",
    "distances",
    "doubling_report",
    "expected_constant",
    "feasible",
    "generate",
    "is_vertex_transitive",
    "least_doubling",
    "load_measure_text",
    "max_radius_index",
    "orbit_partition",
    "parse_edge_list",
    "parse_graph6",
    "perron",
    "poly_largest_root",
    "structural_facts",
    "structural_lower_bound",
    "truncation_study",
    "write_graph6",
]
