"""dublo: least doubling constants and spectral theory on finite graphs.

Core objects: Graph / DistanceTable / Measure; the restricted doubling
constants and their optimizer (LP-feasibility bisection reduced by distance
colour refinement, exact-rational certificates); generators for the named
graph families; and the structural classifier for the C_G <= 3 catalog.
"""

from .classifier import ClassificationVerdict, classify_leq3, structural_lower_bound
from .doubling import (
    DoublingReport,
    Measure,
    counting_measure,
    doubling_report,
    dump_measure_text,
    full_constant,
    load_measure_text,
    max_radius_index,
    mediant_max,
    restricted_constant,
)
from .errors import DubloError, ParseError, SizeCapError, SolverError, ValidationError
from .families import (
    ExpectedConstant,
    FamilySpec,
    catalog,
    expected_constant,
    generate,
    grid_ray_truncation,
    smith_c0_table,
    truncation_study,
)
from .graphs import (
    DistanceTable,
    Graph,
    StructuralFacts,
    ball,
    ball_matrix,
    distances,
    parse_edge_list,
    parse_graph6,
    structural_facts,
    write_graph6,
)
from .optimizer import (
    BruteForceResult,
    Certificate,
    FeasibilityProblem,
    OptimizationResult,
    brute_force_cg,
    brute_force_details,
    check_lemachorra,
    feasible,
    least_doubling,
    poly_largest_root,
)
from .spectral import SpectralResult, c0_constant, chromatic_number, perron, perron_measure
from .symmetry import (
    OrbitPartition,
    automorphisms,
    is_vertex_transitive,
    orbit_partition,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "BruteForceResult",
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
    "ball_matrix",
    "brute_force_cg",
    "brute_force_details",
    "c0_constant",
    "catalog",
    "check_lemachorra",
    "chromatic_number",
    "classify_leq3",
    "counting_measure",
    "distances",
    "doubling_report",
    "dump_measure_text",
    "expected_constant",
    "feasible",
    "full_constant",
    "generate",
    "grid_ray_truncation",
    "is_vertex_transitive",
    "least_doubling",
    "load_measure_text",
    "max_radius_index",
    "mediant_max",
    "orbit_partition",
    "parse_edge_list",
    "parse_graph6",
    "perron",
    "perron_measure",
    "poly_largest_root",
    "restricted_constant",
    "smith_c0_table",
    "structural_facts",
    "structural_lower_bound",
    "symmetrize",
    "truncation_study",
    "write_graph6",
]
