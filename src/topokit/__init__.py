"""Exact combinatorial topology for balanced complexes and simplicial posets.

The toolkit computes face and h-vectors, balanced colorings, rank-selected
subcomplexes, edge-path presentations of the fundamental group with
replayable rewriting certificates, and exact first homology over the
integers, for simplicial complexes and simplicial posets.
"""

from .complex import (
    PropertyReport,
    SimplicialComplex,
    connected_sum,
    find_balanced_coloring,
    h_additivity_table,
    h_from_f,
)
from .errors import (
    ContractViolationError,
    FaceNotFoundError,
    MissingColoringError,
    PropertyError,
    PurityError,
    TopoError,
    ValidationError,
)
from .homology import (
    HomologySummary,
    boundary_matrices,
    cycle_class_equal,
    edge_path_cycle_vector,
    h1,
    invariant_factors,
    smith_normal_form,
    snf_is_valid,
)
from .pi1 import (
    Certificate,
    Generator,
    GroupPresentation,
    NestedSpanningTree,
    PosetEdge,
    apply_certificate,
    build_nested_tree,
    default_basepoint,
    full_presentation,
    generator_bounds,
    poset_edge_path_group,
    restrict_presentation,
    rewrite_path_to_colors,
    tietze_simplify,
    verify_certificate,
    word_to_loop,
)
from .poset import SimplicialPoset, face_poset

__all__ = [
    "Certificate",
    "ContractViolationError",
    "FaceNotFoundError",
    "Generator",
    "GroupPresentation",
    "HomologySummary",
    "MissingColoringError",
    "NestedSpanningTree",
    "PosetEdge",
    "PropertyError",
    "PropertyReport",
    "PurityError",
    "SimplicialComplex",
    "SimplicialPoset",
    "TopoError",
    "ValidationError",
    "apply_certificate",
    "boundary_matrices",
    "build_nested_tree",
    "connected_sum",
    "cycle_class_equal",
    "default_basepoint",
    "edge_path_cycle_vector",
    "face_poset",
    "find_balanced_coloring",
    "full_presentation",
    "generator_bounds",
    "h1",
    "h_additivity_table",
    "h_from_f",
    "invariant_factors",
    "poset_edge_path_group",
    "restrict_presentation",
    "rewrite_path_to_colors",
    "smith_normal_form",
    "snf_is_valid",
    "tietze_simplify",
    "verify_certificate",
    "word_to_loop",
]
