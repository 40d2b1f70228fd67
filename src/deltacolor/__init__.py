"""deltacolor: simulate and verify randomized (max degree + 1) list coloring.

The package decomposes a graph into sparse vertices and almost-cliques,
runs the randomized coloring phases (initial step, permutation-driven
dense steps, trial-round fallback) under a LOCAL-style round account,
and checks every structural invariant the construction promises.
"""

from .checks import (
    coloring_failures,
    decomposition_bound_failures,
    decomposition_failures,
    properness_failures,
    residual_consistency_failures,
    verify_coloring,
)
from .decomposition import (
    AlmostClique,
    Decomposition,
    StructuralMetrics,
    classify_and_components,
    compute_friend_edges,
    decompose,
    decomposition_to_dict,
    structural_metrics,
)
from .engine import (
    DenseStepResult,
    GoodColorDiag,
    RunReport,
    StepStats,
    apply_dense_tentative,
    apply_initial_tentative,
    count_good_colors,
    dense_coloring_step,
    fallback_round,
    initial_coloring_step,
    run,
)
from .errors import DeltaColorError, GenerationError, InvariantViolation, ValidationError
from .generators import (
    GeneratorSpec,
    generate,
    is_locally_sparse,
    neighborhood_edge_counts,
)
from .graph import BLANK, Graph, build_graph
from .io import canonical_palettes, read_edge_list, read_palettes, write_edge_list
from .palettes import PaletteTable, palette_table
from .schedule import (
    ACTIVATION_PROB,
    DEFAULT_K,
    RoundParams,
    ScheduleParams,
    advance_params,
    build_schedule,
    density_epsilon,
    regularity_ok,
)
from .state import ColoringState, commit_colors, init_state, recompute_residuals

__version__ = "0.1.0"

__all__ = [
    "ACTIVATION_PROB",
    "BLANK",
    "DEFAULT_K",
    "AlmostClique",
    "ColoringState",
    "Decomposition",
    "DeltaColorError",
    "DenseStepResult",
    "GenerationError",
    "GeneratorSpec",
    "GoodColorDiag",
    "Graph",
    "InvariantViolation",
    "PaletteTable",
    "RoundParams",
    "RunReport",
    "ScheduleParams",
    "StepStats",
    "StructuralMetrics",
    "ValidationError",
    "advance_params",
    "apply_dense_tentative",
    "apply_initial_tentative",
    "build_graph",
    "build_schedule",
    "canonical_palettes",
    "classify_and_components",
    "coloring_failures",
    "commit_colors",
    "compute_friend_edges",
    "count_good_colors",
    "decompose",
    "decomposition_bound_failures",
    "decomposition_failures",
    "decomposition_to_dict",
    "dense_coloring_step",
    "density_epsilon",
    "fallback_round",
    "generate",
    "init_state",
    "initial_coloring_step",
    "is_locally_sparse",
    "neighborhood_edge_counts",
    "palette_table",
    "properness_failures",
    "read_edge_list",
    "read_palettes",
    "recompute_residuals",
    "regularity_ok",
    "residual_consistency_failures",
    "run",
    "structural_metrics",
    "verify_coloring",
    "write_edge_list",
]
