"""Exact divisor theory on finite vertex-weighted multigraphs.

Chip-firing, principal divisors and linear equivalence, Dhar burning and
reduced divisors, graph saturation, and the combinatorial (Baker-Norine)
rank with Riemann-Roch and Clifford conformance checks, all in exact
integer arithmetic.
"""

from .divisor import (
    Divisor,
    FiringScript,
    apply_script,
    degree_demand,
    degree_for_rank,
    equivalence_script,
    equivalent,
    fire_set,
    iter_effective_values,
    layer_decomposition,
    lift_divisor,
    principal_script,
    rank_capacity,
    rank_for_degree,
    rank_lower_bound,
)
from .errors import (
    BudgetError,
    ChipfireError,
    DisconnectedError,
    DomainError,
    FixtureError,
    GraphError,
    InternalError,
    ParseError,
)
from .graph import Graph, HatEmbedding, hat_graph, strip_weights_and_loops, subdivide_loops
from .oracle import Fixture, brute_is_reduced, brute_rank, load_fixture
from .rank import (
    DEFAULT_BUDGET,
    RankResult,
    binary_rank,
    bullet_rank_identity,
    clifford_check,
    g0_comparison,
    rank,
    rank_explicit_vertex,
    rank_explicit_vertices,
    rank_geq,
    rank_lower_bound_certified,
    riemann_roch_residual,
    saturation_bound,
)
from .reduction import DharDecomposition, dhar, is_reduced, is_saturation, reduce_divisor, saturate
from .sweep import SweepConfig, SweepReport, random_connected_graph, random_divisor, run_sweep
from .textio import GraphDocument, parse_divisor, parse_graph, render_divisor, render_graph

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ChipfireError",
    "DEFAULT_BUDGET",
    "DharDecomposition",
    "DisconnectedError",
    "Divisor",
    "DomainError",
    "FiringScript",
    "Fixture",
    "FixtureError",
    "Graph",
    "GraphDocument",
    "GraphError",
    "HatEmbedding",
    "InternalError",
    "ParseError",
    "RankResult",
    "SweepConfig",
    "SweepReport",
    "apply_script",
    "binary_rank",
    "brute_is_reduced",
    "brute_rank",
    "bullet_rank_identity",
    "clifford_check",
    "degree_demand",
    "degree_for_rank",
    "dhar",
    "equivalence_script",
    "equivalent",
    "fire_set",
    "g0_comparison",
    "hat_graph",
    "is_reduced",
    "is_saturation",
    "iter_effective_values",
    "layer_decomposition",
    "lift_divisor",
    "load_fixture",
    "parse_divisor",
    "parse_graph",
    "principal_script",
    "random_connected_graph",
    "random_divisor",
    "rank",
    "rank_capacity",
    "rank_explicit_vertex",
    "rank_explicit_vertices",
    "rank_for_degree",
    "rank_geq",
    "rank_lower_bound",
    "rank_lower_bound_certified",
    "reduce_divisor",
    "render_divisor",
    "render_graph",
    "riemann_roch_residual",
    "run_sweep",
    "saturate",
    "saturation_bound",
    "strip_weights_and_loops",
    "subdivide_loops",
]
