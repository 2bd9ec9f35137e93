"""Minimum-cost and minimum-delay embeddings of computation DAGs onto networks."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    DagplaceError,
    DisconnectedGraph,
    NotATree,
    NotLayered,
    PreconditionError,
    ValidationError,
)
from .metrics import (
    DelayReport,
    Embedding,
    LinkSchedule,
    capacity_aware_delay,
    embedding_cost,
    embedding_delay,
    max_link_usage,
    validate_embedding,
)
from .model import (
    ComputationGraph,
    DistanceMatrix,
    LayeredStructure,
    NetworkGraph,
    apsp,
    build_computation,
    build_network,
    check_tree,
    extract_path,
    infer_layering,
    validate_layering,
)
from .oracle import brute_force_min_cost, brute_force_min_delay
from .solver_layered import LayeredDPState, apply_perturbations, min_cost_layered
from .solver_tree import min_delay_collapse, min_delay_tree
from .solver_treewidth import (
    TreeDecomposition,
    layered_path_decomposition,
    min_cost_treewidth,
    min_fill_decomposition,
)

__all__ = [
    "BudgetExceeded",
    "ComputationGraph",
    "DagplaceError",
    "DelayReport",
    "DisconnectedGraph",
    "DistanceMatrix",
    "Embedding",
    "LayeredDPState",
    "LayeredStructure",
    "LinkSchedule",
    "NetworkGraph",
    "NotATree",
    "NotLayered",
    "PreconditionError",
    "TreeDecomposition",
    "ValidationError",
    "apply_perturbations",
    "apsp",
    "brute_force_min_cost",
    "brute_force_min_delay",
    "build_computation",
    "build_network",
    "capacity_aware_delay",
    "check_tree",
    "embedding_cost",
    "embedding_delay",
    "extract_path",
    "infer_layering",
    "layered_path_decomposition",
    "max_link_usage",
    "min_cost_layered",
    "min_cost_treewidth",
    "min_delay_collapse",
    "min_delay_tree",
    "min_fill_decomposition",
    "validate_embedding",
    "validate_layering",
]
