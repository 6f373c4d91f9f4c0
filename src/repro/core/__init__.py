"""Core optimizer: types, formats, operations, and the three algorithms."""

from .annotation import Annotation, AnnotationError, Plan, PlanCost, evaluate
from .atoms import DEFAULT_ATOMS, AtomicOp, atom_by_name
from .brute import BruteForceTimeout, optimize_brute
from .formats import (
    DEFAULT_FORMATS,
    DENSE_FORMATS,
    SINGLE_BLOCK_FORMATS,
    SINGLE_STRIP_BLOCK_FORMATS,
    Layout,
    PhysicalFormat,
    admissible_formats,
    coo,
    col_strips,
    csr_strips,
    csc_strips,
    row_strips,
    single,
    sparse_single,
    sparse_tiles,
    tiles,
)
from .frontier import optimize_dag
from .profile import OptimizerProfile
from .graph import ComputeGraph, Edge, GraphError, Vertex, VertexId
from .implementations import (
    DEFAULT_IMPLEMENTATIONS,
    JoinStrategy,
    OpImplementation,
    implementations_for,
)
from .explain import explain, explain_graph, explain_stages
from .batch import BatchPlan, BatchQuery, merge_graphs, optimize_batch
from .fingerprint import (
    CATALOG_VERSION,
    Fingerprint,
    batch_fingerprint,
    catalog_signature,
    graph_signature,
    request_fingerprint,
    subplan_fingerprint,
)
from .optimizer import (
    optimize,
    physical_plan,
    record_optimize_metrics,
    rewrite_stage,
)
from .registry import OptimizerContext
from .rewrites import (
    DEFAULT_PASS_ORDER,
    PASS_REGISTRY,
    PassReport,
    PipelineReport,
    PlanPipeline,
    RewritePass,
    resolve_passes,
    structural_cse,
)
from .serialize import (
    SerializationError,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
)
from .viz import graph_to_dot, plan_to_dot
from .transforms import DEFAULT_TRANSFORMS, FormatTransform, find_transform
from .tree_dp import OptimizationError, optimize_tree
from .types import MatrixType, matrix, vector

__all__ = [
    "Annotation", "AnnotationError", "Plan", "PlanCost", "evaluate",
    "DEFAULT_ATOMS", "AtomicOp", "atom_by_name",
    "BruteForceTimeout", "optimize_brute",
    "DEFAULT_FORMATS", "DENSE_FORMATS", "SINGLE_BLOCK_FORMATS",
    "SINGLE_STRIP_BLOCK_FORMATS", "Layout", "PhysicalFormat",
    "admissible_formats", "coo", "col_strips", "csr_strips", "csc_strips",
    "row_strips", "single", "sparse_single", "sparse_tiles", "tiles",
    "OptimizerProfile", "optimize_dag",
    "ComputeGraph", "Edge", "GraphError", "Vertex", "VertexId",
    "DEFAULT_IMPLEMENTATIONS", "JoinStrategy", "OpImplementation",
    "implementations_for",
    "optimize", "OptimizerContext",
    "physical_plan", "record_optimize_metrics", "rewrite_stage",
    "CATALOG_VERSION", "Fingerprint", "batch_fingerprint",
    "catalog_signature", "graph_signature", "request_fingerprint",
    "subplan_fingerprint",
    "BatchPlan", "BatchQuery", "merge_graphs", "optimize_batch",
    "DEFAULT_TRANSFORMS", "FormatTransform", "find_transform",
    "OptimizationError", "optimize_tree",
    "MatrixType", "matrix", "vector",
    "explain", "explain_graph", "explain_stages",
    "SerializationError", "plan_from_dict", "plan_from_json",
    "plan_to_dict", "plan_to_json",
    "graph_to_dot", "plan_to_dot",
    "DEFAULT_PASS_ORDER", "PASS_REGISTRY", "PassReport", "PipelineReport",
    "PlanPipeline", "RewritePass", "resolve_passes", "structural_cse",
]
