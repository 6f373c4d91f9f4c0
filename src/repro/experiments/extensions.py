"""Extension experiments: the paper's future-work features, measured.

Three experiments beyond the paper's evaluation, each quantifying one of
the implemented extensions:

* ``ext_sketch_refinement`` — planning with MNC-sketch-refined sparsity
  (paper §7's Sommer-et-al. integration) vs. the scalar estimator, on a
  structured-sparse operation chain;
* ``ext_adaptive_reopt`` — mid-execution re-optimization (paper §7's
  re-optimization loop) vs. running the initial plan to completion, when
  input sparsity was badly misdeclared;
* ``ext_gpu_catalog`` — the §4.2 hardware-aware catalog: the same
  computation planned with and without GPU implementations available.
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterConfig, pliny_cluster
from ..core.accelerators import gpu_implementations
from ..core.annotation import make_plan
from ..core.graph import ComputeGraph
from ..core.implementations import DEFAULT_IMPLEMENTATIONS
from ..core.registry import OptimizerContext
from ..cost.refine import refine_graph, sketches_from_inputs
from ..lang import build, input_matrix, relu
from .harness import ExperimentTable, plan_with_service


# ----------------------------------------------------------------------
# Sketch-refined planning
# ----------------------------------------------------------------------
def _structured_sparse(rows: int, cols: int, seed: int) -> np.ndarray:
    """Rows with wildly varying density — the scalar estimator's nemesis."""
    rng = np.random.default_rng(seed)
    density = rng.random(rows) ** 8
    return rng.standard_normal((rows, cols)) * \
        (rng.random((rows, cols)) < density[:, None])


#: A low-latency cluster so the compute/traffic differences the extensions
#: target are not drowned by per-stage scheduling latency.
_FAST_CLUSTER = ClusterConfig(stage_latency_seconds=0.05)


def _sparse_chain(n: int, declared_sparsity: float):
    a = input_matrix("A", n, n, sparsity=declared_sparsity)
    b = input_matrix("B", n, n, sparsity=declared_sparsity)
    out = relu(((a * b) @ b) @ b)
    out.name = "out"
    return build(out)


def ext_sketch_refinement() -> ExperimentTable:
    """Scalar vs MNC-refined sparsity estimates for planning."""
    n = 6000
    data = {"A": _structured_sparse(n, n, 1),
            "B": _structured_sparse(n, n, 2)}
    declared = float(np.count_nonzero(data["A"])) / data["A"].size
    graph = _sparse_chain(n, declared)
    refined = refine_graph(graph, sketches_from_inputs(data))

    scalar_plan = plan_with_service(
        graph, OptimizerContext(cluster=_FAST_CLUSTER), max_states=500)
    refined_plan = plan_with_service(
        refined, OptimizerContext(cluster=_FAST_CLUSTER), max_states=500)

    # Judge both *annotations* under the refined (closer-to-truth) types.
    scalar_on_truth = make_plan(refined, scalar_plan.annotation,
                                OptimizerContext(cluster=_FAST_CLUSTER),
                                "scalar-annotations",
                                allow_infeasible=True)

    table = ExperimentTable(
        "ext_sketch_refinement",
        "Planning with scalar vs MNC-sketch sparsity estimates "
        "(structured sparse chain)",
        ["estimator", "estimated mid-chain sparsity",
         "plan cost under refined types"])
    mid_scalar = graph.vertices[3].mtype.sparsity
    mid_refined = refined.vertices[3].mtype.sparsity
    table.add_row("scalar (paper prototype)", f"{mid_scalar:.4f}",
                  f"{scalar_on_truth.total_seconds:.2f}s")
    table.add_row("MNC sketches (paper §7 proposal)", f"{mid_refined:.4f}",
                  f"{refined_plan.total_seconds:.2f}s")
    return table


# ----------------------------------------------------------------------
# Adaptive re-optimization
# ----------------------------------------------------------------------
def ext_adaptive_reopt() -> ExperimentTable:
    """Static plan vs halt-and-replan on a sparsity misestimate."""
    from ..engine.executor import Executor
    from ..engine.reopt import execute_adaptive

    n = 4000
    # Declared dense, actually ~1% non-zero after the Hadamard product.
    a = input_matrix("A", n, n)
    b = input_matrix("B", n, n)
    out = relu(((a * b) @ b) @ b)
    out.name = "out"
    graph = build(out)

    rng = np.random.default_rng(0)
    data = {
        "A": rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.01),
        "B": rng.standard_normal((n, n)),
    }

    ctx = OptimizerContext(cluster=_FAST_CLUSTER)
    static_plan = plan_with_service(graph, ctx, max_states=500)
    static = Executor(static_plan, ctx).run(data)
    adaptive = execute_adaptive(graph, data, ctx)

    table = ExperimentTable(
        "ext_adaptive_reopt",
        "Static plan vs mid-execution re-optimization on a sparsity "
        "misestimate",
        ["strategy", "simulated seconds", "replans"])
    table.add_row("static (paper prototype)",
                  f"{static.ledger.total_seconds:.2f}", "0")
    table.add_row("adaptive (paper §7 proposal)",
                  f"{adaptive.simulated_seconds:.2f}",
                  str(adaptive.reoptimizations))
    for name, est, act in adaptive.triggers:
        table.add_note(f"replanned at {name}: estimated sparsity "
                       f"{est:.3f}, observed {act:.4f}")
    return table


# ----------------------------------------------------------------------
# GPU catalog
# ----------------------------------------------------------------------
def ext_gpu_catalog() -> ExperimentTable:
    """The same computation with and without GPU implementations."""
    g = ComputeGraph()
    from ..core.formats import single
    from ..core.atoms import MATMUL
    from ..core.types import matrix

    a = g.add_source("A", matrix(8000, 8000), single())
    b = g.add_source("B", matrix(8000, 8000), single())
    ab = g.add_op("AB", MATMUL, (a, b))
    g.add_op("ABB", MATMUL, (ab, b))

    cpu_cluster = pliny_cluster(4)
    gpu_cluster = ClusterConfig(
        **{**cpu_cluster.__dict__, "gpus_per_worker": 1})

    cpu_plan = plan_with_service(g, OptimizerContext(cluster=cpu_cluster))
    gpu_plan = plan_with_service(g, OptimizerContext(
        cluster=gpu_cluster,
        implementations=DEFAULT_IMPLEMENTATIONS + gpu_implementations()))

    table = ExperimentTable(
        "ext_gpu_catalog",
        "Hardware-aware catalog (paper §4.2): CPU-only vs +GPU "
        "implementations",
        ["catalog", "predicted seconds", "chosen matmul impls"])
    table.add_row(
        "CPU (38 impls)", f"{cpu_plan.total_seconds:.2f}",
        ", ".join(sorted({i.name for i in
                          cpu_plan.annotation.impls.values()})))
    table.add_row(
        "CPU+GPU (40 impls)", f"{gpu_plan.total_seconds:.2f}",
        ", ".join(sorted({i.name for i in
                          gpu_plan.annotation.impls.values()})))
    return table


# ----------------------------------------------------------------------
# Optimizer scaling: dominance pruning on wide shared-ancestor DAGs
# ----------------------------------------------------------------------
def ext_optimizer_scaling() -> ExperimentTable:
    """Exact frontier search with and without the dominance prune.

    Sweeps the ``wide_shared_dag`` family — the worst case for the joint
    cost tables, whose size is exponential in the DAG width without
    pruning — and reports wall time, states explored and peak table size
    for both configurations.  The prune is lossless, so the "plan cost"
    column must be identical in every row.
    """
    from ..core.formats import row_strips, single, tiles
    from ..core.frontier import optimize_dag
    from ..workloads import wide_shared_dag

    catalog = (single(), tiles(1000), tiles(2000), row_strips(1000))
    table = ExperimentTable(
        "ext_optimizer_scaling",
        "Exact frontier search on wide shared-ancestor DAGs: dominance "
        "pruning on vs off (identical plans, search effort only)",
        ["width", "vertices", "pruned", "unpruned", "speedup",
         "peak table (pruned/unpruned)", "plan cost"])
    for width in (2, 3, 4, 5):
        graph = wide_shared_dag(width, width)
        pruned_plan, plain_plan = (
            optimize_dag(graph, OptimizerContext(formats=catalog),
                         prune=prune)
            for prune in (True, False))
        pruned_prof, plain_prof = pruned_plan.profile, plain_plan.profile
        costs_match = abs(pruned_plan.total_seconds -
                          plain_plan.total_seconds) <= \
            1e-9 * max(1.0, plain_plan.total_seconds)
        table.add_row(
            str(width), str(len(graph)),
            f"{pruned_plan.optimize_seconds:.2f}s",
            f"{plain_plan.optimize_seconds:.2f}s",
            f"{plain_plan.optimize_seconds / pruned_plan.optimize_seconds:.1f}x",
            f"{pruned_prof.peak_table_size} / "
            f"{plain_prof.peak_table_size}",
            f"{pruned_plan.total_seconds:.2f}s"
            + ("" if costs_match else " != unpruned!"))
        if not costs_match:
            table.add_note(
                f"width {width}: PRUNED COST DIVERGED from unpruned "
                f"({pruned_plan.total_seconds} vs "
                f"{plain_plan.total_seconds}) — the prune is broken")
        table.add_note(
            f"width {width}: pruned search explored "
            f"{pruned_prof.states_explored} states "
            f"({pruned_prof.states_pruned} dominance-pruned) vs "
            f"{plain_prof.states_explored} unpruned")
    return table


EXTENSION_EXPERIMENTS = {
    "ext_sketch_refinement": ext_sketch_refinement,
    "ext_adaptive_reopt": ext_adaptive_reopt,
    "ext_gpu_catalog": ext_gpu_catalog,
    "ext_optimizer_scaling": ext_optimizer_scaling,
}
