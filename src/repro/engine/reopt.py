"""Mid-execution re-optimization on sparsity estimation errors.

Paper Section 7 (future work): "During execution of the plan, it is easy to
compute the sparsity of each intermediate result.  If the relative error in
estimated sparsity exceeds some value (say, 1.2), then execution can be
halted, and the remaining plan re-optimized."

:func:`execute_adaptive` implements exactly that loop: it optimizes and
executes a compute graph vertex by vertex; whenever an intermediate's
*observed* sparsity diverges from the estimate beyond the threshold, the
remaining computation is rebuilt (already-computed vertices become sources
with their observed sparsity and current physical format) and re-optimized
before execution continues — the LA/ML analogue of mid-query
re-optimization in relational databases [Kabra & DeWitt; Babu et al.].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.formats import PhysicalFormat
from ..core.graph import ComputeGraph, VertexId
from ..core.optimizer import optimize
from ..core.registry import OptimizerContext
from ..cost.sparsity import (
    DEFAULT_REOPT_THRESHOLD,
    observed_sparsity,
    should_reoptimize,
)
from .intermediate import IntermediateStore, harvest_state, preload_state
from .ledger import TrafficLedger
from .recovery import DEFAULT_RECOVERY
from .scheduler import ExecutionState
from .stages import OpStage, lower
from .storage import StoredMatrix, assemble, split, stored_sparsity


@dataclass
class AdaptiveResult:
    """Outcome of an adaptive execution."""

    outputs: dict[str, np.ndarray]
    reoptimizations: int
    simulated_seconds: float
    #: (vertex name, estimated sparsity, observed sparsity) per trigger.
    triggers: list[tuple[str, float, float]]


def residual_graph(
    graph: ComputeGraph,
    computed: dict[VertexId, PhysicalFormat],
    sparsity_of: dict[VertexId, float],
    prune: bool = False,
) -> tuple[ComputeGraph, dict[VertexId, VertexId], dict[str, VertexId]]:
    """Build the residual graph of a partially-executed computation.

    Computed vertices become sources carrying their observed sparsity and
    current physical format (``computed`` maps vid to that format); every
    other vertex is copied.  Returns the residual graph, the old-vid ->
    new-vid mapping, and the output-name -> new-vid mapping.  Both the
    sparsity re-optimization loop below and degraded-mode re-planning
    (:mod:`repro.engine.dynamics`) re-plan through this one rebuild, so
    "what remains of a half-run plan" has a single definition.

    ``prune`` drops vertices no output still depends on.  Degraded-mode
    re-planning needs it: a dead worker can lose an intermediate whose
    consumers all finished, and without pruning the residual would
    pointlessly recompute it.  The sparsity loop keeps the default
    (every vertex), matching the original plan's coverage.
    """
    keep: set[VertexId] | None = None
    if prune:
        keep = set()
        stack = [out.vid for out in graph.outputs]
        while stack:
            vid = stack.pop()
            if vid in keep:
                continue
            keep.add(vid)
            if vid not in computed:
                stack.extend(graph.vertex(vid).inputs)
    residual = ComputeGraph()
    mapping: dict[VertexId, VertexId] = {}
    out_names: dict[str, VertexId] = {}
    for vid in graph.topological_order():
        if keep is not None and vid not in keep:
            continue
        v = graph.vertex(vid)
        if vid in computed:
            mtype = v.mtype.with_sparsity(sparsity_of[vid])
            mapping[vid] = residual.add_source(v.name, mtype, computed[vid])
        else:
            new_inputs = tuple(mapping[p] for p in v.inputs)
            mapping[vid] = residual.add_op(v.name, v.op, new_inputs,
                                           param=v.param)
    for out in graph.outputs:
        residual.mark_output(mapping[out.vid])
        out_names[out.name] = mapping[out.vid]
    return residual, mapping, out_names


def _rebuild_remaining(
    graph: ComputeGraph,
    computed: dict[VertexId, StoredMatrix],
    sparsity_of: dict[VertexId, float],
) -> tuple[ComputeGraph, dict[VertexId, VertexId], dict[str, VertexId]]:
    """:func:`residual_graph` keyed by stored matrices."""
    return residual_graph(graph,
                          {vid: s.fmt for vid, s in computed.items()},
                          sparsity_of)


def execute_adaptive(
    graph: ComputeGraph,
    inputs: dict[str, np.ndarray],
    ctx: OptimizerContext,
    threshold: float = DEFAULT_REOPT_THRESHOLD,
    max_reoptimizations: int = 5,
    max_states: int | None = None,
    store: IntermediateStore | None = None,
) -> AdaptiveResult:
    """Optimize + execute with the paper's sparsity re-optimization loop.

    Each attempt lowers the current plan to its stage IR and walks the
    stages in order through an :class:`~repro.engine.scheduler.
    ExecutionState`; after the operator stage that completes a vertex, the
    intermediate's observed sparsity is compared against the estimate, and
    a divergence rebuilds + re-optimizes the residual graph.

    ``store`` attaches a shared
    :class:`~repro.engine.intermediate.IntermediateStore`: each attempt
    (including post-restart residual plans) first serves whatever the
    store already holds — so re-planning accounts for already-cached
    intermediates — and offers its fresh results back when it finishes.
    """
    total_seconds = 0.0
    reopts = 0
    triggers: list[tuple[str, float, float]] = []

    current = graph
    values: dict[str, np.ndarray] = dict(inputs)

    while True:
        plan = optimize(current, ctx, max_states=max_states)
        sgraph = lower(plan, ctx)
        ledger = TrafficLedger(ctx.cluster, ctx.weights)
        state = ExecutionState(sgraph, ctx, injector=None,
                               policy=DEFAULT_RECOVERY)
        sparsity_of: dict[VertexId, float] = {}
        for v in current.sources:
            if v.name not in values:
                raise KeyError(f"no input for source {v.name!r}")
            state.lineage.record(v.vid, split(values[v.name], v.mtype,
                                              v.format, ctx.cluster))
            sparsity_of[v.vid] = observed_sparsity(values[v.name])
        if store is not None:
            preload_state(state, store)

        restart = False
        for stage in sgraph.stages:
            if stage.sid in state.completed:
                # Served from the intermediate store (or dead code behind
                # a fetch).  Record the observed sparsity so a later
                # residual rebuild can source this vertex, but never
                # trigger re-optimization on a fetched value.
                if isinstance(stage, OpStage) and \
                        stage.vertex in state.lineage.matrices:
                    sparsity_of.setdefault(
                        stage.vertex,
                        stored_sparsity(
                            state.lineage.matrices[stage.vertex]))
                continue
            state.run_stage(stage)
            if not isinstance(stage, OpStage):
                continue
            vid = stage.vertex
            v = current.vertex(vid)
            stored = state.lineage.matrices
            actual = stored_sparsity(stored[vid])
            sparsity_of[vid] = actual
            estimated = v.mtype.sparsity
            remaining = sum(1 for w in current.vertex_ids
                            if w not in stored
                            and not current.vertex(w).is_source)
            if (remaining > 0 and reopts < max_reoptimizations
                    and should_reoptimize(estimated, actual, threshold)):
                triggers.append((v.name, estimated, actual))
                reopts += 1
                total_seconds += _merge_and_total(state, ledger, store)
                residual, mapping, _ = _rebuild_remaining(
                    current, dict(stored), sparsity_of)
                # Residual sources are fed the observed values; their
                # formats match what is stored, so nothing is re-encoded.
                values = {residual.vertex(mapping[w]).name: assemble(s)
                          for w, s in stored.items()}
                current = residual
                restart = True
                break
        if restart:
            continue

        total_seconds += _merge_and_total(state, ledger, store)
        stored = state.lineage.matrices
        outputs = {v.name: assemble(stored[v.vid])
                   for v in current.outputs}
        return AdaptiveResult(outputs, reopts, total_seconds, triggers)


def _merge_and_total(state: ExecutionState, ledger: TrafficLedger,
                     store: IntermediateStore | None = None) -> float:
    """Fold an attempt's per-stage sub-ledgers and report their seconds.

    With a ``store``, the attempt's fresh results are offered to it and
    the store-write charges land after the spliced stage records.
    """
    state.merge_into(ledger)
    if store is not None:
        harvest_state(state, store, ledger)
    return ledger.total_seconds
