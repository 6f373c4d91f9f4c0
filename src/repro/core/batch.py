"""Multi-query (batch) optimization: one search over N stitched queries.

A production planner rarely sees one query at a time: tenants submit
structurally overlapping requests (shared feature pipelines, shared model
forward passes) whose common subexpressions would each be re-planned and
re-materialized in isolation.  :func:`optimize_batch` stitches N query
graphs into one multi-sink DAG by cross-query CSE over the canonical
vertex fingerprints of :func:`repro.core.fingerprint.subplan_fingerprint`
— two vertices merge exactly when they compute the same value from the
same named inputs — and runs the existing frontier DP *once* over the
merged DAG.  The frontier algorithm already costs shared ancestors once
within a single DAG (paper Algorithm 4 is multi-sink by construction), so
batching extends that sharing across query boundaries for free.

The result is a :class:`BatchPlan`: the one merged plan (what a batch
executor runs), plus per-query :class:`~repro.core.annotation.Plan`\\ s
re-annotated onto each original query graph so every tenant still gets an
independently executable, independently costed plan.  Per-query profiles
carry shared-subplan provenance (``batch_queries``/``shared_subplans`` in
:class:`~repro.core.profile.OptimizerProfile`).

Correctness contract (enforced permanently by
``tests/core/test_batch_differential.py``): per-query numerics are
``allclose`` to independently optimized solo plans, the merged batch cost
never exceeds the sum of solo costs, and a merged DAG that is not tree
shaped gets the same plan, bit for bit, from the tests-side per-state
frontier oracle.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Mapping
from dataclasses import dataclass

from .annotation import Annotation, Plan, make_plan
from .fingerprint import subplan_fingerprint
from .graph import ComputeGraph, Edge, VertexId
from .optimizer import (context_for_graph, optimize, rewrite_stage,
                        validate_knobs)
from .profile import OptimizerProfile
from .registry import OptimizerContext
from .rewrites import RewriteSpec

__all__ = ["BatchPlan", "BatchQuery", "merge_graphs", "optimize_batch"]


@dataclass(frozen=True)
class BatchQuery:
    """One query's view of a batch optimization."""

    #: Position of this query in the submitted batch.
    index: int
    #: The (rewritten) query graph the per-query plan annotates.
    graph: ComputeGraph
    #: Independently executable plan for this query alone.  Its cost is
    #: solo accounting: shared vertices are charged in full, because the
    #: plan recomputes them when executed outside the batch.
    plan: Plan
    #: Query vertex id -> merged-DAG vertex id.
    vertex_map: dict[VertexId, VertexId]
    #: Names of this query's vertices whose results at least one other
    #: batch member also computes (cross-query CSE provenance).
    shared: tuple[str, ...]
    #: Query output name -> merged-DAG vertex id, for splitting a batch
    #: execution's results back out per tenant.
    output_vertices: dict[str, VertexId]


@dataclass(frozen=True)
class BatchPlan:
    """The outcome of one multi-query batch optimization."""

    #: The stitched multi-sink DAG all queries were planned against.
    graph: ComputeGraph
    #: The one plan the merged search produced; executing it computes
    #: every query's outputs with shared subexpressions done once.
    merged: Plan
    #: Per-query views, in submission order.
    queries: tuple[BatchQuery, ...]
    #: Merged-DAG vertex ids used by more than one query.
    shared_vertices: tuple[VertexId, ...]
    #: Inner (op) vertices deduplicated by cross-query CSE: the number of
    #: op-vertex instances across the submitted graphs that resolved to
    #: an already-stitched vertex.
    cse_hits: int
    #: Wall-clock seconds of the whole batch optimization (stitch +
    #: merged search + per-query extraction).
    optimize_seconds: float = 0.0

    @property
    def plans(self) -> tuple[Plan, ...]:
        """Per-query plans in submission order."""
        return tuple(q.plan for q in self.queries)

    @property
    def total_seconds(self) -> float:
        """Predicted cost of executing the whole batch (shared once)."""
        return self.merged.total_seconds

    def query_outputs(self, index: int, vertex_values: Mapping) -> dict:
        """Split a merged execution's per-vertex values for one query.

        ``vertex_values`` is the ``vertex_values`` mapping of an
        :class:`~repro.engine.executor.ExecutionResult` from running
        :attr:`merged`; returns ``{query output name: value}``.
        """
        query = self.queries[index]
        return {name: vertex_values[mvid]
                for name, mvid in query.output_vertices.items()}

    def as_cache_hit(self) -> "BatchPlan":
        """Copy with every profile flagged as served from the plan cache."""
        return dataclasses.replace(
            self,
            merged=_mark_hit(self.merged),
            queries=tuple(dataclasses.replace(q, plan=_mark_hit(q.plan))
                          for q in self.queries))


def _mark_hit(plan: Plan) -> Plan:
    if plan.profile is None:
        return plan
    return dataclasses.replace(
        plan, profile=dataclasses.replace(plan.profile, cache_hit=True))


def merge_graphs(graphs) -> tuple[ComputeGraph, list[dict[VertexId,
                                                          VertexId]],
                                  dict[VertexId, set[int]], int]:
    """Stitch query graphs into one multi-sink DAG by cross-query CSE.

    Vertices are keyed by :func:`subplan_fingerprint` of their ancestor
    cone: sources merge when name, type and stored format all agree (the
    executor binds data by name, so one name must mean one matrix — a
    conflicting re-declaration raises ``ValueError``); op vertices merge
    when they apply the same op to already-merged inputs with the same
    scalar parameter, regardless of their labels.  Each query's declared
    outputs are marked on the merged graph, so the frontier DP plans all
    sinks jointly.

    Returns ``(merged graph, per-query vid maps, merged vid -> set of
    query indices using it, op-vertex CSE hit count)``.
    """
    merged = ComputeGraph()
    by_key: dict[str, VertexId] = {}
    source_key: dict[str, str] = {}
    names_used: set[str] = set()
    maps: list[dict[VertexId, VertexId]] = []
    used_by: dict[VertexId, set[int]] = {}
    cse_hits = 0
    for qi, graph in enumerate(graphs):
        vmap: dict[VertexId, VertexId] = {}
        for vid in graph.topological_order():
            v = graph.vertex(vid)
            key = subplan_fingerprint(graph, vid)
            if v.is_source:
                prior = source_key.get(v.name)
                if prior is not None and prior != key:
                    raise ValueError(
                        f"batch queries disagree on source {v.name!r}: "
                        "the same name must carry the same matrix type "
                        "and stored format in every query")
                source_key[v.name] = key
            mvid = by_key.get(key)
            if mvid is None:
                name = _unique_name(v.name, names_used)
                names_used.add(name)
                if v.is_source:
                    mvid = merged.add_source(name, v.mtype, v.format)
                else:
                    mvid = merged.add_op(
                        name, v.op, tuple(vmap[p] for p in v.inputs),
                        param=v.param)
                by_key[key] = mvid
            elif not v.is_source:
                cse_hits += 1
            vmap[vid] = mvid
            used_by.setdefault(mvid, set()).add(qi)
        for out in graph.outputs:
            merged.mark_output(vmap[out.vid])
        maps.append(vmap)
    return merged, maps, used_by, cse_hits


def _unique_name(name: str, used: set[str]) -> str:
    if name not in used:
        return name
    suffix = 2
    while f"{name}~{suffix}" in used:
        suffix += 1
    return f"{name}~{suffix}"


def optimize_batch(graphs, ctx: OptimizerContext | None = None, *,
                   max_states: int | None = None,
                   rewrites: RewriteSpec = "none",
                   tracer=None,
                   metrics=None) -> BatchPlan:
    """Jointly optimize N query graphs with cross-query sharing.

    Accepts the same knobs as :func:`repro.core.optimizer.optimize`.
    Rewrites (when enabled) run per query *before* stitching, so the
    merged DAG's vertex maps stay valid; the physical search then runs
    once over the merged multi-sink DAG.  Per-query plans are the merged
    search's choices re-annotated onto each (rewritten) query graph —
    independently executable, with solo-accounting costs and
    shared-subplan provenance in their profiles.
    """
    graphs = tuple(graphs)
    if not graphs:
        raise ValueError("optimize_batch needs at least one query graph")
    validate_knobs(max_states, rewrites)
    if ctx is None:
        ctx = OptimizerContext()

    t0 = time.perf_counter()
    rewritten = []
    for graph in graphs:
        qctx = context_for_graph(graph, ctx)
        rgraph, _ = rewrite_stage(graph, qctx, rewrites, tracer)
        rewritten.append(rgraph)

    merged_graph, maps, used_by, cse_hits = merge_graphs(rewritten)
    merged_plan = optimize(merged_graph, ctx, max_states=max_states,
                           rewrites="none", tracer=tracer, metrics=metrics)

    shared = tuple(sorted(mv for mv, users in used_by.items()
                          if len(users) > 1))
    shared_set = set(shared)
    merged_transforms = {
        (e.src, e.dst, e.arg_pos): chosen
        for e, chosen in merged_plan.annotation.transforms.items()}

    base_profile = merged_plan.profile
    if base_profile is None:
        base_profile = OptimizerProfile(algorithm=merged_plan.optimizer)

    queries = []
    for qi, rgraph in enumerate(rewritten):
        vmap = maps[qi]
        ann = Annotation()
        for v in rgraph.inner_vertices:
            ann.impls[v.vid] = merged_plan.annotation.impls[vmap[v.vid]]
            for edge in rgraph.in_edges(v.vid):
                ann.transforms[edge] = merged_transforms[
                    (vmap[edge.src], vmap[edge.dst],
                     _merged_arg_pos(merged_graph, vmap, edge))]
        shared_names = tuple(sorted(
            rgraph.vertex(qv).name for qv, mv in vmap.items()
            if mv in shared_set and not rgraph.vertex(qv).is_source))
        profile = dataclasses.replace(base_profile,
                                      batch_queries=len(graphs),
                                      shared_subplans=shared_names)
        plan = make_plan(rgraph, ann, context_for_graph(rgraph, ctx),
                         optimizer=f"batch[{merged_plan.optimizer}]",
                         optimize_seconds=merged_plan.optimize_seconds,
                         profile=profile)
        outputs = {rgraph.vertex(out.vid).name: vmap[out.vid]
                   for out in rgraph.outputs}
        queries.append(BatchQuery(qi, rgraph, plan, vmap, shared_names,
                                  outputs))

    merged_shared_names = tuple(sorted(
        merged_graph.vertex(mv).name for mv in shared
        if not merged_graph.vertex(mv).is_source))
    merged_plan = dataclasses.replace(
        merged_plan,
        profile=dataclasses.replace(base_profile,
                                    batch_queries=len(graphs),
                                    shared_subplans=merged_shared_names))
    elapsed = time.perf_counter() - t0
    return BatchPlan(merged_graph, merged_plan, tuple(queries), shared,
                     cse_hits, optimize_seconds=elapsed)


def _merged_arg_pos(merged_graph: ComputeGraph,
                    vmap: dict[VertexId, VertexId], edge: Edge) -> int:
    """Argument slot of a query edge in the merged consumer vertex.

    Slots normally coincide, but intra-query CSE can collapse two query
    inputs onto one merged vertex, so the merged consumer's input tuple
    is matched positionally instead of assuming ``edge.arg_pos``.
    """
    consumer = merged_graph.vertex(vmap[edge.dst])
    if (edge.arg_pos < len(consumer.inputs)
            and consumer.inputs[edge.arg_pos] == vmap[edge.src]):
        return edge.arg_pos
    return consumer.inputs.index(vmap[edge.src])
