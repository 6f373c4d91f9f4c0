"""Optimizer facade: the staged plan pipeline.

Optimization is a pipeline of explicit stages:

1. **Logical rewrites** (``rewrites=`` knob): an ordered sequence of
   semantics-preserving, cost-guided graph passes — CSE, transpose
   pushdown, matmul-chain reassociation, scalar pushdown, elementwise
   fusion (see :mod:`repro.core.rewrites`).
2. **Physical optimization**: the linear-time tree DP (paper Algorithm 3)
   when the graph is tree shaped, the frontier algorithm (paper
   Algorithm 4) for general DAGs, or brute force (paper Algorithm 2) on
   request.

Stage 1 has two interchangeable engines behind the ``rewrites=`` knob:
the ordered pass pipeline (``"pipeline"``/``"all"``) and the
equality-saturation e-graph of :mod:`repro.core.egraph` (``"egraph"``),
which explores all rule orders at once and extracts the catalog-cheapest
term.  When rewrites run, fallback candidates are also optimized and the
cheapest plan wins — the unrewritten graph for the pipeline engine, plus
the pipeline-rewritten graph for the egraph engine — so ``"pipeline"``
never costs more than ``"off"`` and ``"egraph"`` never costs more than
either.  The returned :class:`Plan` carries a
:class:`~repro.core.rewrites.PipelineReport` describing what the engine
did (per-pass reports, or saturation statistics).
"""

from __future__ import annotations

import dataclasses

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, as_tracer
from .annotation import Plan
from .brute import optimize_brute
from .egraph import saturate_graph
from .fingerprint import graph_signature
from .frontier import FRONTIERS, FrontierStats, optimize_dag
from .graph import ComputeGraph
from .registry import OptimizerContext
from .rewrites import PipelineReport, PlanPipeline, RewriteSpec, \
    resolve_engine, validate_rewrites
from .tree_dp import optimize_tree

ALGORITHMS = ("auto", "tree", "frontier", "brute")


def context_for_graph(graph: ComputeGraph, ctx: OptimizerContext
                      ) -> OptimizerContext:
    """Extend the context's format catalog with the graph's load formats.

    Input matrices may arrive in formats outside the search catalog (e.g.
    width-10 strips in the Section 2.1 example).  Adding them lets the
    search use implementations on the loaded formats directly instead of
    forcing a transformation first.
    """
    extra = [s.format for s in graph.sources if s.format not in ctx.formats]
    if not extra:
        return ctx
    seen = dict.fromkeys(tuple(ctx.formats) + tuple(extra))
    return dataclasses.replace(ctx, formats=tuple(seen))


def optimize(graph: ComputeGraph, ctx: OptimizerContext | None = None,
             algorithm: str = "auto",
             timeout_seconds: float | None = None,
             stats: FrontierStats | None = None,
             max_states: int | None = None,
             rewrites: RewriteSpec = "none",
             prune: bool | None = None,
             order: str = "class-size",
             frontier: str = "array",
             tracer: Tracer | None = None,
             metrics: MetricsRegistry | None = None) -> Plan:
    """Produce the cost-optimal, type-correct annotated plan for ``graph``.

    ``algorithm`` is one of ``auto`` (tree DP when tree shaped, else the
    frontier algorithm), ``tree``, ``frontier`` or ``brute``.
    ``timeout_seconds`` only applies to brute force; ``max_states``
    beam-prunes the frontier algorithm's class tables (None = exact).
    ``prune`` and ``order`` tune the frontier algorithm's lossless
    dominance prune and sweep-order heuristic (see
    :func:`repro.core.frontier.optimize_dag`); neither changes the
    returned plan.  ``prune=None`` (the default) prunes exactly when no
    beam is active.  ``frontier`` selects the frontier algorithm's table
    representation: ``"array"`` (vectorized, the default) or ``"object"``
    (the per-state differential oracle) — bit-identical results, different
    speed.  Unknown values raise ``ValueError`` up front, even when the
    frontier algorithm would not run for this graph.

    ``rewrites`` selects the logical rewrite engine that runs before the
    physical search: ``"pipeline"`` (alias ``"all"``, the default pass
    order), ``"egraph"`` (equality saturation + cheapest-term extraction),
    ``"off"`` (alias ``"none"``), or a tuple of pass names from
    :data:`repro.core.rewrites.PASS_REGISTRY` in the order they should run.

    ``tracer`` records the optimization as nested spans (``optimize`` →
    one ``pass`` span per rewrite pass → one ``search`` span per physical
    search, with the frontier's sweep/reconstruct phases nested inside);
    ``metrics`` accumulates search-effort counters.  Both default to off
    (see :mod:`repro.obs`).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"expected one of {ALGORITHMS}")
    if frontier not in FRONTIERS:
        raise ValueError(f"unknown frontier {frontier!r}; "
                         f"expected one of {FRONTIERS}")
    # Like the algorithm/frontier knobs above: a typo must fail here, not
    # silently plan without rewrites.
    validate_rewrites(rewrites)
    if ctx is None:
        ctx = OptimizerContext()
    ctx = context_for_graph(graph, ctx)
    tracer = as_tracer(tracer)

    with tracer.span("optimize", kind="optimize", algorithm=algorithm,
                     vertices=len(graph)) as span:
        rewritten, report = rewrite_stage(graph, ctx, rewrites, tracer)
        plan = physical_plan(graph, rewritten, report, ctx,
                             algorithm=algorithm,
                             timeout_seconds=timeout_seconds, stats=stats,
                             max_states=max_states, prune=prune, order=order,
                             frontier=frontier, tracer=tracer)
        span.set(optimizer=plan.optimizer, seconds=plan.total_seconds)

    record_optimize_metrics(plan, metrics)
    return plan


def rewrite_stage(graph: ComputeGraph, ctx: OptimizerContext,
                  rewrites: RewriteSpec = "none",
                  tracer: Tracer = NULL_TRACER
                  ) -> tuple[ComputeGraph, PipelineReport | None]:
    """Stage 1: run the logical rewrite engine selected by ``rewrites``.

    ``"pipeline"``/``"all"`` (or a pass-name tuple) runs the ordered pass
    pipeline; ``"egraph"`` saturates an e-graph under the default budget
    and extracts the catalog-cheapest term; ``"off"``/``"none"`` returns
    ``(graph, None)``.  Exposed separately from :func:`optimize` so the
    planner service can run it only on a cache miss.
    """
    engine, spec = resolve_engine(rewrites)
    if engine == "egraph":
        rewritten, sat = saturate_graph(graph, ctx, tracer=tracer)
        report = PipelineReport((), adopted=True, engine="egraph",
                                saturation=sat)
        return rewritten, report
    pipeline = PlanPipeline.from_spec(spec)
    if not pipeline.passes:
        return graph, None
    return pipeline.run(graph, ctx, tracer=tracer)


def physical_plan(graph: ComputeGraph, rewritten: ComputeGraph,
                  report: PipelineReport | None, ctx: OptimizerContext,
                  algorithm: str = "auto",
                  timeout_seconds: float | None = None,
                  stats: FrontierStats | None = None,
                  max_states: int | None = None,
                  prune: bool | None = None,
                  order: str = "class-size",
                  frontier: str = "array",
                  tracer: Tracer = NULL_TRACER) -> Plan:
    """Stage 2 + never-worse fallback over one rewritten graph.

    Optimizes ``rewritten``; when the rewrite engine actually changed the
    graph, also optimizes fallback candidates and keeps the cheapest plan
    (the logical layer is guided by per-op estimates, so a rewrite can
    occasionally lose once transformations are priced in):

    * pipeline engine — the unrewritten ``graph``;
    * egraph engine — the pipeline-rewritten graph *and* the unrewritten
      ``graph``, so ``rewrites="egraph"`` is never costlier than either
      ``"pipeline"`` or ``"off"``.

    The chosen plan carries ``report`` (``adopted``/``fallback`` downgraded
    when a fallback candidate won).  Structurally identical candidates are
    skipped — the search is deterministic, so they cannot differ.
    """
    plan = _optimize_physical(rewritten, ctx, algorithm,
                              timeout_seconds, stats, max_states,
                              prune, order, frontier, tracer)
    if report is not None and report.total_rewrites > 0:
        signature = graph_signature(rewritten)[0]
        if report.engine == "egraph":
            pipe_graph, _ = PlanPipeline.from_spec("all").run(
                graph, ctx, tracer=tracer)
            if graph_signature(pipe_graph)[0] != signature:
                pipe_plan = _optimize_physical(
                    pipe_graph, ctx, algorithm, timeout_seconds, stats,
                    max_states, prune, order, frontier, tracer)
                if pipe_plan.total_seconds < plan.total_seconds:
                    plan = pipe_plan
                    report = dataclasses.replace(
                        report, adopted=False, fallback="pipeline")
                    signature = graph_signature(pipe_graph)[0]
        if graph_signature(graph)[0] != signature:
            plain = _optimize_physical(graph, ctx, algorithm,
                                       timeout_seconds, stats, max_states,
                                       prune, order, frontier, tracer)
            if plain.total_seconds < plan.total_seconds:
                plan = plain
                report = dataclasses.replace(report, adopted=False,
                                             fallback="unrewritten")
    if report is not None:
        plan = dataclasses.replace(plan, pipeline=report)
    return plan


def record_optimize_metrics(plan: Plan,
                            metrics: MetricsRegistry | None) -> None:
    """Charge one *cold* optimization run's effort to ``metrics``.

    No-op without a registry.  Plan-cache hits must not be recorded here —
    they did not run the optimizer; the planner service counts them under
    ``planner.cache.*`` instead.
    """
    if metrics is None:
        return
    metrics.count("optimizer.runs")
    if plan.profile is not None:
        plan.profile.record(metrics)
    report = plan.pipeline
    if report is not None:
        metrics.count("optimizer.rewrite_passes_run", len(report.passes))
        metrics.count("optimizer.rewrites_applied",
                      report.total_rewrites if report.adopted else 0)
        sat = report.saturation
        if sat is not None:
            metrics.count("egraph.saturations")
            metrics.count("egraph.iterations", sat.iterations)
            metrics.count("egraph.rewrites", sat.total_rewrites)
            metrics.gauge("egraph.e_nodes", sat.e_nodes)
            metrics.gauge("egraph.e_classes", sat.e_classes)
            metrics.gauge("egraph.seconds", sat.seconds)
            if sat.budget_exhausted is not None:
                metrics.count("egraph.budget_exhausted")
            if not report.adopted:
                metrics.count("egraph.fallbacks")


def _optimize_physical(graph: ComputeGraph, ctx: OptimizerContext,
                       algorithm: str,
                       timeout_seconds: float | None,
                       stats: FrontierStats | None,
                       max_states: int | None,
                       prune: bool | None = None,
                       order: str = "class-size",
                       frontier: str = "array",
                       tracer: Tracer = NULL_TRACER) -> Plan:
    """Stage 2: physical search over one (possibly rewritten) graph."""
    if algorithm == "auto":
        algorithm = "tree" if graph.is_tree_shaped() else "frontier"
    with tracer.span(f"search:{algorithm}", kind="search",
                     algorithm=algorithm) as span:
        if algorithm == "tree":
            plan = optimize_tree(graph, ctx)
        elif algorithm == "frontier":
            plan = optimize_dag(graph, ctx, stats=stats,
                                max_states=max_states, prune=prune,
                                order=order, tracer=tracer,
                                frontier=frontier)
        else:
            plan = optimize_brute(graph, ctx,
                                  timeout_seconds=timeout_seconds)
        span.set(seconds=plan.total_seconds)
        if plan.profile is not None:
            span.set(states_explored=plan.profile.states_explored,
                     states_pruned=plan.profile.states_pruned)
    return plan
