"""EXPLAIN for annotated plans: per-stage cost breakdowns.

Renders an optimized plan the way a database EXPLAIN would — one row per
execution stage (every operator implementation and every non-identity
transformation) with the cost model's feature estimates, plus totals and
the dominant stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .annotation import Plan
from .graph import ComputeGraph
from .registry import OptimizerContext


@dataclass(frozen=True)
class StageExplain:
    """One EXPLAIN row."""

    kind: str             # "op" or "transform"
    vertex: str
    detail: str           # implementation / transformation name
    output_format: str
    seconds: float
    flops: float
    network_bytes: float
    intermediate_bytes: float
    tuples: float


def explain_stages(plan: Plan, ctx: OptimizerContext) -> list[StageExplain]:
    """Per-stage breakdown of a plan, in execution order.

    Rows come straight from the plan's lowered stage DAG
    (:meth:`Plan.lowered`): exactly the stages the engine charges, so
    identity edges never appear.
    """
    graph = plan.graph
    rows: list[StageExplain] = []
    for stage in plan.lowered(ctx).stages:
        feats = stage.features
        if stage.kind == "transform":
            producer = graph.vertex(stage.edge.src)
            consumer = graph.vertex(stage.vertex)
            rows.append(StageExplain(
                "transform", f"{producer.name}->{consumer.name}",
                stage.transform.name, str(stage.dst_fmt), stage.seconds,
                feats.flops, feats.network_bytes, feats.intermediate_bytes,
                feats.tuples))
        else:
            rows.append(StageExplain(
                "op", graph.vertex(stage.vertex).name, stage.impl.name,
                str(stage.out_fmt), stage.seconds, feats.flops,
                feats.network_bytes, feats.intermediate_bytes, feats.tuples))
    return rows


def explain(plan: Plan, ctx: OptimizerContext, top: int = 5,
            measured=None) -> str:
    """Render an EXPLAIN report for a plan.

    ``measured`` optionally appends a cost-drift section joining the cost
    model's per-stage predictions against what an execution actually
    charged: pass an :class:`~repro.engine.executor.ExecutionResult` (or
    its :class:`~repro.obs.drift.DriftReport` directly) from running this
    plan.
    """
    rows = explain_stages(plan, ctx)
    header = (f"{'stage':34s} {'impl/transform':24s} {'out format':18s} "
              f"{'seconds':>9s} {'GFLOP':>8s} {'net MB':>9s} {'tuples':>9s}")
    lines = [f"EXPLAIN plan ({plan.optimizer}, "
             f"{_fmt_secs(plan.total_seconds)} predicted)"]
    lines.extend(_pipeline_lines(plan))
    if plan.profile is not None:
        lines.extend("  " + line
                     for line in plan.profile.describe().splitlines())
    lines += [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.vertex:34.34s} {r.detail:24.24s} {r.output_format:18.18s} "
            f"{_fmt_secs(r.seconds):>9s} {r.flops / 1e9:8.1f} "
            f"{r.network_bytes / 1e6:9.1f} {r.tuples:9.0f}")
    lines.append("-" * len(header))
    transform_secs = plan.cost.transform_seconds
    lines.append(
        f"total {_fmt_secs(plan.total_seconds)}  "
        f"(operators {_fmt_secs(plan.cost.compute_seconds)}, "
        f"transformations {_fmt_secs(transform_secs)})")
    dominant = sorted(rows, key=lambda r: r.seconds, reverse=True)[:top]
    lines.append("dominant stages:")
    for r in dominant:
        share = (r.seconds / plan.total_seconds
                 if plan.total_seconds > 0 else 0.0)
        lines.append(f"  {share:6.1%}  {r.vertex} [{r.detail}]")
    drift = _drift_of(measured)
    if drift is not None:
        lines.append("")
        lines.append(drift.render(top=top))
    return "\n".join(lines)


def explain_graph(graph: ComputeGraph, ctx: OptimizerContext | None = None,
                  *, planner=None,
                  max_states: int | None = None,
                  rewrites="none", top: int = 5, measured=None) -> str:
    """Optimize ``graph`` and render its EXPLAIN report in one step.

    Planning goes through a :class:`repro.service.PlannerService` — pass
    ``planner`` to reuse a shared service (and its plan cache); otherwise
    a throwaway service is created.  The report notes when the plan was
    served from the cache rather than searched afresh.
    """
    from ..service.planner import PlannerService
    if planner is None:
        planner = PlannerService(ctx)
    resolved = planner.resolve_context(graph, ctx)
    plan = planner.optimize(graph, resolved, max_states=max_states,
                            rewrites=rewrites)
    return explain(plan, resolved, top=top, measured=measured)


def _drift_of(measured):
    """Accept an ExecutionResult, a DriftReport, or None."""
    if measured is None:
        return None
    drift = getattr(measured, "drift", measured)
    if drift is None:
        return None
    if not hasattr(drift, "render"):
        raise TypeError(
            f"measured must be an ExecutionResult or DriftReport, "
            f"got {type(measured).__name__}")
    return drift


def _pipeline_lines(plan: Plan) -> list[str]:
    """Rewrite-engine section of the EXPLAIN report (empty when the plan
    was optimized without rewrites).  For egraph plans this renders the
    saturation statistics; for pipeline plans, the per-pass details."""
    report = plan.pipeline
    if report is None:
        return []
    lines = [f"rewrites: {report.summary()} [engine: {report.engine}]"]
    if report.saturation is not None:
        lines.extend(_saturation_lines(report))
    if not report.adopted:
        fallback = report.fallback or "unrewritten"
        lines.append(f"  (rewritten plan not adopted: {fallback} plan "
                     "was cheaper)")
        return lines
    for p in report.fired:
        for detail in p.details:
            lines.append(f"  [{p.name}] {detail}")
    return lines


def _saturation_lines(report) -> list[str]:
    """Saturation-stats subsection for egraph-engine plans."""
    sat = report.saturation
    lines = [f"  saturation: {sat.describe()}"]
    for name, count in sat.rules_applied:
        lines.append(f"    [{name}] {count} merge(s)")
    return lines


def _fmt_secs(seconds: float) -> str:
    if math.isinf(seconds):
        return "Fail"
    if seconds >= 100:
        return f"{seconds:.0f}s"
    return f"{seconds:.2f}s"
