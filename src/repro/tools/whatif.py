"""What-if analysis: capacity planning and catalog sensitivity.

Because plans are costed on a parametric cluster model, the optimizer
doubles as a capacity-planning tool: sweep cluster sizes (re-optimizing at
each — the best *plan* changes with the hardware, which is the paper's
Fig 7 observation), find the smallest cluster that meets a latency target,
or measure how much each format family contributes to plan quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ..cluster import ClusterConfig
from ..core.annotation import AnnotationError, Plan
from ..core.formats import DEFAULT_FORMATS, Layout, PhysicalFormat
from ..core.graph import ComputeGraph
from ..core.optimizer import validate_knobs
from ..core.registry import OptimizerContext
from ..core.tree_dp import OptimizationError
from ..service.planner import PlannerService

ProfileFn = Callable[[int], ClusterConfig]

#: The errors that mean "no plan fits this cluster or catalog": such a
#: point reads as infeasible.  Anything else is a defect and propagates.
INFEASIBLE = (OptimizationError, AnnotationError)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a cluster-size sweep."""

    workers: int
    seconds: float
    plan: Plan

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.seconds)


def sweep_workers(
    graph: ComputeGraph,
    profile: ProfileFn,
    workers: Sequence[int],
    max_states: int | None = 1000,
    rewrites: str | Sequence[str] = "none",
    tracer=None,
    planner: PlannerService | None = None,
) -> list[SweepPoint]:
    """Optimize ``graph`` for each cluster size and report predicted times.

    Each point re-optimizes: bigger clusters change the best plan, not
    just its cost.  Planning goes through a
    :class:`~repro.service.PlannerService` — pass ``planner`` to share
    one across sweeps (each (workload, cluster size) point is cached, so
    overlapping sweeps and previews re-use plans); otherwise a throwaway
    service is created.  With a ``tracer``, each point records a
    ``sweep-point`` span with the nested ``optimize`` span tree inside it.
    Bad knobs raise ``ValueError`` before the first point, rather than
    reading as infeasible points; only the errors in :data:`INFEASIBLE`
    make a point infeasible, any other error propagates.
    """
    from ..obs.tracer import as_tracer

    validate_knobs(max_states, rewrites)
    if planner is None:
        planner = PlannerService(tracer=tracer)
    tracer = as_tracer(tracer) if tracer is not None else planner.tracer
    points = []
    for count in workers:
        ctx = OptimizerContext(cluster=profile(count))
        with tracer.span(f"sweep-point:{count}", kind="sweep-point",
                         workers=count) as span:
            try:
                plan = planner.optimize(graph, ctx, max_states=max_states,
                                        rewrites=rewrites)
                seconds = plan.total_seconds
            except INFEASIBLE:
                plan = None
                seconds = math.inf
            span.set(seconds=seconds, feasible=math.isfinite(seconds))
        points.append(SweepPoint(count, seconds, plan))
    return points


def recommend_workers(
    graph: ComputeGraph,
    profile: ProfileFn,
    target_seconds: float,
    candidates: Sequence[int] = (2, 5, 10, 20, 40, 80),
    max_states: int | None = 1000,
    rewrites: str | Sequence[str] = "none",
    planner: PlannerService | None = None,
) -> SweepPoint | None:
    """Smallest candidate cluster whose optimized plan meets the target.

    Returns None when no candidate meets it.  With a shared ``planner``,
    candidates already swept elsewhere are served from its plan cache.
    """
    for point in sweep_workers(graph, profile, sorted(candidates),
                               max_states=max_states, rewrites=rewrites,
                               planner=planner):
        if point.feasible and point.seconds <= target_seconds:
            return point
    return None


@dataclass(frozen=True)
class FormatContribution:
    """Cost impact of removing one format family from the catalog."""

    family: Layout
    removed_formats: int
    seconds_without: float
    slowdown: float  # relative to the full catalog (inf = plan infeasible)


def format_family_contributions(
    graph: ComputeGraph,
    cluster: ClusterConfig,
    catalog: tuple[PhysicalFormat, ...] = DEFAULT_FORMATS,
    max_states: int | None = 1000,
    rewrites: str | Sequence[str] = "none",
    planner: PlannerService | None = None,
) -> tuple[float, list[FormatContribution]]:
    """How much each format family matters for this computation.

    Optimizes once with the full catalog, then once per family with that
    family removed; reports the slowdown each removal causes.  Families a
    graph's sources load in are never removed (the data arrives in them).
    The reduced catalogs are part of each request's fingerprint, so a
    shared ``planner`` caches every variant separately and correctly.
    """
    if planner is None:
        planner = PlannerService()
    base_ctx = OptimizerContext(cluster=cluster, formats=catalog)
    base = planner.optimize(graph, base_ctx, max_states=max_states,
                            rewrites=rewrites)
    protected = {s.format.layout for s in graph.sources}

    contributions = []
    for family in Layout:
        subset = tuple(f for f in catalog if f.layout is not family)
        if len(subset) == len(catalog) or family in protected:
            continue
        ctx = OptimizerContext(cluster=cluster, formats=subset)
        try:
            plan = planner.optimize(graph, ctx, max_states=max_states,
                                    rewrites=rewrites)
            seconds = plan.total_seconds
            slowdown = seconds / base.total_seconds
        except INFEASIBLE:
            seconds = math.inf
            slowdown = math.inf
        contributions.append(FormatContribution(
            family, len(catalog) - len(subset), seconds, slowdown))
    contributions.sort(key=lambda c: -c.slowdown)
    return base.total_seconds, contributions


@dataclass(frozen=True)
class ChaosPreviewPoint:
    """Predicted cost of losing one worker at a given cluster size."""

    workers: int
    healthy_seconds: float
    degraded_seconds: float   #: re-optimized for ``workers - 1`` survivors

    @property
    def penalty(self) -> float:
        if not math.isfinite(self.healthy_seconds) or \
                not math.isfinite(self.degraded_seconds):
            return math.inf
        return self.degraded_seconds / self.healthy_seconds


def chaos_preview(
    graph: ComputeGraph,
    profile: ProfileFn,
    workers: Sequence[int],
    max_states: int | None = 1000,
    rewrites: str | Sequence[str] = "none",
    planner: PlannerService | None = None,
) -> list[ChaosPreviewPoint]:
    """What losing one worker costs, before it happens.

    For each cluster size this re-optimizes the workload for ``n - 1``
    survivors — the same degraded-mode re-planning the dynamics driver
    performs when the heartbeat detector declares a worker dead — and
    reports the predicted slowdown.  Sizes of 1 are skipped: losing the
    last worker is a cluster failure, not a degraded mode.  With a shared
    ``planner``, sizes the main sweep already optimized come straight
    from its plan cache.  Bad knobs raise ``ValueError`` up front.
    """
    validate_knobs(max_states, rewrites)
    if planner is None:
        planner = PlannerService()
    points = []
    for count in workers:
        if count <= 1:
            continue
        seconds = []
        for n in (count, count - 1):
            ctx = OptimizerContext(cluster=profile(n))
            try:
                seconds.append(planner.optimize(
                    graph, ctx, max_states=max_states,
                    rewrites=rewrites).total_seconds)
            except INFEASIBLE:
                seconds.append(math.inf)
        points.append(ChaosPreviewPoint(count, seconds[0], seconds[1]))
    return points


def render_chaos_preview(points: list[ChaosPreviewPoint]) -> str:
    """Text table for a degraded-mode preview."""
    from ..engine.executor import format_hms
    from ..engine.membership import HeartbeatConfig

    def cell(seconds: float) -> str:
        return format_hms(seconds) if math.isfinite(seconds) else "Fail"

    lines = [f"{'workers':>8s} {'healthy':>12s} {'one lost':>12s} "
             f"{'penalty':>8s}"]
    for p in points:
        pen = f"x{p.penalty:.2f}" if math.isfinite(p.penalty) else "Fail"
        lines.append(f"{p.workers:8d} {cell(p.healthy_seconds):>12s} "
                     f"{cell(p.degraded_seconds):>12s} {pen:>8s}")
    hb = HeartbeatConfig()
    lines.append(f"detection gap: up to "
                 f"{hb.interval_seconds + hb.suspicion_timeout_seconds:.0f}s "
                 f"(heartbeat every {hb.interval_seconds:.0f}s, suspicion "
                 f"timeout {hb.suspicion_timeout_seconds:.0f}s) before "
                 f"re-planning starts")
    return "\n".join(lines)


@dataclass(frozen=True)
class BatchComparison:
    """Solo-vs-batched planning for one set of co-submitted workloads."""

    names: tuple[str, ...]
    solo_seconds: tuple[float, ...]     #: predicted runtime, planned alone
    batch_seconds: float                #: predicted runtime of the merged plan
    solo_plan_seconds: float            #: wall clock spent planning solo (sum)
    batch_plan_seconds: float           #: wall clock of the one batch search
    shared_subplans: tuple[str, ...]    #: merged vertices used by >1 query
    cse_hits: int

    @property
    def solo_total(self) -> float:
        return sum(self.solo_seconds)

    @property
    def saving(self) -> float:
        """Predicted seconds saved by executing the batch jointly."""
        return self.solo_total - self.batch_seconds


def compare_batch(
    graphs: Sequence[ComputeGraph],
    names: Sequence[str],
    ctx: OptimizerContext | None = None,
    max_states: int | None = 1000,
    rewrites: str | Sequence[str] = "none",
    planner: PlannerService | None = None,
) -> BatchComparison:
    """Plan each graph alone and all of them as one batch; compare.

    Both paths go through the planner service, so repeated comparisons
    (and the solo plans a sweep already produced) come from the cache.
    The batch plan's cost counts shared subexpressions once — the
    comparison quantifies what co-submission is worth for this mix.
    """
    if planner is None:
        planner = PlannerService()
    solo = [planner.optimize(g, ctx, max_states=max_states, rewrites=rewrites)
            for g in graphs]
    batch = planner.optimize_batch(graphs, ctx, max_states=max_states,
                                   rewrites=rewrites)
    return BatchComparison(
        names=tuple(names),
        solo_seconds=tuple(p.total_seconds for p in solo),
        batch_seconds=batch.merged.total_seconds,
        solo_plan_seconds=sum(p.optimize_seconds for p in solo),
        batch_plan_seconds=batch.optimize_seconds,
        shared_subplans=batch.merged.profile.shared_subplans
        if batch.merged.profile is not None else (),
        cse_hits=batch.cse_hits)


def render_batch(cmp: BatchComparison) -> str:
    """Text report for a solo-vs-batched comparison."""
    from ..engine.executor import format_hms

    lines = [f"{'query':24s} {'solo':>12s}"]
    for name, seconds in zip(cmp.names, cmp.solo_seconds):
        lines.append(f"{name:24s} {format_hms(seconds):>12s}")
    lines.append(f"{'sum of solo plans':24s} "
                 f"{format_hms(cmp.solo_total):>12s}")
    ratio = (f"x{cmp.solo_total / cmp.batch_seconds:.2f}"
             if cmp.batch_seconds > 0 else "-")
    lines.append(f"{'batched (shared once)':24s} "
                 f"{format_hms(cmp.batch_seconds):>12s} {ratio:>8s}")
    lines.append(f"cross-query CSE: {cmp.cse_hits} subexpressions "
                 f"deduplicated; {len(cmp.shared_subplans)} shared "
                 "between queries")
    if cmp.shared_subplans:
        shown = ", ".join(cmp.shared_subplans[:6])
        more = len(cmp.shared_subplans) - 6
        lines.append(f"shared subplans: {shown}"
                     + (f" (+{more} more)" if more > 0 else ""))
    lines.append(f"planning: {cmp.solo_plan_seconds:.3f}s solo (sum) vs "
                 f"{cmp.batch_plan_seconds:.3f}s batched (one search)")
    return "\n".join(lines)


def render_sweep(points: list[SweepPoint]) -> str:
    """Text table for a worker sweep."""
    from ..engine.executor import format_hms

    lines = [f"{'workers':>8s} {'predicted':>12s} {'change':>8s}"]
    previous = None
    for p in points:
        cell = format_hms(p.seconds) if p.feasible else "Fail"
        change = ""
        if previous and p.feasible and previous.feasible:
            change = f"x{previous.seconds / p.seconds:.2f}"
        lines.append(f"{p.workers:8d} {cell:>12s} {change:>8s}")
        previous = p
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Command-line interface
# ----------------------------------------------------------------------
def _cli_workloads() -> dict[str, Callable[[], ComputeGraph]]:
    from ..workloads import (
        AttentionConfig,
        amazoncat_config,
        attention_graph,
        ffnn_backprop_to_w2,
        ffnn_forward,
        motivating_graph,
    )

    cfg = amazoncat_config(batch=2000, hidden=8000)
    return {
        "ffnn_forward": lambda: ffnn_forward(cfg),
        "ffnn_backprop": lambda: ffnn_backprop_to_w2(cfg),
        "attention": lambda: attention_graph(AttentionConfig()),
        "motivating": motivating_graph,
    }


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.tools.whatif``: worker sweep for a workload.

    Rewrites run by default (``--rewrites pipeline``); ``--rewrites
    egraph`` plans through the equality-saturation engine instead, and
    ``--rewrites off`` (or the legacy ``--no-rewrites``) disables the
    logical rewrite stage so its impact shows up directly in the sweep.
    """
    import argparse

    from ..cluster import DEFAULT_CLUSTER

    workloads = _cli_workloads()
    parser = argparse.ArgumentParser(
        prog="repro.tools.whatif",
        description="Capacity planning: optimize a workload across "
                    "cluster sizes and report predicted runtimes.")
    parser.add_argument("--workload", choices=sorted(workloads),
                        default="ffnn_forward")
    parser.add_argument("--workers", default="2,5,10,20",
                        help="comma-separated cluster sizes to sweep")
    parser.add_argument("--target", type=float, default=None,
                        help="latency target in seconds; also report the "
                             "smallest cluster that meets it")
    parser.add_argument("--max-states", type=int, default=1000,
                        help="frontier beam width (0 = exact)")
    parser.add_argument("--rewrites", choices=("pipeline", "egraph", "off"),
                        default=None,
                        help="logical rewrite engine: the ordered pass "
                             "pipeline (default), equality saturation over "
                             "the shared rule table, or off")
    parser.add_argument("--no-rewrites", action="store_true",
                        help="legacy alias for --rewrites off")
    parser.add_argument("--profile", action="store_true",
                        help="print the optimizer search-effort profile "
                             "(states explored/pruned, table sizes, phase "
                             "times) of the best plan at the first feasible "
                             "cluster size")
    parser.add_argument("--timeline", action="store_true",
                        help="render the pipeline-aware stage timeline "
                             "(ASAP Gantt chart) of the best plan at the "
                             "first feasible cluster size")
    parser.add_argument("--batch", metavar="W1,W2,...", default=None,
                        help="comma-separated workloads to co-plan as one "
                             "batch (repeats allowed, e.g. a multi-tenant "
                             "mix); compares the batched plan against the "
                             "sum of solo plans at the first swept cluster "
                             "size")
    parser.add_argument("--chaos", action="store_true",
                        help="preview degraded-mode re-planning: predicted "
                             "runtime after losing one worker (re-optimized "
                             "for the survivors) at each swept size, plus "
                             "the heartbeat detection gap")
    parser.add_argument("--emit-trace", metavar="PATH", default=None,
                        help="record the sweep as structured spans and "
                             "export them (.jsonl = JSONL, anything else = "
                             "Chrome trace JSON for chrome://tracing or "
                             "ui.perfetto.dev)")
    args = parser.parse_args(argv)
    if args.max_states < 0:
        parser.error(f"--max-states must be >= 0 (0 = exact search), "
                     f"got {args.max_states}")

    tracer = None
    if args.emit_trace:
        from ..obs.tracer import Tracer

        tracer = Tracer()

    graph = workloads[args.workload]()
    counts = [int(w) for w in args.workers.split(",") if w.strip()]
    if args.rewrites is not None and args.no_rewrites and \
            args.rewrites != "off":
        parser.error("--no-rewrites contradicts --rewrites "
                     f"{args.rewrites}")
    rewrites = args.rewrites or ("off" if args.no_rewrites else "pipeline")
    max_states = args.max_states or None
    # One planner service for the whole invocation: the chaos preview and
    # the --target recommendation revisit cluster sizes the main sweep
    # already optimized, and the plan cache serves those for free.
    service = PlannerService(tracer=tracer)
    points = sweep_workers(graph, DEFAULT_CLUSTER.with_workers, counts,
                           max_states=max_states, rewrites=rewrites,
                           tracer=tracer, planner=service)
    print(f"workload {args.workload}: {len(graph)} vertices, "
          f"rewrites={rewrites}")
    print(render_sweep(points))
    fired = {p.plan.pipeline.summary() for p in points
             if p.plan is not None and p.plan.pipeline is not None}
    if fired:
        print("rewrite passes fired: " + "; ".join(sorted(fired)))
    if rewrites == "egraph":
        sats = [p.plan.pipeline.saturation for p in points
                if p.plan is not None and p.plan.pipeline is not None
                and p.plan.pipeline.saturation is not None]
        if sats:
            print("saturation: " + "; ".join(sorted(
                {s.describe() for s in sats})))
    if args.profile:
        shown = next((p for p in points if p.feasible and p.plan is not None),
                     None)
        if shown is None or shown.plan.profile is None:
            print("profile: no feasible plan with a profile in the sweep")
        else:
            print(f"profile at {shown.workers} workers:")
            print(shown.plan.profile.describe())
    if args.timeline:
        from ..engine.trace import schedule

        shown = next((p for p in points if p.feasible and p.plan is not None),
                     None)
        if shown is None:
            print("timeline: no feasible plan in the sweep")
        else:
            ctx = OptimizerContext(
                cluster=DEFAULT_CLUSTER.with_workers(shown.workers))
            print(f"timeline at {shown.workers} workers:")
            print(schedule(shown.plan, ctx).gantt())
    if args.batch:
        batch_names = [w.strip() for w in args.batch.split(",") if w.strip()]
        unknown = sorted(set(batch_names) - set(workloads))
        if unknown:
            parser.error(f"--batch: unknown workloads {', '.join(unknown)} "
                         f"(choose from {', '.join(sorted(workloads))})")
        batch_graphs = [workloads[name]() for name in batch_names]
        batch_ctx = OptimizerContext(
            cluster=DEFAULT_CLUSTER.with_workers(counts[0]))
        cmp = compare_batch(batch_graphs, batch_names, batch_ctx,
                            max_states=max_states, rewrites=rewrites,
                            planner=service)
        print(f"batch of {len(batch_graphs)} queries at {counts[0]} "
              "workers (solo vs co-planned):")
        print(render_batch(cmp))
    if args.chaos:
        preview = chaos_preview(graph, DEFAULT_CLUSTER.with_workers, counts,
                                max_states=max_states, rewrites=rewrites,
                                planner=service)
        if preview:
            print("chaos preview (one worker lost, plan re-optimized):")
            print(render_chaos_preview(preview))
        else:
            print("chaos preview: all swept sizes <= 1 worker (losing the "
                  "last worker is a cluster failure)")
    if args.target is not None:
        best = recommend_workers(graph, DEFAULT_CLUSTER.with_workers,
                                 args.target, counts,
                                 max_states=max_states, rewrites=rewrites,
                                 planner=service)
        if best is None:
            print(f"no swept cluster meets {args.target:.1f}s")
        else:
            print(f"smallest cluster meeting {args.target:.1f}s: "
                  f"{best.workers} workers ({best.seconds:.2f}s predicted)")
    if tracer is not None:
        from ..engine.trace import stage_spans
        from ..obs.export import export_trace

        shown = next((p for p in points if p.feasible and p.plan is not None),
                     None)
        if shown is not None:
            # Append the first feasible plan's predicted ASAP timeline as
            # virtual-clock spans so the exported trace shows the schedule
            # next to the measured optimization spans.
            ctx = OptimizerContext(
                cluster=DEFAULT_CLUSTER.with_workers(shown.workers))
            for span in stage_spans(shown.plan.lowered(ctx)):
                tracer.add_span(span)
        count = export_trace(tracer, args.emit_trace)
        print(f"trace: {count} spans -> {args.emit_trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
