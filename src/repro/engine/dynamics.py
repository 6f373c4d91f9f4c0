"""Cluster dynamics: degraded-mode re-planning under worker churn.

The paper optimizes a plan for a *fixed* cluster; this module runs a plan
on a cluster whose membership changes mid-execution.  A scripted or seeded
:class:`~repro.engine.membership.WorkerTimeline` says when workers crash,
slow down, or rejoin; :func:`execute_with_dynamics` drives the plan one
stage-graph frontier at a time and, at every frontier boundary, consumes
the events that simulated time (or that frontier index) has reached:

* a **crash** surfaces through the simulated heartbeat detector — the gap
  between the crash and its declaration is charged to the ledger as
  recovery overhead (``detector:wN``) — then the driver takes stock:
  every intermediate with a block homed on the dead worker is lost, its
  productive work is re-labelled as recovery cost, and the *pending*
  computation is re-planned against the shrunken cluster;
* re-planning itself costs time, charged to the dedicated ``"replan"``
  ledger category, and is **never worse** than not re-planning: the
  driver evaluates both a fresh optimization of the residual graph and a
  "carry-on" plan that keeps every surviving choice from the old plan,
  then picks the cheaper (if optimization of the residual is infeasible
  or costlier, the old choices simply continue on the survivors);
* a **slowdown** drags on every later frontier: the degraded worker's
  share of each frontier's work is stretched by its factor, charged as
  straggler time (``slow:wN``);
* a **rejoin** grows the cluster back; pending work is re-planned (again
  never-worse) so later stages can exploit the returned capacity.

Losing the *last* worker is a cluster failure, not a resize — the run
returns a structured failure, mirroring
:class:`~repro.engine.executor.ExecutionResult`.

Determinism: the timeline is a pure function of its config, frontier
boundaries are scheduler-independent, and all charges happen at those
boundaries in event order — so the final ledger is bit-identical across
:class:`~repro.engine.scheduler.SequentialScheduler` and
:class:`~repro.engine.scheduler.ThreadPoolScheduler`, like every other
path through this engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.annotation import Annotation, AnnotationError, Plan, make_plan
from ..core.frontier import validate_search_knobs
from ..core.graph import VertexId
from ..core.optimizer import optimize
from ..core.registry import OptimizerContext
from ..core.tree_dp import OptimizationError
from ..cost.sparsity import observed_sparsity
from ..obs.drift import DriftReport
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, as_tracer
from .faults import FaultSource, as_injector
from .intermediate import IntermediateStore, harvest_state, preload_state
from .ledger import (
    RECOVERY,
    REPLAN,
    STRAGGLER,
    WORK,
    EngineFailure,
    StageRecord,
    TrafficLedger,
)
from .membership import (
    HeartbeatConfig,
    HeartbeatDetector,
    MembershipEvent,
    MembershipEventKind,
    MembershipView,
    WorkerTimeline,
)
from .recovery import (
    DEFAULT_RECOVERY,
    RecoveryPolicy,
    SpeculationPolicy,
    plan_context,
)
from .reopt import residual_graph
from .scheduler import (
    ExecutionState,
    Scheduler,
    SequentialScheduler,
)
from .stages import OpStage, TransformStage, lower
from .storage import StoredMatrix, assemble


@dataclass(frozen=True)
class DynamicsConfig:
    """Knobs of the dynamics driver.

    ``replan_cost_seconds`` is the (deterministic) simulated cost of one
    re-planning pass, charged to the ``"replan"`` ledger category;
    ``reoptimize=False`` skips the fresh optimization candidate and always
    carries the old plan's choices onto the survivors; ``max_states``
    beam-limits the re-optimization search and is checked on construction,
    so a bad value fails before any epoch runs; ``checkpoint_dir`` writes a
    durable :mod:`~repro.engine.checkpoint` snapshot after every frontier.
    """

    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    replan_cost_seconds: float = 2.0
    reoptimize: bool = True
    max_states: int | None = None
    checkpoint_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.replan_cost_seconds < 0:
            raise ValueError("replan_cost_seconds must be >= 0")
        validate_search_knobs(self.max_states)


@dataclass
class DynamicsEventReport:
    """One membership event as the driver saw it."""

    worker: int
    kind: str
    at_seconds: float
    #: Crash-to-declaration wait charged by the heartbeat detector
    #: (crash events only).
    detector_seconds: float = 0.0
    #: Whether the event changed the membership view (a crash of an
    #: already-dead worker does not).
    applied: bool = True


@dataclass
class ReplanReport:
    """One degraded-mode (or rejoin) re-planning decision."""

    epoch: int
    alive: tuple[int, ...]
    #: Productive seconds re-labelled as recovery because the dead worker
    #: held the only copy of an intermediate an output still needs.
    lost_work_seconds: float
    #: Evaluated cost of carrying the old plan's choices onto the
    #: survivors (None when infeasible there).
    carry_on_seconds: float | None
    #: Evaluated cost of freshly optimizing the residual graph (None when
    #: skipped or infeasible).
    reoptimized_seconds: float | None
    #: ``"carry-on"`` or ``"reoptimized"`` — always the cheaper one.
    chosen: str
    replan_cost_seconds: float


@dataclass
class DynamicsResult:
    """Outcome of :func:`execute_with_dynamics`."""

    ok: bool
    outputs: dict[str, np.ndarray]
    ledger: TrafficLedger
    events: list[DynamicsEventReport]
    replans: list[ReplanReport]
    #: Number of plan epochs executed (1 = no re-planning happened).
    epochs: int
    #: The plan each epoch ran (``plans[0]`` is the input plan).
    plans: list[Plan]
    failure: str | None = None

    @property
    def total_seconds(self) -> float:
        return self.ledger.total_seconds

    @property
    def work_seconds(self) -> float:
        return self.ledger.work_seconds

    @property
    def fault_seconds(self) -> float:
        """Everything not productive work: recovery + straggler + replan."""
        return self.ledger.recovery_seconds

    def output(self) -> np.ndarray:
        if not self.ok:
            raise RuntimeError(f"dynamics run failed: {self.failure}")
        if len(self.outputs) != 1:
            raise ValueError(f"graph has {len(self.outputs)} outputs; "
                             "use .outputs[name]")
        return next(iter(self.outputs.values()))


class _Progress:
    """What the driver knows about the *original* graph so far.

    Everything is keyed by original-graph vertex ids, no matter how many
    residual re-plans have renumbered them since — each epoch's
    ``mapping`` translates.  ``records`` holds live references to the
    ledger's :class:`StageRecord` objects, so a later worker death can
    re-label work as lost after it was already merged.
    """

    def __init__(self, graph, inputs: dict[str, np.ndarray]) -> None:
        self.graph = graph
        self.values: dict[VertexId, np.ndarray] = {}
        self.formats: dict[VertexId, object] = {}
        self.sparsity: dict[VertexId, float] = {}
        self.records: dict[VertexId, list[StageRecord]] = {}
        self.durable: set[VertexId] = set()
        for v in graph.sources:
            if v.name not in inputs:
                raise KeyError(f"no input provided for source {v.name!r}")
            self.values[v.vid] = inputs[v.name]
            self.formats[v.vid] = v.format
            self.sparsity[v.vid] = observed_sparsity(inputs[v.name])
            # True inputs live in durable storage (the paper's HDFS/RDBMS
            # load step): losing a worker never loses them.
            self.durable.add(v.vid)

    @property
    def computed(self) -> set[VertexId]:
        return set(self.values)

    def pending(self) -> set[VertexId]:
        """Original vids an output still needs but no one holds."""
        needed: set[VertexId] = set()
        stack = [out.vid for out in self.graph.outputs]
        while stack:
            vid = stack.pop()
            if vid in needed:
                continue
            needed.add(vid)
            if vid not in self.values:
                stack.extend(self.graph.vertex(vid).inputs)
        return {vid for vid in needed if vid not in self.values}

    def register(self, orig: VertexId, stored: StoredMatrix,
                 records: list[StageRecord]) -> None:
        value = assemble(stored)
        self.values[orig] = value
        self.formats[orig] = stored.fmt
        self.sparsity[orig] = observed_sparsity(value)
        self.records.setdefault(orig, []).extend(records)

    def lose(self, orig: VertexId) -> float:
        """Forget a lost vertex; its productive work becomes recovery
        cost.  Returns the re-labelled seconds."""
        self.values.pop(orig, None)
        self.formats.pop(orig, None)
        self.sparsity.pop(orig, None)
        lost = 0.0
        for rec in self.records.pop(orig, ()):
            if rec.category == WORK:
                rec.category = RECOVERY
                lost += rec.seconds
        return lost


def _carry_on_plan(residual, inverse: dict[VertexId, VertexId],
                   impls, transforms, ctx: OptimizerContext) -> Plan | None:
    """Map the surviving choices of earlier plans onto the residual graph.

    ``impls``/``transforms`` remember, per original vertex/edge, the last
    implementation and format transform any epoch's plan chose.  If every
    pending vertex still has a remembered choice and the annotation is
    feasible on the (possibly shrunken) cluster, this is the do-nothing
    baseline that makes re-planning never worse.
    """
    ann = Annotation()
    try:
        for v in residual.vertices:
            if v.is_source:
                continue
            orig = inverse[v.vid]
            ann.impls[v.vid] = impls[orig]
            for edge in residual.in_edges(v.vid):
                key = (inverse[edge.src], orig, edge.arg_pos)
                ann.transforms[edge] = transforms[key]
        return make_plan(residual, ann, ctx, "carry-on")
    except (KeyError, AnnotationError):
        return None


def _remember_choices(plan: Plan, inverse: dict[VertexId, VertexId],
                      impls, transforms) -> None:
    """Record a plan's choices in original-graph terms for carry-on."""
    for vid, impl in plan.annotation.impls.items():
        impls[inverse[vid]] = impl
    for edge, choice in plan.annotation.transforms.items():
        transforms[(inverse[edge.src], inverse[edge.dst],
                    edge.arg_pos)] = choice


def execute_with_dynamics(
    plan: Plan,
    inputs: dict[str, np.ndarray],
    ctx: OptimizerContext,
    timeline: WorkerTimeline,
    config: DynamicsConfig | None = None,
    faults: FaultSource = None,
    recovery: RecoveryPolicy | None = None,
    scheduler: Scheduler | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    speculation: SpeculationPolicy | None = None,
    drift_hint: DriftReport | None = None,
    store: IntermediateStore | None = None,
) -> DynamicsResult:
    """Execute ``plan`` while ``timeline``'s membership events play out.

    See the module docstring for the model.  ``faults``, ``recovery``,
    ``scheduler``, ``speculation`` and the observability hooks mean the
    same as in :func:`~repro.engine.executor.execute_plan` — task-level
    fault injection and straggler speculation compose freely with
    cluster-level churn.

    ``store`` attaches a shared
    :class:`~repro.engine.intermediate.IntermediateStore`: every epoch
    first serves cached subplans (so a re-plan after a crash accounts
    for already-materialized intermediates), a dead worker's cached
    blocks are invalidated when the detector fires, and each epoch's
    fresh results are offered back to the store.
    """
    if timeline.num_workers != ctx.cluster.num_workers:
        raise ValueError(
            f"timeline models {timeline.num_workers} workers but the "
            f"cluster has {ctx.cluster.num_workers}")
    config = config if config is not None else DynamicsConfig()
    policy = recovery if recovery is not None else DEFAULT_RECOVERY
    sched = scheduler if scheduler is not None else SequentialScheduler()
    tracer = as_tracer(tracer)
    injector = as_injector(faults, ctx.cluster.num_workers)
    detector = HeartbeatDetector(config.heartbeat)

    graph = plan.graph
    ledger = TrafficLedger(ctx.cluster, ctx.weights)
    view = MembershipView(timeline.num_workers)
    progress = _Progress(graph, inputs)
    events: list[DynamicsEventReport] = []
    replans: list[ReplanReport] = []
    plans: list[Plan] = [plan]

    # Per-original-vertex/edge choice memory for the carry-on candidate.
    impls: dict[VertexId, object] = {}
    transforms: dict[tuple[VertexId, VertexId, int], object] = {}
    _remember_choices(plan, {v: v for v in graph.vertex_ids}, impls,
                      transforms)

    current_plan = plan
    epoch_ctx = ctx
    # original vid -> current epoch-graph vid (identity for epoch 0).
    mapping: dict[VertexId, VertexId] = {v: v for v in graph.vertex_ids}
    last_time = 0.0       # watermark for timed events
    global_frontier = 0   # frontier index across all epochs
    epoch = 0

    def fail(reason: str) -> DynamicsResult:
        return DynamicsResult(False, {}, ledger, events, replans,
                              epoch + 1, plans, failure=reason)

    with tracer.span("dynamics", kind="dynamics",
                     workers=timeline.num_workers,
                     events=len(timeline.events)) as dyn_span:
        while True:
            epoch_alive = sorted(view.alive)
            slot_of = {w: i for i, w in enumerate(epoch_alive)}
            inverse = {nv: ov for ov, nv in mapping.items()}
            sgraph = lower(current_plan, epoch_ctx, tracer=tracer)
            state = ExecutionState(sgraph, epoch_ctx, injector=injector,
                                   policy=policy, tracer=tracer,
                                   parent_span=dyn_span, metrics=metrics,
                                   speculation=speculation, drift=drift_hint)
            values = {current_plan.graph.vertex(mapping[ov]).name:
                      progress.values[ov]
                      for ov in progress.values
                      if mapping.get(ov) is not None
                      and current_plan.graph.vertex(mapping[ov]).is_source}
            state.seed_sources(values)
            if store is not None:
                preload_state(state, store)

            interrupted = False
            crashed: list[MembershipEvent] = []
            frontiers = sgraph.frontiers()
            for fi, sids in enumerate(frontiers):
                # Preload (and checkpoint resume) may have completed part
                # of the frontier already; run only what remains.
                pending_sids = [sid for sid in sids
                                if sid not in state.completed]
                try:
                    if pending_sids:
                        sched.run_stages(state, pending_sids)
                except EngineFailure as failure:
                    state.merge_into(ledger)
                    return fail(str(failure))
                epoch_seconds = sum(r.seconds
                                    for recs in state.records.values()
                                    for r in recs)
                now = ledger.total_seconds + epoch_seconds
                if config.checkpoint_dir is not None:
                    from .checkpoint import checkpoint

                    path = Path(config.checkpoint_dir)
                    path.mkdir(parents=True, exist_ok=True)
                    checkpoint(state).save(
                        path / f"epoch{epoch:02d}_frontier{fi:02d}.json")
                # A degraded worker drags its share of the frontier out.
                frontier_work = sum(
                    r.seconds for sid in sids
                    for r in state.records.get(sid, ())
                    if r.category == WORK)
                for worker in sorted(view.slow_workers):
                    if worker not in slot_of:
                        continue
                    factor = view.slowdown(worker)
                    drag = frontier_work * (factor - 1.0) / len(epoch_alive)
                    if drag > 0:
                        ledger.charge_overhead(
                            f"slow:w{worker}@f{global_frontier}", drag,
                            STRAGGLER)
                pending_events = (timeline.timed_between(last_time, now)
                                  + timeline.at_frontier(global_frontier))
                global_frontier += 1
                last_time = now
                if not pending_events:
                    continue
                for event in pending_events:
                    changed = view.apply(event)
                    at = event.time if event.time is not None else now
                    report = DynamicsEventReport(event.worker,
                                                 event.kind.value, at,
                                                 applied=changed)
                    events.append(report)
                    if not changed:
                        continue
                    if event.kind is MembershipEventKind.CRASH:
                        detected = detector.detection_time(at)
                        wait = max(0.0, detected - now)
                        report.detector_seconds = wait
                        with tracer.span(f"detect:w{event.worker}",
                                         kind="detector", parent=dyn_span,
                                         worker=event.worker,
                                         crash_seconds=at,
                                         detected_seconds=detected,
                                         wait_seconds=wait):
                            if wait > 0:
                                ledger.charge_overhead(
                                    f"detector:w{event.worker}", wait,
                                    RECOVERY)
                        if metrics is not None:
                            metrics.count("dynamics.crashes")
                            metrics.count("dynamics.detector_seconds", wait)
                        if view.n_alive == 0:
                            state.merge_into(ledger)
                            return fail(
                                "lost the last worker: cluster failure")
                        crashed.append(event)
                        interrupted = True
                    elif event.kind is MembershipEventKind.REJOIN:
                        if metrics is not None:
                            metrics.count("dynamics.rejoins")
                        interrupted = True
                    else:
                        if metrics is not None:
                            metrics.count("dynamics.slowdowns")
                if interrupted:
                    break

            state.merge_into(ledger)
            if store is not None:
                harvest_state(state, store, ledger)
            # Bank everything this epoch finished, in stage-id order.
            # Preload marks cache-covered dead code completed without a
            # lineage value; there is nothing to bank for those.
            for stage in sgraph.stages:
                if stage.sid not in state.completed:
                    continue
                if isinstance(stage, OpStage):
                    stored = state.lineage.matrices.get(stage.vertex)
                    if stored is None:
                        continue
                    progress.register(inverse[stage.vertex], stored,
                                      state.records.get(stage.sid, []))

            if not interrupted:
                break

            # ---- take stock of the damage -------------------------------
            dead_slots = {slot_of[e.worker] for e in crashed
                          if e.worker in slot_of}
            if store is not None and dead_slots:
                # The dead workers' partitions of cached results are
                # gone; recovery must fall back to recompute.
                store.invalidate_workers(dead_slots)
            lost_seconds = 0.0
            if dead_slots:
                for orig in sorted(progress.computed):
                    if orig in progress.durable:
                        continue
                    stored = state.lineage.matrices.get(mapping.get(orig))
                    if stored is None:
                        continue
                    homes = set(stored.relation.home.values())
                    if homes & dead_slots:
                        lost_seconds += progress.lose(orig)
                # Transform outputs whose consumer never ran are gone too.
                for stage in sgraph.stages:
                    if (isinstance(stage, TransformStage)
                            and stage.sid in state.completed
                            and inverse[stage.edge.dst]
                            not in progress.values):
                        stored = state.stage_values.get(stage.sid)
                        if stored is None:
                            continue
                        if set(stored.relation.home.values()) & dead_slots:
                            for rec in state.records.get(stage.sid, ()):
                                if rec.category == WORK:
                                    rec.category = RECOVERY
                                    lost_seconds += rec.seconds
            if metrics is not None and lost_seconds:
                metrics.count("dynamics.lost_work_seconds", lost_seconds)

            pending = progress.pending()
            if not pending:
                break  # every output survived; nothing left to plan

            # ---- re-plan the residual, never worse ----------------------
            degraded_ctx = plan_context(ctx, workers=view.n_alive)
            residual, mapping, _ = residual_graph(
                graph, dict(progress.formats), dict(progress.sparsity),
                prune=True)
            inverse = {nv: ov for ov, nv in mapping.items()}
            carry = _carry_on_plan(residual, inverse, impls, transforms,
                                   degraded_ctx)
            fresh: Plan | None = None
            if config.reoptimize:
                try:
                    fresh = optimize(residual, degraded_ctx,
                                     max_states=config.max_states)
                except (OptimizationError, AnnotationError):
                    fresh = None
            candidates = [p for p in (fresh, carry) if p is not None]
            if not candidates:
                return fail(
                    f"no feasible plan for the remaining "
                    f"{len(pending)} vertices on {view.n_alive} workers")
            chosen = min(candidates, key=lambda p: p.cost.total_seconds)
            label = "reoptimized" if chosen is fresh else "carry-on"
            ledger.charge_overhead(f"replan:epoch{epoch}",
                                   config.replan_cost_seconds, REPLAN)
            with tracer.span(f"replan:epoch{epoch}", kind="replan",
                             parent=dyn_span, alive=view.n_alive,
                             lost_work_seconds=lost_seconds,
                             carry_on_seconds=(
                                 carry.cost.total_seconds if carry
                                 else None),
                             reoptimized_seconds=(
                                 fresh.cost.total_seconds if fresh
                                 else None),
                             chosen=label):
                pass
            if metrics is not None:
                metrics.count("dynamics.replans")
                metrics.count("dynamics.replan_seconds",
                              config.replan_cost_seconds)
            replans.append(ReplanReport(
                epoch, tuple(sorted(view.alive)), lost_seconds,
                carry.cost.total_seconds if carry else None,
                fresh.cost.total_seconds if fresh else None,
                label, config.replan_cost_seconds))
            _remember_choices(chosen, inverse, impls, transforms)
            current_plan = chosen
            epoch_ctx = degraded_ctx
            plans.append(chosen)
            epoch += 1

        missing = progress.pending()
        if missing:
            return fail(f"run ended with {len(missing)} outputs "
                        "never computed")
        outputs = {out.name: progress.values[out.vid]
                   for out in graph.outputs}
        dyn_span.set(epochs=epoch + 1, replans=len(replans),
                     total_seconds=ledger.total_seconds)
    return DynamicsResult(True, outputs, ledger, events, replans,
                          epoch + 1, plans)
