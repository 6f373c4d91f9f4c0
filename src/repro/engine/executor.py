"""Plan execution: pure simulation and real (laptop-scale) execution.

Both entry points drive the same lowered stage IR
(:mod:`repro.engine.stages`):

* :func:`simulate` — lowers the plan and charges each stage's *analytic*
  cost features to a :class:`TrafficLedger`.  No data is materialized, so
  paper-scale matrices (e.g. 60K x 160K weight layers) are fine.
  Worker-memory overflows surface as failed simulations — the paper's
  "Fail" table entries.  ``clock="critical_path"`` reports the
  pipeline-aware makespan of the stage DAG instead of the paper's
  sum-of-stages objective.

* :class:`Executor` / :func:`execute_plan` — runs the lowered stage graph
  on real numpy data under a pluggable
  :class:`~repro.engine.scheduler.Scheduler`, with actual
  shuffles/broadcasts whose measured traffic is charged to the ledger.
  Integration tests verify results against dense numpy references.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from ..core.annotation import Plan
from ..core.graph import VertexId
from ..core.registry import OptimizerContext
from ..obs.drift import DriftReport, drift_report
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, as_tracer
from .faults import FaultSource, as_injector
from .intermediate import IntermediateStore, harvest_state, preload_state
from .ledger import EngineFailure, TrafficLedger
from .recovery import (
    DEFAULT_RECOVERY,
    LineageCheckpoint,
    RecoveryPolicy,
    RecoveryStats,
    SpeculationPolicy,
)
from .scheduler import ExecutionState, Scheduler, resolve_scheduler
from .stages import lower
from .storage import StoredMatrix, assemble


# ======================================================================
# Simulation
# ======================================================================
@dataclass
class SimulationResult:
    """Outcome of simulating a plan on the modelled cluster."""

    ok: bool
    seconds: float
    ledger: TrafficLedger
    failure: str | None = None

    @property
    def display(self) -> str:
        """Table cell: H:MM:SS like the paper, or Fail."""
        if not self.ok:
            return "Fail"
        return format_hms(self.seconds)


def format_hms(seconds: float) -> str:
    """Format seconds the way the paper's tables do (H:MM:SS / M:SS)."""
    seconds = int(round(seconds))
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h}:{m:02d}:{s:02d}"
    return f"{m}:{s:02d}"


def simulate(plan: Plan, ctx: OptimizerContext,
             clock: str = "sum",
             tracer: Tracer | None = None,
             metrics: MetricsRegistry | None = None) -> SimulationResult:
    """Charge every stage of the lowered plan to a fresh ledger.

    ``clock`` selects what ``seconds`` reports on success:

    * ``"sum"`` (default) — the paper's objective, the sum of all stage
      costs (``ledger.total_seconds``);
    * ``"critical_path"`` — the ASAP makespan of the stage DAG, i.e. the
      wall clock of an engine that overlaps independent stages (identical
      to ``trace.schedule(plan, ctx).critical_path_seconds``).

    Identity edges (producer already stores the consumer's format) lower
    to no stage, so the simulated ledger lists exactly the stages a real
    execution runs.
    """
    if clock not in ("sum", "critical_path"):
        raise ValueError(f"unknown clock {clock!r}: "
                         "expected 'sum' or 'critical_path'")
    tracer = as_tracer(tracer)
    ledger = TrafficLedger(ctx.cluster, ctx.weights)
    with tracer.span("simulate", kind="simulate", clock=clock) as span:
        sgraph = lower(plan, ctx, tracer=tracer)
        try:
            for stage in sgraph.stages:
                ledger.charge(stage.name, stage.features)
        except EngineFailure as failure:
            if metrics is not None:
                metrics.count("simulate.failures")
            return SimulationResult(False, math.inf, ledger, str(failure))
        seconds = (ledger.total_seconds if clock == "sum"
                   else sgraph.critical_path_seconds)
        span.set(stages=len(sgraph), seconds=seconds)
    if metrics is not None:
        metrics.count("simulate.runs")
        metrics.count("simulate.stages", len(sgraph))
        metrics.count("simulate.seconds", seconds)
    return SimulationResult(True, seconds, ledger)


# ======================================================================
# Real execution
# ======================================================================
class VertexValues(Mapping):
    """Read-only vertex -> dense array view of one run's stored matrices.

    Holds a shallow snapshot of the run's lineage, so a later run of the
    same :class:`Executor` cannot change it, and assembles a vertex's
    blocks into a dense array the first time it is read, keeping the
    result.  A run thus builds dense arrays only for what its caller
    reads.
    """

    def __init__(self, stored: Mapping[VertexId, StoredMatrix]) -> None:
        self._stored = dict(stored)
        self._dense: dict[VertexId, np.ndarray] = {}

    def __getitem__(self, vid: VertexId) -> np.ndarray:
        dense = self._dense.get(vid)
        if dense is None:
            dense = self._dense.setdefault(vid, assemble(self._stored[vid]))
        return dense

    def __contains__(self, vid) -> bool:
        return vid in self._stored

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._stored)

    def __len__(self) -> int:
        return len(self._stored)


@dataclass
class ExecutionResult:
    """Outcome of executing a plan on real data.

    Mirrors :class:`SimulationResult`'s ``ok``/``failure`` pair:
    :func:`execute_plan` returns a failed result instead of leaking an
    :class:`EngineFailure` traceback to callers.  ``recovery`` reports what
    fault tolerance did (and cost) when a fault injector was attached;
    ``executed_stages`` lists the lowered stages that ran, in stage order;
    ``drift`` joins every executed stage's predicted seconds against the
    seconds it actually charged (see :mod:`repro.obs.drift`).

    ``outputs`` maps each graph output's name to a dense array.
    ``vertex_values`` covers every vertex the run holds, sources and
    intermediates included, as a read-only ``Mapping``
    (:class:`VertexValues`) that assembles a vertex's blocks only when it
    is first read.
    """

    outputs: dict[str, np.ndarray]
    vertex_values: Mapping[VertexId, np.ndarray]
    ledger: TrafficLedger
    ok: bool = True
    failure: str | None = None
    recovery: RecoveryStats | None = None
    executed_stages: tuple[str, ...] = ()
    drift: DriftReport | None = None
    #: Makespan under *effective* stage durations: with speculation on,
    #: a stage finishes at its winning attempt's time rather than after
    #: the full straggler wait (see
    #: :meth:`~repro.engine.scheduler.ExecutionState.effective_critical_path`).
    critical_path_seconds: float = 0.0

    def output(self) -> np.ndarray:
        """The single output, when the graph has exactly one sink."""
        if not self.ok:
            raise RuntimeError(f"execution failed: {self.failure}")
        if len(self.outputs) != 1:
            raise ValueError(f"plan has {len(self.outputs)} outputs; "
                             "use .outputs[name]")
        return next(iter(self.outputs.values()))

    @property
    def display(self) -> str:
        """Table cell: H:MM:SS like the paper, or Fail."""
        if not self.ok:
            return "Fail"
        return format_hms(self.ledger.total_seconds)


class Executor:
    """Executes one annotated plan on real numpy inputs.

    The plan is lowered to a :class:`~repro.engine.stages.StageGraph` and
    handed to ``scheduler`` — sequential by default; pass a
    :class:`~repro.engine.scheduler.ThreadPoolScheduler` /
    :class:`~repro.engine.scheduler.ProcessPoolScheduler` instance or one
    of the knob strings ``"sequential"``, ``"thread-pool"``,
    ``"process-pool"`` to overlap independent stages — results and ledger
    totals are bit-identical either way.  Unknown knob values raise
    ``ValueError`` at construction time.

    ``faults`` attaches a fault source (a :class:`FaultConfig`,
    :class:`FaultPlan` or prebuilt :class:`FaultInjector`); injected faults
    are recovered per stage by re-running it from its lineage-checkpointed
    inputs under ``recovery``'s capped-exponential-backoff policy, with all
    wasted work, backoff and re-shuffle traffic charged to the ledger.
    """

    def __init__(self, plan: Plan, ctx: OptimizerContext,
                 faults: FaultSource = None,
                 recovery: RecoveryPolicy | None = None,
                 scheduler: Scheduler | str | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 speculation: SpeculationPolicy | None = None,
                 drift_hint: DriftReport | None = None,
                 store: "IntermediateStore | None" = None) -> None:
        self.plan = plan
        self.ctx = ctx
        self.cluster = ctx.cluster
        self.ledger = TrafficLedger(ctx.cluster, ctx.weights)
        self.recovery = recovery if recovery is not None else DEFAULT_RECOVERY
        self.injector = as_injector(faults, ctx.cluster.num_workers)
        self.scheduler = resolve_scheduler(scheduler)
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        #: Stage-level speculative straggler mitigation; ``drift_hint`` is
        #: a prior run's drift report the speculation deadline is
        #: estimated from (see :class:`SpeculationPolicy`).
        self.speculation = speculation
        self.drift_hint = drift_hint
        #: Shared :class:`~repro.engine.intermediate.IntermediateStore`:
        #: cached subplan results are fetched instead of recomputed
        #: (charged to the ``intermediate_cache`` ledger category) and
        #: fresh results are offered back after the run.
        self.store = store
        self.lineage = LineageCheckpoint()
        self.stats = RecoveryStats()
        #: Cost-drift report of the most recent :meth:`run` (set even when
        #: the run failed, covering the stages that started).
        self.last_drift: DriftReport | None = None
        #: The :class:`ExecutionState` of the most recent :meth:`run` —
        #: checkpointing reads completed stages and sub-ledgers off it.
        self.state: ExecutionState | None = None

    # ------------------------------------------------------------------
    def run(self, inputs: dict[str, np.ndarray],
            resume_from=None) -> ExecutionResult:
        """Execute the plan; ``inputs`` maps source names to matrices.

        ``resume_from`` restores an
        :class:`~repro.engine.checkpoint.ExecutionCheckpoint` before
        running: completed stages are skipped, their checkpointed charges
        splice back into the ledger, and the final result is bit-identical
        to the uninterrupted run (see :mod:`repro.engine.checkpoint`).
        """
        graph = self.plan.graph
        sgraph = lower(self.plan, self.ctx, tracer=self.tracer)
        with self.tracer.span("execute", kind="execute",
                              scheduler=self.scheduler.name,
                              stages=len(sgraph)) as span:
            state = ExecutionState(sgraph, self.ctx, injector=self.injector,
                                   policy=self.recovery,
                                   lineage=self.lineage, stats=self.stats,
                                   tracer=self.tracer, parent_span=span,
                                   metrics=self.metrics,
                                   speculation=self.speculation,
                                   drift=self.drift_hint)
            self.state = state
            state.seed_sources(inputs)
            if resume_from is not None:
                from .checkpoint import restore_into

                restore_into(resume_from, state)
                span.set(resumed_stages=len(state.completed))
            if self.store is not None:
                report = preload_state(state, self.store)
                span.set(cache_fetched=len(report.fetched),
                         cache_skipped=len(report.skipped))
            try:
                self.scheduler.run(state)
            finally:
                # Merge even on failure so partial charges (and the recovery
                # statistics of the failed run) are visible to callers.
                executed = state.merge_into(self.ledger)
                self.last_drift = drift_report(sgraph, state.records)
                span.set(executed_stages=len(executed),
                         measured_seconds=self.ledger.total_seconds)

        if self.store is not None:
            harvest_state(state, self.store, self.ledger)
        vertex_values = VertexValues(self.lineage.matrices)
        outputs = {graph.vertex(v.vid).name: vertex_values[v.vid]
                   for v in graph.outputs}
        return ExecutionResult(outputs, vertex_values, self.ledger,
                               recovery=self.stats,
                               executed_stages=tuple(executed),
                               drift=self.last_drift,
                               critical_path_seconds=(
                                   state.effective_critical_path()))


def execute_plan(plan: Plan, inputs: dict[str, np.ndarray],
                 ctx: OptimizerContext,
                 faults: FaultSource = None,
                 recovery: RecoveryPolicy | None = None,
                 scheduler: Scheduler | str | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 speculation: SpeculationPolicy | None = None,
                 drift_hint: DriftReport | None = None,
                 store: "IntermediateStore | None" = None) -> ExecutionResult:
    """Build an :class:`Executor` and run it; failures come back structured.

    An :class:`EngineFailure` (memory overflow, exhausted fault retries) is
    returned as an ``ok=False`` result mirroring :class:`SimulationResult`
    instead of unwinding into callers as a raw traceback.  For automatic
    re-optimization around such failures, see
    :func:`repro.engine.recovery.execute_robust`.

    ``tracer`` records execute/stage/attempt spans; ``metrics`` accumulates
    the run's counters (see :mod:`repro.obs`).  Both default to off.
    """
    executor = Executor(plan, ctx, faults=faults, recovery=recovery,
                        scheduler=scheduler, tracer=tracer, metrics=metrics,
                        speculation=speculation, drift_hint=drift_hint,
                        store=store)
    try:
        return executor.run(inputs)
    except EngineFailure as failure:
        return ExecutionResult({}, {}, executor.ledger, ok=False,
                               failure=str(failure),
                               recovery=executor.stats,
                               drift=executor.last_drift)
