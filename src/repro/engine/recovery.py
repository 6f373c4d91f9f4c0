"""Recovery policies and memory-safe plan fallback.

Three layers of fault tolerance, mirroring what the paper's substrates do:

* **Lineage-based retry** (SimSQL's Hadoop base re-runs failed tasks;
  Spark recomputes lost partitions from lineage): the
  :class:`~repro.engine.executor.Executor` checkpoints every vertex's
  :class:`~repro.engine.storage.StoredMatrix` in a
  :class:`LineageCheckpoint`; when an injected fault kills a stage, the
  vertex is recomputed from its checkpointed inputs under a
  :class:`RecoveryPolicy` of capped exponential backoff.  The wasted partial
  work, the backoff waits, and the recomputation's re-shuffle traffic are
  all charged to the simulated clock, so fault tolerance has a *measured*
  cost (``ledger.recovery_seconds``).

* **Speculative re-execution** for stragglers: with
  ``speculative_backups=True`` the wait for a slow task is capped at one
  extra copy of the stage (a backup task races the straggler, as in Spark's
  ``spark.speculation``); without it the stage takes the full slowdown.

* **Memory-safe plan fallback** (:func:`execute_robust`,
  :func:`simulate_robust`): when a chosen plan dies with an
  :class:`~repro.engine.ledger.EngineFailure` — the paper's "Fail" cells,
  crashes from too much intermediate data — the failing implementation is
  identified from the failed stage, pruned from the catalog, and the graph
  re-optimized; e.g. a broadcast-join matmul degrades to a tile shuffle
  join.  "Fail" becomes "slower but completes", with every fallback
  recorded in the result.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.annotation import AnnotationError, Plan
from ..core.graph import ComputeGraph, VertexId
from ..core.registry import OptimizerContext
from ..core.tree_dp import OptimizationError
from .faults import FaultSource, InjectedFault, WorkerCrash
from .ledger import EngineFailure, TrafficLedger


# ======================================================================
# Retry policy + bookkeeping
# ======================================================================
@dataclass(frozen=True)
class RecoveryPolicy:
    """How the executor reacts to injected faults."""

    #: Retries per vertex before giving up with an :class:`EngineFailure`.
    max_retries: int = 4
    #: Backoff before retry ``n`` is ``base * factor**(n-1)``, capped.
    backoff_base_seconds: float = 1.0
    backoff_factor: float = 2.0
    backoff_cap_seconds: float = 30.0
    #: Launch backup copies of straggling tasks (caps the wait at one
    #: extra stage duration) instead of waiting out the full slowdown.
    speculative_backups: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_seconds < 0 or self.backoff_cap_seconds < 0:
            raise ValueError("backoff seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")

    def backoff_seconds(self, attempt: int) -> float:
        """Wait before retry ``attempt`` (1-based), capped exponential."""
        raw = self.backoff_base_seconds * \
            self.backoff_factor ** max(0, attempt - 1)
        return min(self.backoff_cap_seconds, raw)


DEFAULT_RECOVERY = RecoveryPolicy()


@dataclass(frozen=True)
class SpeculationPolicy:
    """Stage-level speculative execution: race a backup against stragglers.

    A stage whose successful attempt charged more than its *deadline* —
    the cost model's predicted seconds stretched by
    :meth:`deadline_multiplier` — gets one full backup attempt.  The first
    finisher (by simulated finish time: the backup launches at the
    deadline) wins; the loser's work and waits are re-charged to the
    ``"straggler"`` ledger category, so the winner's productive work is
    all that stays under ``"work"``.  Both schedulers make the same
    win/lose decisions because they depend only on the stage's own
    sub-ledger, never on run order — ledgers stay bit-identical.

    The multiplier is quantile-based: past executions' drift reports
    (measured/predicted ratios per stage, :mod:`repro.obs.drift`) say how
    much honest stages drift, and the deadline sits at ``quantile`` of
    that distribution — floored at ``min_multiplier`` so a well-calibrated
    model doesn't speculate on noise, capped at ``max_multiplier`` so a
    drifted model still catches extreme stragglers.
    """

    #: Which quantile of observed drift ratios sets the deadline.
    quantile: float = 0.75
    min_multiplier: float = 1.5
    max_multiplier: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.min_multiplier < 1.0:
            raise ValueError("min_multiplier must be >= 1.0")
        if self.max_multiplier < self.min_multiplier:
            raise ValueError("max_multiplier must be >= min_multiplier")

    def deadline_multiplier(self, drift=None) -> float:
        """Deadline as a multiple of a stage's predicted seconds.

        ``drift`` is a prior run's :class:`~repro.obs.drift.DriftReport`
        (or ``None``); the multiplier is the ``quantile``-th observed
        measured/predicted ratio, clamped into
        ``[min_multiplier, max_multiplier]``.  The quantile is taken by
        sorted-index (no interpolation), so it is exact and deterministic.
        """
        if drift is None:
            return self.min_multiplier
        import math

        ratios = sorted(r.ratio for r in drift.rows
                        if math.isfinite(r.ratio))
        if not ratios:
            return self.min_multiplier
        pick = ratios[min(len(ratios) - 1,
                          int(self.quantile * (len(ratios) - 1) + 0.5))]
        return min(self.max_multiplier, max(self.min_multiplier, pick))


class FaultRetriesExhausted(EngineFailure):
    """A stage kept faulting past the policy's retry budget."""

    def __init__(self, stage: str, retries: int, last: InjectedFault) -> None:
        super().__init__(stage,
                         f"fault persisted through {retries} retries ({last})")
        self.retries = retries
        self.last_fault = last

    def __reduce__(self):
        return (FaultRetriesExhausted,
                (self.stage, self.retries, self.last_fault))


@dataclass
class RecoveryStats:
    """What fault tolerance did — and cost — during one execution."""

    retries: int = 0
    worker_crashes: int = 0
    transient_errors: int = 0
    recomputed_vertices: int = 0
    backoff_seconds: float = 0.0
    wasted_seconds: float = 0.0

    def observe(self, fault: InjectedFault, backoff: float,
                wasted: float) -> None:
        self.retries += 1
        if isinstance(fault, WorkerCrash):
            self.worker_crashes += 1
        else:
            self.transient_errors += 1
        self.backoff_seconds += backoff
        self.wasted_seconds += wasted

    @property
    def recovered_faults(self) -> int:
        return self.worker_crashes + self.transient_errors


class LineageCheckpoint:
    """Per-vertex checkpoints of stored results (the lineage log).

    The executor records every vertex's :class:`StoredMatrix` here as soon
    as it is produced; when a downstream stage faults, only the faulted
    vertex is recomputed from its checkpointed inputs — the distributed
    analogue of recomputing lost partitions from lineage instead of
    restarting the job.
    """

    def __init__(self) -> None:
        self.matrices: dict[VertexId, Any] = {}
        self.recomputations: dict[VertexId, int] = {}

    def record(self, vid: VertexId, stored: Any) -> None:
        self.matrices[vid] = stored

    def note_recomputation(self, vid: VertexId) -> None:
        self.recomputations[vid] = self.recomputations.get(vid, 0) + 1

    def __contains__(self, vid: VertexId) -> bool:
        return vid in self.matrices

    def __len__(self) -> int:
        return len(self.matrices)


# ======================================================================
# Memory-safe plan fallback
# ======================================================================
@dataclass(frozen=True)
class FallbackRecord:
    """One failed plan attempt and the degradation applied in response."""

    attempt: int
    stage: str
    reason: str
    #: Implementation pruned from the catalog before re-optimizing
    #: (None when the failure was not attributable to one implementation —
    #: then the planning RAM headroom is tightened instead).
    banned_impl: str | None
    #: Fraction of worker RAM the *next* optimization may plan for.
    ram_headroom: float
    #: Simulated seconds spent before the attempt died.
    wasted_seconds: float


@dataclass
class RobustExecutionResult:
    """Outcome of :func:`execute_robust`: completes, degrades, or fails.

    Records everything the ISSUE's "Fail becomes slower-but-completes"
    story needs: retry/recovery counts, the fallback plans tried, and the
    total seconds charged to fault tolerance.
    """

    ok: bool
    outputs: dict[str, np.ndarray]
    plan: Plan | None
    ledger: TrafficLedger | None
    stats: RecoveryStats | None
    fallbacks: list[FallbackRecord] = field(default_factory=list)
    failure: str | None = None
    attempts: int = 1

    @property
    def recovery_seconds(self) -> float:
        """Fault-tolerance cost of the *successful* attempt, plus the work
        wasted in abandoned plan attempts."""
        ledger = self.ledger.recovery_seconds if self.ledger else 0.0
        return ledger + sum(f.wasted_seconds for f in self.fallbacks)

    @property
    def fell_back(self) -> bool:
        return bool(self.fallbacks)

    def output(self) -> np.ndarray:
        if not self.ok:
            raise RuntimeError(f"execution failed: {self.failure}")
        if len(self.outputs) != 1:
            raise ValueError(f"plan has {len(self.outputs)} outputs; "
                             "use .outputs[name]")
        return next(iter(self.outputs.values()))


@dataclass
class RobustSimulationResult:
    """Outcome of :func:`simulate_robust` (paper-scale, no real data)."""

    ok: bool
    seconds: float
    plan: Plan | None
    fallbacks: list[FallbackRecord] = field(default_factory=list)
    failure: str | None = None
    attempts: int = 1

    @property
    def fell_back(self) -> bool:
        return bool(self.fallbacks)

    @property
    def display(self) -> str:
        from .executor import format_hms
        if not self.ok:
            return "Fail"
        cell = format_hms(self.seconds)
        return f"{cell}*" if self.fell_back else cell


def plan_context(ctx: OptimizerContext, banned: frozenset[str] | set[str] = (),
                 ram_headroom: float = 1.0,
                 workers: int | None = None) -> OptimizerContext:
    """A planning context with implementations pruned and RAM tightened.

    ``banned`` implementation names are removed from the catalog;
    ``ram_headroom < 1`` shrinks the RAM the *optimizer* believes each
    worker has, pruning analytically-marginal choices whose measured
    footprint overflowed.  ``workers`` re-plans for a different cluster
    size (degraded-mode re-planning after the failure detector shrinks the
    membership) via the validated
    :meth:`~repro.cluster.ClusterConfig.with_workers`.  Execution still
    runs against the real cluster.

    The result is derived from ``ctx``
    (:meth:`~repro.core.registry.OptimizerContext.derive`): with nothing
    to change it is ``ctx`` itself, and each distinct change is built once
    per ``ctx``, so repeated fallbacks and crash re-plans search on warm
    memo tables.
    """
    impls = tuple(i for i in ctx.implementations if i.name not in banned)
    cluster = ctx.cluster
    if workers is not None and workers != cluster.num_workers:
        cluster = cluster.with_workers(workers)
    if ram_headroom < 1.0:
        cluster = dataclasses.replace(
            cluster, ram_bytes=cluster.ram_bytes * ram_headroom)
    return ctx.derive(implementations=impls, cluster=cluster)


def _impl_in_stage(plan: Plan, stage: str) -> str | None:
    """Which of the plan's implementations a failed stage belongs to.

    Stage names are ``<vertex name>:<substage>...``, so the annotated
    implementation of the owning vertex is authoritative — it catches
    generic substages like ``C:agg:part`` that never mention the
    implementation by name.  Failing that, fall back to the longest
    implementation name embedded in the stage string.
    """
    vertex_name = stage.split(":", 1)[0]
    for vertex in plan.graph.vertices:
        if vertex.name == vertex_name and vertex.vid in plan.annotation.impls:
            return plan.annotation.impls[vertex.vid].name
    names = {impl.name for impl in plan.annotation.impls.values()}
    hits = [name for name in names if name in stage]
    if not hits:
        return None
    return max(hits, key=len)


def execute_robust(
    graph: ComputeGraph,
    inputs: dict[str, np.ndarray],
    ctx: OptimizerContext | None = None,
    faults: FaultSource = None,
    recovery: RecoveryPolicy | None = None,
    plan: Plan | None = None,
    max_fallbacks: int = 3,
    max_states: int | None = None,
) -> RobustExecutionResult:
    """Optimize and execute with graceful degradation on memory overflow.

    The first attempt runs ``plan`` if given (e.g. a hand-written baseline)
    or the optimizer's choice.  Whenever an attempt dies with an
    :class:`EngineFailure` the failing implementation is banned (or, for
    failures not pinned to one implementation, the planning RAM headroom is
    halved) and the graph re-optimized — up to ``max_fallbacks`` times.
    Injected faults are retried *inside* each attempt by the executor; only
    a fault that exhausts its retry budget abandons the attempt, and it is
    retried on a fresh plan without banning anything.

    A bad ``max_states`` raises ``ValueError`` up front.  A re-optimization
    that finds no plan (``OptimizationError`` or ``AnnotationError``) ends
    the run with ``ok=False``; any other error is a defect and propagates.
    """
    from ..core.optimizer import optimize, validate_knobs
    from .executor import Executor

    validate_knobs(max_states)
    if ctx is None:
        ctx = OptimizerContext()
    banned: set[str] = set()
    headroom = 1.0
    fallbacks: list[FallbackRecord] = []

    for attempt in range(1, max_fallbacks + 2):
        if plan is None or attempt > 1:
            try:
                plan = optimize(graph, plan_context(ctx, banned, headroom),
                                max_states=max_states)
            except (OptimizationError, AnnotationError) as err:
                return RobustExecutionResult(
                    False, {}, None, None, None, fallbacks,
                    failure=f"re-optimization found no feasible plan: {err}",
                    attempts=attempt)
        executor = Executor(plan, ctx, faults=faults, recovery=recovery)
        try:
            result = executor.run(inputs)
            return RobustExecutionResult(
                True, result.outputs, plan, executor.ledger, executor.stats,
                fallbacks, attempts=attempt)
        except EngineFailure as failure:
            impl = None
            if not isinstance(failure, FaultRetriesExhausted):
                impl = _impl_in_stage(plan, failure.stage)
                if impl is not None:
                    banned.add(impl)
                else:
                    headroom *= 0.5
            fallbacks.append(FallbackRecord(
                attempt, failure.stage, failure.reason, impl, headroom,
                executor.ledger.total_seconds))
            plan = None

    return RobustExecutionResult(
        False, {}, None, None, None, fallbacks,
        failure=f"still failing after {max_fallbacks} plan fallbacks: "
                f"{fallbacks[-1].reason}",
        attempts=max_fallbacks + 1)


def simulate_robust(
    plan: Plan,
    ctx: OptimizerContext,
    max_fallbacks: int = 3,
    max_states: int | None = None,
) -> RobustSimulationResult:
    """Simulate with the same memory-safe fallback as :func:`execute_robust`.

    Turns paper-scale "Fail" plans (e.g. hand-written baselines whose
    broadcast side exceeds worker RAM) into slower-but-completing plans by
    pruning the failing implementation and re-optimizing — no real data is
    materialized, so 60K x 160K weight layers are fine.  Knob validation
    and error handling are as in :func:`execute_robust`.
    """
    from ..core.optimizer import optimize, validate_knobs
    from .executor import simulate

    validate_knobs(max_states)
    banned: set[str] = set()
    headroom = 1.0
    fallbacks: list[FallbackRecord] = []
    graph = plan.graph

    for attempt in range(1, max_fallbacks + 2):
        sim = simulate(plan, ctx)
        if sim.ok:
            return RobustSimulationResult(True, sim.seconds, plan, fallbacks,
                                          attempts=attempt)
        stage = sim.failure or "unknown"
        impl = _impl_in_stage(plan, stage)
        if impl is not None:
            banned.add(impl)
        else:
            headroom *= 0.5
        fallbacks.append(FallbackRecord(
            attempt, stage, stage, impl, headroom, sim.ledger.total_seconds))
        if attempt > max_fallbacks:
            break
        try:
            plan = optimize(graph, plan_context(ctx, banned, headroom),
                            max_states=max_states)
        except (OptimizationError, AnnotationError) as err:
            return RobustSimulationResult(
                False, float("inf"), None, fallbacks,
                failure=f"re-optimization found no feasible plan: {err}",
                attempts=attempt)

    return RobustSimulationResult(
        False, float("inf"), None, fallbacks,
        failure=f"still failing after {max_fallbacks} plan fallbacks",
        attempts=max_fallbacks + 1)
