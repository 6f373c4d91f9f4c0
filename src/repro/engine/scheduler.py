"""Schedulers: run a lowered :class:`~repro.engine.stages.StageGraph`.

The executor used to *be* the schedule — a hard-coded sequential walk.  Now
the walk order is a strategy over the stage DAG:

* :class:`SequentialScheduler` runs stages one by one in stage-id
  (topological) order — exactly the historical behaviour;
* :class:`ThreadPoolScheduler` runs independent stages concurrently on
  threads; and
* :class:`ProcessPoolScheduler` runs independent stages in worker
  *processes*, shipping each stage as a picklable job description and
  folding the outcomes back in stage-id order.

All produce **bit-identical ledgers** on fault-free runs: every stage
charges a private sub-ledger, and :meth:`ExecutionState.merge_into` splices
the sub-ledgers into the main ledger in stage-id order, so the merged
record sequence — and therefore every float total — is independent of the
order stages actually ran in.  Fault handling is deterministic the same
way: injected faults are a pure function of ``(seed, stage, occurrence)``
(see :mod:`repro.engine.faults`), each stage retries its own faults from
lineage under the recovery policy, and recovery statistics are folded in
stage-id order at merge time.

The one asymmetry is *failure*: when a stage dies structurally
(:class:`~repro.engine.ledger.EngineFailure`), the sequential scheduler
stops immediately while the pool may have finished later independent
stages first — so a failed run's ledger can hold a superset of the
sequential charges.  Both schedulers report the same failure: the failing
stage with the smallest stage id.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from .faults import FaultInjector, InjectedFault
from .ledger import RECOVERY, STRAGGLER, WORK, StageRecord, TrafficLedger
from .recovery import (
    FaultRetriesExhausted,
    LineageCheckpoint,
    RecoveryPolicy,
    RecoveryStats,
    SpeculationPolicy,
)
from .relation import RelationalEngine
from .stages import OpStage, StageGraph, StageNode, TransformStage
from .storage import StoredMatrix, convert, split


# ======================================================================
# Stage execution core
# ======================================================================
# Module-level (not ExecutionState methods) so the process-pool child entry
# point can run the exact same retry/speculation code path as the in-process
# schedulers: identical charge sequences mean identical ledgers.

def _execute_stage(stage: StageNode, resolve, sub: TrafficLedger,
                   engine: RelationalEngine, cluster) -> StoredMatrix:
    """Run one stage's body once; ``resolve`` maps ArgRefs to matrices."""
    if isinstance(stage, TransformStage):
        sub.charge(stage.name, stage.features)
        src = resolve(("vertex", stage.edge.src))
        return convert(src, stage.dst_fmt, cluster)
    assert isinstance(stage, OpStage)
    args = [resolve(ref) for ref in stage.args]
    return stage.thunk(engine, args)


def _run_attempts(stage: StageNode, resolve, sub: TrafficLedger,
                  engine: RelationalEngine, policy: RecoveryPolicy,
                  span, recovery_log: list, cluster):
    """The retry loop: run the stage until it completes or the budget dies.

    Every failed attempt's partial charges are re-labelled as recovery
    cost, a capped exponential backoff is charged, and the stage re-runs
    from its (still checkpointed) inputs.  One ``(fault, backoff, wasted,
    retried)`` entry is appended to ``recovery_log`` per injected fault —
    including the final, non-retried one when the budget is exhausted — so
    ``len(recovery_log)`` is the attempt count.  Returns ``(result,
    retries, mark)`` where ``mark`` is the ledger mark of the winning
    attempt (the speculation layer measures the attempt from it).
    """
    attempt = 0
    while True:
        mark = sub.mark()
        try:
            with span.span("attempt", kind="attempt", n=attempt):
                result = _execute_stage(stage, resolve, sub, engine, cluster)
            return result, attempt, mark
        except InjectedFault as fault:
            attempt += 1
            wasted = sub.recategorize_since(mark, RECOVERY)
            if attempt > policy.max_retries:
                recovery_log.append((fault, 0.0, wasted, False))
                raise FaultRetriesExhausted(fault.stage, policy.max_retries,
                                            fault)
            backoff = policy.backoff_seconds(attempt)
            sub.charge_overhead(f"{fault.stage}:backoff#{attempt}", backoff)
            recovery_log.append((fault, backoff, wasted, True))


def _speculate(stage: StageNode, resolve, sub: TrafficLedger,
               engine: RelationalEngine, span, attempt_mark: int,
               result: StoredMatrix, deadline_multiplier: float, cluster):
    """Race one backup attempt against a straggling stage.

    The deadline is the stage's predicted seconds times the policy's
    quantile multiplier; the original attempt's charged seconds stand
    in for its (simulated) finish time, and the backup — launched at
    the deadline — finishes at ``deadline + its charged seconds``.
    First finisher wins; the loser's work and waits move to the
    ``"straggler"`` category.  Everything here depends only on the
    stage's own sub-ledger, so every scheduler decides identically.

    Returns ``(winning result, effective stage seconds or None,
    outcome label or None)`` — effective seconds are the winner's
    finish plus any pre-attempt recovery time, for the measured
    critical path.
    """
    deadline = stage.seconds * deadline_multiplier
    original = sum(r.seconds for r in sub.stages[attempt_mark:])
    if deadline <= 0.0 or original <= deadline:
        return result, None, None
    prefix = sum(r.seconds for r in sub.stages[:attempt_mark])
    backup_mark = sub.mark()
    with span.span("backup", kind="speculate",
                   deadline_seconds=deadline,
                   original_seconds=original) as bspan:
        try:
            backup = _execute_stage(stage, resolve, sub, engine, cluster)
        except InjectedFault:
            # The backup died mid-flight: the original stands, and the
            # backup's partial work was pure extra.
            sub.recategorize_since(backup_mark, STRAGGLER)
            bspan.set(outcome="faulted")
            return result, prefix + original, "faulted"
        backup_seconds = sum(r.seconds
                             for r in sub.stages[backup_mark:])
        backup_finish = deadline + backup_seconds
        if backup_finish < original:
            # Backup wins: the straggling original was all wasted.
            sub.recategorize_range(attempt_mark, backup_mark, STRAGGLER,
                                   only=(WORK, STRAGGLER))
            bspan.set(outcome="won", backup_seconds=backup_seconds)
            return backup, prefix + backup_finish, "won"
        sub.recategorize_since(backup_mark, STRAGGLER)
        bspan.set(outcome="lost", backup_seconds=backup_seconds)
        return result, prefix + original, "lost"


@dataclass
class _StageJob:
    """Everything a worker process needs to run one stage (all picklable).

    The parent resolves the stage's inputs (``ArgRef -> StoredMatrix``)
    before dispatch — lineage and earlier stage outputs live in the parent
    — and ships the injector by pickle, whose counts *are* its RNG state.
    ``prior`` carries the stage's earlier records when the dynamics layer
    re-runs it, so ledger marks and totals match the in-process path.
    """

    stage: StageNode
    inputs: dict
    prior: tuple
    cluster: object
    weights: object
    policy: RecoveryPolicy
    injector: FaultInjector | None
    deadline_multiplier: float | None
    speculative_backups: bool


@dataclass
class _StageOutcome:
    """What a worker process sends back after running one stage."""

    records: list
    retries: int
    recovery_log: list
    measured_seconds: float
    effective: float | None
    spec_outcome: str | None
    result: StoredMatrix | None
    error: BaseException | None
    injector_cursor: dict | None


def _run_stage_job(job: _StageJob) -> _StageOutcome:
    """Child-process entry point: run one stage from its job description.

    Charges a fresh sub-ledger exactly as
    :meth:`ExecutionState.run_stage` does and returns everything the
    parent needs to splice the run back in.  Engine-level failures travel
    in ``error`` (with the partial charges kept in ``records``) instead of
    unwinding through the pool, so the parent re-raises the same exception
    the sequential scheduler would have.
    """
    sub = TrafficLedger(job.cluster, job.weights)
    sub.stages.extend(job.prior)
    engine = RelationalEngine(job.cluster, sub, faults=job.injector,
                              speculative_backups=job.speculative_backups)
    span = NULL_TRACER.span(job.stage.name)
    log: list = []
    result = error = None
    effective = spec_outcome = None
    try:
        with span:
            result, _, mark = _run_attempts(
                job.stage, job.inputs.__getitem__, sub, engine, job.policy,
                span, log, job.cluster)
            if job.deadline_multiplier is not None:
                result, effective, spec_outcome = _speculate(
                    job.stage, job.inputs.__getitem__, sub, engine, span,
                    mark, result, job.deadline_multiplier, job.cluster)
    except Exception as exc:
        result = None
        error = exc
    return _StageOutcome(
        records=sub.stages, retries=len(log), recovery_log=log,
        measured_seconds=sub.total_seconds, effective=effective,
        spec_outcome=spec_outcome, result=result, error=error,
        injector_cursor=(job.injector.cursor()
                         if job.injector is not None else None))


class ExecutionState:
    """Shared state of one execution of a stage graph.

    Holds the lineage checkpoints, each stage's private sub-ledger records,
    and the per-stage recovery log.  All mutation is behind one lock so a
    thread-pool scheduler can drive :meth:`run_stage` from many threads;
    the sequential scheduler pays only uncontended acquisitions.
    """

    def __init__(self, sgraph: StageGraph, ctx,
                 injector: FaultInjector | None,
                 policy: RecoveryPolicy,
                 lineage: LineageCheckpoint | None = None,
                 stats: RecoveryStats | None = None,
                 tracer: Tracer | None = None,
                 parent_span=None,
                 metrics: MetricsRegistry | None = None,
                 speculation: SpeculationPolicy | None = None,
                 drift=None) -> None:
        self.sgraph = sgraph
        self.ctx = ctx
        self.cluster = ctx.cluster
        self.injector = injector
        self.policy = policy
        self.lineage = lineage if lineage is not None else LineageCheckpoint()
        self.stats = stats if stats is not None else RecoveryStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Span every stage span parents under (the ``execute`` span);
        #: explicit because pool stages run on other threads.
        self.parent_span = parent_span
        self.metrics = metrics
        #: Stage-level speculative execution (see
        #: :class:`~repro.engine.recovery.SpeculationPolicy`); ``drift`` is
        #: a prior run's report the deadline multiplier is estimated from.
        self.speculation = speculation
        self._deadline_multiplier = (
            speculation.deadline_multiplier(drift)
            if speculation is not None else None)
        #: Transform-stage outputs, by stage id.
        self.stage_values: dict[int, StoredMatrix] = {}
        #: Each stage's sub-ledger records, by stage id (present for every
        #: stage that *started*, even ones that failed).
        self.records: dict[int, list[StageRecord]] = {}
        #: Stage ids that ran to completion.  Schedulers skip them, which
        #: is what makes checkpoint resume and frontier-by-frontier
        #: dynamics driving possible.
        self.completed: set[int] = set()
        #: Effective per-stage elapsed seconds (winner finish time under
        #: speculation, sub-ledger total otherwise) — feeds
        #: :meth:`effective_critical_path`.
        self.effective_seconds: dict[int, float] = {}
        #: Per-stage metric fragments, merged in stage-id order at
        #: :meth:`merge_into` so both schedulers produce bit-identical
        #: registries.
        self.metric_fragments: dict[int, MetricsRegistry] = {}
        #: Deferred recovery observations: sid -> [(fault, backoff, wasted)].
        self._recovery_log: dict[int, list] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def seed_sources(self, inputs: dict[str, np.ndarray]) -> None:
        """Checkpoint every source vertex's stored matrix from ``inputs``."""
        for v in self.sgraph.plan.graph.sources:
            if v.name not in inputs:
                raise KeyError(f"no input provided for source {v.name!r}")
            self.lineage.record(v.vid, split(inputs[v.name], v.mtype,
                                             v.format, self.cluster))

    def value_of(self, ref) -> StoredMatrix:
        """Resolve an :data:`~repro.engine.stages.ArgRef` to its matrix."""
        kind, key = ref
        if kind == "stage":
            return self.stage_values[key]
        return self.lineage.matrices[key]

    # ------------------------------------------------------------------
    def run_stage(self, stage: StageNode) -> None:
        """Run one stage to completion, retrying injected faults.

        The stage charges a private sub-ledger; every failed attempt's
        partial charges are re-labelled as recovery cost, a capped
        exponential backoff is charged, and the stage re-runs from its
        (still checkpointed) inputs.  Recovery observations are deferred
        to :meth:`merge_into` so statistics accumulate in stage-id order
        no matter which thread ran the stage.

        Re-running an already-recorded stage (the dynamics layer does this
        when a worker death loses the stage's output) keeps the earlier
        records in the stage's fragment — the lost attempt's charges stay
        on the clock under whatever category the caller re-labelled them.
        """
        sub = TrafficLedger(self.cluster, self.ctx.weights)
        engine = RelationalEngine(
            self.cluster, sub, faults=self.injector,
            speculative_backups=(self.policy.speculative_backups
                                 and self.speculation is None))
        with self._lock:
            prior = self.records.get(stage.sid)
            if prior:
                sub.stages.extend(prior)
            self.records[stage.sid] = sub.stages
        span = self.tracer.span(stage.name, kind="stage",
                                parent=self.parent_span,
                                stage_id=stage.sid, stage_kind=stage.kind,
                                predicted_seconds=stage.seconds)
        effective: float | None = None
        spec_outcome: str | None = None
        log: list = []
        try:
            with span:
                result, attempt, mark = _run_attempts(
                    stage, self.value_of, sub, engine, self.policy, span,
                    log, self.cluster)
                if self._deadline_multiplier is not None:
                    result, effective, spec_outcome = _speculate(
                        stage, self.value_of, sub, engine, span, mark,
                        result, self._deadline_multiplier, self.cluster)
                span.set(retries=attempt,
                         measured_seconds=sub.total_seconds)
        finally:
            if log:
                with self._lock:
                    self._recovery_log.setdefault(stage.sid, []).extend(log)
            if self.metrics is not None:
                self._record_stage_metrics(stage, sub.stages, len(log),
                                           spec_outcome)
        with self._lock:
            if isinstance(stage, TransformStage):
                self.stage_values[stage.sid] = result
            else:
                self.lineage.record(stage.vertex, result)
            self.completed.add(stage.sid)
            self.effective_seconds[stage.sid] = (
                effective if effective is not None else sub.total_seconds)

    def effective_critical_path(self) -> float:
        """Makespan of the ASAP schedule under *effective* stage durations
        (speculation winners finish at their winning time, not after the
        full straggler wait)."""
        return self.sgraph.asap(seconds=self.effective_seconds).makespan

    def _record_stage_metrics(self, stage: StageNode, records,
                              retries: int,
                              spec_outcome: str | None = None) -> None:
        """Build this stage's private metric fragment from its records.

        All values derive from the stage's sub-ledger records and the
        deterministic fault draws, never from wall-clock or thread timing —
        which is what makes the merged registry bit-identical across
        schedulers.
        """
        frag = MetricsRegistry()
        frag.count("execute.stages")
        frag.count("execute.attempts", retries + 1)
        if retries:
            frag.count("execute.retries", retries)
        if spec_outcome is not None:
            frag.count("execute.speculations")
            if spec_outcome == "won":
                frag.count("execute.speculation_wins")
        work = recovery = shuffled = tuples = 0.0
        for rec in records:
            if rec.category == WORK:
                work += rec.seconds
                shuffled += rec.features.network_bytes
                tuples += rec.features.tuples
            else:
                recovery += rec.seconds
        frag.count("execute.kernel_seconds", work)
        frag.count("execute.bytes_shuffled", shuffled)
        frag.count("execute.tuples", tuples)
        if recovery:
            frag.count("execute.recovery_seconds", recovery)
        frag.observe("execute.stage_seconds", work)
        frag.gauge("execute.max_stage_seconds", work)
        with self._lock:
            self.metric_fragments[stage.sid] = frag

    # ------------------------------------------------------------------
    # Process-pool support
    # ------------------------------------------------------------------
    def stage_job(self, stage: StageNode) -> _StageJob:
        """Build the picklable description of one stage run.

        Input matrices are resolved here, in the parent — the child has no
        lineage or stage-value maps — and the live injector travels with
        the job (its per-stage-name counts are exactly the state the
        child's draws derive from).
        """
        if isinstance(stage, TransformStage):
            refs: tuple = (("vertex", stage.edge.src),)
        else:
            assert isinstance(stage, OpStage)
            refs = stage.args
        inputs = {ref: self.value_of(ref) for ref in refs}
        with self._lock:
            prior = tuple(self.records.get(stage.sid) or ())
        return _StageJob(
            stage=stage, inputs=inputs, prior=prior, cluster=self.cluster,
            weights=self.ctx.weights, policy=self.policy,
            injector=self.injector,
            deadline_multiplier=self._deadline_multiplier,
            speculative_backups=(self.policy.speculative_backups
                                 and self.speculation is None))

    def complete_stage(self, stage: StageNode, out: _StageOutcome) -> None:
        """Record a successful child outcome's result so dependent stages
        (and the final assembly) can consume it; mirrors the tail of
        :meth:`run_stage`."""
        with self._lock:
            if isinstance(stage, TransformStage):
                self.stage_values[stage.sid] = out.result
            else:
                self.lineage.record(stage.vertex, out.result)
            self.completed.add(stage.sid)
            self.effective_seconds[stage.sid] = (
                out.effective if out.effective is not None
                else out.measured_seconds)

    def absorb_outcome(self, stage: StageNode, out: _StageOutcome) -> None:
        """Fold a child outcome's records, recovery log, metric fragment
        and stage span into the shared state.

        Callers absorb outcomes in stage-id order, which makes every
        derived sequence (ledger splice, recovery statistics, metric
        merge) identical to the sequential scheduler's.  The child's
        records *replace* this stage's entry — they already start with the
        ``prior`` records the job carried.
        """
        with self._lock:
            self.records[stage.sid] = list(out.records)
            if out.recovery_log:
                self._recovery_log.setdefault(stage.sid, []) \
                    .extend(out.recovery_log)
        with self.tracer.span(stage.name, kind="stage",
                              parent=self.parent_span,
                              stage_id=stage.sid, stage_kind=stage.kind,
                              predicted_seconds=stage.seconds) as span:
            # Re-emit the child's nested spans (it ran under a null tracer)
            # so the span tree — and hence every span id — matches the
            # in-process schedulers.  On retry exhaustion every try ended
            # in a fault (one log entry each); otherwise the last try
            # opened an attempt span too.
            tries = (out.retries
                     if isinstance(out.error, FaultRetriesExhausted)
                     else out.retries + 1)
            for n in range(tries):
                with span.span("attempt", kind="attempt", n=n):
                    pass
            if out.spec_outcome is not None:
                with span.span("backup", kind="speculate") as bspan:
                    bspan.set(outcome=out.spec_outcome)
            if out.error is None:
                span.set(retries=out.retries,
                         measured_seconds=out.measured_seconds)
        if self.metrics is not None:
            self._record_stage_metrics(stage, out.records, out.retries,
                                       out.spec_outcome)

    # ------------------------------------------------------------------
    def merge_into(self, ledger: TrafficLedger) -> list[str]:
        """Splice sub-ledgers into ``ledger`` in stage-id order.

        Also folds the deferred recovery log into ``self.stats`` and the
        lineage recomputation counts, in the same deterministic order.
        Returns the names of the stages that ran (i.e. were lowered *and*
        started), for stage-set comparisons against simulation.
        """
        executed: list[str] = []
        for sid in ledger.splice(self.records):
            executed.append(self.sgraph.stages[sid].name)
            for fault, backoff, wasted, retried in \
                    self._recovery_log.get(sid, ()):
                self.stats.observe(fault, backoff, wasted)
                if retried:
                    self.lineage.note_recomputation(
                        self.sgraph.stages[sid].vertex)
        if self.lineage.recomputations:
            self.stats.recomputed_vertices = len(self.lineage.recomputations)
        if self.metrics is not None:
            self.metrics.merge_fragments(self.metric_fragments)
        return executed


# ======================================================================
# Strategies
# ======================================================================
class Scheduler:
    """Strategy interface: run stages of ``state``'s graph.

    :meth:`run` runs everything not yet completed (a fresh execution, or
    the pending remainder after a checkpoint resume); :meth:`run_stages`
    runs an explicit subset — dependencies *outside* the subset are taken
    as already satisfied, which is how the dynamics layer drives one
    frontier at a time and how lost stages are re-run.
    """

    name = "scheduler"

    def run(self, state: ExecutionState) -> None:
        self.run_stages(state, [s.sid for s in state.sgraph.stages
                                if s.sid not in state.completed])

    def run_stages(self, state: ExecutionState, sids) -> None:
        raise NotImplementedError


class SequentialScheduler(Scheduler):
    """One stage at a time, in stage-id order (the historical executor)."""

    name = "sequential"

    def run_stages(self, state: ExecutionState, sids) -> None:
        for sid in sorted(sids):
            state.run_stage(state.sgraph.stages[sid])


class ThreadPoolScheduler(Scheduler):
    """Run independent stages concurrently on a thread pool.

    Dispatches stages as their dependencies complete (smallest ready
    stage id first).  After any failure no new stages are dispatched;
    already-running stages drain, and the failure with the smallest stage
    id is re-raised — the same stage the sequential scheduler would have
    died on, because stage outcomes are order-independent.
    """

    name = "thread-pool"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers

    def run_stages(self, state: ExecutionState, sids) -> None:
        stages = state.sgraph.stages
        todo = set(sids)
        if not todo:
            return
        # Dependencies outside the subset were satisfied by earlier calls
        # (or restored from a checkpoint) — only intra-subset edges gate.
        waiting_on = {sid: sum(1 for d in stages[sid].deps if d in todo)
                      for sid in todo}
        dependents: dict[int, list[int]] = {sid: [] for sid in todo}
        for sid in todo:
            for dep in stages[sid].deps:
                if dep in todo:
                    dependents[dep].append(sid)
        ready = sorted(sid for sid, n in waiting_on.items() if n == 0)
        failures: dict[int, BaseException] = {}

        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            running = {}

            def dispatch() -> None:
                while ready and not failures:
                    sid = ready.pop(0)
                    running[pool.submit(state.run_stage, stages[sid])] = sid

            dispatch()
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    sid = running.pop(future)
                    error = future.exception()
                    if error is not None:
                        failures[sid] = error
                        continue
                    for child in dependents[sid]:
                        waiting_on[child] -= 1
                        if waiting_on[child] == 0:
                            ready.append(child)
                ready.sort()
                dispatch()

        if failures:
            raise failures[min(failures)]


class ProcessPoolScheduler(Scheduler):
    """Run independent stages concurrently in worker *processes*.

    Each ready stage is shipped to a child process as a picklable
    :class:`_StageJob` — the stage node (whose kernel thunk is a
    :class:`~repro.engine.stages.BoundKernel`), its already-resolved input
    matrices, the recovery policy and the fault injector — and the child
    runs the exact same retry/speculation core the in-process schedulers
    use, charging a private sub-ledger.  Outcomes are folded back in
    **stage-id order** once the pool drains: ledger records, recovery
    statistics, metric fragments and injected-fault bookkeeping all merge
    deterministically, so results, ledgers and registries are bit-identical
    to :class:`SequentialScheduler` (fault determinism holds because every
    draw is a pure function of ``(seed, stage name, occurrence)`` and each
    stage's injector names are touched only by that stage).

    Dispatch mirrors :class:`ThreadPoolScheduler`: smallest ready stage id
    first, no new dispatches after a failure, and the failure with the
    smallest stage id is re-raised.  Failed stages' partial charges are
    still absorbed, exactly as a failed in-process ``run_stage`` leaves
    its records behind.
    """

    name = "process-pool"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers

    def run_stages(self, state: ExecutionState, sids) -> None:
        stages = state.sgraph.stages
        todo = set(sids)
        if not todo:
            return
        waiting_on = {sid: sum(1 for d in stages[sid].deps if d in todo)
                      for sid in todo}
        dependents: dict[int, list[int]] = {sid: [] for sid in todo}
        for sid in todo:
            for dep in stages[sid].deps:
                if dep in todo:
                    dependents[dep].append(sid)
        ready = sorted(sid for sid, n in waiting_on.items() if n == 0)
        failures: dict[int, BaseException] = {}
        outcomes: dict[int, _StageOutcome] = {}
        base_events = (len(state.injector.events)
                       if state.injector is not None else 0)

        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            running: dict = {}

            def dispatch() -> None:
                while ready and not failures:
                    sid = ready.pop(0)
                    running[pool.submit(_run_stage_job,
                                        state.stage_job(stages[sid]))] = sid

            dispatch()
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    sid = running.pop(future)
                    error = future.exception()
                    if error is not None:
                        # Infrastructure failure (broken pool, unpicklable
                        # payload) — no outcome to absorb.
                        failures[sid] = error
                        continue
                    out = future.result()
                    outcomes[sid] = out
                    if out.error is not None:
                        failures[sid] = out.error
                        continue
                    state.complete_stage(stages[sid], out)
                    for child in dependents[sid]:
                        waiting_on[child] -= 1
                        if waiting_on[child] == 0:
                            ready.append(child)
                ready.sort()
                dispatch()

        # Deterministic fold: every outcome (including failed stages'
        # partial charges) merges in stage-id order, so the final state is
        # independent of which child finished first.
        for sid in sorted(outcomes):
            state.absorb_outcome(stages[sid], outcomes[sid])
            cursor = outcomes[sid].injector_cursor
            if state.injector is not None and cursor is not None:
                state.injector.absorb(cursor, base_events=base_events)
        if failures:
            raise failures[min(failures)]


DEFAULT_SCHEDULER = SequentialScheduler()

#: Canonical scheduler knob values, in the order docs present them.
SCHEDULERS = ("sequential", "thread-pool", "process-pool")

_SCHEDULER_ALIASES: dict[str, type] = {
    "sequential": SequentialScheduler,
    "seq": SequentialScheduler,
    "thread-pool": ThreadPoolScheduler,
    "threads": ThreadPoolScheduler,
    "thread": ThreadPoolScheduler,
    "process-pool": ProcessPoolScheduler,
    "processes": ProcessPoolScheduler,
    "process": ProcessPoolScheduler,
}


def resolve_scheduler(spec) -> Scheduler:
    """Coerce a scheduler knob value into a :class:`Scheduler`.

    ``None`` means the default (sequential); a :class:`Scheduler` instance
    passes through; a string resolves through the alias table
    (``"sequential"``/``"seq"``, ``"thread-pool"``/``"threads"``,
    ``"process-pool"``/``"processes"``).  Anything else raises a clear
    ``ValueError`` up front — mirroring the planning knobs'
    :func:`~repro.core.optimizer.validate_knobs` — instead of failing deep
    inside a run.
    """
    if spec is None:
        return SequentialScheduler()
    if isinstance(spec, Scheduler):
        return spec
    if isinstance(spec, str):
        cls = _SCHEDULER_ALIASES.get(spec)
        if cls is None:
            raise ValueError(f"unknown scheduler {spec!r}; expected one of "
                             f"{SCHEDULERS} (or aliases 'seq', 'threads', "
                             f"'processes') or a Scheduler instance")
        return cls()
    raise ValueError(f"cannot build a scheduler from {spec!r}; expected "
                     f"None, a Scheduler instance, or one of {SCHEDULERS}")
