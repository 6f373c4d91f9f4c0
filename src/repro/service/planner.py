"""The planner service: one front door for every planning entry point.

:class:`PlannerService` owns an :class:`~repro.core.registry.OptimizerContext`,
a :class:`~repro.service.cache.PlanCache` and a
:class:`~repro.service.singleflight.SingleFlight` admission gate, and exposes
the three questions clients ask the optimizer:

* :meth:`~PlannerService.optimize` — give me the cost-optimal plan;
* :meth:`~PlannerService.explain` — show me why that plan was chosen;
* :meth:`~PlannerService.whatif` — how would it change on another cluster.

Every request is fingerprinted canonically (:mod:`repro.core.fingerprint`)
as submitted, before the logical rewrite stage, so repeated and
structurally identical requests are served from the cache without
re-running either the rewrite or the physical search.  Concurrent
identical cold requests collapse into a single optimization via
single-flight.  Cache hits return a plan whose
:class:`~repro.core.profile.OptimizerProfile` is marked ``cache_hit=True``;
hit/miss/eviction counters flow into the service's
:class:`~repro.obs.metrics.MetricsRegistry` under ``planner.*``.

``SqlSession``, ``tools/whatif``, ``core.explain.explain_graph`` and the
experiment harness all delegate here; construct one service and share it to
pool plans across sessions and tenants.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from ..core.annotation import Plan
from ..core.batch import BatchPlan
from ..core.batch import optimize_batch as _optimize_batch
from ..core.fingerprint import batch_fingerprint, request_fingerprint
from ..core.graph import ComputeGraph
from ..core.frontier import FRONTIERS
from ..core.optimizer import (ALGORITHMS, context_for_graph, physical_plan,
                              record_optimize_metrics, rewrite_stage)
from ..core.profile import OptimizerProfile
from ..core.registry import OptimizerContext
from ..core.rewrites import RewriteSpec, validate_rewrites
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, as_tracer
from .cache import PlanCache
from .singleflight import SingleFlight

__all__ = ["PlannerService"]


class PlannerService:
    """Cached, single-flight planning facade over the staged optimizer.

    ``ctx`` is the default context for requests that do not bring their
    own (multi-tenant callers pass a per-tenant context per call — the
    cluster and catalogs are part of the fingerprint, so tenants share the
    cache safely).  ``cache`` overrides the default
    ``PlanCache(cache_capacity)``; pass a shared instance to pool plans
    across services.  ``tracer``/``metrics`` default to inert sinks.
    """

    def __init__(self, ctx: OptimizerContext | None = None, *,
                 cache: PlanCache | None = None,
                 cache_capacity: int = 256,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.ctx = ctx if ctx is not None else OptimizerContext()
        self.cache = cache if cache is not None else PlanCache(cache_capacity)
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self._flight = SingleFlight()
        # MetricsRegistry is not thread safe; all writes go through this.
        self._metrics_lock = threading.Lock()
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.batch_requests = 0
        self.batch_hits = 0
        self.batch_misses = 0

    # ------------------------------------------------------------------
    # Core entry point
    # ------------------------------------------------------------------
    def optimize(self, graph: ComputeGraph,
                 ctx: OptimizerContext | None = None, *,
                 algorithm: str = "auto",
                 timeout_seconds: float | None = None,
                 max_states: int | None = None,
                 rewrites: RewriteSpec = "none",
                 prune: bool | None = None,
                 order: str = "class-size",
                 frontier: str = "array") -> Plan:
        """Plan ``graph``, serving from the cache when possible.

        Accepts the same knobs as :func:`repro.core.optimizer.optimize`
        (all part of the fingerprint).  The key is taken from the
        submitted graph, so a hit runs neither the rewrite stage nor the
        physical search: it returns the cached plan, intermediate labels
        and all, with its profile marked ``cache_hit=True``.  A miss runs
        both stages once, inside the single-flight gate, and the
        ``optimize_seconds`` stored for eviction covers both.
        """
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; "
                             f"expected one of {ALGORITHMS}")
        if frontier not in FRONTIERS:
            raise ValueError(f"unknown frontier {frontier!r}; "
                             f"expected one of {FRONTIERS}")
        ctx = self.resolve_context(graph, ctx)
        with self.tracer.span("optimize", kind="optimize",
                              algorithm=algorithm,
                              vertices=len(graph)) as span:
            fp = request_fingerprint(
                graph, graph, ctx, algorithm=algorithm,
                timeout_seconds=timeout_seconds, max_states=max_states,
                rewrites=rewrites, prune=prune, order=order,
                frontier=frontier)
            span.set(fingerprint=fp.short())
            self._count("planner.requests")
            self.requests += 1

            cached = self.cache.get(fp)
            if cached is not None:
                span.set(cache_hit=True, optimizer=cached.optimizer,
                         seconds=cached.total_seconds)
                return self._record_hit(cached, shared=False)

            def cold() -> tuple[Plan, bool]:
                # Double-check: a previous leader may have populated the
                # cache between our miss and our turn in the flight queue.
                again = self.cache.get(fp)
                if again is not None:
                    return again, False
                started = time.perf_counter()
                rewritten, report = rewrite_stage(graph, ctx, rewrites,
                                                  self.tracer)
                plan = physical_plan(graph, rewritten, report, ctx,
                                     algorithm=algorithm,
                                     timeout_seconds=timeout_seconds,
                                     max_states=max_states, prune=prune,
                                     order=order, frontier=frontier,
                                     tracer=self.tracer)
                elapsed = time.perf_counter() - started
                evicted = self.cache.put(fp, plan, optimize_seconds=elapsed)
                with self._metrics_lock:
                    record_optimize_metrics(plan, self.metrics)
                if evicted:
                    self._count("planner.cache.evictions", evicted)
                return plan, True

            (plan, ran_cold), leader = self._flight.run(fp.key, cold)
            span.set(optimizer=plan.optimizer, seconds=plan.total_seconds)
            if leader and ran_cold:
                self._count("planner.cache.misses")
                self.misses += 1
                return plan
            span.set(cache_hit=True)
            return self._record_hit(plan, shared=not leader)

    def optimize_batch(self, graphs,
                       ctx: OptimizerContext | None = None, *,
                       algorithm: str = "auto",
                       timeout_seconds: float | None = None,
                       max_states: int | None = None,
                       rewrites: RewriteSpec = "none",
                       prune: bool | None = None,
                       order: str = "class-size",
                       frontier: str = "array") -> BatchPlan:
        """Jointly plan ``graphs`` (see :func:`repro.core.batch.optimize_batch`),
        serving repeated batches from the cache.

        The batch is fingerprinted as the ordered composition of its
        submitted members' request fingerprints (:func:`batch_fingerprint`
        — a distinct key domain, so a batch never collides with a solo
        request for the same graph).  No rewrite runs before the lookup;
        on a miss :func:`~repro.core.batch.optimize_batch` rewrites each
        member once.  A cache hit returns the cached
        :class:`~repro.core.batch.BatchPlan` with every profile marked
        ``cache_hit=True``; concurrent identical cold batches collapse
        into one merged search via single-flight.  Counters flow under
        ``planner.batch.*``.
        """
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("optimize_batch needs at least one query graph")
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; "
                             f"expected one of {ALGORITHMS}")
        if frontier not in FRONTIERS:
            raise ValueError(f"unknown frontier {frontier!r}; "
                             f"expected one of {FRONTIERS}")
        validate_rewrites(rewrites)
        base_ctx = ctx if ctx is not None else self.ctx
        with self.tracer.span("optimize-batch", kind="optimize",
                              queries=len(graphs)) as span:
            fp = batch_fingerprint(
                request_fingerprint(
                    graph, graph, self.resolve_context(graph, ctx),
                    algorithm=algorithm, timeout_seconds=timeout_seconds,
                    max_states=max_states, rewrites=rewrites, prune=prune,
                    order=order, frontier=frontier)
                for graph in graphs)
            span.set(fingerprint=fp.short())
            self._count("planner.batch.requests")
            self._count("planner.batch.queries", len(graphs))
            self.batch_requests += 1

            cached = self.cache.get(fp)
            if cached is not None:
                span.set(cache_hit=True,
                         seconds=cached.merged.total_seconds)
                return self._record_batch_hit(cached, shared=False)

            def cold() -> tuple[BatchPlan, bool]:
                again = self.cache.get(fp)
                if again is not None:
                    return again, False
                batch = _optimize_batch(
                    graphs, base_ctx, algorithm=algorithm,
                    timeout_seconds=timeout_seconds, max_states=max_states,
                    rewrites=rewrites, prune=prune, order=order,
                    frontier=frontier, tracer=self.tracer)
                evicted = self.cache.put(
                    fp, batch, optimize_seconds=batch.optimize_seconds)
                with self._metrics_lock:
                    record_optimize_metrics(batch.merged, self.metrics)
                if evicted:
                    self._count("planner.cache.evictions", evicted)
                return batch, True

            (batch, ran_cold), leader = self._flight.run(fp.key, cold)
            span.set(seconds=batch.merged.total_seconds,
                     cse_hits=batch.cse_hits)
            if leader and ran_cold:
                self._count("planner.batch.cache.misses")
                self.batch_misses += 1
                return batch
            span.set(cache_hit=True)
            return self._record_batch_hit(batch, shared=not leader)

    def resolve_context(self, graph: ComputeGraph,
                        ctx: OptimizerContext | None) -> OptimizerContext:
        """Per-request context: the override or the service default,
        extended with the graph's load formats."""
        base = ctx if ctx is not None else self.ctx
        return context_for_graph(graph, base)

    # ------------------------------------------------------------------
    # Derived entry points
    # ------------------------------------------------------------------
    def explain(self, graph: ComputeGraph,
                ctx: OptimizerContext | None = None, *,
                algorithm: str = "auto",
                max_states: int | None = None,
                rewrites: RewriteSpec = "none",
                top: int = 3, measured=None) -> str:
        """Plan ``graph`` (through the cache) and render the explanation."""
        from ..core.explain import explain as render_explain
        ctx = self.resolve_context(graph, ctx)
        plan = self.optimize(graph, ctx, algorithm=algorithm,
                             max_states=max_states, rewrites=rewrites)
        return render_explain(plan, ctx, top=top, measured=measured)

    def whatif(self, graph: ComputeGraph, profile, workers, *,
               max_states: int | None = 1000,
               rewrites: RewriteSpec = "none"):
        """Sweep cluster sizes for ``graph`` (each point cached)."""
        from ..tools.whatif import sweep_workers
        return sweep_workers(graph, profile, workers,
                             max_states=max_states, rewrites=rewrites,
                             planner=self)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record_hit(self, plan: Plan, shared: bool) -> Plan:
        self._count("planner.cache.hits")
        if shared:
            self._count("planner.singleflight.shared")
        self.hits += 1
        return _mark_cache_hit(plan)

    def _record_batch_hit(self, batch: BatchPlan,
                          shared: bool) -> BatchPlan:
        self._count("planner.batch.cache.hits")
        if shared:
            self._count("planner.singleflight.shared")
        self.batch_hits += 1
        return batch.as_cache_hit()

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is None:
            return
        with self._metrics_lock:
            self.metrics.count(name, value)

    def stats(self) -> dict[str, int]:
        """Service-level request counters plus the cache's own stats.

        Service ``hits``/``misses`` count *requests served* with/without a
        physical search (single-flight followers are hits); the nested
        ``cache`` stats count raw lookups, so its miss count also includes
        the cold path's double-check probe.
        """
        return {"requests": self.requests, "hits": self.hits,
                "misses": self.misses,
                "batch": {"requests": self.batch_requests,
                          "hits": self.batch_hits,
                          "misses": self.batch_misses},
                "cache": self.cache.stats()}


def _mark_cache_hit(plan: Plan) -> Plan:
    """Return ``plan`` with its profile flagged as served from cache."""
    profile = plan.profile
    if profile is None:
        profile = OptimizerProfile(algorithm=plan.optimizer, cache_hit=True)
    elif not profile.cache_hit:
        profile = dataclasses.replace(profile, cache_hit=True)
    else:
        return plan
    return dataclasses.replace(plan, profile=profile)
