"""Lineage-based recovery and memory-safe plan fallback."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, simsql_cluster
from repro.baselines import plan_all_tile
from repro.core import ComputeGraph, OptimizerContext, matrix, optimize
from repro.core.atoms import ADD, MATMUL, RELU
from repro.core.formats import sparse_single, tiles
from repro.engine import execute_plan, execute_robust, simulate
from repro.engine.faults import FaultPlan
from repro.engine.recovery import (
    RecoveryPolicy,
    plan_context,
    simulate_robust,
)
from repro.workloads.ffnn import FFNNConfig, ffnn_backprop_to_w2

RNG = np.random.default_rng(9)


def _workload():
    g = ComputeGraph()
    a = g.add_source("A", matrix(48, 48), tiles(16))
    b = g.add_source("B", matrix(48, 48), tiles(16))
    h = g.add_op("H", MATMUL, (a, b))
    r = g.add_op("R", RELU, (h,))
    g.add_op("OUT", ADD, (r, a))
    inputs = {"A": RNG.standard_normal((48, 48)),
              "B": RNG.standard_normal((48, 48))}
    return g, inputs


class TestRecoveryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RecoveryPolicy(backoff_base_seconds=1.0, backoff_factor=2.0,
                                backoff_cap_seconds=5.0)
        assert [policy.backoff_seconds(n) for n in (1, 2, 3, 4, 5)] == \
            [1.0, 2.0, 4.0, 5.0, 5.0]

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_base_seconds": -1.0},
        {"backoff_cap_seconds": -0.5},
        {"backoff_factor": 0.9},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)


class TestLineageRecovery:
    def test_crash_recovers_with_identical_output(self):
        graph, inputs = _workload()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        clean = execute_plan(plan, inputs, ctx)

        faulty = execute_plan(plan, inputs, ctx, faults=FaultPlan.crash("H"))
        assert faulty.ok
        assert faulty.recovery.worker_crashes == 1
        assert faulty.recovery.retries == 1
        assert faulty.recovery.backoff_seconds > 0
        assert faulty.ledger.recovery_seconds > 0
        # The recovery tax is real: the faulty run's clock reads later.
        assert faulty.ledger.total_seconds > clean.ledger.total_seconds
        # ... but the answer is bit-identical.
        for name in clean.outputs:
            assert np.array_equal(faulty.outputs[name], clean.outputs[name])

    def test_wasted_partial_work_is_recategorized(self):
        graph, inputs = _workload()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        clean = execute_plan(plan, inputs, ctx)
        # Crash the *second* substage entered while computing OUT, so the
        # first substage's charge becomes wasted work.
        faulty = execute_plan(plan, inputs, ctx,
                              faults=FaultPlan.shuffle_error("OUT",
                                                             occurrence=0))
        assert faulty.ok
        assert faulty.recovery.transient_errors == 1
        assert faulty.ledger.work_seconds == pytest.approx(
            clean.ledger.total_seconds)

    def test_retries_exhausted_is_structured_failure(self):
        graph, inputs = _workload()
        ctx = OptimizerContext()
        plan = optimize(graph, ctx, max_states=200)
        persistent = FaultPlan(tuple(
            FaultPlan.crash("H", occurrence=i).faults[0] for i in range(3)))
        result = execute_plan(
            plan, inputs, ctx, faults=persistent,
            recovery=RecoveryPolicy(max_retries=2, backoff_base_seconds=0.1))
        assert not result.ok
        assert "fault persisted through 2 retries" in result.failure
        assert result.display == "Fail"
        # Three faults observed: two retried, the third exhausted the budget.
        assert result.recovery.worker_crashes == 3
        with pytest.raises(RuntimeError, match="execution failed"):
            result.output()


class TestMemoryFallback:
    """A plan accepted analytically can still die on real data: declared
    sparsity lies, the actual payloads are dense, and the spill overflows
    worker disk.  execute_robust bans the failing implementation per
    attempt until a plan completes."""

    def _oversubscribed(self):
        rng = np.random.default_rng(0)
        n = 256
        cluster = ClusterConfig(num_workers=4, disk_bytes=1.5e6)
        ctx = OptimizerContext(cluster=cluster)
        g = ComputeGraph()
        a = g.add_source("A", matrix(n, n, sparsity=0.005), sparse_single())
        b = g.add_source("B", matrix(n, n), tiles(64))
        g.add_op("C", MATMUL, (a, b))
        inputs = {"A": rng.standard_normal((n, n)),
                  "B": rng.standard_normal((n, n))}
        return g, inputs, ctx

    def test_direct_execution_fails_structurally(self):
        g, inputs, ctx = self._oversubscribed()
        plan = optimize(g, ctx)
        result = execute_plan(plan, inputs, ctx)
        assert not result.ok
        assert "spill" in result.failure

    def test_execute_robust_degrades_to_completing_plan(self):
        g, inputs, ctx = self._oversubscribed()
        robust = execute_robust(g, inputs, ctx)
        assert robust.ok
        assert robust.fell_back
        banned = [f.banned_impl for f in robust.fallbacks]
        assert all(banned), banned  # every failure pinned to an impl
        assert robust.attempts == len(banned) + 1
        assert robust.recovery_seconds > 0  # abandoned attempts were charged
        final = {i.name for i in robust.plan.annotation.impls.values()}
        assert not final & set(banned)
        assert np.allclose(robust.outputs["C"],
                           inputs["A"] @ inputs["B"])

    def test_plan_context_prunes_and_tightens(self):
        ctx = OptimizerContext()
        pruned = plan_context(ctx, banned={"mm_tile_shuffle"},
                              ram_headroom=0.5)
        names = {i.name for i in pruned.implementations}
        assert "mm_tile_shuffle" not in names
        assert pruned.cluster.ram_bytes == ctx.cluster.ram_bytes * 0.5
        # The original context is untouched.
        assert any(i.name == "mm_tile_shuffle" for i in ctx.implementations)

    def test_plan_context_derives_each_change_once(self):
        ctx = OptimizerContext()
        assert plan_context(ctx) is ctx
        assert plan_context(ctx, banned={"no_such_impl"}) is ctx
        assert plan_context(ctx, workers=ctx.cluster.num_workers) is ctx
        smaller = plan_context(ctx, workers=2)
        assert smaller is not ctx
        assert smaller.cluster.num_workers == 2
        assert plan_context(ctx, workers=2) is smaller
        pruned = plan_context(ctx, banned={"mm_tile_shuffle"})
        assert plan_context(ctx, banned=frozenset({"mm_tile_shuffle"})) \
            is pruned
        tight = plan_context(ctx, banned={"mm_tile_shuffle"},
                             ram_headroom=0.5)
        assert tight is not pruned
        assert plan_context(ctx, banned={"mm_tile_shuffle"},
                            ram_headroom=0.5) is tight

    def test_exhausted_retries_do_not_ban_implementations(self):
        graph, inputs = _workload()
        ctx = OptimizerContext()
        persistent = FaultPlan(tuple(
            FaultPlan.crash("H", occurrence=i).faults[0] for i in range(2)))
        robust = execute_robust(
            graph, inputs, ctx, faults=persistent,
            recovery=RecoveryPolicy(max_retries=1, backoff_base_seconds=0.1),
            max_fallbacks=1, max_states=200)
        assert not robust.ok
        assert all(f.banned_impl is None and f.ram_headroom == 1.0
                   for f in robust.fallbacks)

    def test_simulate_robust_rescues_paper_scale_fail(self):
        ctx = OptimizerContext(cluster=simsql_cluster(2))
        graph = ffnn_backprop_to_w2(FFNNConfig(hidden=80_000))
        tile = plan_all_tile(graph, ctx)
        assert not simulate(tile, ctx).ok  # the paper's "Fail" cell

        robust = simulate_robust(tile, ctx, max_states=200)
        assert robust.ok
        assert robust.fell_back
        assert "mm_tile_shuffle" in [f.banned_impl for f in robust.fallbacks]
        assert robust.seconds < float("inf")
        assert robust.display.endswith("*")


def _only_matmul(ctx, keep):
    """``ctx`` whose catalog's one matmul implementation is ``keep``."""
    return OptimizerContext(cluster=ctx.cluster, implementations=tuple(
        i for i in ctx.implementations
        if not i.name.startswith("mm_") or i.name == keep))


class TestFallbackErrors:
    """Only "no plan fits" ends a fallback run with ``ok=False``; a bad
    knob or a defect in planning surfaces as itself."""

    def _simulated_fail(self, ctx):
        """An all-tile matmul whose shuffle spills 1.7 TB per worker."""
        g = ComputeGraph()
        a = g.add_source("A", matrix(160_000, 10_000), tiles(1000))
        b = g.add_source("B", matrix(10_000, 160_000), tiles(1000))
        g.add_op("C", MATMUL, (a, b))
        tile = plan_all_tile(g, ctx)
        assert not simulate(tile, ctx).ok
        return tile

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_bad_max_states_rejected(self, bad):
        g, inputs, ctx = TestMemoryFallback()._oversubscribed()
        with pytest.raises(ValueError, match="max_states"):
            execute_robust(g, inputs, ctx, max_states=bad)
        plan = optimize(g, ctx)
        assert simulate(plan, ctx).ok
        with pytest.raises(ValueError, match="max_states"):
            simulate_robust(plan, ctx, max_states=bad)

    def test_planning_defect_propagates(self, monkeypatch):
        from repro.core import optimizer

        def broken(*args, **kwargs):
            raise KeyError("defect in the search")

        g, inputs, ctx = TestMemoryFallback()._oversubscribed()
        sim_ctx = OptimizerContext(cluster=simsql_cluster(2))
        tile = self._simulated_fail(sim_ctx)
        monkeypatch.setattr(optimizer, "optimize", broken)
        with pytest.raises(KeyError, match="defect in the search"):
            execute_robust(g, inputs, ctx)
        with pytest.raises(KeyError, match="defect in the search"):
            simulate_robust(tile, sim_ctx)

    def test_no_feasible_replan_still_fails_cleanly(self):
        """Once the only matmul implementation is banned, the re-plan
        raises OptimizationError: the run reports it and stops."""
        g, inputs, ctx = TestMemoryFallback()._oversubscribed()
        (first,) = [i.name for i in optimize(g, ctx).annotation.impls.values()
                    if i.name.startswith("mm_")]
        robust = execute_robust(g, inputs, _only_matmul(ctx, first))
        assert not robust.ok
        assert [f.banned_impl for f in robust.fallbacks] == [first]
        assert "re-optimization found no feasible plan" in robust.failure

        sim_ctx = _only_matmul(OptimizerContext(cluster=simsql_cluster(2)),
                               "mm_tile_shuffle")
        sim = simulate_robust(self._simulated_fail(sim_ctx), sim_ctx)
        assert not sim.ok
        assert [f.banned_impl for f in sim.fallbacks] == ["mm_tile_shuffle"]
        assert "re-optimization found no feasible plan" in sim.failure
