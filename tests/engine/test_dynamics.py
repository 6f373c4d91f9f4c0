"""Degraded-mode re-planning under worker churn (the dynamics driver)."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import ComputeGraph, OptimizerContext, matrix, optimize
from repro.core.atoms import ADD, MATMUL, RELU
from repro.core.formats import row_strips, tiles
from repro.engine import execute_plan
from repro.engine.dynamics import DynamicsConfig, execute_with_dynamics
from repro.engine.faults import FaultConfig
from repro.engine.ledger import CATEGORIES, REPLAN
from repro.engine.membership import (
    ChurnConfig,
    MembershipEvent,
    MembershipEventKind,
    WorkerTimeline,
    crash_at_frontier,
)
from repro.engine.scheduler import SequentialScheduler, ThreadPoolScheduler
from repro.obs.export import chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

K = MembershipEventKind


def _case(seed=0, n=24):
    rng = np.random.default_rng(seed)
    g = ComputeGraph()
    a = g.add_source("A", matrix(n, n), tiles(12))
    b = g.add_source("B", matrix(n, n), row_strips(8))
    h1 = g.add_op("h1", MATMUL, (a, b))
    h2 = g.add_op("h2", RELU, (h1,))
    h3 = g.add_op("h3", ADD, (h2, a))
    g.add_op("out", MATMUL, (h3, b))
    inputs = {"A": rng.standard_normal((n, n)),
              "B": rng.standard_normal((n, n))}
    return g, inputs


@pytest.fixture(scope="module")
def planned():
    g, inputs = _case()
    ctx = OptimizerContext(cluster=ClusterConfig(num_workers=3))
    plan = optimize(g, ctx, max_states=200)
    clean = execute_plan(plan, inputs, ctx)
    assert clean.ok
    return g, inputs, ctx, plan, clean


def _ledger_key(res):
    return [(r.name, r.seconds, r.category) for r in res.ledger.stages]


class TestCrashRecovery:
    def test_kill_mid_run_matches_fault_free(self, planned):
        _, inputs, ctx, plan, clean = planned
        tl = WorkerTimeline(3, [crash_at_frontier(1, 1)])
        res = execute_with_dynamics(plan, inputs, ctx, tl)
        assert res.ok
        for name, expected in clean.outputs.items():
            assert np.allclose(res.outputs[name], expected)
        assert res.epochs >= 2
        assert res.replans and res.replans[0].chosen in ("carry-on",
                                                         "reoptimized")
        # Detection gap and re-planning cost are on the clock, attributed.
        assert res.ledger.replan_seconds > 0
        assert any(r.name.startswith("detector:w1")
                   for r in res.ledger.stages)
        assert all(r.category in CATEGORIES for r in res.ledger.stages)

    def test_timed_crash_uses_heartbeat_detection(self, planned):
        _, inputs, ctx, plan, clean = planned
        tl = WorkerTimeline(3, [MembershipEvent(0, K.CRASH, time=0.6)])
        res = execute_with_dynamics(plan, inputs, ctx, tl)
        assert res.ok
        crash = [e for e in res.events if e.kind == "crash"][0]
        assert crash.detector_seconds > 0
        detector = [r for r in res.ledger.stages
                    if r.name == "detector:w0"]
        assert detector and detector[0].category == "recovery"

    def test_bit_identical_across_schedulers(self, planned):
        _, inputs, ctx, plan, _ = planned
        tl = WorkerTimeline(3, [crash_at_frontier(0, 1)])
        a = execute_with_dynamics(plan, inputs, ctx, tl,
                                  scheduler=SequentialScheduler())
        b = execute_with_dynamics(plan, inputs, ctx, tl,
                                  scheduler=ThreadPoolScheduler())
        assert a.ok and b.ok
        assert _ledger_key(a) == _ledger_key(b)
        assert a.ledger.total_seconds == b.ledger.total_seconds

    def test_crash_with_task_faults_composes(self, planned):
        _, inputs, ctx, plan, clean = planned
        tl = WorkerTimeline(3, [crash_at_frontier(2, 1)])
        faults = FaultConfig(seed=11, crash_probability=0.1,
                             straggler_probability=0.2,
                             max_faults_per_stage=2)
        res = execute_with_dynamics(plan, inputs, ctx, tl, faults=faults)
        if res.ok:
            for name, expected in clean.outputs.items():
                assert np.allclose(res.outputs[name], expected)
        else:
            assert "fault persisted" in res.failure

    def test_losing_last_worker_is_structured_failure(self):
        g, inputs = _case()
        ctx = OptimizerContext(cluster=ClusterConfig(num_workers=1))
        plan = optimize(g, ctx, max_states=200)
        tl = WorkerTimeline(1, [crash_at_frontier(0, 0)])
        res = execute_with_dynamics(plan, inputs, ctx, tl)
        assert not res.ok
        assert "last worker" in res.failure

    def test_timeline_cluster_size_must_match(self, planned):
        _, inputs, ctx, plan, _ = planned
        with pytest.raises(ValueError, match="workers"):
            execute_with_dynamics(plan, inputs, ctx, WorkerTimeline(5))

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_config_rejects_bad_max_states(self, bad):
        with pytest.raises(ValueError, match="max_states"):
            DynamicsConfig(max_states=bad)
        assert DynamicsConfig(max_states=1).max_states == 1
        assert DynamicsConfig().max_states is None

    def test_bad_max_states_fails_before_any_epoch(self, planned):
        """A crash re-plan used to be the first to see ``max_states=0``,
        after the first epoch's work was charged; a run without a crash
        succeeded.  The config now rejects it before the run starts."""
        _, inputs, ctx, plan, _ = planned
        tl = WorkerTimeline(3, [crash_at_frontier(1, 1)])
        metrics = MetricsRegistry()
        with pytest.raises(ValueError, match="max_states"):
            execute_with_dynamics(plan, inputs, ctx, tl,
                                  config=DynamicsConfig(max_states=0),
                                  metrics=metrics)
        assert not metrics.counters  # no stage ran, no crash was seen


class TestNeverWorse:
    def test_carry_on_when_reoptimization_disabled(self, planned):
        _, inputs, ctx, plan, clean = planned
        tl = WorkerTimeline(3, [crash_at_frontier(1, 1)])
        res = execute_with_dynamics(plan, inputs, ctx, tl,
                                    config=DynamicsConfig(reoptimize=False))
        assert res.ok
        assert all(r.chosen == "carry-on" for r in res.replans)
        for name, expected in clean.outputs.items():
            assert np.allclose(res.outputs[name], expected)

    def test_chosen_plan_is_never_costlier_than_carry_on(self, planned):
        _, inputs, ctx, plan, _ = planned
        tl = WorkerTimeline(3, [crash_at_frontier(1, 1)])
        res = execute_with_dynamics(plan, inputs, ctx, tl)
        assert res.ok
        for rep in res.replans:
            if rep.carry_on_seconds is None:
                continue
            chosen_cost = (rep.reoptimized_seconds
                           if rep.chosen == "reoptimized"
                           else rep.carry_on_seconds)
            assert chosen_cost <= rep.carry_on_seconds


class TestSlowdownAndRejoin:
    def test_slowdown_charges_straggler_drag(self, planned):
        _, inputs, ctx, plan, clean = planned
        tl = WorkerTimeline(3, [MembershipEvent(2, K.SLOWDOWN, time=0.1,
                                                factor=4.0)])
        res = execute_with_dynamics(plan, inputs, ctx, tl)
        assert res.ok
        drag = [r for r in res.ledger.stages if r.name.startswith("slow:w2")]
        assert drag and all(r.category == "straggler" for r in drag)
        assert res.ledger.total_seconds > clean.ledger.total_seconds

    def test_rejoin_grows_the_cluster_back(self, planned):
        _, inputs, ctx, plan, clean = planned
        tl = WorkerTimeline(3, [
            MembershipEvent(1, K.CRASH, frontier=0),
            MembershipEvent(1, K.REJOIN, frontier=2),
        ])
        res = execute_with_dynamics(plan, inputs, ctx, tl)
        assert res.ok
        for name, expected in clean.outputs.items():
            assert np.allclose(res.outputs[name], expected)
        rejoined = [e for e in res.events if e.kind == "rejoin"]
        assert rejoined and rejoined[0].applied

    def test_seeded_churn_is_reproducible(self, planned):
        _, inputs, ctx, plan, _ = planned
        churn = ChurnConfig(seed=5, crash_probability=0.6,
                            slowdown_probability=0.4, rejoin_probability=0.5,
                            horizon_seconds=30.0)
        runs = [execute_with_dynamics(
            plan, inputs, ctx, WorkerTimeline(3, churn=churn))
            for _ in range(2)]
        assert runs[0].ok == runs[1].ok
        assert _ledger_key(runs[0]) == _ledger_key(runs[1])


class TestObservability:
    def test_detector_and_replan_spans_in_chrome_trace(self, planned):
        _, inputs, ctx, plan, _ = planned
        tl = WorkerTimeline(3, [crash_at_frontier(1, 1)])
        tracer = Tracer()
        metrics = MetricsRegistry()
        res = execute_with_dynamics(plan, inputs, ctx, tl, tracer=tracer,
                                    metrics=metrics)
        assert res.ok
        kinds = {s.kind for s in tracer.spans()}
        assert {"dynamics", "detector", "replan"} <= kinds
        trace = chrome_trace(tracer)
        names = {ev["name"] for ev in trace["traceEvents"]}
        assert "detect:w1" in names
        assert any(n.startswith("replan:epoch") for n in names)
        assert metrics.counters["dynamics.crashes"] == 1
        assert metrics.counters["dynamics.replans"] >= 1

    def test_checkpoint_dir_writes_frontier_snapshots(self, planned,
                                                      tmp_path):
        _, inputs, ctx, plan, _ = planned
        tl = WorkerTimeline(3, [])
        res = execute_with_dynamics(
            plan, inputs, ctx, tl,
            config=DynamicsConfig(checkpoint_dir=tmp_path))
        assert res.ok
        snaps = sorted(tmp_path.glob("epoch*_frontier*.json"))
        assert snaps

    def test_replan_charged_to_replan_category(self, planned):
        _, inputs, ctx, plan, _ = planned
        tl = WorkerTimeline(3, [crash_at_frontier(0, 0)])
        res = execute_with_dynamics(
            plan, inputs, ctx, tl,
            config=DynamicsConfig(replan_cost_seconds=3.5))
        assert res.ok
        replan = [r for r in res.ledger.stages if r.category == REPLAN]
        assert replan
        assert sum(r.seconds for r in replan) == 3.5 * len(res.replans)
