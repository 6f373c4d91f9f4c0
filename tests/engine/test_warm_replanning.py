"""Warm re-planning: a derived context plans exactly like a cold one.

Re-plans take their context from ``OptimizerContext.derive`` (through
``plan_context`` and ``context_for_graph``), so a context that serves many
runs keeps one child per change set, with warm pattern menus and transform
costs.  That is sound only if every memo entry is a pure function of the
context's fields.  Two kinds of check hold it to that:

* **enumeration counts** — the second of two identical re-planning runs on
  one context enumerates no implementation patterns at all;
* **warm-vs-cold differential** — every crash scenario of the chaos sweep,
  the OOM fallbacks and the sparsity re-optimizations run on a context
  warmed by earlier runs and on a freshly built equal context, and must
  agree bit for bit: every plan (cost ``repr``, implementations,
  transforms, formats, search counters), the re-plan and fallback reports,
  the ledgers (stage names, seconds, categories) and the outputs.

The default tests sample frontiers; the ``chaos``-marked sweep runs every
worker at every frontier: ``python -m pytest -m chaos
tests/engine/test_warm_replanning.py``.
"""

import collections
import contextlib
import dataclasses

import numpy as np
import pytest

from repro.baselines import plan_all_tile
from repro.cluster import ClusterConfig, simsql_cluster
from repro.core import optimizer as optimizer_module
from repro.core.formats import sparse_single, tiles
from repro.core.implementations import OpImplementation
from repro.core.registry import OptimizerContext
from repro.engine import dynamics as dynamics_module
from repro.engine import reopt as reopt_module
from repro.engine.dynamics import execute_with_dynamics
from repro.engine.membership import WorkerTimeline, crash_at_frontier
from repro.engine.recovery import execute_robust, simulate_robust
from repro.engine.reopt import execute_adaptive
from repro.lang import build, input_matrix, relu
from repro.workloads.ffnn import FFNNConfig, ffnn_backprop_to_w2
from test_chaos import CONFIG, NUM_WORKERS, WORKLOADS, _planned

PROFILE_COUNTERS = ("states_explored", "states_pruned", "states_beamed",
                    "peak_table_size", "max_class_size", "sweep_order")


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def _robust_case(name):
    """Declared 0.5% dense, fed dense: the first plans spill past the
    workers' disks, so the run bans implementations until one fits."""
    rng = np.random.default_rng(7)
    a = input_matrix("A", 256, 256, sparsity=0.005, fmt=sparse_single())
    b = input_matrix("B", 256, 256, fmt=tiles(64))
    out = a @ b if name == "matmul" else relu(a @ b)
    out.name = "out"
    ctx = OptimizerContext(cluster=ClusterConfig(num_workers=NUM_WORKERS,
                                                 disk_bytes=1.5e6))
    inputs = {"A": rng.standard_normal((256, 256)),
              "B": rng.standard_normal((256, 256))}
    return build(out), inputs, ctx


def _adaptive_case(name):
    """Declared dense, A is 1% dense: the estimate misses after the first
    operator and the rest of the graph is re-planned."""
    rng = np.random.default_rng(8)
    m = 96
    a, b = input_matrix("A", m, m), input_matrix("B", m, m)
    left = a * b if name == "hadamard" else (a * b).T
    out = relu(left @ b)
    out.name = "out"
    inputs = {"A": rng.standard_normal((m, m)) * (rng.random((m, m)) < .01),
              "B": rng.standard_normal((m, m))}
    ctx = OptimizerContext(cluster=ClusterConfig(num_workers=NUM_WORKERS))
    return build(out), inputs, ctx


# ----------------------------------------------------------------------
# Observation
# ----------------------------------------------------------------------
def _plan_key(plan):
    profile = plan.profile
    return (repr(plan.cost),
            {vid: impl.name for vid, impl in plan.annotation.impls.items()},
            {edge: (t.name, fmt)
             for edge, (t, fmt) in plan.annotation.transforms.items()},
            plan.cost.vertex_formats,
            None if profile is None else
            tuple(getattr(profile, name) for name in PROFILE_COUNTERS))


def _ledger_key(ledger):
    if ledger is None:
        return None
    return [(r.name, r.seconds, r.category) for r in ledger.stages]


def _outputs_key(outputs):
    return {name: (value.shape, value.dtype.str, value.tobytes())
            for name, value in outputs.items()}


@contextlib.contextmanager
def _recorded_plans():
    """Every plan a re-planning loop asks ``optimize`` for, in order —
    including fresh plans that lost to carrying on."""
    plans = []
    real = optimizer_module.optimize

    def recording(*args, **kwargs):
        plan = real(*args, **kwargs)
        plans.append(plan)
        return plan

    with pytest.MonkeyPatch.context() as patch:
        # execute_robust and simulate_robust import it when called.
        for module in (optimizer_module, dynamics_module, reopt_module):
            patch.setattr(module, "optimize", recording)
        yield plans


def _crash_run(name, frontier, worker):
    plan, inputs, *_ = _planned(name)
    timeline = WorkerTimeline(NUM_WORKERS,
                              [crash_at_frontier(worker, frontier)])

    def run(ctx):
        res = execute_with_dynamics(plan, inputs, ctx, timeline,
                                    config=CONFIG)
        assert res.ok, res.failure
        return (res.replans, res.events, res.epochs,
                _ledger_key(res.ledger), _outputs_key(res.outputs),
                [_plan_key(p) for p in res.plans])
    return run


def _robust_run(graph, inputs):
    def run(ctx):
        res = execute_robust(graph, inputs, ctx)
        assert res.ok and res.fell_back, res.failure
        return (res.fallbacks, res.attempts, _ledger_key(res.ledger),
                _outputs_key(res.outputs), _plan_key(res.plan))
    return run


def _simulate_robust_run(plan):
    def run(ctx):
        res = simulate_robust(plan, ctx, max_states=200)
        assert res.ok and res.fell_back, res.failure
        return (res.fallbacks, res.attempts, res.seconds,
                _plan_key(res.plan))
    return run


def _adaptive_run(graph, inputs):
    def run(ctx):
        res = execute_adaptive(graph, inputs, ctx, threshold=1.2)
        assert res.reoptimizations >= 1
        return (res.reoptimizations, res.triggers, res.simulated_seconds,
                _outputs_key(res.outputs))
    return run


def _observe(run, ctx):
    with _recorded_plans() as plans:
        seen = run(ctx)
    return seen, [_plan_key(p) for p in plans]


def _assert_warm_equals_cold(run, warm_ctx) -> int:
    """``run`` on the shared context (twice, so the second is warm for
    certain) and on a freshly built equal one: bit-identical.  Returns
    how many plans the run asked ``optimize`` for."""
    cold_ctx = dataclasses.replace(warm_ctx)
    assert cold_ctx == warm_ctx and cold_ctx is not warm_ctx
    first = _observe(run, warm_ctx)
    again = _observe(run, warm_ctx)
    cold = _observe(run, cold_ctx)
    assert first == cold
    assert again == cold
    return len(cold[1])


# ----------------------------------------------------------------------
# Enumeration counts
# ----------------------------------------------------------------------
@pytest.fixture
def enumerations(monkeypatch):
    """Counts ``OpImplementation.candidate_patterns`` calls."""
    calls = collections.Counter()
    original = OpImplementation.candidate_patterns

    def counting(impl, in_types, catalog, cluster):
        calls["enumerations"] += 1
        return original(impl, in_types, catalog, cluster)

    monkeypatch.setattr(OpImplementation, "candidate_patterns", counting)
    return calls


class TestRepeatReplansEnumerateNothing:
    def test_crash_replan(self, enumerations):
        plan, inputs, ctx, *_ = _planned("ffnn")
        # A fresh context equal to the shared one, so the first run is
        # cold whatever ran before.
        ctx = dataclasses.replace(ctx)
        timeline = WorkerTimeline(NUM_WORKERS, [crash_at_frontier(1, 1)])
        counts = []
        for _ in range(2):
            enumerations.clear()
            res = execute_with_dynamics(plan, inputs, ctx, timeline,
                                        config=CONFIG)
            assert res.ok
            assert res.replans[0].reoptimized_seconds is not None
            counts.append(enumerations["enumerations"])
        assert counts[0] > 0
        assert counts[1] == 0

    def test_fallback_sequence(self, enumerations):
        graph, inputs, ctx = _robust_case("matmul")
        counts, banned = [], []
        for _ in range(2):
            enumerations.clear()
            res = execute_robust(graph, inputs, ctx)
            assert res.ok
            banned.append([f.banned_impl for f in res.fallbacks])
            counts.append(enumerations["enumerations"])
        assert len(banned[0]) >= 2 and banned[0] == banned[1]
        assert counts[0] > 0
        assert counts[1] == 0


# ----------------------------------------------------------------------
# Warm-vs-cold differential
# ----------------------------------------------------------------------
def _crash_sweep(name, frontiers):
    """Each worker killed at each of ``frontiers``, on the context the
    chaos sweep shares across the workload's scenarios."""
    ctx = _planned(name)[2]
    replans = 0
    for frontier in frontiers:
        for worker in range(NUM_WORKERS):
            replans += _assert_warm_equals_cold(
                _crash_run(name, frontier, worker), ctx)
    assert replans > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_crash_replans_warm_equals_cold_sampled(name):
    n_frontiers = _planned(name)[4]
    _crash_sweep(name, sorted({0, 1, n_frontiers // 2, n_frontiers - 1}))


@pytest.mark.parametrize("name", ("matmul", "matmul_relu"))
def test_fallbacks_warm_equal_cold(name):
    graph, inputs, ctx = _robust_case(name)
    assert _assert_warm_equals_cold(_robust_run(graph, inputs), ctx)


def test_simulated_fallback_warm_equals_cold():
    ctx = OptimizerContext(cluster=simsql_cluster(2))
    plan = plan_all_tile(ffnn_backprop_to_w2(FFNNConfig(hidden=80_000)), ctx)
    assert _assert_warm_equals_cold(_simulate_robust_run(plan), ctx)


@pytest.mark.parametrize("name", ("hadamard", "hadamard_t"))
def test_sparsity_reoptimization_warm_equals_cold(name):
    graph, inputs, ctx = _adaptive_case(name)
    assert _assert_warm_equals_cold(_adaptive_run(graph, inputs), ctx)


@pytest.mark.chaos
@pytest.mark.parametrize("name", WORKLOADS)
def test_crash_replans_warm_equals_cold_exhaustive(name):
    """Every worker at every frontier, warm against cold."""
    _crash_sweep(name, range(_planned(name)[4]))
