"""PlanCache bookkeeping units plus the cached-vs-cold differential.

The unit tests drive the cache with lightweight stand-in plans; the
differential test is the cache's correctness contract: for every workload
family (mirroring ``tests/core/test_pruning_invariants.py``), the plan
served from the cache must be identical — annotation, per-vertex formats,
total cost — to a plan freshly optimized by the core optimizer.
"""

import math

import pytest

from repro.core import OptimizerContext, optimize
from repro.core.fingerprint import Fingerprint
from repro.core.formats import col_strips, row_strips, single, tiles
from repro.core.serialize import plan_to_dict
from repro.service import PlanCache, PlannerService
from repro.workloads import (
    AttentionConfig,
    FFNNConfig,
    attention_graph,
    dag1_graph,
    dag2_graph,
    ffnn_backprop_to_w2,
    ffnn_forward,
    linear_regression,
    logistic_regression_step,
    mm_chain_graph,
    motivating_graph,
    power_iteration,
    ridge_gradient_descent,
    tree_graph,
    two_level_inverse_graph,
    wide_shared_dag,
)

#: Mirror of tests/core/test_pruning_invariants.py (tests are not a
#: package, so the dict cannot be imported across directories).
WORKLOADS = {
    "ffnn_forward": lambda: ffnn_forward(FFNNConfig(hidden=8000)),
    "ffnn_backprop": lambda: ffnn_backprop_to_w2(FFNNConfig(hidden=8000)),
    "attention": lambda: attention_graph(AttentionConfig()),
    "inverse": two_level_inverse_graph,
    "motivating": motivating_graph,
    "mm_chain_set1": lambda: mm_chain_graph(1),
    "dag1_scale2": lambda: dag1_graph(2),
    "dag2_scale2": lambda: dag2_graph(2),
    "tree_scale2": lambda: tree_graph(2),
    "wide_shared": lambda: wide_shared_dag(3, 3),
    "ml_linear_regression": lambda: linear_regression(4000, 500).graph,
    "ml_logistic_regression":
        lambda: logistic_regression_step(4000, 500).graph,
    "ml_ridge_gd": lambda: ridge_gradient_descent(4000, 500).graph,
    "ml_power_iteration": lambda: power_iteration(3000).graph,
}

#: Reduced catalog (same as the pruning-invariant tests): keeps the
#: differential sweep fast while still exercising format choice.
CATALOG = (single(), tiles(1000), row_strips(1000), col_strips(1000))


def _fp(structural: str, params: str = "[]") -> Fingerprint:
    return Fingerprint(structural, params)


class _FakePlan:
    """Minimal stand-in — the cache never inspects the plan object."""

    def __init__(self, label):
        self.label = label


# ----------------------------------------------------------------------
# Unit behaviour
# ----------------------------------------------------------------------
class TestPlanCacheUnits:
    def test_get_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        fp = _fp("s1")
        assert cache.get(fp) is None
        plan = _FakePlan("p")
        cache.put(fp, plan)
        assert cache.get(fp) is plan
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_params_share_one_structural_entry(self):
        cache = PlanCache(capacity=4)
        a, b = _fp("s1", "[100]"), _fp("s1", "[200]")
        cache.put(a, _FakePlan("a"))
        cache.put(b, _FakePlan("b"))
        assert len(cache) == 2
        assert cache.stats()["entries"] == 1
        assert cache.get(a).label == "a"
        assert cache.get(b).label == "b"

    def test_put_same_key_replaces_without_growth(self):
        cache = PlanCache(capacity=4)
        fp = _fp("s1")
        cache.put(fp, _FakePlan("old"))
        cache.put(fp, _FakePlan("new"))
        assert len(cache) == 1
        assert cache.get(fp).label == "new"

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2, eviction_sample=1)
        for i in range(3):
            cache.put(_fp(f"s{i}"), _FakePlan(i))
        assert len(cache) == 2
        assert cache.get(_fp("s0")) is None      # oldest evicted
        assert cache.get(_fp("s2")) is not None
        assert cache.stats()["evictions"] == 1

    def test_recency_refresh_on_hit(self):
        cache = PlanCache(capacity=2, eviction_sample=1)
        cache.put(_fp("s0"), _FakePlan(0))
        cache.put(_fp("s1"), _FakePlan(1))
        cache.get(_fp("s0"))                     # refresh s0
        cache.put(_fp("s2"), _FakePlan(2))
        assert cache.get(_fp("s1")) is None      # s1 was the LRU victim
        assert cache.get(_fp("s0")) is not None

    def test_cost_aware_eviction_spares_expensive_entries(self):
        """Among the LRU sample, the cheap-to-recompute entry goes first
        even when an expensive one was touched longer ago."""
        cache = PlanCache(capacity=2, eviction_sample=2)
        cache.put(_fp("expensive"), _FakePlan(0), optimize_seconds=10.0)
        cache.put(_fp("cheap"), _FakePlan(1), optimize_seconds=0.001)
        cache.put(_fp("new"), _FakePlan(2), optimize_seconds=1.0)
        assert cache.get(_fp("cheap")) is None
        assert cache.get(_fp("expensive")) is not None

    def test_hits_raise_eviction_score(self):
        """A cheap entry that keeps getting hit outlives a cold one."""
        cache = PlanCache(capacity=2, eviction_sample=2)
        cache.put(_fp("hot"), _FakePlan(0), optimize_seconds=0.01)
        cache.put(_fp("cold"), _FakePlan(1), optimize_seconds=0.01)
        for _ in range(100):
            cache.get(_fp("hot"))
        cache.put(_fp("new"), _FakePlan(2), optimize_seconds=0.01)
        assert cache.get(_fp("cold")) is None
        assert cache.get(_fp("hot")) is not None

    def test_newest_entry_never_evicted(self):
        cache = PlanCache(capacity=1, eviction_sample=8)
        cache.put(_fp("s0"), _FakePlan(0), optimize_seconds=100.0)
        evicted = cache.put(_fp("s1"), _FakePlan(1), optimize_seconds=0.0)
        assert evicted == 1
        assert cache.get(_fp("s1")) is not None

    def test_clear(self):
        cache = PlanCache(capacity=4)
        cache.put(_fp("s0"), _FakePlan(0))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(_fp("s0")) is None

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)
        with pytest.raises(ValueError):
            PlanCache(eviction_sample=0)


# ----------------------------------------------------------------------
# Differential: cached plan == freshly optimized plan
# ----------------------------------------------------------------------
def _comparable(plan) -> dict:
    """Serialized plan with wall-clock and cache provenance stripped."""
    payload = plan_to_dict(plan)
    payload.pop("optimize_seconds", None)
    profile = payload.get("profile")
    if profile is not None:
        profile.pop("phase_seconds", None)
        profile.pop("cache_hit", None)
    return payload


@pytest.mark.parametrize("rewrites", ["all", "none"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cached_plan_identical_to_cold_plan(name, rewrites):
    """For every workload family, with rewrites on and off: the plan
    served from the cache must be identical — graph, annotation,
    per-vertex formats, total cost — to a plan freshly produced by the
    core optimizer."""
    graph = WORKLOADS[name]()
    service = PlannerService(OptimizerContext(formats=CATALOG))

    cold = service.optimize(graph, rewrites=rewrites)
    warm = service.optimize(graph, rewrites=rewrites)
    fresh = optimize(graph, OptimizerContext(formats=CATALOG),
                     rewrites=rewrites)

    assert warm.profile is not None and warm.profile.cache_hit
    assert not fresh.profile.cache_hit
    assert warm.total_seconds == cold.total_seconds
    assert warm.total_seconds == fresh.total_seconds, \
        f"{name}: cached cost diverged from a fresh optimization"
    assert warm.cost.vertex_formats == fresh.cost.vertex_formats, \
        f"{name}: cached plan chose different per-vertex formats"
    assert _comparable(warm) == _comparable(fresh), \
        f"{name}: cached plan payload diverged from a fresh optimization"
    assert math.isfinite(warm.total_seconds)


def test_cache_hit_marking_does_not_mutate_cached_entry():
    """The hit path must not leak the cache_hit flag back into the cache."""
    graph = WORKLOADS["motivating"]()
    service = PlannerService(OptimizerContext(formats=CATALOG))
    service.optimize(graph)
    first_hit = service.optimize(graph)
    second_hit = service.optimize(graph)
    assert first_hit.profile.cache_hit and second_hit.profile.cache_hit
    fp_key = next(iter(service.cache.keys()))
    entry_plan = service.cache._entries[fp_key].plans
    stored = next(iter(entry_plan.values()))
    assert stored.profile is None or not stored.profile.cache_hit


def test_distinct_requests_do_not_cross_hit():
    service = PlannerService(OptimizerContext(formats=CATALOG))
    a = service.optimize(WORKLOADS["motivating"]())
    b = service.optimize(WORKLOADS["mm_chain_set1"]())
    assert service.stats()["misses"] == 2
    assert a.graph is not b.graph


def test_knob_variants_cached_separately():
    graph = WORKLOADS["wide_shared"]()
    service = PlannerService(OptimizerContext(formats=CATALOG))
    exact = service.optimize(graph)
    beamed = service.optimize(graph, max_states=5)
    assert service.stats()["misses"] == 2
    again = service.optimize(graph)
    assert again.profile.cache_hit
    assert again.total_seconds == exact.total_seconds
    assert again.annotation is exact.annotation   # the cached plan itself
    assert beamed is not exact
