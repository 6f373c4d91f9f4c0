"""Single-flight admission batching: one search per concurrent crowd.

The unit tests pin the leader/follower contract on bare ``SingleFlight``;
the integration test gates a real ``PlannerService`` optimization until
three followers are queued behind the leader and then asserts exactly one
physical search ran, with the bookkeeping split the docs promise:
1 miss, 3 shared hits, ``optimizer.runs == 1``.
"""

import threading
import time

import pytest

from repro.core import OptimizerContext
from repro.core.formats import row_strips, single, tiles
from repro.obs.metrics import MetricsRegistry
from repro.service import PlannerService, SingleFlight
from repro.workloads import wide_shared_dag


class TestSingleFlightUnits:
    def test_single_caller_is_leader(self):
        flight = SingleFlight()
        result, leader = flight.run("k", lambda: 42)
        assert result == 42 and leader

    def test_sequential_calls_each_run(self):
        flight = SingleFlight()
        calls = []
        for i in range(3):
            result, leader = flight.run("k", lambda i=i: calls.append(i) or i)
            assert leader and result == i
        assert calls == [0, 1, 2]

    def test_concurrent_calls_share_one_execution(self):
        flight = SingleFlight()
        release = threading.Event()
        executions = []

        def work():
            executions.append(1)
            release.wait(timeout=10)
            return "shared"

        results = []

        def call():
            results.append(flight.run("k", work))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while flight.waiting("k") < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert flight.waiting("k") == 3
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert len(executions) == 1
        assert sorted(r[1] for r in results) == [False, False, False, True]
        assert all(r[0] == "shared" for r in results)

    def test_leader_error_propagates_to_followers(self):
        flight = SingleFlight()
        release = threading.Event()

        def boom():
            release.wait(timeout=10)
            raise RuntimeError("search exploded")

        errors = []

        def call():
            try:
                flight.run("k", boom)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=call) for _ in range(3)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while flight.waiting("k") < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == ["search exploded"] * 3

    def test_distinct_keys_do_not_coalesce(self):
        flight = SingleFlight()
        a, leader_a = flight.run("a", lambda: 1)
        b, leader_b = flight.run("b", lambda: 2)
        assert (a, b) == (1, 2) and leader_a and leader_b

    def test_waiting_unknown_key_is_zero(self):
        assert SingleFlight().waiting("nope") == 0


def test_concurrent_identical_requests_run_one_search(monkeypatch):
    """Four threads ask the service for the same plan while the cache is
    cold; the leader's physical search is gated until all three followers
    are enqueued.  Exactly one search may run."""
    from repro.service import planner as planner_mod

    searches = []
    followers_ready = threading.Event()
    real_physical_plan = planner_mod.physical_plan
    service = PlannerService(
        OptimizerContext(formats=(single(), tiles(1000), row_strips(1000))),
        metrics=MetricsRegistry())

    def gated_physical_plan(*args, **kwargs):
        searches.append(threading.get_ident())
        assert followers_ready.wait(timeout=30), \
            "followers never queued behind the leader"
        return real_physical_plan(*args, **kwargs)

    monkeypatch.setattr(planner_mod, "physical_plan", gated_physical_plan)

    graph = wide_shared_dag(3, 3)
    plans = []

    def request():
        plans.append(service.optimize(graph))

    threads = [threading.Thread(target=request) for _ in range(4)]
    for t in threads:
        t.start()

    # Wait until the in-flight call has three followers, then release.
    deadline = time.monotonic() + 30
    key = None
    while time.monotonic() < deadline:
        keys = list(service._flight._calls)
        if keys:
            key = keys[0]
            if service._flight.waiting(key) == 3:
                break
        time.sleep(0.001)
    assert key is not None and service._flight.waiting(key) == 3
    followers_ready.set()
    for t in threads:
        t.join(timeout=60)

    assert len(searches) == 1, "single-flight let multiple searches run"
    assert len(plans) == 4
    assert len({p.total_seconds for p in plans}) == 1

    counters = service.metrics.counters
    assert counters["optimizer.runs"] == 1
    assert counters["planner.requests"] == 4
    assert counters["planner.cache.misses"] == 1
    assert counters["planner.cache.hits"] == 3
    assert counters["planner.singleflight.shared"] == 3

    # Followers' plans are marked as served without a search.
    hits = [p for p in plans if p.profile is not None and p.profile.cache_hit]
    assert len(hits) == 3

    # A straggler arriving after completion is a plain cache hit.
    late = service.optimize(graph)
    assert late.profile.cache_hit
    assert service.metrics.counters["planner.singleflight.shared"] == 3


def test_follower_error_counts_no_hit():
    """When the leader's search raises, followers re-raise and nothing is
    recorded as served."""
    service = PlannerService(OptimizerContext(), metrics=MetricsRegistry())
    graph = wide_shared_dag(2, 2)
    with pytest.raises(ValueError):
        service.optimize(graph, max_states=0)
    assert "planner.requests" not in service.metrics.counters
