"""Service-layer batch planning: cache and fingerprint domain.

``PlannerService.optimize_batch`` must fingerprint a batch as the
ordered composition of its submitted members' request fingerprints,
serve repeats from the plan cache with every profile marked
``cache_hit=True`` and no rewrite, and count under ``planner.batch.*``.
"""

import pytest

from repro.core.batch import BatchPlan
from repro.core.fingerprint import request_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.service import PlannerService, batch_fingerprint
from repro.workloads import (
    amazoncat_config,
    ffnn_forward,
    ffnn_full_step,
    mm_chain_graph,
)

MAX_STATES = 300


def _pair():
    cfg = amazoncat_config(batch=2000, hidden=8000)
    return [ffnn_forward(cfg), ffnn_full_step(cfg)]


class TestServiceBatch:
    def test_repeat_batch_served_from_cache(self):
        metrics = MetricsRegistry()
        svc = PlannerService(metrics=metrics)
        graphs = _pair()
        cold = svc.optimize_batch(graphs, max_states=MAX_STATES)
        warm = svc.optimize_batch(graphs, max_states=MAX_STATES)

        assert isinstance(cold, BatchPlan) and isinstance(warm, BatchPlan)
        assert not cold.merged.profile.cache_hit
        assert warm.merged.profile.cache_hit
        assert all(q.plan.profile.cache_hit for q in warm.queries)
        assert warm.merged.total_seconds == cold.merged.total_seconds

        assert svc.stats()["batch"] == {"requests": 2, "hits": 1,
                                        "misses": 1}
        counters = metrics.counters
        assert counters["planner.batch.requests"] == 2
        assert counters["planner.batch.queries"] == 4
        assert counters["planner.batch.cache.hits"] == 1
        assert counters["planner.batch.cache.misses"] == 1

    def test_rewrites_each_member_once_and_only_on_a_miss(
            self, rewrite_calls):
        svc = PlannerService()
        graphs = _pair()
        svc.optimize_batch(graphs, max_states=MAX_STATES,
                           rewrites="pipeline")
        # The merged DAG is also handed to the stage (with rewrites off);
        # count the submitted members only.
        member_ids = {id(g) for g in graphs}
        rewritten = [id(c) for c in rewrite_calls if id(c) in member_ids]
        assert sorted(rewritten) == sorted(member_ids)

        rewrite_calls.clear()
        warm = svc.optimize_batch(graphs, max_states=MAX_STATES,
                                  rewrites="pipeline")
        assert warm.merged.profile.cache_hit
        assert rewrite_calls == []

    def test_batch_and_solo_keys_never_collide(self):
        """A singleton batch and the equivalent solo request are distinct
        cache entries (distinct fingerprint domains)."""
        svc = PlannerService()
        g = mm_chain_graph(1)
        solo = svc.optimize(g, max_states=MAX_STATES)
        batch = svc.optimize_batch([g], max_states=MAX_STATES)
        assert batch.merged.total_seconds == solo.total_seconds
        # Both were cold: the solo hit did not satisfy the batch lookup.
        assert svc.stats()["misses"] == 1
        assert svc.stats()["batch"]["misses"] == 1

    def test_knob_changes_miss_the_cache(self):
        svc = PlannerService()
        graphs = _pair()
        svc.optimize_batch(graphs, max_states=MAX_STATES)
        svc.optimize_batch(graphs, max_states=MAX_STATES + 1)
        assert svc.stats()["batch"] == {"requests": 2, "hits": 0,
                                        "misses": 2}

    def test_bad_knobs_rejected_before_fingerprinting(self):
        svc = PlannerService()
        with pytest.raises(ValueError, match="at least one"):
            svc.optimize_batch([])
        with pytest.raises(ValueError, match="max_states"):
            svc.optimize_batch(_pair(), max_states=-1)
        with pytest.raises(ValueError, match="unknown frontier"):
            svc.optimize_batch(_pair(), frontier="arry")
        with pytest.raises(ValueError, match="rewrites"):
            svc.optimize_batch(_pair(), rewrites="pipelin")
        assert svc.stats()["batch"]["requests"] == 0

    def test_batch_fingerprint_is_order_sensitive(self):
        """Queries are positional (callers get plans back by index), so
        a reordered batch is a different request."""
        svc = PlannerService()
        graphs = _pair()
        fps = [request_fingerprint(g, g, svc.resolve_context(g, None),
                                   max_states=MAX_STATES)
               for g in graphs]
        assert batch_fingerprint(fps).key != \
            batch_fingerprint(list(reversed(fps))).key
        # And a batch never shares a key with its own sole member.
        assert batch_fingerprint(fps[:1]).key != fps[0].key

