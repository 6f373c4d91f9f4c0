"""PlannerService integration: sessions, tenants, explain and what-if.

The headline regression here is the session-memoization contract: two
identical ``SqlSession.optimize`` calls perform exactly one physical
search — counted both by the ``optimizer.runs`` metric and by directly
counting entries into the physical stage.
"""

import numpy as np
import pytest

from repro.cluster import simsql_cluster
from repro.core import OptimizerContext, explain_graph
from repro.core.formats import row_strips, single, tiles
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.service import PlanCache, PlannerService
from repro.sql import SqlSession
from repro.tools.whatif import chaos_preview, sweep_workers
from repro.workloads import wide_shared_dag

SCRIPT = """
CREATE TABLE matA (mat MATRIX[100][10000]);
CREATE TABLE matB (mat MATRIX[10000][100]);
LOAD matA FORMAT 'row_strips(10)';
LOAD matB FORMAT 'col_strips(10)';
CREATE VIEW matAB (mat) AS
SELECT matrix_multiply(x.mat, m.mat)
FROM matA AS x, matB AS m;
"""


def _count_searches(monkeypatch):
    """Count entries into the physical search stage, wherever called from."""
    from repro.core import optimizer as optimizer_mod

    calls = []
    real = optimizer_mod._optimize_physical

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer_mod, "_optimize_physical", counting)
    return calls


# ----------------------------------------------------------------------
# Session memoization (satellite 1)
# ----------------------------------------------------------------------
def test_session_memoizes_identical_optimize_calls(monkeypatch):
    """Two identical optimize() calls -> exactly one physical search."""
    searches = _count_searches(monkeypatch)
    metrics = MetricsRegistry()
    session = SqlSession(metrics=metrics)
    session.execute(SCRIPT)

    first = session.optimize("matAB")
    second = session.optimize("matAB")

    assert len(searches) == 1, \
        f"expected exactly one physical search, saw {len(searches)}"
    assert metrics.counters["optimizer.runs"] == 1
    assert metrics.counters["planner.cache.hits"] == 1
    assert metrics.counters["planner.cache.misses"] == 1
    assert not first.profile.cache_hit
    assert second.profile.cache_hit
    assert second.total_seconds == first.total_seconds
    assert second.annotation is first.annotation


def test_session_run_reuses_cached_plan(monkeypatch):
    searches = _count_searches(monkeypatch)
    session = SqlSession()
    session.execute(SCRIPT)
    rng = np.random.default_rng(0)
    inputs = {"matA": rng.standard_normal((100, 10_000)),
              "matB": rng.standard_normal((10_000, 100))}
    r1 = session.run("matAB", inputs=inputs)
    r2 = session.run("matAB", inputs=inputs)
    assert len(searches) == 1
    assert np.allclose(r1.output(), r2.output())


def test_engines_never_share_cache_entries(monkeypatch):
    """A plan cached under one rewrite engine is never served for another:
    pipeline, egraph and off requests for the same view each miss cold,
    and only a repeated same-engine request hits."""
    searches = _count_searches(monkeypatch)
    metrics = MetricsRegistry()
    session = SqlSession(metrics=metrics)
    session.execute(SCRIPT)

    session.optimize("matAB", rewrites="pipeline")
    session.optimize("matAB", rewrites="egraph")
    session.optimize("matAB", rewrites="off")
    assert metrics.counters["planner.cache.misses"] == 3
    assert metrics.counters.get("planner.cache.hits", 0) == 0
    cold_searches = len(searches)

    repeat = session.optimize("matAB", rewrites="egraph")
    assert metrics.counters["planner.cache.hits"] == 1
    assert len(searches) == cold_searches
    assert repeat.profile.cache_hit
    assert repeat.pipeline is not None
    assert repeat.pipeline.engine == "egraph"


@pytest.mark.parametrize("rewrites", ["none", "pipeline", "egraph"])
def test_cache_hit_runs_no_rewrite_stage(rewrite_calls, rewrites):
    """The key is taken from the submitted graph: a miss rewrites once,
    a hit does not rewrite at all, under every engine."""
    session = SqlSession()
    session.execute(SCRIPT)
    cold = session.optimize("matAB", rewrites=rewrites)
    assert len(rewrite_calls) == 1
    warm = session.optimize("matAB", rewrites=rewrites)
    assert len(rewrite_calls) == 1
    assert not cold.profile.cache_hit and warm.profile.cache_hit
    assert warm.total_seconds == cold.total_seconds


def test_different_views_are_different_requests():
    metrics = MetricsRegistry()
    session = SqlSession(metrics=metrics)
    session.execute(SCRIPT + """
CREATE VIEW matABr (mat) AS SELECT relu(ab.mat) FROM matAB AS ab;
""")
    session.optimize("matAB")
    session.optimize("matABr")
    assert metrics.counters["optimizer.runs"] == 2


def test_session_traces_optimize_spans_on_hits():
    """Cache-hit requests still emit a root optimize span (no search
    children), keeping the observability contract."""
    tracer = Tracer()
    session = SqlSession(tracer=tracer)
    session.execute(SCRIPT)
    session.optimize("matAB")
    session.optimize("matAB")
    optimize_spans = [s for s in tracer.spans() if s.kind == "optimize"]
    search_spans = [s for s in tracer.spans() if s.kind == "search"]
    assert len(optimize_spans) == 2
    assert all(s.parent is None for s in optimize_spans)
    assert len(search_spans) == 1
    hit_span = optimize_spans[-1]
    assert hit_span.attrs.get("cache_hit") is True
    assert "fingerprint" in hit_span.attrs


# ----------------------------------------------------------------------
# Multi-tenant pooling
# ----------------------------------------------------------------------
def test_tenants_share_plans_exactly_when_contexts_match():
    service = PlannerService(metrics=MetricsRegistry())
    ctx_small = OptimizerContext(cluster=simsql_cluster(5))
    ctx_big = OptimizerContext(cluster=simsql_cluster(40))

    a = SqlSession.for_tenant(service, ctx_small)
    b = SqlSession.for_tenant(service, ctx_small)   # same cluster as a
    c = SqlSession.for_tenant(service, ctx_big)     # different cluster
    for session in (a, b, c):
        session.execute(SCRIPT)

    plan_a = a.optimize("matAB")
    plan_b = b.optimize("matAB")
    plan_c = c.optimize("matAB")

    stats = service.stats()
    assert stats["requests"] == 3
    assert stats["hits"] == 1 and stats["misses"] == 2
    assert not plan_a.profile.cache_hit
    assert plan_b.profile.cache_hit           # pooled with tenant a
    assert not plan_c.profile.cache_hit       # different cluster -> cold
    assert plan_b.annotation is plan_a.annotation
    assert plan_c.total_seconds != plan_a.total_seconds


#: A two-layer FFNN written as one view of nested calls: every
#: intermediate is unnamed, so each session labels it afresh.
FFNN_SCRIPT = """
CREATE TABLE X (mat MATRIX[1000][6000]);
CREATE TABLE W1 (mat MATRIX[6000][400]);
CREATE TABLE B1 (mat MATRIX[1][400]);
CREATE TABLE W2 (mat MATRIX[400][17]);
CREATE TABLE B2 (mat MATRIX[1][17]);
LOAD X FORMAT 'row_strips(100)';
CREATE VIEW scores (mat) AS
SELECT softmax(add_bias(matrix_multiply(relu(add_bias(
    matrix_multiply(x.mat, w1.mat), c1.mat)), w2.mat), c2.mat))
FROM X AS x, W1 AS w1, B1 AS c1, W2 AS w2, B2 AS c2;
"""


def test_nested_call_template_hits_across_fresh_sessions(rewrite_calls):
    """Intermediate labels are not part of the key: three fresh tenant
    sessions submitting the same nested-call script share one plan."""
    service = PlannerService()
    ctx = OptimizerContext(cluster=simsql_cluster(8))
    labels, plans = set(), []
    for _ in range(3):
        session = SqlSession.for_tenant(service, ctx)
        session.execute(FFNN_SCRIPT)
        labels.add(tuple(v.name for v in
                         session.graph("scores").inner_vertices))
        plans.append(session.optimize("scores", rewrites="pipeline"))

    assert len(labels) == 3          # every session labelled afresh
    stats = service.stats()
    assert (stats["misses"], stats["hits"]) == (1, 2)
    assert len(service.cache) == 1
    assert len(rewrite_calls) == 1
    assert [p.profile.cache_hit for p in plans] == [False, True, True]
    assert plans[1].annotation is plans[0].annotation


def test_private_sessions_do_not_share():
    a, b = SqlSession(), SqlSession()
    for session in (a, b):
        session.execute(SCRIPT)
    assert not a.optimize("matAB").profile.cache_hit
    assert not b.optimize("matAB").profile.cache_hit


# ----------------------------------------------------------------------
# Explain and what-if through the service
# ----------------------------------------------------------------------
def test_explain_graph_reports_cache_provenance():
    service = PlannerService(OptimizerContext(
        formats=(single(), tiles(1000), row_strips(1000))))
    graph = wide_shared_dag(3, 3)
    cold = explain_graph(graph, planner=service)
    warm = explain_graph(graph, planner=service)
    assert "EXPLAIN" in cold and "served from plan cache" not in cold
    assert "served from plan cache" in warm


def test_service_explain_method():
    service = PlannerService(OptimizerContext(
        formats=(single(), tiles(1000), row_strips(1000))))
    report = service.explain(wide_shared_dag(3, 3))
    assert "EXPLAIN" in report and "dominant stages" in report


def test_whatif_sweeps_share_the_cache():
    metrics = MetricsRegistry()
    service = PlannerService(metrics=metrics)
    graph = wide_shared_dag(3, 3)
    cluster = simsql_cluster(10)

    first = sweep_workers(graph, cluster.with_workers, (2, 5, 10),
                          max_states=200, planner=service)
    cold_runs = metrics.counters["optimizer.runs"]
    second = sweep_workers(graph, cluster.with_workers, (2, 5, 10),
                           max_states=200, planner=service)
    assert metrics.counters["optimizer.runs"] == cold_runs  # all cached
    assert [p.seconds for p in first] == [p.seconds for p in second]

    # The chaos preview shares swept sizes: only the n-1 "survivor"
    # points it introduces (1 and 4 workers) go cold.
    chaos_preview(graph, cluster.with_workers, (2, 5),
                  max_states=200, planner=service)
    assert metrics.counters["optimizer.runs"] == cold_runs + 2


def test_service_whatif_method():
    service = PlannerService()
    cluster = simsql_cluster(10)
    points = service.whatif(wide_shared_dag(2, 2), cluster.with_workers,
                            (2, 5), max_states=100)
    assert [p.workers for p in points] == [2, 5]
    assert all(p.feasible for p in points)


# ----------------------------------------------------------------------
# Eviction accounting
# ----------------------------------------------------------------------
def test_eviction_counter_reaches_metrics():
    metrics = MetricsRegistry()
    service = PlannerService(
        OptimizerContext(formats=(single(), tiles(1000))),
        cache=PlanCache(capacity=2, eviction_sample=2),
        metrics=metrics)
    for layers in (1, 2, 3):
        service.optimize(wide_shared_dag(2, layers), max_states=100)
    assert metrics.counters["planner.cache.evictions"] >= 1
    assert service.cache.stats()["plans"] <= 2


@pytest.mark.parametrize("bad", [0, -1, -3, 2.5, True])
def test_bad_max_states_rejected_before_caching(bad):
    """Rejected with a ValueError naming the knob before the fingerprint,
    the rewrite or the search runs: nothing is counted or cached."""
    service = PlannerService(metrics=MetricsRegistry())
    with pytest.raises(ValueError, match="max_states"):
        service.optimize(wide_shared_dag(2, 2), max_states=bad)
    with pytest.raises(ValueError, match="max_states"):
        service.optimize_batch([wide_shared_dag(2, 2)], max_states=bad)
    assert len(service.cache) == 0
    assert service.stats()["requests"] == 0
    assert service.stats()["batch"]["requests"] == 0
    assert "planner.requests" not in service.metrics.counters


def test_unknown_frontier_rejected_before_caching():
    service = PlannerService()
    for bad in ("bogus", "object"):
        with pytest.raises(ValueError, match="unknown frontier"):
            service.optimize(wide_shared_dag(2, 2), frontier=bad)
    assert len(service.cache) == 0

