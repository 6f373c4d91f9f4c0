"""The lower bound that skips never-worse fallback searches.

``physical_plan`` skips the search of a fallback candidate (the
pipeline-rewritten or the unrewritten graph) when
:func:`repro.core.rewrites.plan_cost_bound` — Σ ``op_cost`` over the
candidate's op vertices — already exceeds the cost of the plan in hand.
A fallback replaces that plan only when strictly cheaper, so the skip is
exact.  Checked here:

* the bound never exceeds the cost of any plan a search returns
  (Hypothesis DAGs under every engine, transforms charged or not);
* with the skip disabled by a monkeypatch (the tests-side oracle), every
  engine returns the same plan, report and profile counters on the e-graph
  ablation families and on the benchmark's cold-planning families at
  scales 0.98, 1 and 1.02;
* fig05 under ``egraph`` runs one search instead of three.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import simsql_cluster
from repro.core import OptimizerContext
from repro.core import optimizer
from repro.core.optimizer import BOUND_SLACK, optimize
from repro.core.rewrites import PlanPipeline, op_cost, plan_cost_bound
from repro.experiments.egraph import BEAM, CATALOG, egraph_workloads
from repro.lang import build, input_matrix, relu
from repro.workloads import (
    SCALING_FAMILIES,
    SIZE_SETS,
    AttentionConfig,
    FFNNConfig,
    attention_graph,
    ffnn_full_step,
    linear_regression,
    logistic_regression_step,
    power_iteration,
    ridge_gradient_descent,
    two_level_inverse_graph,
    wide_shared_dag,
)

ENGINES = ("none", "pipeline", "egraph")


def _no_bound(monkeypatch):
    """The oracle: every structurally distinct fallback is searched."""
    monkeypatch.setattr(optimizer, "_cannot_win",
                        lambda candidate, ctx, incumbent: False)


def _searches(monkeypatch):
    """Record (graph, context, plan) of every physical search."""
    runs = []
    original = optimizer._optimize_physical

    def recording(graph, ctx, max_states, tracer=optimizer.NULL_TRACER):
        plan = original(graph, ctx, max_states, tracer)
        runs.append((graph, ctx, plan))
        return plan

    monkeypatch.setattr(optimizer, "_optimize_physical", recording)
    return runs


def _summary(plan) -> tuple:
    """Everything a skipped search could have changed, wall times aside."""
    ann = plan.annotation
    report = plan.pipeline
    profile = plan.profile
    return (
        repr(plan.total_seconds),
        [(v.name, v.op.name if v.op else None) for v in plan.graph.vertices],
        sorted((vid, impl.name) for vid, impl in ann.impls.items()),
        sorted(((e.src, e.dst, e.arg_pos), t.name, str(fmt))
               for e, (t, fmt) in ann.transforms.items()),
        None if report is None else (report.engine, report.adopted,
                                     report.fallback, report.total_rewrites),
        None if profile is None else (
            profile.algorithm, profile.states_explored,
            profile.states_pruned, profile.states_beamed,
            profile.peak_table_size, profile.max_class_size,
            profile.sweep_order),
    )


def _assert_bound_changes_nothing(monkeypatch, graph, make_ctx, max_states,
                                  engine):
    with_bound = optimize(graph, make_ctx(), max_states=max_states,
                          rewrites=engine)
    with monkeypatch.context() as patched:
        _no_bound(patched)
        without = optimize(graph, make_ctx(), max_states=max_states,
                           rewrites=engine)
    assert _summary(with_bound) == _summary(without)


# ----------------------------------------------------------------------
# Skipping changes nothing
# ----------------------------------------------------------------------
def _ablation_ctx():
    return OptimizerContext(cluster=simsql_cluster(10), formats=CATALOG)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(egraph_workloads()))
def test_ablation_families_plan_alike_without_the_bound(monkeypatch, name,
                                                        engine):
    _assert_bound_changes_nothing(monkeypatch, egraph_workloads()[name],
                                  _ablation_ctx, BEAM, engine)


def _scaled(base: int, scale: float) -> int:
    return base if base == 1 else int(round(base * scale))


def _chain(size_set: int, scale: float):
    dims = {name: (_scaled(r, scale), _scaled(c, scale))
            for name, (r, c) in SIZE_SETS[size_set].items()}
    a, b, c, d, e, f = (input_matrix(n, *dims[n]) for n in "ABCDEF")
    t1 = a @ b
    t2 = c @ d
    return build(((t1 @ e) @ (t1 @ t2)) @ (t2 @ f))


#: The cold-planning benchmark's families: name -> (engines, beam,
#: graph at a scale).  Dimensions scale like the benchmark's requests.
COLD_FAMILIES = {
    "fig05": (ENGINES, 25, lambda s: ffnn_full_step(FFNNConfig(
        batch=_scaled(10_000, s), features=_scaled(60_000, s),
        hidden=_scaled(80_000, s)))),
    "fig09": (("none", "pipeline"), 25, lambda s: two_level_inverse_graph(
        _scaled(10_000, s), _scaled(10_000, s) // 5)),
    "fig10_set1": (ENGINES, None, lambda s: _chain(1, s)),
    "fig10_set2": (ENGINES, None, lambda s: _chain(2, s)),
    "fig10_set3": (ENGINES, None, lambda s: _chain(3, s)),
    "wide2": (ENGINES, None,
              lambda s: wide_shared_dag(2, 5, dim=_scaled(20_000, s))),
    "wide3": (("none",), None,
              lambda s: wide_shared_dag(3, 5, dim=_scaled(20_000, s))),
    "tree": (ENGINES, None, lambda s: SCALING_FAMILIES["tree"](1)),
    "dag1": (ENGINES, None, lambda s: SCALING_FAMILIES["dag1"](1)),
    "dag2": (ENGINES, None, lambda s: SCALING_FAMILIES["dag2"](1)),
    "dag2_scale2": (("egraph",), None, lambda s: SCALING_FAMILIES["dag2"](2)),
    "linreg": (ENGINES, None, lambda s: linear_regression(
        _scaled(100_000, s), _scaled(1000, s)).graph),
    "logreg": (ENGINES, None, lambda s: logistic_regression_step(
        _scaled(100_000, s), _scaled(1000, s)).graph),
    "power": (ENGINES, None,
              lambda s: power_iteration(_scaled(20_000, s)).graph),
    "ridge": (("none", "pipeline"), None, lambda s: ridge_gradient_descent(
        _scaled(100_000, s), _scaled(1000, s)).graph),
    "attention": (ENGINES, None, lambda s: attention_graph(AttentionConfig(
        seq_len=_scaled(16_384, s), model_dim=_scaled(1024, s)))),
}


@pytest.mark.parametrize("scale", (0.98, 1.0, 1.02))
@pytest.mark.parametrize("name", sorted(COLD_FAMILIES))
def test_cold_families_plan_alike_without_the_bound(monkeypatch, name, scale):
    engines, beam, make = COLD_FAMILIES[name]
    graph = make(scale)
    for engine in engines:
        _assert_bound_changes_nothing(
            monkeypatch, graph,
            lambda: OptimizerContext(cluster=simsql_cluster(10)), beam,
            engine)


# ----------------------------------------------------------------------
# The bound is admissible
# ----------------------------------------------------------------------
@st.composite
def _rewritable_dags(draw):
    """A random DAG of matmul, add, sub, transpose, scalar multiples and
    relu over a few matrices whose shapes often chain, so the rewrite
    engines find work; every expression no other one consumes is an
    output."""
    dims = (500, 2000, 8000)
    pool = [input_matrix(f"M{i}", draw(st.sampled_from(dims)),
                         draw(st.sampled_from(dims)))
            for i in range(draw(st.integers(2, 4)))]
    for _ in range(draw(st.integers(2, 10))):
        op = draw(st.sampled_from(
            ("matmul", "add", "sub", "transpose", "scalar", "relu")))
        lhs = pool[draw(st.integers(0, len(pool) - 1))]
        if op == "transpose":
            pool.append(lhs.T)
        elif op == "scalar":
            pool.append(lhs * draw(st.sampled_from((0.5, 2.0))))
        elif op == "relu":
            pool.append(relu(lhs))
        else:
            fits = (lambda e: e.shape[0] == lhs.shape[1]) \
                if op == "matmul" else (lambda e: e.shape == lhs.shape)
            mates = [e for e in pool if fits(e)]
            if not mates:
                continue
            rhs = mates[draw(st.integers(0, len(mates) - 1))]
            pool.append(lhs @ rhs if op == "matmul"
                        else lhs + rhs if op == "add" else lhs - rhs)
    used = {a.uid for e in pool if not e.is_input for a in e.args}
    sinks = [e for e in pool if not e.is_input and e.uid not in used]
    return build(sinks or pool[-1], cse=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(graph=_rewritable_dags(), engine=st.sampled_from(ENGINES[1:]),
       charge=st.booleans())
def test_bound_never_exceeds_a_searched_plan(graph, engine, charge):
    with pytest.MonkeyPatch.context() as patched:
        _no_bound(patched)
        runs = _searches(patched)
        optimize(graph, OptimizerContext(formats=CATALOG,
                                         charge_transforms=charge),
                 rewrites=engine)
    assert runs
    for searched, ctx, plan in runs:
        bound = plan_cost_bound(ctx, searched)
        assert bound <= plan.total_seconds, (bound, plan.total_seconds)


def test_bound_sums_op_costs_below_the_vertex_charges():
    """Each op vertex's ``op_cost`` is at most what the plan charges that
    vertex, and the bound is their sum."""
    graph = egraph_workloads()["mm_chain_set1"]
    ctx = _ablation_ctx()
    plan = optimize(graph, ctx, max_states=BEAM)
    own = {}
    for v in graph.inner_vertices:
        in_types = tuple(graph.vertex(p).mtype for p in v.inputs)
        own[v.vid] = op_cost(ctx, v.op, in_types)
        assert own[v.vid] <= plan.cost.vertex_seconds[v.vid]
    assert plan_cost_bound(ctx, graph) == sum(own.values())
    assert 0.0 < plan_cost_bound(ctx, graph) <= plan.total_seconds


# ----------------------------------------------------------------------
# Searches skipped
# ----------------------------------------------------------------------
def _fig05():
    return ffnn_full_step(FFNNConfig(batch=10_000, features=60_000,
                                     hidden=80_000))


def test_fig05_egraph_runs_one_search(monkeypatch):
    graph = _fig05()
    runs = _searches(monkeypatch)
    plan = optimize(graph, OptimizerContext(cluster=simsql_cluster(10)),
                    max_states=25, rewrites="egraph")
    assert len(runs) == 1
    assert plan.pipeline.adopted and plan.pipeline.fallback is None
    # The bounds of both skipped candidates, the pipeline-rewritten and
    # the unrewritten graph, lie above the e-graph plan's cost.
    ctx = runs[0][1]
    pipe_graph, _ = PlanPipeline.from_spec("all").run(graph, ctx)
    for skipped in (pipe_graph, graph):
        assert plan_cost_bound(ctx, skipped) > \
            plan.total_seconds * (1.0 + BOUND_SLACK)


def test_fig05_egraph_runs_three_searches_without_the_bound(monkeypatch):
    _no_bound(monkeypatch)
    runs = _searches(monkeypatch)
    optimize(_fig05(), OptimizerContext(cluster=simsql_cluster(10)),
             max_states=25, rewrites="egraph")
    assert len(runs) == 3


def test_tied_or_cheaper_candidates_still_searched():
    """The skip needs the bound *above* the incumbent by more than the
    rounding slack: a candidate whose bound ties the incumbent is still
    searched."""
    graph = _fig05()
    ctx = OptimizerContext(cluster=simsql_cluster(10))
    bound = plan_cost_bound(ctx, graph)
    assert not optimizer._cannot_win(graph, ctx, bound)
    assert not optimizer._cannot_win(graph, ctx,
                                     bound / (1.0 + BOUND_SLACK / 2))
    assert optimizer._cannot_win(graph, ctx, bound / (1.0 + 2 * BOUND_SLACK))
    assert not optimizer._cannot_win(graph, ctx, math.inf)
