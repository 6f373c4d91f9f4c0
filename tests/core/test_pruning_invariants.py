"""Pruning invariants across every workload family.

The dominance prune is advertised as *lossless*: on any input it must
return exactly the same plan — total cost and per-vertex stored formats —
as the unpruned exact search, differing only in search effort.  These tests
pin that claim on every workload family shipped in ``src/repro/workloads``
(FFNN, attention, block inverse, chains/scaling DAGs, ML algorithms),
using a reduced format catalog so the unpruned joint tables stay tractable.
"""

import math

import pytest

from repro.core import OptimizerContext
from repro.core.formats import col_strips, row_strips, single, tiles
from repro.core.frontier import optimize_dag
from repro.obs.tracer import Tracer
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

#: Reduced catalog: keeps the *unpruned* exact search tractable on the
#: 45-vertex inverse graph while still exercising format choice.
CATALOG = (single(), tiles(1000), row_strips(1000), col_strips(1000))

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


def _ctx() -> OptimizerContext:
    return OptimizerContext(formats=CATALOG)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_prune_is_lossless_on_workload(name):
    """Same total cost AND same per-vertex formats, pruned vs unpruned."""
    graph = WORKLOADS[name]()
    pruned = optimize_dag(graph, _ctx(), prune=True)
    plain = optimize_dag(graph, _ctx(), prune=False)

    assert math.isclose(pruned.total_seconds, plain.total_seconds,
                        rel_tol=1e-9), f"{name}: pruned cost differs"
    assert pruned.cost.vertex_formats == plain.cost.vertex_formats, \
        f"{name}: pruned plan chose different per-vertex formats"

    # When nothing was pruned the searches must have been identical —
    # same table growth, same states examined.
    p_prof, u_prof = pruned.profile, plain.profile
    if p_prof.states_pruned == 0:
        assert p_prof.peak_table_size == u_prof.peak_table_size
        assert p_prof.states_explored == u_prof.states_explored


def test_profile_attached_and_consistent():
    """Plans carry an OptimizerProfile whose counters match the ones the
    sweep span reports."""
    graph = attention_graph(AttentionConfig())
    tracer = Tracer()
    plan = optimize_dag(graph, _ctx(), prune=True, tracer=tracer)
    sweep = next(s for s in tracer.spans() if s.name == "sweep").attrs
    prof = plan.profile
    assert prof is not None and prof.algorithm == "frontier"
    assert prof.states_explored == sweep["states_examined"]
    assert prof.states_pruned == sweep["states_pruned"]
    assert prof.peak_table_size == sweep["max_table_size"]
    assert len(prof.sweep_order) == sweep["steps"]
    assert set(prof.sweep_order) == \
        {v.vid for v in graph.inner_vertices}
    assert "project" in prof.phase_seconds
    assert prof.describe()  # renders without error
