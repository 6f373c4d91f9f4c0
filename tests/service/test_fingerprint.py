"""Canonical-fingerprint properties: stability, sensitivity, no collisions.

The plan cache is only safe if the fingerprint is (a) *stable* — identical
across processes and ``PYTHONHASHSEED`` values for identical requests, and
with parameters (names, dimensions) kept out of the structural key — and
(b) *sensitive* — any input the optimizer's answer depends on (graph
structure, cluster, catalogs, knobs, substrate version) changes the key.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, simsql_cluster
from repro.core import ComputeGraph, OptimizerContext, matrix
from repro.core.atoms import MATMUL, RELU
from repro.core.fingerprint import (
    catalog_signature,
    graph_signature,
    request_fingerprint,
)
from repro.core.formats import col_strips, row_strips, single, tiles
from repro.core.optimizer import context_for_graph, rewrite_stage
from repro.lang import build, input_matrix, relu
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


def _fp(graph, ctx=None, **knobs):
    """Fingerprint a request exactly the way PlannerService does: on the
    submitted graph, before any rewrite runs."""
    ctx = context_for_graph(graph, ctx or OptimizerContext())
    return request_fingerprint(graph, graph, ctx, **knobs)


def _relu_mm(name_x="X", name_w="W", rows=1000, inner=2000, cols=400):
    # Explicit load formats: the default is size-dependent, and source
    # formats are (correctly) structural.
    x = input_matrix(name_x, rows, inner, fmt=single())
    w = input_matrix(name_w, inner, cols, fmt=single())
    return build(relu(x @ w))


def _labelled_relu_mm(x="X", w="W", mm="XW", out="Y"):
    """``out = relu(x @ w)`` with every vertex name chosen by the caller."""
    g = ComputeGraph()
    vx = g.add_source(x, matrix(1000, 2000), single())
    vw = g.add_source(w, matrix(2000, 400), single())
    vmm = g.add_op(mm, MATMUL, (vx, vw))
    g.mark_output(g.add_op(out, RELU, (vmm,)))
    return g


# ----------------------------------------------------------------------
# Stability
# ----------------------------------------------------------------------
_PROBE = r"""
import json
from repro.core import OptimizerContext
from repro.core.fingerprint import request_fingerprint
from repro.core.optimizer import context_for_graph, rewrite_stage
from repro.workloads import FFNNConfig, ffnn_backprop_to_w2, wide_shared_dag

out = {}
for name, graph in [("ffnn", ffnn_backprop_to_w2(FFNNConfig(hidden=8000))),
                    ("wide", wide_shared_dag(3, 3))]:
    ctx = context_for_graph(graph, OptimizerContext())
    rewritten, _ = rewrite_stage(graph, ctx, "all")
    fp = request_fingerprint(graph, rewritten, ctx, rewrites="all",
                             max_states=500)
    out[name] = [fp.structural, fp.params]
print(json.dumps(out))
"""


def _run_probe(hashseed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, check=True, timeout=300)
    return json.loads(out.stdout)


def test_fingerprint_independent_of_hashseed():
    """Identical keys under PYTHONHASHSEED=0 and =1: the digest is built
    from canonical JSON, never from Python hash()."""
    assert _run_probe("0") == _run_probe("1")


def test_fingerprint_stable_within_process():
    g = WORKLOADS["attention"]()
    assert _fp(g).key == _fp(g).key
    assert _fp(g, rewrites="all").key == _fp(g, rewrites="all").key


# ----------------------------------------------------------------------
# Parameter slots
# ----------------------------------------------------------------------
def test_dimensions_are_parameters_not_structure():
    small = _relu_mm(rows=1000, inner=2000, cols=400)
    large = _relu_mm(rows=9000, inner=7000, cols=123)
    a, b = _fp(small), _fp(large)
    assert a.structural == b.structural
    assert a.params != b.params


def test_names_are_parameters_not_structure():
    """The executor binds inputs and outputs by name, so renamed graphs
    must share a structural key while keeping distinct parameter
    bindings.  Intermediate labels bind nothing: renaming only them keeps
    the whole key."""
    a = _fp(_relu_mm("X", "W"))
    b = _fp(_relu_mm("Y", "V"))
    assert a.structural == b.structural
    assert a.params != b.params
    assert a.key != b.key

    base = _fp(_labelled_relu_mm())
    assert _fp(_labelled_relu_mm(mm="matmul_99")).key == base.key
    for bound in ({"x": "X2"}, {"w": "W2"}, {"out": "Y2"}):
        renamed = _fp(_labelled_relu_mm(**bound))
        assert renamed.structural == base.structural, bound
        assert renamed.params != base.params, bound


def test_sparsity_is_a_parameter():
    dense = build(relu(input_matrix("X", 500, 500)
                       @ input_matrix("W", 500, 500)))
    sparse = build(relu(input_matrix("X", 500, 500, sparsity=0.01)
                        @ input_matrix("W", 500, 500)))
    a, b = _fp(dense), _fp(sparse)
    assert a.structural == b.structural
    assert a.params != b.params


def test_scaling_family_shares_structure():
    """Same FFNN topology at different hidden sizes → one structural key."""
    a = _fp(ffnn_backprop_to_w2(FFNNConfig(hidden=8000)))
    b = _fp(ffnn_backprop_to_w2(FFNNConfig(hidden=160_000)))
    assert a.structural == b.structural
    assert a.params != b.params


# ----------------------------------------------------------------------
# Sensitivity
# ----------------------------------------------------------------------
def test_structure_changes_key():
    keys = {_fp(WORKLOADS[name]()).structural for name in WORKLOADS}
    assert len(keys) == len(WORKLOADS)


def test_cluster_changes_key():
    g = _relu_mm()
    a = _fp(g, OptimizerContext(cluster=simsql_cluster(5)))
    b = _fp(g, OptimizerContext(cluster=simsql_cluster(10)))
    assert a.structural != b.structural


def test_source_format_is_structural():
    """Load formats feed the search catalog, so they key the structure."""
    strips = build(relu(input_matrix("X", 1000, 1000, fmt=row_strips(10))
                        @ input_matrix("W", 1000, 400)))
    plain = build(relu(input_matrix("X", 1000, 1000)
                       @ input_matrix("W", 1000, 400)))
    assert _fp(strips).structural != _fp(plain).structural


@pytest.mark.parametrize("knobs", [
    {"max_states": 100},
    {"max_states": 1},
    {"rewrites": "all"},
    {"rewrites": "egraph"},
    {"rewrites": ("cse",)},
    {"max_states": 100, "rewrites": "all"},
    {"max_states": 100, "rewrites": "egraph"},
])
def test_search_knobs_change_key(knobs):
    g = wide_shared_dag(3, 3)
    assert _fp(g, **knobs).structural != _fp(g).structural


def test_key_holds_only_the_answer_changing_knobs(monkeypatch):
    """The knob payload is exactly ``max_states`` and ``rewrites``; the
    ``frontier`` compatibility keyword accepts only ``"array"`` and never
    enters the key."""
    from repro.core import fingerprint as fpmod

    payloads = []
    real = fpmod._digest

    def recording(payload):
        payloads.append(payload)
        return real(payload)

    monkeypatch.setattr(fpmod, "_digest", recording)
    g = wide_shared_dag(3, 3)
    assert _fp(g, frontier="array").key == _fp(g).key
    assert set(payloads[-1]["knobs"]) == {"max_states", "rewrites"}
    with pytest.raises(ValueError, match="unknown frontier"):
        _fp(g, frontier="object")


# ----------------------------------------------------------------------
# Rewrite-engine identity (satellite of the equality-saturation PR)
# ----------------------------------------------------------------------
def test_engine_choice_changes_key():
    """off / pipeline / egraph are three distinct planning requests: a
    cached plan from one engine must never be served for another."""
    g = WORKLOADS["attention"]()
    keys = {spec: _fp(g, rewrites=spec).structural
            for spec in ("off", "pipeline", "egraph")}
    assert len(set(keys.values())) == 3


def test_engine_aliases_share_keys():
    """Alias spellings resolve to the same canonical engine payload, so
    they share cache entries instead of fragmenting the cache."""
    g = WORKLOADS["attention"]()
    assert _fp(g, rewrites="all").key == _fp(g, rewrites="pipeline").key
    assert _fp(g, rewrites="none").key == _fp(g, rewrites="off").key


def test_ruleset_version_bump_changes_key(monkeypatch):
    """Bumping RULESET_VERSION must invalidate egraph (and pipeline) keys:
    a rule or budget change means saturation may answer differently."""
    from repro.core import fingerprint as fpmod

    g = _relu_mm()
    before = _fp(g, rewrites="egraph")
    monkeypatch.setattr(fpmod, "RULESET_VERSION", fpmod.RULESET_VERSION + 1)
    after = _fp(g, rewrites="egraph")
    assert before.structural != after.structural
    assert before.params == after.params


def test_catalog_contents_change_key():
    g = _relu_mm()
    full = _fp(g)
    reduced = _fp(g, OptimizerContext(
        formats=(single(), tiles(1000), row_strips(1000),
                 col_strips(1000))))
    assert full.structural != reduced.structural


def test_weights_change_key():
    import dataclasses

    g = _relu_mm()
    ctx = OptimizerContext()
    tweaked = dataclasses.replace(
        ctx, weights=dataclasses.replace(ctx.weights, flops=99.0))
    assert _fp(g, ctx).structural != _fp(g, tweaked).structural


def test_catalog_version_bump_changes_key(monkeypatch):
    """Bumping CATALOG_VERSION must invalidate every structural key."""
    from repro.core import fingerprint as fpmod

    g = _relu_mm()
    before = _fp(g)
    monkeypatch.setattr(fpmod, "CATALOG_VERSION", fpmod.CATALOG_VERSION + 1)
    after = _fp(g)
    assert before.structural != after.structural
    assert before.params == after.params


def test_rewritten_and_original_structure_both_keyed():
    """When the pipeline changes the graph, the *original* topology is part
    of the key too: the never-worse fallback can answer with a plan for it."""
    g = mm_chain_graph(1)
    ctx = context_for_graph(g, OptimizerContext())
    rewritten, _ = rewrite_stage(g, ctx, "all")
    as_if_unchanged = request_fingerprint(rewritten, rewritten, ctx,
                                          rewrites="all")
    actual = request_fingerprint(g, rewritten, ctx, rewrites="all")
    if graph_signature(g)[0] != graph_signature(rewritten)[0]:
        assert actual.structural != as_if_unchanged.structural


# ----------------------------------------------------------------------
# Collision property across families and knob grids
# ----------------------------------------------------------------------
def test_no_collisions_across_families_and_knobs():
    """Every distinct request in a (family x knobs x cluster) grid gets a
    distinct full key; repeated construction reproduces it exactly."""
    seen = {}
    for name, make in WORKLOADS.items():
        g = make()
        for knobs in ({}, {"rewrites": "all"}, {"max_states": 200}):
            for workers in (5, 10):
                ctx = OptimizerContext(cluster=simsql_cluster(workers))
                fp = _fp(g, ctx, **knobs)
                label = (name, tuple(sorted(knobs.items())), workers)
                assert fp.key not in seen, \
                    f"collision: {label} vs {seen[fp.key]}"
                seen[fp.key] = label
    assert len(seen) == len(WORKLOADS) * 3 * 2


def test_catalog_signature_is_json_stable():
    ctx = OptimizerContext()
    sig = catalog_signature(ctx)
    assert json.dumps(sig, sort_keys=True) == \
        json.dumps(catalog_signature(ctx), sort_keys=True)
    assert sig["version"] >= 1


def test_graph_signature_splits_structure_from_params():
    g = _relu_mm()
    structure, params = graph_signature(g)
    text = json.dumps(structure)
    assert "X" not in text and "1000" not in text.replace("10000", "")
    assert any("X" in json.dumps(p) for p in params)


def test_cluster_override_changes_key_for_shared_structure():
    """Two tenants with different clusters never share a cache key even
    for identical scripts (the multi-tenant safety property)."""
    g = _relu_mm()
    a = _fp(g, OptimizerContext(cluster=ClusterConfig(num_workers=4)))
    b = _fp(g, OptimizerContext(cluster=ClusterConfig(num_workers=40)))
    assert a.key != b.key
