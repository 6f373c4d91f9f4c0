"""Differential tests: e-graph engine vs pipeline vs no rewrites.

Three properties over the full set of workload families:

1. **Numerically identical** — at executable scale, the plan optimized with
   ``rewrites="egraph"`` computes the same outputs (``np.allclose``) as the
   plan optimized with rewrites off.
2. **Never costlier than the pipeline** — at paper scale, the egraph
   engine's plan cost is at most the ordered pipeline's on every family
   (the triple-candidate fallback makes this a hard guarantee).
3. **Hash-seed independent** — saturation order and extraction produce
   bit-identical structures and reports under different ``PYTHONHASHSEED``
   values (verified in fresh subprocesses).

A ``perf``-marked gate additionally pins saturation wall clock to the
default time budget on every family (the egraph CI job runs it under both
hash seeds).
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from repro.core import OptimizerContext
from repro.core.egraph import DEFAULT_BUDGET, saturate_graph
from repro.core.formats import col_strips, row_strips, single, tiles
from repro.core.optimizer import optimize
from repro.engine.executor import execute_plan
from repro.lang import build, input_matrix
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
    make_inverse_inputs,
    mm_chain_graph,
    motivating_graph,
    power_iteration,
    ridge_gradient_descent,
    tree_graph,
    two_level_inverse_graph,
    wide_shared_dag,
)
from repro.workloads import chains

RNG_SEED = 20260807

#: Reduced catalog keeps the paper-scale cost sweep fast (mirrors
#: tests/core/test_pruning_invariants.py).
CATALOG = (single(), tiles(1000), row_strips(1000), col_strips(1000))

#: Paper-scale graphs for the cost comparison (mirror of the family dict in
#: tests/core/test_pruning_invariants.py; tests are not a package, so the
#: dict cannot be imported across directories).
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

_SMALL_FFNN = FFNNConfig(batch=30, features=40, hidden=20, labels=5)
_SMALL_CHAIN_SIZES = {"A": (10, 30), "B": (30, 50), "C": (50, 1),
                      "D": (1, 50), "E": (50, 10), "F": (50, 10)}


def _small_chain():
    with patch.dict(chains.SIZE_SETS, {1: _SMALL_CHAIN_SIZES}):
        return mm_chain_graph(1)


def _small_scaling(builder, *args):
    with patch.object(chains, "SCALING_DIM", 12):
        return builder(*args)


def _small_motivating():
    """The Section 2.1 chain shape at executable scale, formats kept."""
    mat_a = input_matrix("matA", 20, 100, fmt=row_strips(10))
    mat_b = input_matrix("matB", 100, 20, fmt=col_strips(10))
    mat_c = input_matrix("matC", 20, 50, fmt=col_strips(10))
    return build((mat_a @ mat_b) @ mat_c)


#: The same 14 families at a scale where real execution takes milliseconds.
SMALL_WORKLOADS = {
    "ffnn_forward": lambda: ffnn_forward(_SMALL_FFNN),
    "ffnn_backprop": lambda: ffnn_backprop_to_w2(_SMALL_FFNN),
    "attention": lambda: attention_graph(
        AttentionConfig(seq_len=24, model_dim=16, head_dim=8)),
    "inverse": lambda: two_level_inverse_graph(40, 12),
    "motivating": _small_motivating,
    "mm_chain_set1": _small_chain,
    "dag1_scale2": lambda: _small_scaling(dag1_graph, 2),
    "dag2_scale2": lambda: _small_scaling(dag2_graph, 2),
    "tree_scale2": lambda: _small_scaling(tree_graph, 2),
    "wide_shared": lambda: wide_shared_dag(3, 3, dim=12),
    "ml_linear_regression": lambda: linear_regression(40, 10).graph,
    "ml_logistic_regression":
        lambda: logistic_regression_step(40, 10).graph,
    "ml_ridge_gd": lambda: ridge_gradient_descent(40, 10).graph,
    "ml_power_iteration": lambda: power_iteration(30).graph,
}

assert set(SMALL_WORKLOADS) == set(WORKLOADS)


def _inputs_for(name, graph):
    if name == "inverse":
        return make_inverse_inputs(40, 12, seed=RNG_SEED % 1000)
    rng = np.random.default_rng(RNG_SEED)
    return {s.name: rng.standard_normal((s.mtype.rows, s.mtype.cols))
            for s in graph.sources}


# ----------------------------------------------------------------------
# 1. Numerical equivalence at executable scale
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
def test_egraph_plans_numerically_identical(name):
    graph = SMALL_WORKLOADS[name]()
    ctx = OptimizerContext()
    inputs = _inputs_for(name, graph)
    off = execute_plan(optimize(graph, ctx, rewrites="off",
                                max_states=500), inputs, ctx)
    on = execute_plan(optimize(graph, ctx, rewrites="egraph",
                               max_states=500), inputs, ctx)
    assert off.ok and on.ok
    assert set(on.outputs) == set(off.outputs)
    for out_name, ref in off.outputs.items():
        np.testing.assert_allclose(
            on.outputs[out_name], ref, rtol=1e-6, atol=1e-8,
            err_msg=f"{name}: output {out_name!r} diverged under the "
                    "egraph engine")


# ----------------------------------------------------------------------
# 2. Cost: never above the pipeline at paper scale
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_egraph_never_costlier_than_pipeline(name):
    graph = WORKLOADS[name]()
    ctx = OptimizerContext(formats=CATALOG)
    pipe = optimize(graph, ctx, rewrites="pipeline", max_states=500)
    eg = optimize(graph, ctx, rewrites="egraph", max_states=500)
    assert eg.total_seconds <= pipe.total_seconds * (1 + 1e-9), \
        f"{name}: egraph plan costlier than pipeline plan"


def test_egraph_strictly_cheaper_on_factoring_workload():
    """The phase-ordering-sensitive case: A@B + A@C.  Saturation factors
    the two products into one matmul; no ordered pass sequence can."""
    a = input_matrix("A", 2000, 2000)
    b = input_matrix("B", 2000, 2000)
    c = input_matrix("C", 2000, 2000)
    graph = build(a @ b + a @ c, cse=False)
    ctx = OptimizerContext(formats=CATALOG)
    pipe = optimize(graph, ctx, rewrites="pipeline", max_states=500)
    eg = optimize(graph, ctx, rewrites="egraph", max_states=500)
    assert eg.total_seconds < pipe.total_seconds * 0.99


# ----------------------------------------------------------------------
# 3. Hash-seed independence (fresh subprocesses)
# ----------------------------------------------------------------------
_PROBE = r"""
import json
from repro.core import OptimizerContext
from repro.core.egraph import saturate_graph
from repro.core.fingerprint import graph_signature
from repro.lang import build, input_matrix
from repro.workloads import AttentionConfig, attention_graph, \
    linear_regression

a = input_matrix("A", 2000, 2000)
b = input_matrix("B", 2000, 2000)
c = input_matrix("C", 2000, 2000)
cases = [("factor", build(a @ b + a @ c, cse=False)),
         ("attention", attention_graph(AttentionConfig())),
         ("linreg", linear_regression(4000, 500).graph)]
ctx = OptimizerContext()
out = {}
for name, graph in cases:
    extracted, report = saturate_graph(graph, ctx)
    payload = report.to_dict()
    payload["seconds"] = 0.0  # wall clock legitimately varies
    out[name] = [graph_signature(extracted),
                 [v.name for v in extracted.vertices], payload]
print(json.dumps(out, sort_keys=True))
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


def test_saturation_independent_of_hashseed():
    """Identical extracted structures, vertex names and saturation reports
    under PYTHONHASHSEED=0 and =1: the worklists iterate insertion-ordered
    dicts and sorted integer ids, never hash()-ordered sets."""
    assert _run_probe("0") == _run_probe("1")


# ----------------------------------------------------------------------
# Perf gate: saturation stays inside the default time budget
# ----------------------------------------------------------------------
@pytest.mark.perf
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_saturation_within_time_budget(name):
    """Budget checks run between rules, so a single rule application may
    overshoot slightly; the gate allows 2x the budget plus extraction."""
    graph = WORKLOADS[name]()
    ctx = OptimizerContext(formats=CATALOG)
    _extracted, report = saturate_graph(graph, ctx)
    assert report.seconds <= DEFAULT_BUDGET.max_seconds * 2, \
        f"{name}: saturation+extraction took {report.seconds:.2f}s"
