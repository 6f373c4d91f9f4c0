"""Differential test harness: the frontier algorithm vs its oracles.

Generates seeded random DAGs — parameterized by vertex count, fan-in and
sharing density — and checks that :func:`optimize_dag` agrees with
brute-force enumeration on every one of them, with the dominance prune both
on and off, with the linear-time tree DP on tree-shaped graphs, and bit for
bit with the per-state oracle of ``frontier_oracle.py``.  This is the
harness the optimizer-perf CI job runs; the perf-marked checks at the
bottom keep the pruned search inside an absolute time budget on the
worst-case shared-ancestor topology, and at least 2x the oracle's speed
there.
"""

import math
import random
import time

import numpy as np
import pytest

from repro.cluster import simsql_cluster
from repro.core import ComputeGraph, OptimizerContext, frontier, matrix
from repro.core.atoms import (
    ADD,
    ELEM_MUL,
    MATMUL,
    RELU,
    SUB,
    TRANSPOSE,
)
from repro.core.brute import optimize_brute
from repro.core.formats import col_strips, row_strips, single, tiles
from repro.core.frontier import optimize_dag
from repro.core.tree_dp import optimize_tree
from repro.workloads import (
    AttentionConfig,
    FFNNConfig,
    attention_graph,
    dag1_graph,
    dag2_graph,
    ffnn_backprop_to_w2,
    ffnn_forward,
    ffnn_full_step,
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

from frontier_oracle import (_DominanceOracle, assert_same_plan_and_counters,
                             optimize_dag_object)

#: Three formats keep the brute-force oracle fast enough to run hundreds of
#: differential cases while still exercising transformation choices.
ORACLE_FORMATS = (single(), tiles(1000), row_strips(1000))

OPS = (MATMUL, ADD, SUB, ELEM_MUL, RELU, TRANSPOSE)


def oracle_ctx() -> OptimizerContext:
    return OptimizerContext(formats=ORACLE_FORMATS)


def random_dag(seed: int, inner: int = 3, max_fanin: int = 2,
               sharing: float = 0.5, tree_only: bool = False) -> ComputeGraph:
    """A seeded random well-typed compute DAG over square matrices.

    ``inner`` bounds the inner-vertex count, ``max_fanin`` restricts which
    operators are eligible (arity <= max_fanin), and ``sharing`` is the
    probability that an argument reuses a vertex that already has a
    consumer — higher values produce more shared ancestors and therefore
    larger frontier equivalence classes.  ``tree_only`` grows a tree by
    consuming each vertex at most once.
    """
    rng = random.Random(seed)
    g = ComputeGraph()
    n = rng.choice([2000, 3000])
    pool = [g.add_source(f"S{i}", matrix(n, n),
                         rng.choice([single(), tiles(1000)]))
            for i in range(rng.randint(2, 3))]
    consumed: set[int] = set()
    ops = [op for op in OPS if op.arity <= max_fanin]
    for i in range(inner):
        op = rng.choice(ops)
        if tree_only:
            free = [v for v in pool if v not in consumed]
            if len(free) < op.arity:
                op, free = RELU, (free or pool[-1:])
            picks = rng.sample(free, op.arity)
            consumed.update(picks)
        else:
            picks = []
            for _ in range(op.arity):
                shared = [v for v in pool if v in consumed]
                if shared and rng.random() < sharing:
                    picks.append(rng.choice(shared))
                else:
                    picks.append(rng.choice(pool))
            consumed.update(picks)
        pool.append(g.add_op(f"v{i}", op, tuple(picks)))
    return g


#: 200 differential cases: (seed batch, |V_inner|, max fan-in, sharing).
DAG_CASES = [(batch, inner, fanin, sharing)
             for inner, fanin, sharing in [(2, 2, 0.3), (3, 2, 0.5),
                                           (3, 2, 0.9), (4, 2, 0.7),
                                           (4, 1, 0.0)]
             for batch in range(8)]


class TestAgainstBrute:
    """optimize_dag == optimize_brute on total cost, prune on and off."""

    @pytest.mark.parametrize("batch,inner,fanin,sharing", DAG_CASES)
    def test_matches_brute(self, batch, inner, fanin, sharing):
        for sub in range(5):  # 40 parameter sets x 5 seeds = 200 graphs
            seed = batch * 1000 + sub + inner * 37 + int(sharing * 100)
            g = random_dag(seed, inner=inner, max_fanin=fanin,
                           sharing=sharing)
            brute = optimize_brute(g, oracle_ctx(), timeout_seconds=120)
            for prune in (True, False):
                plan = optimize_dag(g, oracle_ctx(), prune=prune)
                assert math.isclose(plan.total_seconds, brute.total_seconds,
                                    rel_tol=1e-9), \
                    f"seed={seed} prune={prune} disagrees with brute force"


class TestAgainstTreeDP:
    """optimize_dag == optimize_tree on tree-shaped graphs."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_tree_dp(self, seed):
        g = random_dag(seed + 300, inner=4, tree_only=True)
        if not g.is_tree_shaped():
            pytest.skip("random graph not a tree")
        tree = optimize_tree(g, oracle_ctx())
        for prune in (True, False):
            plan = optimize_dag(g, oracle_ctx(), prune=prune)
            assert math.isclose(plan.total_seconds, tree.total_seconds,
                                rel_tol=1e-9)


class TestPruneIsLossless:
    """The dominance prune never changes the plan, only the search effort."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_cost_and_formats(self, seed):
        g = random_dag(seed + 600, inner=5, sharing=0.8)
        pruned = optimize_dag(g, oracle_ctx(), prune=True)
        plain = optimize_dag(g, oracle_ctx(), prune=False)
        assert math.isclose(pruned.total_seconds, plain.total_seconds,
                            rel_tol=1e-9)
        assert pruned.cost.vertex_formats == plain.cost.vertex_formats

    def test_no_prunes_implies_same_table_sizes(self):
        """states_pruned == 0 must mean the search was bit-identical."""
        for seed in range(40):
            g = random_dag(seed + 900, inner=3, sharing=0.4)
            pruned = optimize_dag(g, oracle_ctx(), prune=True).profile
            plain = optimize_dag(g, oracle_ctx(), prune=False).profile
            if pruned.states_pruned == 0:
                assert pruned.peak_table_size == plain.peak_table_size
                assert pruned.states_explored == plain.states_explored
                return  # found and verified an un-pruned run
        pytest.skip("every seed triggered at least one prune")


#: Reduced catalog that keeps the per-state oracle tractable on the
#: 45-vertex inverse graph (mirrors the pruning-invariant suite).
FAMILY_CATALOG = (single(), tiles(1000), row_strips(1000), col_strips(1000))

#: The 14 workload families shipped in ``src/repro/workloads``.
FAMILIES = {
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

#: The paper-figure golden workloads (the plan-cache experiment's trio).
GOLDENS = {
    "fig05_ffnn": lambda: ffnn_full_step(FFNNConfig(hidden=80_000)),
    "fig09_inverse": two_level_inverse_graph,
    "fig10_mm_chain": lambda: mm_chain_graph(1),
}


def _assert_array_matches_object(graph, ctx, **kwargs):
    """Run the array search and the per-state oracle; everything must be
    bit-identical: the plan (exact ``==`` on cost, no tolerance) and the
    search-effort counters of the attached profile."""
    a_plan = optimize_dag(graph, ctx, **kwargs)
    o_plan = optimize_dag_object(graph, ctx, **kwargs)
    assert_same_plan_and_counters(a_plan, o_plan)


#: ``wide_shared_dag`` on a four-format catalog: the width sweep of the
#: ``ext_optimizer_scaling`` ablation, and the catalog of the perf gate
#: below.
WIDE_CATALOG = (single(), tiles(1000), tiles(2000), row_strips(1000))


class TestArrayMatchesObject:
    """The array search vs the per-state object oracle: bit-identical
    plans and profile state counts, never merely close ones."""

    @pytest.mark.parametrize("batch,inner,fanin,sharing", DAG_CASES)
    def test_random_dags(self, batch, inner, fanin, sharing):
        for sub in range(5):  # the same 200 graphs the brute oracle sees
            seed = batch * 1000 + sub + inner * 37 + int(sharing * 100)
            g = random_dag(seed, inner=inner, max_fanin=fanin,
                           sharing=sharing)
            for prune in (True, False):
                _assert_array_matches_object(g, oracle_ctx(), prune=prune)

    @pytest.mark.parametrize("seed", range(10))
    def test_beamed_random_dags(self, seed):
        """The beam truncates tables mid-sweep: both implementations must
        keep (and count) exactly the same states."""
        g = random_dag(seed + 1200, inner=5, sharing=0.8)
        for max_states in (4, 16):
            _assert_array_matches_object(g, oracle_ctx(),
                                         max_states=max_states)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_workload_families(self, name):
        graph = FAMILIES[name]()
        ctx = OptimizerContext(formats=FAMILY_CATALOG)
        for prune in (True, False):
            _assert_array_matches_object(graph, ctx, prune=prune)

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_figure_goldens(self, name):
        graph = GOLDENS[name]()
        ctx = OptimizerContext(formats=FAMILY_CATALOG)
        for prune in (True, False):
            _assert_array_matches_object(graph, ctx, prune=prune)

    @pytest.mark.parametrize("width", [2, 3])
    def test_wide_shared_dags(self, width):
        """The ablation's widths 2 and 3, exact and pruned."""
        _assert_array_matches_object(
            wide_shared_dag(width, width),
            OptimizerContext(formats=WIDE_CATALOG), prune=True)


def full_catalog_ctx(charge_transforms: bool) -> OptimizerContext:
    """The benchmark's planning context: every catalog format, 10 SimSQL
    workers."""
    return OptimizerContext(cluster=simsql_cluster(10),
                            charge_transforms=charge_transforms)


#: Workloads small enough to run both frontiers at the full catalog.
FULL_CATALOG = {
    "tree_scale1": lambda: tree_graph(1),
    "dag1_scale1": lambda: dag1_graph(1),
    "dag2_scale1": lambda: dag2_graph(1),
    "mm_chain_set1": lambda: mm_chain_graph(1),
    "ml_linear_regression": lambda: linear_regression(100_000, 1000).graph,
    "ml_power_iteration": lambda: power_iteration(20_000).graph,
}


class TestFullCatalog:
    """Array vs object at the full format catalog, where slots carry many
    formats and the transform-cost and Δ-matrix memos see many pairs."""

    @pytest.mark.parametrize("charge", [True, False])
    @pytest.mark.parametrize("name", sorted(FULL_CATALOG))
    def test_array_matches_object(self, name, charge):
        graph = FULL_CATALOG[name]()
        ctx = full_catalog_ctx(charge)
        for prune in (True, False):
            _assert_array_matches_object(graph, ctx, prune=prune)


#: (graph, beam) per workload whose pruned full-catalog sweep builds
#: Δ-matrices; the inverse's sparse formats give cells of ``inf``.
DELTA_WORKLOADS = {
    "dag1_scale1": (lambda: dag1_graph(1), None),
    "mm_chain_set2": (lambda: mm_chain_graph(2), None),
    "ml_ridge_gd": (lambda: ridge_gradient_descent(100_000, 1000).graph,
                    None),
    "wide_shared": (lambda: wide_shared_dag(2, 5, dim=20_000), None),
    "ffnn_backprop": (
        lambda: ffnn_backprop_to_w2(FFNNConfig(hidden=40_000)), 100),
    "inverse": (two_level_inverse_graph, 100),
}


class TestDeltaMatrices:
    """Every Δ-matrix the array sweep builds from cost vectors equals the
    oracle's scalar ``edge_delta`` cell for cell."""

    @pytest.mark.parametrize("charge", [True, False])
    @pytest.mark.parametrize("name", sorted(DELTA_WORKLOADS))
    def test_match_edge_delta(self, monkeypatch, name, charge):
        built = {}
        original = frontier._delta_matrix

        def recording(ctx, cache, mtype, needs, fmts):
            got = original(ctx, cache, mtype, needs, fmts)
            built[(mtype, needs, fmts)] = got
            return got

        monkeypatch.setattr(frontier, "_delta_matrix", recording)
        build_graph, beam = DELTA_WORKLOADS[name]
        graph = build_graph()
        ctx = full_catalog_ctx(charge)
        optimize_dag(graph, ctx, prune=True, max_states=beam)
        assert built
        oracle = _DominanceOracle(graph, ctx, set())
        for (mtype, needs, fmts), got in built.items():
            want = np.zeros((len(fmts), len(fmts)))
            for a, p1 in enumerate(fmts):
                for b, p2 in enumerate(fmts):
                    if a != b:
                        want[a, b] = oracle.edge_delta(mtype, needs, p1, p2)
            assert np.array_equal(got, want), (mtype, needs, fmts)
        if name == "inverse":
            assert any(np.isinf(got).any() for got in built.values())


class TestPhases:
    """The search charges the whole sweep to named phases."""

    def test_phase_keys(self):
        graph = dag1_graph(1)
        ctx = full_catalog_ctx(True)
        exact = optimize_dag(graph, ctx, prune=True)
        beamed = optimize_dag(graph, ctx, max_states=4)
        keys = {"patterns", "order", "project", "materialize", "reconstruct"}
        assert set(exact.profile.phase_seconds) == keys | {"prune"}
        assert set(beamed.profile.phase_seconds) == keys


@pytest.mark.perf
def test_wide_dag_inside_budget():
    """Optimizer-perf smoke: a 40+-vertex shared-ancestor DAG, pruned and
    exact, must finish well inside a CI-friendly absolute budget."""
    g = wide_shared_dag(5, 5)
    assert len(g) >= 40
    ctx = oracle_ctx()
    t0 = time.perf_counter()
    plan = optimize_dag(g, ctx)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"pruned wide-DAG search took {elapsed:.1f}s"
    assert plan.profile.states_pruned > 0
    assert math.isfinite(plan.total_seconds)


@pytest.mark.perf
def test_width5_speedup_over_oracle():
    """The array search must stay >= 2x the per-state oracle on the exact
    pruned ``wide_shared_dag(5, 5)`` search at the four-format catalog
    (both on a fresh context; 2x leaves headroom for noisy runners while
    still catching a real regression)."""
    graph = wide_shared_dag(5, 5)
    walls = {}
    plans = {}
    for name, search in (("array", optimize_dag),
                         ("oracle", optimize_dag_object)):
        ctx = OptimizerContext(formats=WIDE_CATALOG)
        t0 = time.perf_counter()
        plans[name] = search(graph, ctx, prune=True)
        walls[name] = time.perf_counter() - t0
    assert_same_plan_and_counters(plans["array"], plans["oracle"])
    speedup = walls["oracle"] / walls["array"]
    assert speedup >= 2.0, (
        f"array search regressed: array {walls['array']:.3f}s vs oracle "
        f"{walls['oracle']:.3f}s ({speedup:.2f}x, gate is 2x)")
