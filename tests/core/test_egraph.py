"""Unit tests for the equality-saturation engine.

Covers the e-graph data structure (hash-consing, union-find, congruence
closure), each rule family in the shared table, saturation budgets and
their independence from the wall clock, the catalog-cost-guided
extractor, the shared-table/pipeline parity invariant, report
serialization, the optimizer-level never-worse guarantee, and the EXPLAIN
rendering of saturation statistics.
"""

import dataclasses
import importlib
import itertools
import math
import time

import numpy as np
import pytest

from repro.core.egraph import (
    DEFAULT_BUDGET,
    EGraph,
    EGraphError,
    PIPELINE_PASS_ORDER,
    RULE_TABLE,
    SATURATION_ONLY_RULES,
    SaturationBudget,
    saturate,
    saturate_graph,
)
from repro.cluster import simsql_cluster
from repro.core.atoms import atom_by_name
from repro.core.egraph.extract import extract
from repro.core.explain import explain
from repro.core.fingerprint import graph_signature
from repro.core.formats import single
from repro.core.optimizer import optimize
from repro.core.registry import OptimizerContext
from repro.core.rewrites import (
    DEFAULT_PASS_ORDER,
    PipelineReport,
    SaturationReport,
    resolve_engine,
)
from repro.core.rewrites.pipeline import PASS_REGISTRY
from repro.core.types import matrix
from repro.engine.executor import execute_plan
from repro.experiments.egraph import BEAM as EGRAPH_BEAM
from repro.experiments.egraph import CATALOG as EGRAPH_CATALOG
from repro.experiments.egraph import egraph_workloads
from repro.lang import build, input_matrix, relu
from repro.lang.expr import add_bias
from repro.workloads import dag2_graph, power_iteration

#: The module, not the function the package exports under the same name.
SATURATE = importlib.import_module("repro.core.egraph.saturate")


@pytest.fixture(scope="module")
def ctx():
    return OptimizerContext()


def _saturated(expr_graph, ctx, budget=DEFAULT_BUDGET):
    return saturate_graph(expr_graph, ctx, budget=budget)


# ----------------------------------------------------------------------
# E-graph mechanics
# ----------------------------------------------------------------------
class TestEGraphMechanics:
    def test_hashcons_gives_free_cse(self, ctx):
        x = input_matrix("X", 60, 40)
        w = input_matrix("W", 40, 50)
        graph = build((x @ w) + (x @ w), cse=False)
        eg = EGraph.from_graph(graph)
        # X@W appears twice in the seed graph but once in the e-graph.
        assert eg.cse_merges >= 1
        assert eg.n_classes == len(graph) - eg.cse_merges

    def test_source_identity_includes_format(self):
        eg = EGraph()
        a = eg.add_source("X", matrix(10, 10), single())
        b = eg.add_source("X", matrix(10, 10), single())
        assert a == b  # same identity: hash-consed
        c = eg.add_source("Y", matrix(10, 10), single())
        assert c != a  # different name: distinct leaf

    def test_merge_keeps_smallest_id_as_root(self):
        eg = EGraph()
        a = eg.add_source("A", matrix(5, 5), single())
        b = eg.add_source("B", matrix(5, 5), single())
        assert eg.merge(b, a)
        assert eg.find(b) == min(a, b)
        assert not eg.merge(a, b)  # already merged

    def test_merge_rejects_shape_mismatch(self):
        eg = EGraph()
        a = eg.add_source("A", matrix(5, 5), single())
        b = eg.add_source("B", matrix(5, 7), single())
        with pytest.raises(EGraphError):
            eg.merge(a, b)

    def test_rebuild_restores_congruence(self):
        """Merging a and b must make f(a) and f(b) congruent after
        rebuild — the defining property of congruence closure."""
        eg = EGraph()
        a = eg.add_source("A", matrix(8, 8), single())
        b = eg.add_source("B", matrix(8, 8), single())
        fa = eg.add_op("transpose", (a,))
        fb = eg.add_op("transpose", (b,))
        assert eg.find(fa) != eg.find(fb)
        eg.merge(a, b)
        eg.rebuild()
        assert eg.find(fa) == eg.find(fb)

    def test_add_op_rejects_ill_typed_terms(self):
        eg = EGraph()
        a = eg.add_source("A", matrix(5, 7), single())
        b = eg.add_source("B", matrix(5, 7), single())
        # 5x7 @ 5x7 does not type-check: the rule layer's bottom.
        assert eg.add_op("matmul", (a, b)) is None

    def test_class_ids_sorted_and_stable(self, ctx):
        graph = build(relu(input_matrix("X", 20, 30)
                           @ input_matrix("W", 30, 10)))
        eg = EGraph.from_graph(graph)
        ids = eg.class_ids()
        assert list(ids) == sorted(ids)
        assert eg.n_nodes >= eg.n_classes

    def test_roots_carry_output_names(self):
        x = input_matrix("X", 10, 10)
        expr = relu(x)
        expr.name = "Y"
        eg = EGraph.from_graph(build(expr))
        assert len(eg.roots) == 1
        _cid, name = eg.roots[0]
        assert name == "Y"


# ----------------------------------------------------------------------
# Rule families
# ----------------------------------------------------------------------
class TestRules:
    def test_double_transpose_eliminated(self, ctx):
        x = input_matrix("X", 40, 60)
        graph = build(x.T.T, cse=False)
        extracted, report = _saturated(graph, ctx)
        # (X^T)^T collapses to the source leaf itself.
        assert len(extracted) == 1
        assert extracted.vertices[0].is_source
        assert any(name == "double-transpose"
                   for name, _ in report.rules_applied)

    def test_matmul_factoring_halves_the_multiplies(self, ctx):
        """A@B + A@C = A@(B+C): the identity no ordered pipeline reaches."""
        a = input_matrix("A", 2000, 2000)
        b = input_matrix("B", 2000, 2000)
        c = input_matrix("C", 2000, 2000)
        graph = build(a @ b + a @ c, cse=False)
        extracted, report = _saturated(graph, ctx)
        matmuls = [v for v in extracted.vertices
                   if not v.is_source and v.op.name == "matmul"]
        assert len(matmuls) == 1
        assert any(name == "matmul-factor"
                   for name, _ in report.rules_applied)

    def test_chain_reassociation_finds_cheap_order(self, ctx):
        """(A@B)@C with a skinny middle: A@(B@C) is far cheaper."""
        a = input_matrix("A", 300, 10)
        b = input_matrix("B", 10, 400)
        c = input_matrix("C", 400, 20)
        graph = build((a @ b) @ c, cse=False)
        extracted, report = _saturated(graph, ctx)
        assert any(name == "matmul-assoc"
                   for name, _ in report.rules_applied)
        # The cheap order multiplies B@C (10x400 @ 400x20) first: the
        # extracted graph must contain a matmul over the two small leaves.
        sources = {v.vid: v.name for v in extracted.sources}
        first_muls = [tuple(sources.get(i) for i in v.inputs)
                      for v in extracted.vertices
                      if not v.is_source and v.op.name == "matmul"]
        assert ("B", "C") in first_muls

    def test_scalar_rules_collapse_constants(self, ctx):
        x = input_matrix("X", 50, 50)
        graph = build((x * 2.0) * 3.0, cse=False)
        extracted, report = _saturated(graph, ctx)
        scalars = [v for v in extracted.vertices
                   if not v.is_source and v.op.name == "scalar_mul"]
        assert len(scalars) == 1
        assert scalars[0].param == pytest.approx(6.0)
        assert any(name == "scalar-collapse"
                   for name, _ in report.rules_applied)

    def test_fusion_offered_and_priced(self, ctx):
        """relu(add_bias(X@W, b)) must offer the fused form; extraction may
        take either, but the rule has to have fired."""
        x = input_matrix("X", 60, 40)
        w = input_matrix("W", 40, 50)
        b = input_matrix("b", 1, 50)
        graph = build(relu(add_bias(x @ w, b)) * 0.5, cse=False)
        _extracted, report = _saturated(graph, ctx)
        assert any(name == "fuse-unary"
                   for name, _ in report.rules_applied)

    def test_extraction_never_worse_than_seed(self, ctx):
        """On every rule-family graph the extracted term's catalog cost is
        at most the seed term's (the seed is never removed)."""
        corpus = [
            build(input_matrix("X", 40, 60).T.T, cse=False),
            build((input_matrix("A", 300, 10) @ input_matrix("B", 10, 400))
                  @ input_matrix("C", 400, 20), cse=False),
            build((input_matrix("Q", 300, 20)
                   @ input_matrix("K", 20, 300)) * 0.125, cse=False),
        ]
        for graph in corpus:
            eg = EGraph.from_graph(graph)
            _seed_graph, seed_cost = extract(eg, ctx)
            _iters, _applied, _sat, _exh = saturate(eg)
            _best_graph, best_cost = extract(eg, ctx)
            assert best_cost <= seed_cost * (1 + 1e-12)


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
class TestBudgets:
    def _graph(self):
        a = input_matrix("A", 100, 100)
        b = input_matrix("B", 100, 100)
        c = input_matrix("C", 100, 100)
        return build((a @ b) @ c, cse=False)

    def test_iteration_budget(self, ctx):
        _g, report = _saturated(self._graph(), ctx,
                                SaturationBudget(max_iterations=0))
        assert report.iterations == 0
        assert report.budget_exhausted == "iterations"
        assert not report.saturated

    def test_node_budget(self, ctx):
        _g, report = _saturated(self._graph(), ctx,
                                SaturationBudget(max_e_nodes=1))
        assert report.budget_exhausted == "e_nodes"

    def test_class_budget(self, ctx):
        _g, report = _saturated(
            self._graph(), ctx,
            SaturationBudget(max_e_nodes=10**9, max_e_classes=1))
        assert report.budget_exhausted == "e_classes"

    @pytest.mark.parametrize("make_graph,budget", [
        ("chain", SaturationBudget(max_e_nodes=6)),
        ("dag2_scale2", DEFAULT_BUDGET),
    ], ids=["chain", "dag2_scale2"])
    def test_node_cap_stops_right_after_the_refusing_sweep(
            self, make_graph, budget, monkeypatch):
        """The loop ends with ``"e_nodes"`` after the rebuild that follows
        the first rule sweep in which ``add_op`` refused a new e-node, and
        only then."""
        graph = self._graph() if make_graph == "chain" else dag2_graph(2)
        sweeps = []

        def watched(rule):
            def apply(eg, done):
                before = eg.refused
                count = rule.apply(eg, done)
                sweeps.append(eg.refused > before)
                return count
            return dataclasses.replace(rule, apply=apply)

        monkeypatch.setattr(SATURATE, "RULE_TABLE",
                            tuple(watched(r) for r in RULE_TABLE))
        eg = EGraph.from_graph(graph)
        _iters, _applied, saturated, exhausted = saturate(eg, budget)
        assert exhausted == "e_nodes" and not saturated
        assert sweeps.index(True) == len(sweeps) - 1
        # Rebuilt after the last sweep: no merge is left pending.
        assert eg.settled(eg.class_ids())
        assert eg.growth_limit is None

    def test_exhausted_extraction_still_correct(self, ctx):
        """Stopping at any budget is safe: extraction still yields a graph
        computing the same outputs (here: the seed term or better)."""
        graph = self._graph()
        extracted, _report = _saturated(graph, ctx,
                                        SaturationBudget(max_iterations=0))
        ctx2 = OptimizerContext()
        rng = np.random.default_rng(7)
        inputs = {s.name: rng.standard_normal((s.mtype.rows, s.mtype.cols))
                  for s in graph.sources}
        ref = execute_plan(optimize(graph, ctx2), inputs, ctx2)
        got = execute_plan(optimize(extracted, ctx2), inputs, ctx2)
        assert ref.ok and got.ok
        for name, value in ref.outputs.items():
            np.testing.assert_allclose(got.outputs[name], value,
                                       rtol=1e-7, atol=1e-9)

    def test_default_budget_saturates_small_graphs(self, ctx):
        _g, report = _saturated(self._graph(), ctx)
        assert report.saturated
        assert report.budget_exhausted is None


class TestNoWallClock:
    """No clock reading decides anything: a clock that jumps 10 s per call
    leaves the e-graph, the report (but its measured ``seconds``) and the
    extracted graph as they are."""

    @pytest.mark.parametrize("make_graph,stop", [
        (lambda: dag2_graph(2), "e_nodes"),
        (lambda: power_iteration(3000).graph, None),
    ], ids=["dag2_scale2", "power_iteration"])
    def test_slow_clock_changes_nothing(self, ctx, make_graph, stop,
                                        monkeypatch):
        graph = make_graph()
        ref_graph, ref = saturate_graph(graph, ctx)
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter",
                            lambda: 10.0 * next(ticks))
        slow_graph, slow = saturate_graph(graph, ctx)
        monkeypatch.undo()
        assert slow.seconds >= 10.0  # the patched clock was read
        assert ref.budget_exhausted == stop
        assert ref.saturated == (stop is None)
        assert (slow.e_nodes, slow.e_classes) == (ref.e_nodes, ref.e_classes)
        assert dataclasses.replace(slow, seconds=0.0) == \
            dataclasses.replace(ref, seconds=0.0)
        assert graph_signature(slow_graph) == graph_signature(ref_graph)
        assert [v.name for v in slow_graph.vertices] == \
            [v.name for v in ref_graph.vertices]


# ----------------------------------------------------------------------
# Shared-table parity with the ordered pipeline
# ----------------------------------------------------------------------
class TestSharedTable:
    def test_pipeline_order_is_derived_from_table(self):
        assert PIPELINE_PASS_ORDER == DEFAULT_PASS_ORDER

    def test_every_pass_has_a_rule(self):
        covered = {r.pipeline_pass for r in RULE_TABLE
                   if r.pipeline_pass is not None}
        assert covered == set(PASS_REGISTRY)

    def test_saturation_only_rules_exist(self):
        # The point of the engine: identities no ordered pass can apply.
        assert "matmul-factor" in SATURATION_ONLY_RULES
        assert all(r.pipeline_pass is None
                   for r in RULE_TABLE if r.name in SATURATION_ONLY_RULES)

    def test_rule_names_unique(self):
        names = [r.name for r in RULE_TABLE]
        assert len(names) == len(set(names))

    def test_resolve_engine(self):
        assert resolve_engine("egraph") == ("egraph", "none")
        assert resolve_engine("pipeline") == ("pipeline", "all")
        assert resolve_engine("all") == ("pipeline", "all")
        assert resolve_engine("off") == ("off", "none")
        assert resolve_engine("none") == ("off", "none")
        assert resolve_engine(("cse", "fuse")) == \
            ("pipeline", ("cse", "fuse"))
        assert resolve_engine(()) == ("off", ())
        with pytest.raises(ValueError):
            resolve_engine("no-such-engine")


# ----------------------------------------------------------------------
# Reports and EXPLAIN
# ----------------------------------------------------------------------
class TestReports:
    def test_saturation_report_roundtrip(self):
        report = SaturationReport(
            iterations=3, e_nodes=42, e_classes=17,
            rules_applied=(("matmul-assoc", 2), ("cse", 1)),
            saturated=True, budget_exhausted=None,
            extraction_cost=1.25, seconds=0.01)
        assert SaturationReport.from_dict(report.to_dict()) == report
        assert report.total_rewrites == 3
        assert "saturated" in report.describe()

    def test_pipeline_report_with_saturation_roundtrip(self):
        sat = SaturationReport(iterations=2, e_nodes=10, e_classes=8,
                               rules_applied=(("double-transpose", 1),),
                               budget_exhausted="e_nodes")
        report = PipelineReport((), adopted=False, engine="egraph",
                                saturation=sat, fallback="pipeline")
        back = PipelineReport.from_dict(report.to_dict())
        assert back == report
        assert back.total_rewrites == 1
        assert back.summary() == "none"  # not adopted

    def test_egraph_summary_line(self):
        sat = SaturationReport(iterations=2, e_nodes=10, e_classes=8,
                               rules_applied=(("matmul-factor", 3),))
        report = PipelineReport((), engine="egraph", saturation=sat)
        assert report.summary() == "egraph(3 rewrites, 2 iterations)"

    def test_explain_renders_saturation_stats(self, ctx):
        a = input_matrix("A", 2000, 2000)
        b = input_matrix("B", 2000, 2000)
        c = input_matrix("C", 2000, 2000)
        graph = build(a @ b + a @ c, cse=False)
        plan = optimize(graph, ctx, rewrites="egraph", max_states=500)
        text = explain(plan, ctx)
        assert "engine: egraph" in text
        assert "saturation:" in text
        assert "iterations" in text
        assert "[matmul-factor]" in text


# ----------------------------------------------------------------------
# Optimizer integration
# ----------------------------------------------------------------------
class TestOptimizerIntegration:
    def test_egraph_never_worse_than_off(self, ctx):
        graphs = [
            build(relu(input_matrix("X", 60, 40)
                       @ input_matrix("W", 40, 50))),
            build((input_matrix("A", 300, 10) @ input_matrix("B", 10, 400))
                  @ input_matrix("C", 400, 20), cse=False),
        ]
        for graph in graphs:
            off = optimize(graph, ctx, rewrites="off", max_states=500)
            on = optimize(graph, ctx, rewrites="egraph", max_states=500)
            assert on.total_seconds <= off.total_seconds * (1 + 1e-12)

    def test_factoring_strictly_beats_pipeline(self, ctx):
        """The acceptance workload: A@B + A@C.  The pipeline keeps both
        products; the e-graph factors them into one."""
        a = input_matrix("A", 2000, 2000)
        b = input_matrix("B", 2000, 2000)
        c = input_matrix("C", 2000, 2000)
        graph = build(a @ b + a @ c, cse=False)
        pipe = optimize(graph, ctx, rewrites="pipeline", max_states=500)
        eg = optimize(graph, ctx, rewrites="egraph", max_states=500)
        assert eg.total_seconds < pipe.total_seconds
        assert eg.pipeline is not None and eg.pipeline.adopted
        assert eg.pipeline.engine == "egraph"
        assert eg.pipeline.saturation is not None

    def test_saturation_determinism_within_process(self, ctx):
        """Two runs on the same graph produce identical extracted
        structures, vertex names and reports (modulo wall clock)."""
        a = input_matrix("A", 500, 40)
        b = input_matrix("B", 40, 500)
        graph = build(((a @ b) @ a).T, cse=False)
        g1, r1 = _saturated(graph, ctx)
        g2, r2 = _saturated(graph, ctx)
        assert graph_signature(g1) == graph_signature(g2)
        # graph_signature leaves intermediate labels out; stage names
        # derive from them, so they must be deterministic too.
        assert [v.name for v in g1.vertices] == [v.name for v in g2.vertices]
        assert dataclasses.replace(r1, seconds=0.0) == \
            dataclasses.replace(r2, seconds=0.0)

    def test_extraction_cost_is_finite(self, ctx):
        graph = build(relu(input_matrix("X", 60, 40)
                           @ input_matrix("W", 40, 50)))
        _g, report = _saturated(graph, ctx)
        assert math.isfinite(report.extraction_cost)
        assert report.extraction_cost >= 0.0


#: The extractor module, for patching its pricing helpers.
EXTRACT = importlib.import_module("repro.core.egraph.extract")


def _repricing_own_cost(eg, ctx, node, own_costs):
    """The oracle: price the e-node again on every call, as extraction did
    before it kept each e-node's own cost."""
    in_types = tuple(eg.class_of(child).mtype for child in node.children)
    return EXTRACT.op_cost(ctx, atom_by_name(node.op), in_types)


def _graph_record(graph) -> list:
    return [(v.vid, v.name, v.op.name if v.op else None, v.inputs, v.param,
             v.mtype, v.format) for v in graph.vertices]


class TestExtractionPricing:
    def test_each_e_node_priced_once(self, monkeypatch):
        """DAG2 at scale 2 on the 10-worker SimSQL context: extraction
        used to call ``op_cost`` 6,220 times for 1,848 e-nodes."""
        ctx = OptimizerContext(cluster=simsql_cluster(10))
        eg = EGraph.from_graph(dag2_graph(2))
        saturate(eg)
        calls = []
        original = EXTRACT.op_cost

        def counting(ctx, op, in_types):
            calls.append((op, in_types))
            return original(ctx, op, in_types)

        monkeypatch.setattr(EXTRACT, "op_cost", counting)
        extract(eg, ctx)
        assert 0 < len(calls) <= eg.n_nodes

    @pytest.mark.parametrize("name", sorted(egraph_workloads()))
    def test_extraction_matches_repricing_oracle(self, monkeypatch, name):
        """Same extracted graph (vertex names included), extraction cost
        and plan as the extractor that re-prices every sweep."""
        graph = egraph_workloads()[name]

        def run():
            ctx = OptimizerContext(cluster=simsql_cluster(10),
                                   formats=EGRAPH_CATALOG)
            extracted, report = saturate_graph(graph, ctx)
            plan = optimize(graph, ctx, max_states=EGRAPH_BEAM,
                            rewrites="egraph")
            return (_graph_record(extracted), report.extraction_cost,
                    repr(plan.total_seconds), _graph_record(plan.graph),
                    sorted((vid, impl.name)
                           for vid, impl in plan.annotation.impls.items()))

        kept = run()
        monkeypatch.setattr(EXTRACT, "_own_cost", _repricing_own_cost)
        assert run() == kept
