"""Tests for plan serialization and EXPLAIN."""

import json

import numpy as np
import pytest

from repro.core import ComputeGraph, OptimizerContext, matrix, optimize
from repro.core.atoms import ADD, MATMUL, RELU, SCALAR_MUL
from repro.core.explain import explain, explain_stages
from repro.core.formats import row_strips, single, tiles
from repro.core.serialize import (
    SerializationError,
    format_from_dict,
    format_to_dict,
    graph_from_dict,
    graph_to_dict,
    plan_from_json,
    plan_to_json,
    type_from_dict,
    type_to_dict,
)
from repro.core.types import MatrixType
from repro.engine import execute_plan


def _plan_and_ctx():
    g = ComputeGraph()
    a = g.add_source("A", matrix(300, 400), row_strips(100))
    b = g.add_source("B", matrix(400, 300), single())
    ab = g.add_op("AB", MATMUL, (a, b))
    s = g.add_op("S", SCALAR_MUL, (ab,), param=2.0)
    g.add_op("R", RELU, (s,))
    ctx = OptimizerContext()
    return optimize(g, ctx), ctx


class TestFormatRoundTrip:
    @pytest.mark.parametrize("fmt", [single(), tiles(100), row_strips(50)])
    def test_round_trip(self, fmt):
        assert format_from_dict(format_to_dict(fmt)) == fmt

    def test_bad_layout_rejected(self):
        with pytest.raises(SerializationError):
            format_from_dict({"layout": "holographic"})

    @pytest.mark.parametrize("payload", [
        {"layout": "row_strip", "block_rows": True},
        {"layout": "row_strip", "block_rows": "50"},
        {"layout": "row_strip", "block_rows": 2.5},
        {"layout": "row_strip", "block_rows": None},
        {"layout": "row_strip"},
        {"layout": "tile", "block_rows": 10, "block_cols": [10]},
        {"layout": "single", "block_rows": 3},
        {"layout": ["tile"]},
        {"block_rows": 10},
        ["row_strip", 50],
        None,
    ])
    def test_malformed_format_payload_rejected(self, payload):
        with pytest.raises(SerializationError):
            format_from_dict(payload)


class TestTypeRoundTrip:
    @pytest.mark.parametrize("mtype", [matrix(3, 4), matrix(5, 5, 0.01),
                                       MatrixType((7,)), MatrixType((1, 9))])
    def test_round_trip(self, mtype):
        assert type_from_dict(type_to_dict(mtype)) == mtype

    @pytest.mark.parametrize("payload", [
        {"dims": [2.5, 3]},
        {"dims": [True, 3]},
        {"dims": [2, 0]},
        {"dims": []},
        {"dims": "23"},
        {"dims": None},
        {"dims": 6},
        {"dims": [2, 3], "sparsity": "0.5"},
        {"dims": [2, 3], "sparsity": None},
        {"dims": [2, 3], "sparsity": True},
        {"dims": [2, 3], "sparsity": 1.5},
        {"dims": [2, 3], "sparsity": float("nan")},
        {"sparsity": 1.0},
        [[2, 3], 1.0],
        "2x3",
    ])
    def test_malformed_type_payload_rejected(self, payload):
        with pytest.raises(SerializationError):
            type_from_dict(payload)


class TestGraphRoundTrip:
    def test_structure_preserved(self):
        plan, _ = _plan_and_ctx()
        rebuilt = graph_from_dict(graph_to_dict(plan.graph))
        assert len(rebuilt) == len(plan.graph)
        assert [v.name for v in rebuilt.vertices] == \
            [v.name for v in plan.graph.vertices]
        assert rebuilt.vertex(3).param == 2.0

    def test_outputs_preserved(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(10, 10), single())
        r = g.add_op("R", RELU, (a,))
        g.add_op("S", ADD, (r, r))
        g.mark_output(r)
        rebuilt = graph_from_dict(graph_to_dict(g))
        assert [v.name for v in rebuilt.outputs] == ["R"]


class TestPlanRoundTrip:
    def test_cost_identical_after_round_trip(self):
        plan, ctx = _plan_and_ctx()
        text = plan_to_json(plan)
        rebuilt = plan_from_json(text, ctx)
        assert rebuilt.total_seconds == pytest.approx(plan.total_seconds)
        assert {i.name for i in rebuilt.annotation.impls.values()} == \
            {i.name for i in plan.annotation.impls.values()}

    def test_json_is_valid_and_self_contained(self):
        plan, _ = _plan_and_ctx()
        payload = json.loads(plan_to_json(plan, indent=2))
        assert "graph" in payload and "impls" in payload

    def test_rebuilt_plan_executes(self):
        plan, ctx = _plan_and_ctx()
        rebuilt = plan_from_json(plan_to_json(plan), ctx)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 400))
        b = rng.standard_normal((400, 300))
        result = execute_plan(rebuilt, {"A": a, "B": b}, ctx)
        assert np.allclose(result.output(), np.maximum(2 * (a @ b), 0))

    def test_profile_round_trips(self):
        plan, ctx = _plan_and_ctx()
        assert plan.profile is not None
        rebuilt = plan_from_json(plan_to_json(plan), ctx)
        assert rebuilt.profile == plan.profile

    def test_cache_hit_flag_round_trips(self):
        import dataclasses

        plan, ctx = _plan_and_ctx()
        marked = dataclasses.replace(
            plan, profile=dataclasses.replace(plan.profile, cache_hit=True))
        rebuilt = plan_from_json(plan_to_json(marked), ctx)
        assert rebuilt.profile.cache_hit
        assert "served from plan cache" in rebuilt.profile.describe()

    def test_pipeline_report_round_trips(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(300, 400), row_strips(100))
        b = g.add_source("B", matrix(400, 300), single())
        ab = g.add_op("AB", MATMUL, (a, b))
        g.add_op("R", RELU, (ab,))
        ctx = OptimizerContext()
        plan = optimize(g, ctx, rewrites="all")
        assert plan.pipeline is not None
        rebuilt = plan_from_json(plan_to_json(plan), ctx)
        assert rebuilt.pipeline == plan.pipeline
        assert rebuilt.profile == plan.profile

    def test_unknown_impl_rejected(self):
        plan, ctx = _plan_and_ctx()
        payload = json.loads(plan_to_json(plan))
        first = next(iter(payload["impls"]))
        payload["impls"][first] = "mm_quantum"
        with pytest.raises(SerializationError):
            plan_from_json(json.dumps(payload), ctx)


class TestExplain:
    def test_stage_rows_cover_all_ops(self):
        plan, ctx = _plan_and_ctx()
        rows = explain_stages(plan, ctx)
        op_rows = [r for r in rows if r.kind == "op"]
        assert len(op_rows) == len(plan.graph.inner_vertices)

    def test_stage_seconds_sum_to_plan_total(self):
        plan, ctx = _plan_and_ctx()
        rows = explain_stages(plan, ctx)
        assert sum(r.seconds for r in rows) == pytest.approx(
            plan.total_seconds, rel=1e-9)

    def test_report_renders(self):
        plan, ctx = _plan_and_ctx()
        report = explain(plan, ctx)
        assert "EXPLAIN" in report
        assert "dominant stages" in report
        assert "AB" in report
