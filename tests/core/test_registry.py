"""Tests for the optimizer context: menus, caching, ablation switches."""

import math


from repro.cluster import simsql_cluster
from repro.core import OptimizerContext, matrix
from repro.core.atoms import MATMUL
from repro.core.formats import (
    row_strips,
    single,
    tiles,
)


class TestMenus:
    def test_impls_for_filters_by_op(self):
        ctx = OptimizerContext()
        matmuls = ctx.impls_for(MATMUL)
        assert len(matmuls) == 10
        assert all(i.op is MATMUL for i in matmuls)

    def test_accepted_patterns_all_feasible(self):
        ctx = OptimizerContext()
        types = (matrix(4000, 4000), matrix(4000, 4000))
        for impl, in_fmts, out_fmt, cost in ctx.accepted_patterns(
                MATMUL, types):
            assert math.isfinite(cost)
            assert out_fmt is not None

    def test_typed_patterns_superset_of_accepted(self):
        """typed menus include runtime-infeasible rows (baselines' view)."""
        ctx = OptimizerContext(cluster=simsql_cluster(10))
        types = (matrix(160_000, 10_000), matrix(10_000, 160_000))
        typed = ctx.typed_patterns(MATMUL, types)
        accepted = ctx.accepted_patterns(MATMUL, types)
        assert len(typed) >= len(accepted)
        assert any(math.isinf(cost) for *_rest, cost in typed)

    def test_output_candidates_are_admissible(self):
        ctx = OptimizerContext()
        types = (matrix(4000, 4000), matrix(4000, 4000))
        out_type = MATMUL.out_type(*types)
        for fmt in ctx.output_candidates(MATMUL, types):
            assert fmt.admits(out_type)

    def test_menu_caching_returns_same_object(self):
        ctx = OptimizerContext()
        types = (matrix(2000, 2000), matrix(2000, 2000))
        first = ctx.accepted_patterns(MATMUL, types)
        second = ctx.accepted_patterns(MATMUL, types)
        assert first is second


class TestTransformChoice:
    def test_identity_preferred_for_same_format(self):
        ctx = OptimizerContext()
        choice = ctx.transform_choice(matrix(2000, 2000), tiles(1000),
                                      tiles(1000))
        assert choice[0].name == "identity"
        assert choice[2] == 0.0

    def test_unreachable_returns_none(self):
        ctx = OptimizerContext()
        # A dense type can never land in a sparse format.
        from repro.core.formats import csr_strips
        assert ctx.transform_choice(matrix(2000, 2000), tiles(1000),
                                    csr_strips(1000)) is None

    def test_search_cost_zeroed_under_ablation(self):
        ctx = OptimizerContext(charge_transforms=False)
        cost = ctx.search_transform_cost(matrix(2000, 2000), single(),
                                         tiles(1000))
        assert cost == 0.0
        # But the real transformation cost is still nonzero.
        assert ctx.transform_choice(matrix(2000, 2000), single(),
                                    tiles(1000))[2] > 0.0


class TestContextExtension:
    def test_source_formats_added_for_search(self):
        from repro.core.optimizer import context_for_graph
        from repro.core import ComputeGraph

        g = ComputeGraph()
        g.add_source("A", matrix(100, 10_000), row_strips(10))
        ctx = OptimizerContext()
        extended = context_for_graph(g, ctx)
        assert row_strips(10) in extended.formats
        assert len(extended.formats) == len(ctx.formats) + 1

    def test_no_copy_when_formats_already_known(self):
        from repro.core.optimizer import context_for_graph
        from repro.core import ComputeGraph

        g = ComputeGraph()
        g.add_source("A", matrix(4000, 4000), tiles(1000))
        ctx = OptimizerContext()
        assert context_for_graph(g, ctx) is ctx
