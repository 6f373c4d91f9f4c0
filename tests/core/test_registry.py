"""Tests for the optimizer context: menus, caching, ablation switches."""

import collections
import math
import sys
import threading

import pytest

from repro.cluster import simsql_cluster
from repro.core import OptimizerContext, matrix
from repro.core import registry
from repro.core.atoms import ADD, MATMUL, RELU
from repro.core.formats import (
    col_strips,
    csr_strips,
    row_strips,
    single,
    tiles,
)
from repro.core.implementations import OpImplementation


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
        assert accepted == tuple(row for row in typed
                                 if math.isfinite(row[3]))
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


class TestSharedEnumeration:
    def test_candidate_patterns_run_once_per_op_and_types(self, monkeypatch):
        """output_candidates, accepted_patterns and typed_patterns share
        one enumeration per (op, in_types), whichever menu asks first."""
        calls = collections.Counter()
        original = OpImplementation.candidate_patterns

        def counting(impl, in_types, catalog, cluster):
            calls[(impl.name, in_types)] += 1
            return original(impl, in_types, catalog, cluster)

        monkeypatch.setattr(OpImplementation, "candidate_patterns", counting)
        ctx = OptimizerContext(cluster=simsql_cluster(10))
        square = (matrix(4000, 4000), matrix(4000, 4000))
        menus = (ctx.output_candidates, ctx.accepted_patterns,
                 ctx.typed_patterns)
        cases = ((MATMUL, square), (ADD, square),
                 (RELU, (matrix(4000, 4000),)),
                 (MATMUL, (matrix(160_000, 10_000), matrix(10_000, 4000))))
        for shift, (op, in_types) in enumerate(cases):
            for k in range(len(menus) + 1):  # every menu, one twice
                menus[(shift + k) % len(menus)](op, in_types)
            impls = ctx.impls_for(op)
            assert impls
            assert [calls[(i.name, in_types)] for i in impls] == \
                [1] * len(impls)


class TestTransformCostVector:
    @pytest.mark.parametrize("charge", [True, False])
    def test_pairs_costed_once_and_match_scalar(self, monkeypatch, charge):
        """Permuted and overlapping source tuples cost each (type, src,
        dst) pair once, and every entry equals search_transform_cost
        exactly (None -> inf)."""
        costed = collections.Counter()
        original = registry.transform_cost_table

        def counting(mtype, srcs, dst, *args, **kwargs):
            for src in srcs:
                costed[(mtype, src, dst)] += 1
            return original(mtype, srcs, dst, *args, **kwargs)

        monkeypatch.setattr(registry, "transform_cost_table", counting)
        ctx = OptimizerContext(cluster=simsql_cluster(10),
                               charge_transforms=charge)
        mtype = matrix(20_000, 20_000)
        fmts = ctx.formats
        srcs_list = (fmts[:8], fmts[4:12][::-1], fmts[::2], fmts,
                     fmts[::-1], fmts[3:5])
        dsts = (single(), tiles(1000), row_strips(1000), col_strips(1000),
                csr_strips(1000))
        seen_inf = seen_finite = False
        for dst in dsts:
            for srcs in srcs_list:
                vec = ctx.transform_cost_vector(mtype, srcs, dst)
                want = [ctx.search_transform_cost(mtype, src, dst)
                        for src in srcs]
                assert vec.tolist() == [math.inf if c is None else c
                                        for c in want]
                seen_inf |= bool((vec == math.inf).any())
                seen_finite |= bool((vec < math.inf).any())
        assert seen_inf and seen_finite
        assert len(costed) == len(fmts) * len(dsts)
        assert set(costed.values()) == {1}


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

    def test_same_load_formats_share_one_extended_context(self):
        from repro.core.optimizer import context_for_graph
        from repro.core import ComputeGraph

        ctx = OptimizerContext()
        extended = []
        for rows in (100, 200):
            g = ComputeGraph()
            g.add_source("A", matrix(rows, 10_000), row_strips(10))
            g.add_source("B", matrix(4000, 4000), tiles(1000))
            extended.append(context_for_graph(g, ctx))
        assert extended[0] is extended[1]
        assert extended[0] is not ctx


class TestDerive:
    """Derived contexts: built once per parent and change set, never
    shared between separately built parents."""

    def test_no_change_returns_self(self):
        ctx = OptimizerContext()
        assert ctx.derive() is ctx
        assert ctx.derive(formats=ctx.formats, cluster=ctx.cluster) is ctx
        # Equal values count as unchanged, whatever object carries them.
        same = simsql_cluster(10)
        ctx = OptimizerContext(cluster=simsql_cluster(10))
        assert same is not ctx.cluster
        assert ctx.derive(cluster=same, formats=tuple(ctx.formats)) is ctx

    def test_same_change_set_returns_same_child(self):
        ctx = OptimizerContext()
        formats = ctx.formats + (row_strips(10),)
        child = ctx.derive(formats=formats)
        assert child is not ctx
        assert child.formats == formats
        assert ctx.derive(formats=tuple(formats)) is child
        # Fields passed at their current value do not make a new child.
        assert ctx.derive(formats=formats, cluster=ctx.cluster) is child

    def test_different_change_sets_different_children(self):
        ctx = OptimizerContext()
        strips = ctx.derive(formats=ctx.formats + (row_strips(10),))
        smaller = ctx.derive(cluster=ctx.cluster.with_workers(2))
        both = ctx.derive(formats=strips.formats, cluster=smaller.cluster)
        assert len({id(strips), id(smaller), id(both), id(ctx)}) == 4
        assert ctx.derive(cluster=ctx.cluster.with_workers(3)) is not smaller
        assert both.formats == strips.formats
        assert both.cluster == smaller.cluster

    def test_parent_fields_unchanged(self):
        ctx = OptimizerContext()
        before = (ctx.cluster, ctx.formats, ctx.implementations,
                  ctx.transforms, ctx.weights, ctx.charge_transforms)
        ctx.derive(cluster=ctx.cluster.with_workers(3),
                   implementations=ctx.implementations[1:],
                   charge_transforms=False)
        assert (ctx.cluster, ctx.formats, ctx.implementations,
                ctx.transforms, ctx.weights, ctx.charge_transforms) == before
        assert ctx.cluster.num_workers == 10

    def test_child_has_its_own_memos(self):
        ctx = OptimizerContext()
        types = (matrix(4000, 4000), matrix(4000, 4000))
        first = ctx.accepted_patterns(MATMUL, types)
        child = ctx.derive(cluster=ctx.cluster.with_workers(2))
        assert child.cost_model.cluster.num_workers == 2
        assert child.accepted_patterns(MATMUL, types) is not first
        assert child.accepted_patterns(MATMUL, types) == tuple(
            OptimizerContext(cluster=child.cluster).accepted_patterns(
                MATMUL, types))

    def test_separately_built_parents_share_nothing(self):
        a, b = OptimizerContext(), OptimizerContext()
        cluster = a.cluster.with_workers(2)
        assert a.derive(cluster=cluster) is not b.derive(cluster=cluster)
        assert a.derive(cluster=cluster).derive(formats=a.formats[:5]) is \
            a.derive(cluster=cluster).derive(formats=a.formats[:5])

    def test_concurrent_callers_get_one_child_per_change_set(self):
        """Threads racing to derive the same change sets from the same
        parents all get the same child, and each parent keeps exactly one
        child per change set."""
        parents = [OptimizerContext() for _ in range(40)]
        clusters = [parents[0].cluster.with_workers(n) for n in (2, 3, 4)]
        threads = 8
        start = threading.Barrier(threads)
        seen = [[] for _ in range(threads)]

        def worker(out):
            for parent in parents:
                start.wait(timeout=10)  # race on every parent's first derive
                for cluster in clusters:
                    out.append(parent.derive(cluster=cluster))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(out,))
                    for out in seen]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert all(len(out) == len(parents) * len(clusters) for out in seen)
        for out in seen[1:]:
            assert all(a is b for a, b in zip(out, seen[0]))
        for parent in parents:
            assert len(parent._children) == len(clusters)
