"""Cross-query differential harness for multi-query batch optimization.

Generates 200 seeded random batches — N queries over the same named
sources, sharing a common prefix recipe plus private per-query suffixes —
and proves the three contracts of :func:`repro.core.batch.optimize_batch`
on every one of them:

* **never worse**: the merged batch plan's predicted cost never exceeds
  the sum of independently optimized solo plans;
* **frontier identity**: when the merged DAG is not tree shaped, the
  per-state oracle of ``frontier_oracle.py`` plans it bit-identically
  (exact ``==``, no tolerance); a tree-shaped merged DAG goes to the tree
  DP;
* **numerics**: executing a batch member's per-query plan — and
  splitting the merged plan's execution per query — is ``allclose`` to
  executing its solo plan.

The cost sweep uses the brute-oracle catalog at 2000/3000-dim matrices;
the numeric subset drops to 48-dim matrices with block sizes that admit
them (``tiles(1000)`` blocks cannot store a 48x48 matrix).
"""

import math
import random

import numpy as np
import pytest

from repro.core import ComputeGraph, OptimizerContext, matrix
from repro.core.atoms import ADD, ELEM_MUL, MATMUL, RELU, SUB, TRANSPOSE
from repro.core.batch import merge_graphs, optimize_batch
from repro.core.formats import row_strips, single, tiles
from repro.core.optimizer import context_for_graph, optimize
from repro.engine.executor import execute_plan
from repro.workloads import amazoncat_config, ffnn_forward, ffnn_full_step

from frontier_oracle import assert_same_plan_and_counters, optimize_dag_object

#: The brute-force differential suite's catalog, at the same dims.
ORACLE_FORMATS = (single(), tiles(1000), row_strips(1000))

#: Small-matrix catalog for the numeric-execution subset: every format
#: must admit a 48x48 matrix.
SMALL_FORMATS = (single(), tiles(16), row_strips(16))

OPS = (MATMUL, ADD, SUB, ELEM_MUL, RELU, TRANSPOSE)


def random_batch(seed: int, nqueries: int, inner: int, sharing: float,
                 dims=(2000, 3000), block: int = 1000) -> list[ComputeGraph]:
    """N seeded random queries with genuine cross-query overlap.

    All queries declare the same sources (same names, types and stored
    formats — the batch contract) and apply the same shared prefix
    recipe; each then grows a private suffix whose arguments reuse
    earlier vertices with probability ``sharing``.
    """
    rng = random.Random(seed)
    n = rng.choice(list(dims))
    nsrc = rng.randint(2, 3)
    sources = [(f"S{i}", rng.choice([single(), tiles(block)]))
               for i in range(nsrc)]
    prefix = []
    for i in range(rng.randint(1, inner)):
        ops = [op for op in OPS if op.arity <= 2]
        op = rng.choice(ops)
        prefix.append((op, tuple(rng.randrange(nsrc + i)
                                 for _ in range(op.arity))))

    graphs = []
    for qi in range(nqueries):
        qrng = random.Random(seed * 613 + qi)
        g = ComputeGraph()
        pool = [g.add_source(name, matrix(n, n), fmt)
                for name, fmt in sources]
        for i, (op, args) in enumerate(prefix):
            pool.append(g.add_op(f"p{i}", op,
                                 tuple(pool[a] for a in args)))
        for i in range(qrng.randint(1, inner)):
            op = qrng.choice(OPS)
            picks = tuple(
                qrng.choice(pool[nsrc:]) if pool[nsrc:]
                and qrng.random() < sharing else qrng.choice(pool)
                for _ in range(op.arity))
            pool.append(g.add_op(f"q{qi}_{i}", op, picks))
        g.mark_output(pool[-1])
        graphs.append(g)
    return graphs


#: 40 parameter sets x 5 sub-seeds = 200 random batches.
BATCH_CASES = [(batch, nq, inner, sharing)
               for nq, inner, sharing in [(2, 2, 0.3), (2, 3, 0.5),
                                          (3, 2, 0.7), (3, 3, 0.9),
                                          (4, 2, 0.5)]
               for batch in range(8)]


def _case_seed(batch: int, sub: int, inner: int, sharing: float,
               nq: int) -> int:
    return batch * 1000 + sub + inner * 37 + int(sharing * 100) + nq * 7


class TestBatchDifferential:
    """200 random batches: never-worse cost and a bit-identical oracle."""

    @pytest.mark.parametrize("batch,nq,inner,sharing", BATCH_CASES)
    def test_never_worse_and_frontier_identity(self, batch, nq, inner,
                                               sharing):
        ctx = OptimizerContext(formats=ORACLE_FORMATS)
        for sub in range(5):
            seed = _case_seed(batch, sub, inner, sharing, nq)
            graphs = random_batch(seed, nq, inner, sharing)
            solo = [optimize(g, ctx) for g in graphs]
            solo_total = sum(p.total_seconds for p in solo)
            ba = optimize_batch(graphs, ctx)

            # Never worse: sharing can only remove work.
            assert ba.merged.total_seconds <= solo_total * (1 + 1e-9), \
                f"seed={seed}: batch plan worse than solo sum"

            # Merged DAG vs the per-state oracle: exact equality, not
            # approx.  Tree-shaped merged DAGs go to the tree DP.
            if not ba.graph.is_tree_shaped():
                assert_same_plan_and_counters(
                    ba.merged, optimize_dag_object(
                        ba.graph, context_for_graph(ba.graph, ctx)))

            # Every per-query plan must be independently executable:
            # costing it proves impls/transforms cover the whole graph.
            for q in ba.queries:
                assert math.isfinite(q.plan.total_seconds)


class TestBatchNumerics:
    """Executing batch plans reproduces solo-plan numerics exactly."""

    @pytest.mark.parametrize("case", range(12))
    def test_allclose_to_solo(self, case):
        nq = 3
        seed = 5000 + case * 17
        ctx = OptimizerContext(formats=SMALL_FORMATS)
        graphs = random_batch(seed, nq, inner=2, sharing=0.6,
                              dims=(48,), block=16)
        rng = np.random.default_rng(seed)
        inputs = {s.name: rng.standard_normal((s.mtype.rows, s.mtype.cols))
                  for g in graphs for s in g.sources}

        batch = optimize_batch(graphs, ctx)
        merged_run = execute_plan(batch.merged, inputs, ctx)
        assert merged_run.ok
        for qi, g in enumerate(graphs):
            solo_run = execute_plan(optimize(g, ctx), inputs, ctx)
            assert solo_run.ok
            query_run = execute_plan(batch.queries[qi].plan, inputs, ctx)
            assert query_run.ok
            split = batch.query_outputs(qi, merged_run.vertex_values)
            assert set(split) == set(solo_run.outputs)
            for name, expected in solo_run.outputs.items():
                np.testing.assert_allclose(query_run.outputs[name],
                                           expected, rtol=1e-8, atol=1e-8)
                np.testing.assert_allclose(split[name], expected,
                                           rtol=1e-8, atol=1e-8)


class TestBatchStructure:
    """Stitching, provenance and error contracts."""

    def test_ffnn_pair_shares_forward_pass(self):
        """The golden mix: a forward pass co-submitted with the training
        step that contains it merges into one forward computation."""
        cfg = amazoncat_config(batch=2000, hidden=8000)
        graphs = [ffnn_forward(cfg), ffnn_full_step(cfg)]
        ctx = OptimizerContext()
        batch = optimize_batch(graphs, ctx, max_states=500)
        solo_total = sum(optimize(g, ctx, max_states=500).total_seconds
                         for g in graphs)
        assert batch.cse_hits > 0
        assert batch.merged.total_seconds < solo_total  # strictly cheaper
        for q in batch.queries:
            profile = q.plan.profile
            assert profile is not None
            assert profile.batch_queries == 2
            assert profile.shared_subplans  # forward-pass vertices
            assert q.shared == profile.shared_subplans
        merged_profile = batch.merged.profile
        assert merged_profile.batch_queries == 2
        assert "co-planned with 2 queries" in merged_profile.describe()

    def test_merge_counts_shared_vertices(self):
        graphs = random_batch(123, 3, inner=2, sharing=0.5)
        merged, maps, used_by, cse_hits = merge_graphs(graphs)
        assert len(maps) == 3
        # Sources are declared by every query, so they are all shared.
        for g, vmap in zip(graphs, maps):
            for s in g.sources:
                assert used_by[vmap[s.vid]] == {0, 1, 2}
        # Every query output survives on the merged graph.
        out_vids = {v.vid for v in merged.outputs}
        for g, vmap in zip(graphs, maps):
            for out in g.outputs:
                assert vmap[out.vid] in out_vids
        assert cse_hits >= 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            optimize_batch([])

    def test_conflicting_sources_rejected(self):
        g1, g2 = ComputeGraph(), ComputeGraph()
        a1 = g1.add_source("A", matrix(100, 100), single())
        g1.mark_output(g1.add_op("r", RELU, (a1,)))
        a2 = g2.add_source("A", matrix(100, 100), tiles(50))
        g2.mark_output(g2.add_op("r", RELU, (a2,)))
        with pytest.raises(ValueError, match="disagree on source 'A'"):
            optimize_batch([g1, g2])

    def test_bad_knobs_rejected_eagerly(self, monkeypatch):
        """Before any member is rewritten."""
        from repro.core import batch as batch_mod

        def no_rewrite(*args, **kwargs):
            raise AssertionError("rewrite ran before validation")

        monkeypatch.setattr(batch_mod, "rewrite_stage", no_rewrite)
        graphs = random_batch(7, 2, inner=2, sharing=0.5)
        for bad in (0, -1, -3, 2.5, True):
            with pytest.raises(ValueError, match="max_states"):
                optimize_batch(graphs, max_states=bad, rewrites="pipeline")
        with pytest.raises(ValueError, match="rewrites"):
            optimize_batch(graphs, rewrites="pipelin")

    def test_singleton_batch_matches_solo(self):
        """A batch of one is just the solo optimizer with provenance."""
        ctx = OptimizerContext(formats=ORACLE_FORMATS)
        (g,) = random_batch(42, 1, inner=3, sharing=0.5)
        solo = optimize(g, ctx)
        batch = optimize_batch([g], ctx)
        assert batch.merged.total_seconds == solo.total_seconds
        assert batch.queries[0].plan.total_seconds == solo.total_seconds
        assert batch.queries[0].plan.profile.batch_queries == 1
