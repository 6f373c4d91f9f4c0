"""End-to-end execution correctness: every implementation family is
numerically identical to a dense numpy reference, under both optimized and
baseline-planned annotations."""

from collections.abc import Mapping

import numpy as np
import pytest

from repro.core import (
    ComputeGraph,
    OptimizerContext,
    matrix,
    optimize,
)
from repro.core.atoms import (
    ADD,
    ADD_BIAS,
    COL_SUMS,
    ELEM_DIV,
    ELEM_MUL,
    EXP,
    INVERSE,
    MATMUL,
    RELU,
    RELU_GRAD,
    ROW_SUMS,
    SCALAR_MUL,
    SIGMOID,
    SOFTMAX,
    SUB,
    TRANSPOSE,
)
from repro.core.formats import (
    coo,
    col_strips,
    csr_strips,
    row_strips,
    single,
    sparse_single,
    tiles,
)
from repro.engine import execute_plan, simulate

RNG = np.random.default_rng(42)
CTX = OptimizerContext()


def _run(graph, inputs, ctx=CTX, **opt_kwargs):
    plan = optimize(graph, ctx, **opt_kwargs)
    return execute_plan(plan, inputs, ctx), plan


class TestUnaryOps:
    @pytest.mark.parametrize("op,ref", [
        (RELU, lambda a: np.maximum(a, 0)),
        (RELU_GRAD, lambda a: (a > 0).astype(float)),
        (SIGMOID, lambda a: 1 / (1 + np.exp(-a))),
        (EXP, np.exp),
        (TRANSPOSE, lambda a: a.T),
        (ROW_SUMS, lambda a: a.sum(axis=1, keepdims=True)),
        (COL_SUMS, lambda a: a.sum(axis=0, keepdims=True)),
    ])
    def test_unary_matches_numpy(self, op, ref):
        g = ComputeGraph()
        a = g.add_source("A", matrix(60, 45), tiles(20))
        g.add_op("out", op, (a,))
        data = RNG.standard_normal((60, 45))
        result, _ = _run(g, {"A": data})
        assert np.allclose(result.output(), ref(data))

    def test_scalar_mul_uses_param(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(20, 20), single())
        g.add_op("out", SCALAR_MUL, (a,), param=-3.5)
        data = RNG.standard_normal((20, 20))
        result, _ = _run(g, {"A": data})
        assert np.allclose(result.output(), data * -3.5)

    def test_softmax_rowwise(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(40, 30), row_strips(10))
        g.add_op("out", SOFTMAX, (a,))
        data = RNG.standard_normal((40, 30))
        result, _ = _run(g, {"A": data})
        e = np.exp(data - data.max(axis=1, keepdims=True))
        assert np.allclose(result.output(), e / e.sum(axis=1, keepdims=True))

    def test_inverse(self):
        from repro.workloads.datagen import spd_matrix
        g = ComputeGraph()
        a = g.add_source("A", matrix(30, 30), single())
        g.add_op("out", INVERSE, (a,))
        data = spd_matrix(30)
        result, _ = _run(g, {"A": data})
        assert np.allclose(result.output(), np.linalg.inv(data))


class TestBinaryOps:
    @pytest.mark.parametrize("op,ref", [
        (ADD, np.add), (SUB, np.subtract), (ELEM_MUL, np.multiply),
        (ELEM_DIV, np.divide),
    ])
    def test_elementwise_matches_numpy(self, op, ref):
        g = ComputeGraph()
        a = g.add_source("A", matrix(50, 50), tiles(16))
        b = g.add_source("B", matrix(50, 50), tiles(16))
        g.add_op("out", op, (a, b))
        x = RNG.standard_normal((50, 50))
        y = RNG.standard_normal((50, 50)) + 3.0  # avoid div-by-zero
        result, _ = _run(g, {"A": x, "B": y})
        assert np.allclose(result.output(), ref(x, y))

    def test_add_bias(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(40, 25), row_strips(10))
        b = g.add_source("bias", matrix(1, 25), single())
        g.add_op("out", ADD_BIAS, (a, b))
        x = RNG.standard_normal((40, 25))
        bias = RNG.standard_normal((1, 25))
        result, _ = _run(g, {"A": x, "bias": bias})
        assert np.allclose(result.output(), x + bias)


class TestMatmulImplementations:
    """Each matmul implementation is forced via input formats and verified."""

    @pytest.mark.parametrize("fa,fb", [
        (tiles(16), tiles(16)),          # tile shuffle / broadcast
        (row_strips(16), col_strips(16)),  # strip cross
        (col_strips(16), row_strips(16)),  # outer product + agg
        (single(), single()),            # local
        (single(), col_strips(16)),      # broadcast left
        (row_strips(16), single()),      # broadcast right
    ])
    def test_dense_formats(self, fa, fb):
        g = ComputeGraph()
        a = g.add_source("A", matrix(48, 64), fa)
        b = g.add_source("B", matrix(64, 32), fb)
        g.add_op("out", MATMUL, (a, b))
        x = RNG.standard_normal((48, 64))
        y = RNG.standard_normal((64, 32))
        result, plan = _run(g, {"A": x, "B": y})
        assert np.allclose(result.output(), x @ y)

    @pytest.mark.parametrize("fa", [csr_strips(16), sparse_single(), coo()])
    def test_sparse_lhs(self, fa):
        g = ComputeGraph()
        a = g.add_source("A", matrix(48, 64, sparsity=0.1), fa)
        b = g.add_source("B", matrix(64, 32), single())
        g.add_op("out", MATMUL, (a, b))
        x = RNG.standard_normal((48, 64)) * (RNG.random((48, 64)) < 0.1)
        y = RNG.standard_normal((64, 32))
        result, _ = _run(g, {"A": x, "B": y})
        assert np.allclose(result.output(), x @ y)

    def test_ragged_tiles(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(50, 70), tiles(16))
        b = g.add_source("B", matrix(70, 45), tiles(16))
        g.add_op("out", MATMUL, (a, b))
        x = RNG.standard_normal((50, 70))
        y = RNG.standard_normal((70, 45))
        result, _ = _run(g, {"A": x, "B": y})
        assert np.allclose(result.output(), x @ y)


class TestPipelines:
    def test_multi_op_pipeline_with_transforms(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(60, 80), row_strips(20))
        b = g.add_source("B", matrix(80, 60), col_strips(20))
        ab = g.add_op("AB", MATMUL, (a, b))
        t = g.add_op("T", TRANSPOSE, (ab,))
        s = g.add_op("S", ADD, (ab, t))  # AB is 60x60, symmetric add
        g.add_op("out", RELU, (s,))
        x = RNG.standard_normal((60, 80))
        y = RNG.standard_normal((80, 60))
        result, plan = _run(g, {"A": x, "B": y})
        ref = np.maximum((x @ y) + (x @ y).T, 0)
        assert np.allclose(result.output(), ref)

    def test_shared_subexpression_computed_once(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(30, 30), single())
        sq = g.add_op("sq", MATMUL, (a, a))
        s = g.add_op("sum", ADD, (sq, sq))
        x = RNG.standard_normal((30, 30))
        result, _ = _run(g, {"A": x})
        assert np.allclose(result.output(), 2 * (x @ x))

    def test_multi_output_graph(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(20, 20), single())
        g.add_op("r", RELU, (a,))
        g.add_op("e", EXP, (a,))
        x = RNG.standard_normal((20, 20))
        result, _ = _run(g, {"A": x})
        assert np.allclose(result.outputs["r"], np.maximum(x, 0))
        assert np.allclose(result.outputs["e"], np.exp(x))

    def test_missing_input_raises(self):
        g = ComputeGraph()
        g.add_source("A", matrix(5, 5), single())
        plan = optimize(g, CTX)
        from repro.engine import execute_plan as run
        with pytest.raises(KeyError):
            run(plan, {}, CTX)


class TestLazyVertexValues:
    """``vertex_values`` is a read-only mapping that assembles a vertex on
    first read, over a snapshot of the run's lineage."""

    @staticmethod
    def _graph():
        g = ComputeGraph()
        a = g.add_source("A", matrix(40, 30), row_strips(10))
        b = g.add_source("B", matrix(30, 20), col_strips(5))
        ab = g.add_op("AB", MATMUL, (a, b))
        g.add_op("out", RELU, (g.add_op("T", TRANSPOSE, (ab,)),))
        return g

    def test_every_entry_equals_the_eager_assembly(self):
        from storage_oracle import assemble as eager_assemble

        from repro.engine import Executor

        g = self._graph()
        executor = Executor(optimize(g, CTX), CTX)
        result = executor.run({"A": RNG.standard_normal((40, 30)),
                               "B": RNG.standard_normal((30, 20))})
        values = result.vertex_values
        assert isinstance(values, Mapping) and not isinstance(values, dict)
        assert len(values) == len(g.vertex_ids)
        assert set(values) == set(g.vertex_ids)
        for vid in g.vertex_ids:
            assert vid in values
            want = eager_assemble(executor.lineage.matrices[vid])
            assert values[vid].tobytes() == want.tobytes()
            assert values[vid] is values[vid]
        out = g.outputs[0]
        assert result.outputs[out.name] is values[out.vid]
        assert -1 not in values
        with pytest.raises(KeyError):
            values[-1]
        with pytest.raises(TypeError):
            values[out.vid] = None

    def test_later_run_leaves_an_earlier_result_unchanged(self):
        from repro.engine import Executor

        g = self._graph()
        executor = Executor(optimize(g, CTX), CTX)
        x1, y1 = RNG.standard_normal((40, 30)), RNG.standard_normal((30, 20))
        first = executor.run({"A": x1, "B": y1})
        executor.run({"A": RNG.standard_normal((40, 30)),
                      "B": RNG.standard_normal((30, 20))})
        # Read only now: the first result must still see its own run.
        by_name = {g.vertex(vid).name: value
                   for vid, value in first.vertex_values.items()}
        assert np.array_equal(by_name["A"], x1)
        assert np.allclose(by_name["AB"], x1 @ y1)
        assert np.allclose(by_name["out"], np.maximum((x1 @ y1).T, 0))

    def test_batch_query_outputs_reads_the_mapping(self):
        from repro.core.batch import optimize_batch

        graphs = []
        for scale in (1.0, 2.0):
            g = ComputeGraph()
            a = g.add_source("A", matrix(20, 20), single())
            g.add_op(f"q{scale:g}", SCALAR_MUL,
                     (g.add_op("sq", MATMUL, (a, a)),), param=scale)
            graphs.append(g)
        batch = optimize_batch(graphs, CTX)
        x = RNG.standard_normal((20, 20))
        merged = execute_plan(batch.merged, {"A": x}, CTX)
        for qi, scale in enumerate((1.0, 2.0)):
            (value,) = batch.query_outputs(qi, merged.vertex_values).values()
            assert np.allclose(value, scale * (x @ x))


class TestBaselinePlansExecuteCorrectly:
    def test_all_tile_plan_matches_numpy(self):
        from repro.baselines import plan_all_tile
        g = ComputeGraph()
        a = g.add_source("A", matrix(50, 60), single())
        b = g.add_source("B", matrix(60, 40), single())
        g.add_op("out", MATMUL, (a, b))
        plan = plan_all_tile(g, CTX)
        x = RNG.standard_normal((50, 60))
        y = RNG.standard_normal((60, 40))
        result = execute_plan(plan, {"A": x, "B": y}, CTX)
        assert np.allclose(result.output(), x @ y)

    def test_hand_written_plan_matches_numpy(self):
        from repro.baselines import plan_hand_written
        g = ComputeGraph()
        a = g.add_source("A", matrix(50, 60), single())
        b = g.add_source("B", matrix(60, 40), single())
        ab = g.add_op("AB", MATMUL, (a, b))
        g.add_op("out", RELU, (ab,))
        plan = plan_hand_written(g, CTX)
        x = RNG.standard_normal((50, 60))
        y = RNG.standard_normal((60, 40))
        result = execute_plan(plan, {"A": x, "B": y}, CTX)
        assert np.allclose(result.output(), np.maximum(x @ y, 0))


class TestSimulation:
    def test_simulation_matches_plan_estimate(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(3000, 3000), tiles(1000))
        b = g.add_source("B", matrix(3000, 3000), tiles(1000))
        g.add_op("out", MATMUL, (a, b))
        plan = optimize(g, CTX)
        sim = simulate(plan, CTX)
        assert sim.ok
        assert sim.seconds == pytest.approx(plan.total_seconds, rel=1e-9)

    def test_simulation_reports_failure(self):
        """A plan whose stage exceeds worker disk fails cleanly."""
        from repro.baselines import plan_all_tile
        from repro.cluster import simsql_cluster
        from repro.workloads.ffnn import FFNNConfig, ffnn_backprop_to_w2
        ctx = OptimizerContext(cluster=simsql_cluster(10))
        graph = ffnn_backprop_to_w2(FFNNConfig(hidden=160_000))
        plan = plan_all_tile(graph, ctx)
        sim = simulate(plan, ctx)
        assert not sim.ok
        assert sim.display == "Fail"
        assert sim.failure is not None

    def test_display_formats(self):
        from repro.engine.executor import format_hms
        assert format_hms(59) == "0:59"
        assert format_hms(61) == "1:01"
        assert format_hms(3601) == "1:00:01"
