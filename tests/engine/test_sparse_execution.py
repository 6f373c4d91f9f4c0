"""Sparse inputs run end to end as sparse blocks.

``execute_plan`` takes scipy-sparse inputs and stores them block by block,
so a sparse matrix as wide as AmazonCat's features (597,540 columns) is
never densified: ``tracemalloc``'s peak over planning and execution stays
far below the size of one dense copy of it.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import ComputeGraph, OptimizerContext, matrix, optimize
from repro.core.atoms import MATMUL, RELU
from repro.core.formats import (
    coo,
    csr_strips,
    row_strips,
    sparse_single,
    tiles,
)
from repro.engine import execute_plan, simulate
from repro.lang import build, input_matrix, relu
from repro.workloads import AMAZONCAT_FEATURES
from repro.workloads.datagen import AMAZONCAT_MEAN_NNZ_PER_ROW, \
    sparse_features

#: Rows of the AmazonCat-wide input: one dense copy of it is 219 MiB,
#: several times the bound below, yet well under the suite's 1 GiB
#: per-test RSS budget should a regression make that copy.
ROWS = 48
#: Columns of the dense right-hand side (597,540 x 2 is 9.1 MiB).
RHS_COLS = 2
#: Bound on tracemalloc's peak while planning and executing.  The run
#: copies the right-hand side into blocks and may transform it once, so
#: it peaks near 18 MiB.
PEAK_BOUND_MIB = 32


def _product_graph(x_fmt, w_fmt, x_sparsity: float) -> ComputeGraph:
    g = ComputeGraph()
    x = g.add_source("X", matrix(ROWS, AMAZONCAT_FEATURES, x_sparsity), x_fmt)
    w = g.add_source("W", matrix(AMAZONCAT_FEATURES, RHS_COLS), w_fmt)
    g.add_op("XW", MATMUL, (x, w))
    return g


@pytest.mark.parametrize("x_fmt,w_fmt", [
    (csr_strips(16), row_strips(10_000)),
    (sparse_single(), row_strips(100_000)),
    (coo(), tiles(100_000, RHS_COLS)),
], ids=["csr-strips", "sparse-single", "coo"])
def test_amazoncat_width_input_is_never_densified(x_fmt, w_fmt):
    x = sparse_features(ROWS, AMAZONCAT_FEATURES, AMAZONCAT_MEAN_NNZ_PER_ROW,
                        seed=3)
    w = np.random.default_rng(4).standard_normal(
        (AMAZONCAT_FEATURES, RHS_COLS))
    dense_copy_mib = ROWS * AMAZONCAT_FEATURES * 8 / 2**20
    assert dense_copy_mib > 6 * PEAK_BOUND_MIB
    graph = _product_graph(x_fmt, w_fmt,
                           x.nnz / (ROWS * AMAZONCAT_FEATURES))
    ctx = OptimizerContext()

    tracemalloc.start()
    try:
        plan = optimize(graph, ctx)
        result = execute_plan(plan, {"X": x, "W": w}, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert result.ok, result.failure
    assert np.allclose(result.output(), x @ w)
    assert peak / 2**20 < PEAK_BOUND_MIB


def test_csr_input_runs_like_its_dense_copy():
    """A CSR input planned as CSR strips gives the same outputs, bit for
    bit, and the same ledger as the same matrix fed dense."""
    rng = np.random.default_rng(11)
    x = sp.random(200, 300, density=0.02, format="csr", random_state=rng)
    w = rng.standard_normal((300, 40))
    g = ComputeGraph()
    xv = g.add_source("X", matrix(200, 300, 0.02), csr_strips(50))
    wv = g.add_source("W", matrix(300, 40), row_strips(100))
    g.add_op("H", RELU, (g.add_op("XW", MATMUL, (xv, wv)),))
    ctx = OptimizerContext()
    plan = optimize(g, ctx)

    sparse_run = execute_plan(plan, {"X": x, "W": w}, ctx)
    dense_run = execute_plan(plan, {"X": x.toarray(), "W": w}, ctx)
    assert sparse_run.ok and dense_run.ok
    assert sparse_run.output().tobytes() == dense_run.output().tobytes()
    assert np.allclose(sparse_run.output(), np.maximum(x @ w, 0.0))
    assert [(r.name, r.seconds, r.features) for r in sparse_run.ledger.stages] \
        == [(r.name, r.seconds, r.features) for r in dense_run.ledger.stages]


@pytest.mark.parametrize("expr,expected,rewrites,impl", [
    (lambda a: a.T, lambda x: x.T, "none", "t_blocked_sparse"),
    (lambda a: a * 2.0, lambda x: x * 2.0, "none", "map_scalar_mul"),
    (lambda a: relu(a.T), lambda x: np.maximum(x.T, 0.0), "none",
     "map_relu"),
    (lambda a: relu(a * 2.0), lambda x: np.maximum(x * 2.0, 0.0),
     "pipeline", "fused_map"),
], ids=["transpose", "scalar-mul", "relu-of-transpose", "fused-chain"])
def test_coo_operators_work_on_triples(expr, expected, rewrites, impl):
    """A COO chunk holds (row, col, value) triples, not a block: a
    transpose swaps each triple's row and column, a map or fused map
    chain touches only the values, and the result stays COO.  The
    engine's measured charge matches the simulated one (the chunk keys do
    not move, so the transpose's shuffle ships nothing and charges
    nothing)."""
    x = sp.random(60, 40, density=0.05, random_state=1)
    x.data -= 0.5
    a = input_matrix("A", 60, 40, sparsity=0.05, fmt=coo())
    out = expr(a)
    out.name = "out"
    ctx = OptimizerContext()
    plan = optimize(build(out), ctx, rewrites=rewrites)
    assert any(i.name.startswith(impl)
               for i in plan.annotation.impls.values())
    assert all(f.layout is coo().layout
               for f in plan.cost.vertex_formats.values())

    result = execute_plan(plan, {"A": x}, ctx)
    assert result.ok, result.failure
    assert np.array_equal(result.output(), expected(x.toarray()))
    assert result.ledger.total_seconds == pytest.approx(
        simulate(plan, ctx).seconds, rel=1e-3)
