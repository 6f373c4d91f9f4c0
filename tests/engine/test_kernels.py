"""Unit tests for the per-block numerical kernels."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.engine import kernels

RNG = np.random.default_rng(13)

small_arrays = arrays(np.float64, (7, 5),
                      elements=st.floats(-100, 100, allow_nan=False))


class TestDenseKernels:
    def test_matmul(self):
        a, b = RNG.standard_normal((4, 6)), RNG.standard_normal((6, 3))
        assert np.allclose(kernels.matmul(a, b), a @ b)

    def test_matmul_flops_dense(self):
        a, b = np.zeros((4, 6)), np.zeros((6, 3))
        assert kernels.matmul_flops(a, b) == 2 * 4 * 6 * 3

    def test_binary_table(self):
        a = RNG.standard_normal((5, 5))
        b = RNG.standard_normal((5, 5)) + 5.0
        assert np.allclose(kernels.BINARY_KERNELS["add"](a, b), a + b)
        assert np.allclose(kernels.BINARY_KERNELS["sub"](a, b), a - b)
        assert np.allclose(kernels.BINARY_KERNELS["elem_mul"](a, b), a * b)
        assert np.allclose(kernels.BINARY_KERNELS["elem_div"](a, b), a / b)

    @given(small_arrays)
    @settings(max_examples=25, deadline=None)
    def test_relu_properties(self, a):
        out = kernels.relu(a)
        assert np.all(out >= 0)
        assert np.allclose(out, np.maximum(a, 0))
        # Idempotence: relu(relu(a)) == relu(a).
        assert np.allclose(kernels.relu(out), out)

    @given(small_arrays)
    @settings(max_examples=25, deadline=None)
    def test_relu_grad_is_indicator(self, a):
        g = kernels.relu_grad(a)
        assert set(np.unique(g)) <= {0.0, 1.0}

    def test_sigmoid_range(self):
        a = RNG.standard_normal((10, 10)) * 10
        out = kernels.sigmoid(a)
        assert np.all((out > 0) & (out < 1))

    def test_softmax_rows_sum_to_one(self):
        a = RNG.standard_normal((8, 12)) * 5
        out = kernels.softmax_rows(a)
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.all(out >= 0)

    def test_softmax_is_stable_for_large_inputs(self):
        a = np.full((2, 3), 1e4)
        out = kernels.softmax_rows(a)
        assert np.isfinite(out).all()

    def test_reductions(self):
        a = RNG.standard_normal((6, 4))
        assert np.allclose(kernels.row_sums(a), a.sum(axis=1,
                                                      keepdims=True))
        assert np.allclose(kernels.col_sums(a), a.sum(axis=0,
                                                      keepdims=True))

    def test_transpose_copies(self):
        a = RNG.standard_normal((3, 5))
        t = kernels.transpose(a)
        assert np.allclose(t, a.T)
        a[0, 0] = 99.0
        assert t[0, 0] != 99.0  # independent storage

    def test_inverse(self):
        a = RNG.standard_normal((6, 6)) + 6 * np.eye(6)
        assert np.allclose(kernels.inverse(a) @ a, np.eye(6), atol=1e-9)

    def test_add_bias(self):
        a = RNG.standard_normal((4, 3))
        bias = RNG.standard_normal((1, 3))
        assert np.allclose(kernels.add_bias(a, bias), a + bias)


class TestSparseKernels:
    def _sparse(self, shape=(6, 8), density=0.3):
        dense = RNG.standard_normal(shape) * (RNG.random(shape) < density)
        return sp.csr_matrix(dense), dense

    def test_matmul_sparse_lhs_densifies(self):
        s, dense = self._sparse()
        b = RNG.standard_normal((8, 4))
        out = kernels.matmul(s, b)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, dense @ b)

    def test_matmul_flops_sparse(self):
        s, _ = self._sparse()
        b = np.zeros((8, 4))
        assert kernels.matmul_flops(s, b) == 2 * s.nnz * 4

    def test_relu_sparse_preserves_structure(self):
        s, dense = self._sparse()
        out = kernels.relu(s)
        assert sp.issparse(out)
        assert np.allclose(out.toarray(), np.maximum(dense, 0))

    def test_relu_grad_sparse(self):
        s, dense = self._sparse()
        out = kernels.relu_grad(s)
        assert sp.issparse(out)
        assert np.allclose(out.toarray(), (dense > 0) * (dense != 0))

    def test_elem_mul_sparse(self):
        s, dense = self._sparse()
        b = RNG.standard_normal((6, 8))
        out = kernels.elem_mul(s, b)
        assert np.allclose(kernels.to_dense(out), dense * b)

    def test_transpose_sparse(self):
        s, dense = self._sparse()
        out = kernels.transpose(s)
        assert sp.issparse(out)
        assert np.allclose(out.toarray(), dense.T)

    def test_reductions_on_sparse(self):
        s, dense = self._sparse()
        assert np.allclose(kernels.row_sums(s),
                           dense.sum(axis=1, keepdims=True))
        assert np.allclose(kernels.col_sums(s),
                           dense.sum(axis=0, keepdims=True))

    def test_to_dense(self):
        s, dense = self._sparse()
        assert np.allclose(kernels.to_dense(s), dense)
        assert kernels.to_dense(dense) is not None


class TestInPlaceWrites:
    """Writing into a block the caller owns rounds exactly like allocating
    a fresh one, and nothing writes into a block it was only handed."""

    @staticmethod
    def _reference_epilogue(block, steps):
        # The fresh-array forms the in-place kernels replaced.
        for step in steps:
            if step.op_name == "scalar_mul":
                block = block * step.param
            elif step.op_name == "relu":
                block = np.maximum(block, 0.0)
            elif step.op_name == "relu_grad":
                block = (block > 0).astype(np.float64)
            elif step.op_name == "sigmoid":
                block = 1.0 / (1.0 + np.exp(-block))
            else:
                block = np.exp(block)
        return block

    @given(small_arrays, st.lists(st.sampled_from(
        ["relu", "relu_grad", "sigmoid", "exp", "scalar_mul"]),
        min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_epilogue_bit_identical_and_inputs_untouched(self, a, names):
        from repro.core.atoms import FusedStep

        steps = [FusedStep(n, -0.7 if n == "scalar_mul" else None)
                 for n in names]
        before = a.copy()
        owned = a.copy()
        with np.errstate(over="ignore"):   # exp of exp overflows to inf
            want = self._reference_epilogue(a, steps)
            handed = kernels.apply_epilogue(a, steps)
            result = kernels.apply_epilogue(owned, steps, owned=True)
        assert a.tobytes() == before.tobytes()
        assert result is owned
        assert handed.tobytes() == want.tobytes()
        assert result.tobytes() == want.tobytes()

    @given(small_arrays, small_arrays, small_arrays)
    @settings(max_examples=25, deadline=None)
    def test_accumulate_matches_fresh_sums(self, a, b, c):
        total = kernels.accumulate(kernels.accumulate(a.copy(), b), c)
        assert total.tobytes() == ((a + b) + c).tobytes()

    def test_accumulate_leaves_non_dense_parts_alone(self):
        a = RNG.standard_normal((4, 4))
        s = sp.csr_matrix(np.eye(4))
        assert np.array_equal(kernels.accumulate(a.copy(), s), a + s)
        before = a.copy()
        kernels.accumulate(s, a)
        assert np.array_equal(a, before)

    def test_softmax_leaves_its_input_alone(self):
        a = RNG.standard_normal((6, 5))
        before = a.copy()
        out = kernels.softmax_rows(a)
        assert np.array_equal(a, before)
        e = np.exp(a - a.max(axis=1, keepdims=True))
        assert out.tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()
