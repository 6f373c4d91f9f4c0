"""Tests for matrix types and scalar sparsity propagation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.types import (
    ENTRY_BYTES,
    MatrixType,
    intersect_sparsity,
    matmul_sparsity,
    matrix,
    union_sparsity,
    vector,
)


class TestMatrixType:
    def test_basic_accessors(self):
        t = matrix(100, 200)
        assert t.rows == 100
        assert t.cols == 200
        assert t.ndim == 2
        assert t.entries == 20_000
        assert t.dense_bytes == 20_000 * ENTRY_BYTES

    def test_vector_is_single_row(self):
        v = vector(50)
        assert v.rows == 1
        assert v.cols == 50
        assert v.entries == 50

    def test_default_sparsity_is_dense(self):
        assert matrix(3, 3).sparsity == 1.0
        assert matrix(3, 3).nnz == 9

    def test_nnz_scales_with_sparsity(self):
        t = matrix(100, 100, sparsity=0.25)
        assert t.nnz == pytest.approx(2500)

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            MatrixType(())

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            matrix(0, 5)
        with pytest.raises(ValueError):
            matrix(5, -1)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            matrix(2, 2, sparsity=1.5)
        with pytest.raises(ValueError):
            matrix(2, 2, sparsity=-0.1)

    @pytest.mark.parametrize("dims", [(2.5, 3), (True, 3), (3, False),
                                      ("3", 4), (None, 4), (np.float64(2), 3),
                                      (2, [3])])
    def test_rejects_non_integer_extent(self, dims):
        with pytest.raises(ValueError, match="positive integers"):
            MatrixType(dims)

    @pytest.mark.parametrize("dims", [[2, 3], "23", None, 5])
    def test_rejects_dims_that_are_not_a_tuple(self, dims):
        with pytest.raises(ValueError, match="tuple"):
            MatrixType(dims)

    @pytest.mark.parametrize("sparsity", ["0.5", None, True, False,
                                          [0.5], math.nan, 1 + 0j])
    def test_rejects_non_real_sparsity(self, sparsity):
        with pytest.raises(ValueError, match="sparsity"):
            matrix(2, 2, sparsity=sparsity)

    def test_accepts_numpy_integers_and_reals(self):
        t = MatrixType((np.int64(4), np.int32(5)), np.float64(0.5))
        assert t == matrix(4, 5, 0.5) and hash(t) == hash(matrix(4, 5, 0.5))
        assert matrix(2, 2, sparsity=1) == matrix(2, 2)
        assert matrix(2, 2, sparsity=0).nnz == 0

    def test_transposed(self):
        t = matrix(3, 7, sparsity=0.5).transposed()
        assert (t.rows, t.cols) == (7, 3)
        assert t.sparsity == 0.5

    def test_transpose_rejects_higher_rank(self):
        with pytest.raises(ValueError):
            MatrixType((2, 3, 4)).transposed()

    def test_with_sparsity(self):
        t = matrix(4, 4).with_sparsity(0.1)
        assert t.sparsity == 0.1
        assert t.dims == (4, 4)

    def test_sparse_bytes_smaller_when_sparse(self):
        t = matrix(1000, 1000, sparsity=0.01)
        assert t.sparse_bytes < t.dense_bytes
        assert not t.is_dense

    def test_dense_preferred_when_dense(self):
        assert matrix(100, 100).is_dense

    def test_hashable_and_equal(self):
        assert matrix(2, 3) == matrix(2, 3)
        assert hash(matrix(2, 3)) == hash(matrix(2, 3))
        assert matrix(2, 3) != matrix(2, 3, sparsity=0.5)


class TestSparsityPropagation:
    def test_matmul_dense_stays_dense(self):
        assert matmul_sparsity(matrix(10, 10), matrix(10, 10)) == 1.0

    def test_matmul_zero(self):
        assert matmul_sparsity(matrix(10, 10, 0.0), matrix(10, 10)) == 0.0

    def test_matmul_sparse_densifies_with_depth(self):
        # A long inner dimension fills in the output.
        shallow = matmul_sparsity(matrix(10, 10, 0.1), matrix(10, 10, 0.1))
        deep = matmul_sparsity(matrix(10, 10_000, 0.1),
                               matrix(10_000, 10, 0.1))
        assert deep > shallow
        assert deep == pytest.approx(1.0, abs=1e-6)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_union_bounds(self, a, b):
        u = union_sparsity(a, b)
        assert max(a, b) - 1e-12 <= u <= 1.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_intersection_bounds(self, a, b):
        i = intersect_sparsity(a, b)
        assert 0.0 <= i <= min(a, b) + 1e-12

    @given(st.integers(1, 10_000), st.floats(0, 1), st.floats(0, 1))
    def test_matmul_sparsity_in_unit_interval(self, k, sa, sb):
        s = matmul_sparsity(matrix(5, k, sa), matrix(k, 5, sb))
        assert 0.0 <= s <= 1.0
        assert math.isfinite(s)

    @given(st.integers(1, 1000), st.floats(0.0001, 1), st.floats(0.0001, 1))
    def test_matmul_sparsity_monotone_in_inputs(self, k, sa, sb):
        lo = matmul_sparsity(matrix(5, k, sa * 0.5), matrix(k, 5, sb))
        hi = matmul_sparsity(matrix(5, k, sa), matrix(k, 5, sb))
        assert lo <= hi + 1e-12


class TestPrecomputedFacts:
    """``ndim``, ``rows``, ``cols`` and the hash are computed once on
    construction; equality, repr, fields and the serialized form see only
    ``dims`` and ``sparsity``."""

    @pytest.mark.parametrize("dims,shape", [((7,), (1, 1, 7)),
                                            ((1, 9), (2, 1, 9)),
                                            ((4, 5), (2, 4, 5)),
                                            ((2, 3, 4), (3, 2, 4))])
    def test_shape_facts(self, dims, shape):
        t = MatrixType(dims)
        assert (t.ndim, t.rows, t.cols) == shape

    def test_fields_repr_and_asdict_unchanged(self):
        t = matrix(2, 3, 0.5)
        assert [f.name for f in dataclasses.fields(t)] == ["dims",
                                                           "sparsity"]
        assert dataclasses.asdict(t) == {"dims": (2, 3), "sparsity": 0.5}
        assert repr(t) == "MatrixType(dims=(2, 3), sparsity=0.5)"
        assert dataclasses.replace(t, sparsity=0.25) == matrix(2, 3, 0.25)

    def test_hash_is_the_field_tuple_hash(self):
        for t in (matrix(2, 3), vector(9, 0.1), MatrixType((4,), 0.0)):
            assert hash(t) == hash((t.dims, t.sparsity))
        assert hash(matrix(2, 3, 1)) == hash(matrix(2, 3, 1.0))
