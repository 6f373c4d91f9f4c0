"""Tests for physical formats: admission, grids, storage sizes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.formats import (
    COL_LAYOUTS,
    DEFAULT_FORMATS,
    DENSE_FORMATS,
    MAX_TUPLE_BYTES,
    ROW_LAYOUTS,
    SINGLE_BLOCK_FORMATS,
    SINGLE_LAYOUTS,
    SINGLE_STRIP_BLOCK_FORMATS,
    SPARSE_ADMIT_THRESHOLD,
    SPARSE_LAYOUTS,
    TILE_LAYOUTS,
    Layout,
    PhysicalFormat,
    admissible_formats,
    coo,
    col_strips,
    csc_strips,
    csr_strips,
    row_strips,
    single,
    sparse_single,
    sparse_tiles,
    tiles,
)
from repro.core.types import (
    ENTRY_BYTES,
    SPARSE_ENTRY_BYTES,
    MatrixType,
    matrix,
)


class TestCatalog:
    def test_paper_inventory_size(self):
        assert len(DEFAULT_FORMATS) == 19

    def test_fig13_subset_sizes(self):
        assert len(SINGLE_STRIP_BLOCK_FORMATS) == 16
        assert len(SINGLE_BLOCK_FORMATS) == 10

    def test_no_duplicates(self):
        assert len(set(DEFAULT_FORMATS)) == 19

    def test_dense_subset_has_no_sparse(self):
        assert all(not f.is_sparse for f in DENSE_FORMATS)

    def test_subsets_are_within_catalog_families(self):
        families = {f.layout for f in DEFAULT_FORMATS}
        for f in SINGLE_STRIP_BLOCK_FORMATS + SINGLE_BLOCK_FORMATS:
            assert f.layout in families


class TestConstruction:
    def test_strip_requires_positive_height(self):
        with pytest.raises(ValueError):
            PhysicalFormat(Layout.ROW_STRIP, block_rows=0)
        with pytest.raises(ValueError):
            PhysicalFormat(Layout.ROW_STRIP)

    def test_single_takes_no_blocks(self):
        with pytest.raises(ValueError):
            PhysicalFormat(Layout.SINGLE, block_rows=10)

    def test_tile_needs_both_extents(self):
        with pytest.raises(ValueError):
            PhysicalFormat(Layout.TILE, block_rows=10)

    @pytest.mark.parametrize("extent", [True, False, 2.0, "10", 10.5,
                                        np.float64(10), [10]])
    def test_rejects_non_integer_block_sizes(self, extent):
        with pytest.raises(ValueError, match="positive integer"):
            PhysicalFormat(Layout.ROW_STRIP, block_rows=extent)
        with pytest.raises(ValueError, match="positive integer"):
            PhysicalFormat(Layout.TILE, block_rows=10, block_cols=extent)

    def test_rejects_a_layout_that_is_not_a_layout(self):
        with pytest.raises(ValueError, match="Layout"):
            PhysicalFormat("row_strip", block_rows=10)

    def test_numpy_block_sizes_equal_python_ones(self):
        fmt = PhysicalFormat(Layout.TILE, np.int64(100), np.int32(100))
        assert fmt == tiles(100) and hash(fmt) == hash(tiles(100))

    def test_classification_flags(self):
        assert single().is_single and not single().is_sparse
        assert sparse_single().is_single and sparse_single().is_sparse
        assert row_strips(5).is_row_partitioned
        assert csr_strips(5).is_row_partitioned and csr_strips(5).is_sparse
        assert col_strips(5).is_col_partitioned
        assert tiles(5).is_tiled
        assert sparse_tiles(5).is_tiled and sparse_tiles(5).is_sparse
        assert coo().is_sparse


class TestGrid:
    def test_single_grid(self):
        assert single().grid(matrix(100, 200)) == (1, 1)

    def test_row_strip_grid_with_ragged_tail(self):
        fmt = row_strips(30)
        assert fmt.grid(matrix(100, 10)) == (4, 1)
        assert fmt.block_shape(matrix(100, 10), 3, 0) == (10, 10)

    def test_tile_grid(self):
        fmt = tiles(10)
        assert fmt.grid(matrix(25, 35)) == (3, 4)
        assert fmt.block_shape(matrix(25, 35), 2, 3) == (5, 5)

    def test_block_shape_bounds_check(self):
        with pytest.raises(IndexError):
            tiles(10).block_shape(matrix(25, 35), 3, 0)

    def test_tuple_count(self):
        assert tiles(10).tuple_count(matrix(25, 35)) == 12
        assert col_strips(7).tuple_count(matrix(5, 21)) == 3

    @given(st.integers(1, 500), st.integers(1, 500),
           st.integers(1, 200), st.integers(1, 200))
    def test_block_shapes_tile_the_matrix(self, rows, cols, br, bc):
        """Property: the block grid exactly covers the matrix."""
        fmt = PhysicalFormat(Layout.TILE, block_rows=br, block_cols=bc)
        t = matrix(rows, cols)
        if not fmt.admits(t):
            return
        gr, gc = fmt.grid(t)
        total_rows = sum(fmt.block_shape(t, i, 0)[0] for i in range(gr))
        total_cols = sum(fmt.block_shape(t, 0, j)[1] for j in range(gc))
        assert total_rows == rows
        assert total_cols == cols


class TestAdmission:
    def test_huge_matrix_rejected_as_single(self):
        # 40 GB matrix cannot be stored in one tuple (paper Section 3).
        huge = matrix(100_000, 50_000)
        assert huge.dense_bytes > MAX_TUPLE_BYTES
        assert not single().admits(huge)
        assert tiles(1000).admits(huge)

    def test_strip_taller_than_matrix_rejected(self):
        assert not row_strips(1000).admits(matrix(10, 10))
        assert row_strips(10).admits(matrix(10, 10))

    def test_sparse_format_rejects_dense_data(self):
        dense = matrix(100, 100, sparsity=1.0)
        assert not csr_strips(10).admits(dense)
        assert csr_strips(10).admits(matrix(100, 100, sparsity=0.01))

    def test_vector_cannot_be_tiled(self):
        bias = matrix(1, 10_000)
        assert not tiles(1000).admits(bias)
        assert single().admits(bias)
        assert col_strips(1000).admits(bias)

    def test_admissible_formats_filters(self):
        t = matrix(5000, 5000)
        fmts = admissible_formats(t)
        assert single() in fmts
        assert tiles(1000) in fmts
        assert all(f.admits(t) for f in fmts)

    def test_higher_rank_rejected(self):
        from repro.core.types import MatrixType
        assert not single().admits(MatrixType((2, 3, 4)))


class TestStorage:
    def test_dense_bytes(self):
        t = matrix(100, 100)
        assert tiles(10).stored_bytes(t) == t.dense_bytes

    def test_sparse_bytes_scale_with_nnz(self):
        t = matrix(1000, 1000, sparsity=0.01)
        sparse = csr_strips(100).stored_bytes(t)
        assert sparse < t.dense_bytes
        assert sparse == pytest.approx(t.nnz * 16)

    def test_max_tuple_bytes_single(self):
        t = matrix(100, 200)
        assert single().max_tuple_bytes(t) == t.dense_bytes

    def test_max_tuple_bytes_tile(self):
        t = matrix(100, 200)
        assert tiles(10).max_tuple_bytes(t) == 10 * 10 * 8

    @given(st.sampled_from(DEFAULT_FORMATS))
    def test_stored_at_least_one_tuple(self, fmt):
        t = matrix(2000, 2000, sparsity=0.05)
        if fmt.admits(t):
            assert fmt.tuple_count(t) >= 1
            assert fmt.stored_bytes(t) > 0


ALL_LAYOUT_FORMATS = (single(), row_strips(7), col_strips(7), tiles(7, 5),
                      coo(), csr_strips(7), csc_strips(7), sparse_tiles(7),
                      sparse_single())


class TestPrecomputedFacts:
    """Flags and the hash are computed once from the layout-class sets;
    equality, repr and fields see only the layout and block extents."""

    def test_every_layout_covered(self):
        assert {f.layout for f in ALL_LAYOUT_FORMATS} == set(Layout)

    @pytest.mark.parametrize("fmt", ALL_LAYOUT_FORMATS, ids=str)
    def test_flags_follow_the_layout_class_sets(self, fmt):
        assert fmt.is_sparse == (fmt.layout in SPARSE_LAYOUTS)
        assert fmt.is_single == (fmt.layout in SINGLE_LAYOUTS)
        assert fmt.is_row_partitioned == (fmt.layout in ROW_LAYOUTS)
        assert fmt.is_col_partitioned == (fmt.layout in COL_LAYOUTS)
        assert fmt.is_tiled == (fmt.layout in TILE_LAYOUTS)
        blocked = (fmt.is_single + fmt.is_row_partitioned
                   + fmt.is_col_partitioned + fmt.is_tiled)
        assert blocked == (0 if fmt.layout is Layout.COO else 1)

    def test_hash_built_from_integers(self):
        """Positions in ``Layout`` and block extents, never the salted
        hash of a layout's name."""
        position = list(Layout).index
        for fmt in ALL_LAYOUT_FORMATS:
            assert hash(fmt) == hash((position(fmt.layout),
                                      fmt.block_rows or 0,
                                      fmt.block_cols or 0))
        assert len({hash(f) for f in DEFAULT_FORMATS}) == 19

    def test_fields_and_repr_unchanged(self):
        fmt = tiles(10, 20)
        assert [f.name for f in dataclasses.fields(fmt)] == [
            "layout", "block_rows", "block_cols"]
        assert repr(fmt) == ("PhysicalFormat(layout=<Layout.TILE: 'tile'>, "
                             "block_rows=10, block_cols=20)")
        assert dataclasses.replace(fmt, block_cols=10) == tiles(10)


def _reference_max_tuple_bytes(fmt, mtype):
    """``max_tuple_bytes`` as first written: the first block's shape."""
    if fmt.layout is Layout.COO:
        return fmt.stored_bytes(mtype) / fmt.tuple_count(mtype)
    rows, cols = fmt.block_shape(mtype, 0, 0)
    if fmt.is_sparse:
        return max(rows * cols * mtype.sparsity * SPARSE_ENTRY_BYTES,
                   SPARSE_ENTRY_BYTES)
    return rows * cols * ENTRY_BYTES


def _reference_admits(fmt, mtype):
    """``admits`` as first written, through the public grid helpers."""
    if mtype.ndim > 2:
        return False
    if fmt.is_sparse and mtype.sparsity > SPARSE_ADMIT_THRESHOLD:
        return False
    if fmt.is_row_partitioned and fmt.block_rows > mtype.rows:
        return False
    if fmt.is_col_partitioned and fmt.block_cols > mtype.cols:
        return False
    if fmt.is_tiled and (fmt.block_rows > mtype.rows
                         or fmt.block_cols > mtype.cols):
        return False
    if _reference_max_tuple_bytes(fmt, mtype) > MAX_TUPLE_BYTES:
        return False
    return fmt.tuple_count(mtype) <= 4_000_000


_EXTENTS = st.sampled_from((1, 3, 99, 100, 1000, 4097, 60_000, 2_000_000))
_FORMATS = st.sampled_from(DEFAULT_FORMATS + ALL_LAYOUT_FORMATS
                           + (row_strips(10), tiles(4000)))


@st.composite
def _types(draw):
    dims = tuple(draw(_EXTENTS) for _ in range(draw(st.integers(1, 3))))
    sparsity = draw(st.sampled_from((1.0, 0.7, 0.6, 0.5, 1e-4, 0.0)))
    return MatrixType(dims, sparsity)


@given(fmt=_FORMATS, mtype=_types())
def test_admission_and_tuple_bytes_match_reference(fmt, mtype):
    assert fmt.admits(mtype) == _reference_admits(fmt, mtype)
    if mtype.ndim <= 2:
        want = _reference_max_tuple_bytes(fmt, mtype)
        got = fmt.max_tuple_bytes(mtype)
        assert got == want and type(got) is type(want)
        assert math.isfinite(got)
