"""Tests for matrix <-> relation storage round trips.

The block-level ``convert``, ``store_as`` and ``split`` are checked against
the dense round trip of ``storage_oracle.py`` on every ordered pair of
catalog layouts: the same keys in the same order, the same homes, payload
types, index dtypes and ``payload_bytes``, and bit-equal values.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

import storage_oracle as oracle
from repro.cluster import DEFAULT_CLUSTER
from repro.core.formats import (
    DEFAULT_FORMATS,
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
from repro.core.types import MatrixType, matrix
from repro.cost.sparsity import observed_sparsity
from repro.engine.relation import Relation, payload_bytes
from repro.engine.storage import (
    StoredMatrix,
    assemble,
    convert,
    infer_format,
    split,
    store_as,
    stored_sparsity,
)

RNG = np.random.default_rng(7)


def _random_dense(rows, cols):
    return RNG.standard_normal((rows, cols))


def _random_sparse(rows, cols, density=0.05):
    data = RNG.standard_normal((rows, cols))
    mask = RNG.random((rows, cols)) < density
    return data * mask


ALL_FORMAT_CASES = [
    (single(), _random_dense, 1.0),
    (row_strips(7), _random_dense, 1.0),
    (col_strips(13), _random_dense, 1.0),
    (tiles(9), _random_dense, 1.0),
    (tiles(10, 25), _random_dense, 1.0),
    (coo(), _random_sparse, 0.05),
    (csr_strips(8), _random_sparse, 0.05),
]


@pytest.mark.parametrize("fmt,gen,sparsity", ALL_FORMAT_CASES)
def test_round_trip(fmt, gen, sparsity):
    t = matrix(53, 47, sparsity)
    data = gen(53, 47)
    stored = split(data, t, fmt, DEFAULT_CLUSTER)
    assert np.allclose(assemble(stored), data)


def test_round_trip_all_sparse_formats():
    t = matrix(64, 64, 0.05)
    data = _random_sparse(64, 64)
    for fmt in (sparse_single(), sparse_tiles(16), csr_strips(16), coo()):
        stored = split(data, t, fmt, DEFAULT_CLUSTER)
        assert np.allclose(assemble(stored), data), str(fmt)


def test_tuple_count_matches_format(test_dims=(53, 47)):
    t = matrix(*test_dims)
    data = _random_dense(*test_dims)
    for fmt in (row_strips(7), tiles(9), col_strips(13)):
        stored = split(data, t, fmt, DEFAULT_CLUSTER)
        assert len(stored.relation) == fmt.tuple_count(t)


def test_vector_storage():
    t = matrix(1, 100)
    data = _random_dense(1, 100)
    stored = split(data, t, col_strips(30), DEFAULT_CLUSTER)
    assert len(stored.relation) == 4
    assert np.allclose(assemble(stored), data)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        split(_random_dense(5, 5), matrix(6, 5), single(), DEFAULT_CLUSTER)


def test_convert_between_formats():
    t = matrix(40, 60)
    data = _random_dense(40, 60)
    stored = split(data, t, row_strips(10), DEFAULT_CLUSTER)
    retiled = convert(stored, tiles(15), DEFAULT_CLUSTER)
    assert retiled.fmt == tiles(15)
    assert np.allclose(assemble(retiled), data)


def test_convert_identity_is_noop():
    t = matrix(10, 10)
    stored = split(_random_dense(10, 10), t, single(), DEFAULT_CLUSTER)
    assert convert(stored, single(), DEFAULT_CLUSTER) is stored


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 80), st.integers(5, 80),
       st.sampled_from([f for f in DEFAULT_FORMATS if not f.is_sparse]))
def test_round_trip_property(rows, cols, fmt):
    """Property: split/assemble is lossless for any admitting dense format."""
    t = matrix(rows, cols)
    if not fmt.admits(t):
        return
    data = _random_dense(rows, cols)
    assert np.allclose(assemble(split(data, t, fmt, DEFAULT_CLUSTER)), data)


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 60), st.integers(10, 60))
def test_sparse_round_trip_property(rows, cols):
    t = matrix(rows, cols, 0.1)
    data = _random_sparse(rows, cols, 0.1)
    for fmt in (coo(), sparse_single()):
        assert np.allclose(assemble(split(data, t, fmt, DEFAULT_CLUSTER)),
                           data)


class TestStoreAs:
    """store_as / infer_format: wrapping relational op output as a
    StoredMatrix, re-encoding payloads when the format demands it."""

    def test_infer_format_single(self):
        t = matrix(40, 40)
        fmt = infer_format(t, {(0, 0)})
        assert fmt.layout.name == "SINGLE"

    def test_infer_format_tiled(self):
        t = matrix(64, 48)
        keys = {(i, j) for i in range(2) for j in range(2)}
        fmt = infer_format(t, keys)
        assert fmt.is_tiled
        assert fmt.block_rows == 32 and fmt.block_cols == 24
        assert fmt.grid(t) == (2, 2)

    def test_dense_payloads_coerced_to_sparse(self):
        t = matrix(64, 64, 0.05)
        data = _random_sparse(64, 64)
        dense_stored = split(data, t, tiles(16), DEFAULT_CLUSTER)
        # The relation holds dense blocks; the target format is sparse.
        out = store_as(dense_stored.relation, t, sparse_tiles(16),
                       DEFAULT_CLUSTER)
        assert out.fmt == sparse_tiles(16)
        assert all(sp.issparse(b) for b in out.relation.rows.values())
        assert np.allclose(assemble(out), data)

    def test_sparse_payloads_coerced_to_dense(self):
        t = matrix(64, 64, 0.05)
        data = _random_sparse(64, 64)
        sparse_stored = split(data, t, sparse_tiles(16), DEFAULT_CLUSTER)
        out = store_as(sparse_stored.relation, t, tiles(16), DEFAULT_CLUSTER)
        assert out.fmt == tiles(16)
        assert not any(sp.issparse(b) for b in out.relation.rows.values())
        assert np.allclose(assemble(out), data)

    def test_block_mismatch_falls_back_to_resplit(self):
        t = matrix(64, 64)
        data = _random_dense(64, 64)
        coarse = split(data, t, tiles(32), DEFAULT_CLUSTER)  # 2x2 grid
        out = store_as(coarse.relation, t, tiles(16), DEFAULT_CLUSTER)
        assert out.fmt == tiles(16)
        assert set(out.relation.rows) == \
            {(i, j) for i in range(4) for j in range(4)}
        assert np.allclose(assemble(out), data)

    def test_matching_grid_preserves_payload_objects(self):
        t = matrix(64, 64)
        data = _random_dense(64, 64)
        stored = split(data, t, tiles(16), DEFAULT_CLUSTER)
        out = store_as(stored.relation, t, tiles(16), DEFAULT_CLUSTER)
        for key, block in stored.relation.rows.items():
            assert out.relation.rows[key] is block


# ----------------------------------------------------------------------
# Block-level re-keying against the dense round-trip oracle
# ----------------------------------------------------------------------
def assert_same_stored(got: StoredMatrix, want: StoredMatrix) -> None:
    """Keys (in order), homes, payload types, dtypes, byte sizes and values
    bit for bit."""
    assert got.fmt == want.fmt and got.mtype == want.mtype
    assert list(got.relation.rows) == list(want.relation.rows)
    assert got.relation.home == want.relation.home
    for key, expected in want.relation.rows.items():
        payload = got.relation.rows[key]
        assert type(payload) is type(expected), key
        assert payload_bytes(payload) == payload_bytes(expected), key
        if sp.issparse(expected):
            assert payload.shape == expected.shape
            for attr in ("data", "indices", "indptr"):
                a, b = getattr(payload, attr), getattr(expected, attr)
                assert a.dtype == b.dtype, (key, attr)
                assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), \
                    (key, attr)
        else:
            assert payload.shape == expected.shape, key
            assert payload.dtype == expected.dtype, key
            assert payload.flags.c_contiguous and payload.flags.owndata, key
            assert payload.tobytes() == expected.tobytes(), key


@st.composite
def catalog_formats(draw, rows: int, cols: int):
    """Any catalog layout, with block sizes from 1 to past the extent."""
    r = draw(st.integers(1, rows + 2))
    c = draw(st.integers(1, cols + 2))
    return draw(st.sampled_from([
        single(), row_strips(r), col_strips(c), tiles(r, c), coo(),
        csr_strips(r), csc_strips(c), sparse_tiles(min(r, c)),
        sparse_single()]))


@st.composite
def stored_cases(draw):
    """``(mtype, dense data, source format, destination format)``: matrices
    and vectors, dense, sparse, all-zero and signed-zero data."""
    shape = draw(st.sampled_from(["matrix", "row", "column", "vector"]))
    rows = 1 if shape in ("row", "vector") else draw(st.integers(1, 30))
    cols = 1 if shape == "column" else draw(st.integers(1, 30))
    mtype = MatrixType((cols,)) if shape == "vector" else matrix(rows, cols)
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, cols))
    data[rng.random((rows, cols)) >= density] = 0.0
    if draw(st.booleans()):
        data[rng.random((rows, cols)) < 0.1] = -0.0
    src = draw(catalog_formats(rows, cols))
    dst = draw(catalog_formats(rows, cols))
    return mtype, data, src, dst


@settings(max_examples=400, deadline=None)
@given(stored_cases())
def test_convert_matches_dense_round_trip(case):
    mtype, data, src, dst = case
    stored = oracle.split(data, mtype, src, DEFAULT_CLUSTER)
    assert_same_stored(convert(stored, dst, DEFAULT_CLUSTER),
                       oracle.convert(stored, dst, DEFAULT_CLUSTER))


@settings(max_examples=200, deadline=None)
@given(stored_cases())
def test_split_and_assemble_match_oracle(case):
    mtype, data, src, _ = case
    assert_same_stored(split(data, mtype, src, DEFAULT_CLUSTER),
                       oracle.split(data, mtype, src, DEFAULT_CLUSTER))
    stored = oracle.split(data, mtype, src, DEFAULT_CLUSTER)
    got, want = assemble(stored), oracle.assemble(stored)
    assert got.tobytes() == want.tobytes()
    assert stored_sparsity(stored) == observed_sparsity(want)


@settings(max_examples=200, deadline=None)
@given(stored_cases(), st.sampled_from(["csr", "csc", "coo"]))
def test_sparse_input_stored_like_its_dense_copy(case, kind):
    """``split`` takes scipy-sparse input and stores it exactly as it
    stores the dense equivalent."""
    mtype, data, fmt, _ = case
    sparse = sp.csr_matrix(data).asformat(kind)
    assert_same_stored(
        split(sparse, mtype, fmt, DEFAULT_CLUSTER),
        oracle.split(sparse.toarray(), mtype, fmt, DEFAULT_CLUSTER))


@settings(max_examples=200, deadline=None)
@given(stored_cases(), st.integers(1, 4), st.integers(1, 4),
       st.booleans())
def test_store_as_fallback_matches_oracle(case, grid_rows, grid_cols,
                                          csr_payloads):
    """Keys off the destination grid: the blocks are read in the inferred
    tile format and re-keyed, exactly as reassembling and re-splitting."""
    mtype, data, _, dst = case
    br = math.ceil(mtype.rows / grid_rows)
    bc = math.ceil(mtype.cols / grid_cols)
    src = tiles(br, bc)
    grid = src.grid(mtype)
    keys = {(i, j) for i in range(grid[0]) for j in range(grid[1])}
    inferred = infer_format(mtype, keys)
    assume(inferred.grid(mtype) == grid and keys != {
        (i, j) for i in range(dst.grid(mtype)[0])
        for j in range(dst.grid(mtype)[1])})
    relation = oracle.split(data, mtype, inferred, DEFAULT_CLUSTER).relation
    if csr_payloads:
        relation.rows = {k: sp.csr_matrix(p) for k, p in relation.rows.items()}
    assert_same_stored(
        store_as(relation, mtype, dst, DEFAULT_CLUSTER),
        oracle.store_as_fallback(relation, mtype, dst, DEFAULT_CLUSTER))


EVERY_LAYOUT = (single(), row_strips(6), col_strips(7), tiles(6, 9), coo(),
                csr_strips(6), csc_strips(7), sparse_tiles(8), sparse_single())


class TestBlockLevelPayloads:
    """Fixed cases the Hypothesis search might not hit every run."""

    def test_csr_with_stored_zeros_converts_canonically(self):
        t = matrix(12, 10, 0.2)
        data = _random_sparse(12, 10, 0.3)
        stored = split(data, t, csr_strips(4), DEFAULT_CLUSTER)
        for block in stored.relation.rows.values():
            block.data[::2] = 0.0   # kernels like relu leave stored zeros
        for dst in (sparse_single(), sparse_tiles(3), coo(), tiles(5),
                    single()):
            assert_same_stored(convert(stored, dst, DEFAULT_CLUSTER),
                               oracle.convert(stored, dst, DEFAULT_CLUSTER))

    def test_repeated_coordinates_add_up_like_toarray(self):
        t = matrix(3, 4, 0.5)
        block = sp.csr_matrix((np.array([1.0, 2.0, 0.1, 0.2, 0.3, -1.0]),
                               np.array([1, 1, 2, 2, 2, 0]),
                               np.array([0, 5, 5, 6])), shape=(3, 4))
        stored = StoredMatrix(t, sparse_single(), Relation.load(
            DEFAULT_CLUSTER, {(0, 0): block}))
        for dst in (csr_strips(2), coo(), single()):
            assert_same_stored(convert(stored, dst, DEFAULT_CLUSTER),
                               oracle.convert(stored, dst, DEFAULT_CLUSTER))

    def test_sparse_to_sparse_never_densifies(self, monkeypatch):
        t = matrix(40, 600, 0.01)
        data = _random_sparse(40, 600, 0.01)
        stored = split(data, t, csr_strips(8), DEFAULT_CLUSTER)

        def no_dense(*args, **kwargs):
            raise AssertionError("a sparse conversion densified")

        monkeypatch.setattr(sp.csr_matrix, "toarray", no_dense)
        monkeypatch.setattr(sp.csr_matrix, "todense", no_dense)
        for dst in (sparse_single(), sparse_tiles(16), csc_strips(50),
                    coo()):
            out = convert(stored, dst, DEFAULT_CLUSTER)
            back = convert(out, csr_strips(8), DEFAULT_CLUSTER)
            assert_same_stored(back, stored)

    def test_stored_sparsity_counts_blocks(self):
        t = matrix(20, 30, 0.1)
        data = _random_sparse(20, 30, 0.1)
        for fmt in EVERY_LAYOUT:
            stored = split(data, t, fmt, DEFAULT_CLUSTER)
            assert stored_sparsity(stored) == \
                observed_sparsity(oracle.assemble(stored)), str(fmt)
        stored = split(data, t, csr_strips(5), DEFAULT_CLUSTER)
        next(iter(stored.relation.rows.values())).data[0] = 0.0
        assert stored_sparsity(stored) == \
            observed_sparsity(oracle.assemble(stored))

