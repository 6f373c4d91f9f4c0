"""Physical storage of matrices inside the relational engine.

Maps numpy/scipy matrices to and from keyed block relations in every
physical format of the catalog.  Keys are ``(blockRow, blockCol)`` pairs —
the ``tileRow`` / ``tileCol`` attributes of the paper's SQL schemas.

A matrix stays a relation of blocks from :func:`split` to the result.
:func:`convert` re-keys blocks the way TRA re-keys a tensor relation and
Spark's ``BlockMatrix`` changes layouts: each destination block is built
from the pieces of the source blocks it overlaps, so no transform holds
the whole matrix as one dense array, and sparse data stays sparse between
sparse formats.  Only :func:`assemble` gathers a whole dense matrix, for
callers that read one.

Every destination block is exactly what cutting the assembled dense
matrix would give: dense blocks are C-contiguous float64 arrays the block
owns; CSR blocks are what ``csr_matrix`` builds from the dense block
(sorted indices, no stored zeros, the same index dtype); COO chunks hold
the non-zero triples in row-major order.  Measured charges read payload
sizes, so they do not depend on the path that built a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ..core.formats import Layout, PhysicalFormat
from ..core.types import MatrixType
from ..cluster import ClusterConfig
from .relation import Relation

BlockKey = tuple[int, int]

_SINGLE = PhysicalFormat(Layout.SINGLE)
_SPARSE_SINGLE = PhysicalFormat(Layout.SPARSE_SINGLE)
_INT32_MAX = np.iinfo(np.int32).max


@dataclass
class StoredMatrix:
    """A matrix stored in the engine under a concrete physical format."""

    mtype: MatrixType
    fmt: PhysicalFormat
    relation: Relation

    @property
    def grid(self) -> tuple[int, int]:
        return self.fmt.grid(self.mtype)


def _block_bounds(extent: int, block: int | None) -> list[tuple[int, int]]:
    """Split ``extent`` into ranges of (up to) ``block``; one range if None."""
    if block is None or block >= extent:
        return [(0, extent)]
    count = math.ceil(extent / block)
    return [(i * block, min((i + 1) * block, extent)) for i in range(count)]


@lru_cache(maxsize=4096)
def grid_bounds(mtype: MatrixType, fmt: PhysicalFormat):
    """Row and column ranges of a block-partitioned format's blocks."""
    row_block = fmt.block_rows if (fmt.is_row_partitioned or fmt.is_tiled) \
        else None
    col_block = fmt.block_cols if (fmt.is_col_partitioned or fmt.is_tiled) \
        else None
    return (tuple(_block_bounds(mtype.rows, row_block)),
            tuple(_block_bounds(mtype.cols, col_block)))


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def split(matrix, mtype: MatrixType, fmt: PhysicalFormat,
          cluster: ClusterConfig) -> StoredMatrix:
    """Store a matrix in ``fmt``.

    ``matrix`` is a dense array (a 1-D one is read as one row) or a
    scipy-sparse matrix.  A sparse input is stored exactly as its dense
    equivalent would be, without ever densifying it whole: sparse formats
    get canonical CSR slices of it, dense formats densify it one block at
    a time, and COO takes its triples.
    """
    if sp.issparse(matrix):
        source, src_fmt = matrix.tocsr(), _SPARSE_SINGLE
    else:
        source, src_fmt = np.asarray(matrix, dtype=np.float64), _SINGLE
        if source.ndim == 1:
            source = source.reshape(1, -1)
    if source.shape != (mtype.rows, mtype.cols):
        raise ValueError(
            f"data shape {source.shape} does not match type {mtype}")
    rows = _rekey(mtype, src_fmt, {(0, 0): source}, fmt)
    return StoredMatrix(mtype, fmt, Relation.load(cluster, rows))


def assemble(stored: StoredMatrix) -> np.ndarray:
    """Gather a stored matrix into one fresh dense numpy array."""
    (dense,) = _rekey(stored.mtype, stored.fmt, stored.relation.rows,
                      _SINGLE).values()
    return dense


def convert(stored: StoredMatrix, dst: PhysicalFormat,
            cluster: ClusterConfig) -> StoredMatrix:
    """Re-key a stored matrix's blocks into another format.

    Data-correct restructure; the *cost* of the conversion is charged by the
    executor from the chosen transformation's analytic features.
    """
    if stored.fmt == dst:
        return stored
    rows = _rekey(stored.mtype, stored.fmt, stored.relation.rows, dst)
    return StoredMatrix(stored.mtype, dst, Relation.load(cluster, rows))


def stored_sparsity(stored: StoredMatrix) -> float:
    """Fraction of non-zero entries, counted block by block.

    Equal to ``observed_sparsity(assemble(stored))`` for payloads without
    repeated coordinates; a CSR block's stored zeros do not count.
    """
    rows = stored.relation.rows.values()
    if stored.fmt.layout is Layout.COO:
        nnz = sum(np.count_nonzero(chunk[:, 2]) for chunk in rows)
    else:
        nnz = sum(np.count_nonzero(block.data) if sp.issparse(block)
                  else np.count_nonzero(block) for block in rows)
    total = stored.mtype.rows * stored.mtype.cols
    return float(nnz) / total if total else 0.0


def infer_format(mtype: MatrixType, keys) -> PhysicalFormat:
    """Infer a block layout from relational result keys (fallback path)."""
    max_i = max(k[0] for k in keys) + 1
    max_j = max(k[1] for k in keys) + 1
    br = math.ceil(mtype.rows / max_i)
    bc = math.ceil(mtype.cols / max_j)
    if max_i == 1 and max_j == 1:
        return PhysicalFormat(Layout.SINGLE)
    return PhysicalFormat(Layout.TILE, block_rows=br, block_cols=bc)


def store_as(relation: Relation, mtype: MatrixType, fmt: PhysicalFormat,
             cluster: ClusterConfig) -> StoredMatrix:
    """Wrap relational output blocks as a stored matrix in ``fmt``.

    Output keys are expected to match the format's grid; payloads are
    re-encoded (dense/sparse) when the format demands it.  When the keys
    do not form the expected grid, the blocks are read in the tile format
    :func:`infer_format` gives their keys and re-keyed into ``fmt`` (the
    cost of that restructure is the producing stage's to charge).
    """
    expected = fmt.grid(mtype)
    keys = set(relation.rows.keys())
    want = {(i, j) for i in range(expected[0]) for j in range(expected[1])}
    if keys != want:
        rows = _rekey(mtype, infer_format(mtype, keys), relation.rows, fmt)
        return StoredMatrix(mtype, fmt, Relation.load(cluster, rows))
    rows = {}
    for key, payload in relation.rows.items():
        if fmt.is_sparse and not sp.issparse(payload):
            rows[key] = sp.csr_matrix(payload)
        elif not fmt.is_sparse and sp.issparse(payload):
            rows[key] = payload.toarray()
        else:
            rows[key] = payload
    return StoredMatrix(mtype, fmt, Relation(cluster, rows, relation.home))


# ----------------------------------------------------------------------
# Block re-keying
# ----------------------------------------------------------------------
def _rekey(mtype: MatrixType, src_fmt: PhysicalFormat, src_rows: dict,
           dst: PhysicalFormat) -> dict[BlockKey, object]:
    """The blocks of ``dst`` holding the matrix ``src_rows`` holds in
    ``src_fmt``, keyed in the grid's row-major order."""
    if Layout.COO not in (src_fmt.layout, dst.layout) and (
            not dst.is_sparse
            or not any(sp.issparse(p) for p in src_rows.values())):
        # Dense blocks, and CSR blocks of a dense source, are cut from the
        # source blocks they overlap; sparse data goes by its entries.
        return _cut_blocks(mtype, src_fmt, src_rows, dst)
    r, c, v = _entries(mtype, src_fmt, src_rows)
    if dst.layout is Layout.COO:
        return _coo_chunks(r, c, v, dst.grid(mtype)[0])
    return _blocks_from_entries(r, c, v, mtype, dst)


def _cut_blocks(mtype, src_fmt, src_rows, dst) -> dict:
    """Dense blocks of ``dst`` cut from the source blocks they overlap, or
    CSR blocks of ``dst`` cut from dense source blocks."""
    src_bounds = grid_bounds(mtype, src_fmt)
    row_bounds, col_bounds = grid_bounds(mtype, dst)
    sparse = dst.is_sparse
    rows: dict[BlockKey, object] = {}
    for i, (r0, r1) in enumerate(row_bounds):
        for j, (c0, c1) in enumerate(col_bounds):
            block = _dense_region(src_rows, src_bounds, r0, r1, c0, c1,
                                  owned=not sparse)
            rows[(i, j)] = sp.csr_matrix(block) if sparse else block
    return rows


def _dense_region(src_rows, src_bounds, r0, r1, c0, c1,
                  owned: bool) -> np.ndarray:
    """``[r0:r1, c0:c1]`` of a block relation as a dense float64 array.

    ``owned`` asks for a fresh C-contiguous array; otherwise a region that
    lies inside one dense source block comes back as a view of it, which
    the caller must not write into.
    """
    row_bounds, col_bounds = src_bounds
    shape = (r1 - r0, c1 - c0)
    pieces = []
    for i in _overlapping(row_bounds, r0, r1):
        br0, br1 = row_bounds[i]
        a0, a1 = max(r0, br0), min(r1, br1)
        for j in _overlapping(col_bounds, c0, c1):
            block = src_rows.get((i, j))
            if block is None:
                continue
            bc0, bc1 = col_bounds[j]
            _check_shape(block, (i, j), (br1 - br0, bc1 - bc0))
            b0, b1 = max(c0, bc0), min(c1, bc1)
            pieces.append(((slice(a0 - r0, a1 - r0), slice(b0 - c0, b1 - c0)),
                           block, (a0 - br0, a1 - br0, b0 - bc0, b1 - bc0)))
    if len(pieces) == 1 and pieces[0][0] == (slice(0, shape[0]),
                                             slice(0, shape[1])):
        _, block, local = pieces[0]
        piece, fresh = _piece(block, *local)
        if fresh:
            return piece
        if owned:
            return np.array(piece, dtype=np.float64, order="C")
        return np.asarray(piece, dtype=np.float64)
    out = np.zeros(shape)
    # One piece at a time, so each temporary is freed before the next.
    for where, block, local in pieces:
        out[where] = _piece(block, *local)[0]
    return out


def _piece(block, a0: int, a1: int, b0: int, b1: int):
    """``(block[a0:a1, b0:b1], fresh)``: a view of a dense block, or a fresh
    dense array of a sparse one."""
    if not sp.issparse(block):
        return block[a0:a1, b0:b1], False
    if (a0, b0) == (0, 0) and (a1, b1) == block.shape:
        return block.toarray().astype(np.float64, copy=False), True
    csr = block.tocsr()
    lo, hi = csr.indptr[a0], csr.indptr[a1]
    r = np.repeat(np.arange(a1 - a0), np.diff(csr.indptr[a0:a1 + 1]))
    c = csr.indices[lo:hi]
    keep = (c >= b0) & (c < b1)
    out = np.zeros((a1 - a0, b1 - b0))
    # Unbuffered, in storage order, from zero: as toarray adds.
    np.add.at(out.ravel(), r[keep] * (b1 - b0) + (c[keep] - b0),
              csr.data[lo:hi][keep])
    return out, True


def _overlapping(bounds: list[tuple[int, int]], lo: int, hi: int) -> range:
    """Indices of the ranges in ``bounds`` that overlap ``[lo, hi)``."""
    size = bounds[0][1] - bounds[0][0]
    return range(lo // size, min((hi - 1) // size, len(bounds) - 1) + 1)


def _check_shape(block, key: BlockKey, shape: tuple[int, int]) -> None:
    if block.shape != shape:
        raise ValueError(f"block {key} has shape {block.shape}, but its "
                         f"place in the grid is {shape}")


def _entries(mtype: MatrixType, fmt: PhysicalFormat, rows: dict):
    """The non-zero entries of a block relation, in row-major order.

    Returns ``(row, col, value)`` arrays holding what the assembled dense
    matrix holds: entries at a repeated coordinate of a sparse block add
    up in storage order (as ``toarray`` does), and zeros are dropped.
    """
    parts = []
    if fmt.layout is Layout.COO:
        for chunk in rows.values():
            parts.append((chunk[:, 0].astype(np.int64),
                          chunk[:, 1].astype(np.int64), chunk[:, 2]))
    else:
        row_bounds, col_bounds = grid_bounds(mtype, fmt)
        for (i, j), block in rows.items():
            (r0, r1), (c0, c1) = row_bounds[i], col_bounds[j]
            _check_shape(block, (i, j), (r1 - r0, c1 - c0))
            r, c, v = _block_entries(block)
            parts.append((r + r0, c + c0, v))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0)
    r, c, v = (np.concatenate(arrays) for arrays in zip(*parts))
    return _canonical(r, c, v, mtype.cols)


def _block_entries(block):
    """Local ``(row, col, value)`` of one block's stored entries."""
    if sp.issparse(block):
        csr = block.tocsr()
        nnz = csr.indptr[-1]
        r = np.repeat(np.arange(csr.shape[0], dtype=np.int64),
                      np.diff(csr.indptr))
        return (r, csr.indices[:nnz].astype(np.int64),
                csr.data[:nnz].astype(np.float64))
    dense = np.asarray(block, dtype=np.float64)
    r, c = np.nonzero(dense)
    return r, c, dense[r, c]


def _canonical(r, c, v, cols: int):
    """Sort entries row-major, add up repeated coordinates, drop zeros."""
    lin = r * cols + c
    if len(lin) > 1 and not (lin[1:] > lin[:-1]).all():
        order = np.argsort(lin, kind="stable")
        r, c, v, lin = r[order], c[order], v[order], lin[order]
        starts = np.r_[True, lin[1:] != lin[:-1]]
        if not starts.all():
            # Unbuffered, in storage order, from zero: as toarray adds.
            sums = np.zeros(np.count_nonzero(starts))
            np.add.at(sums, np.cumsum(starts) - 1, v)
            r, c, v = r[starts], c[starts], sums
    keep = v != 0
    if not keep.all():
        r, c, v = r[keep], c[keep], v[keep]
    return r, c, v


def _coo_chunks(r, c, v, parts: int) -> dict[BlockKey, np.ndarray]:
    """Row-major triples in ``parts`` roughly equal chunks."""
    rows: dict[BlockKey, np.ndarray] = {}
    for i, idx in enumerate(np.array_split(np.arange(len(v)), parts)):
        rows[(i, 0)] = np.column_stack(
            [r[idx].astype(np.float64), c[idx].astype(np.float64), v[idx]])
    return rows


def _blocks_from_entries(r, c, v, mtype, dst) -> dict:
    """Dense or CSR blocks of ``dst`` from row-major non-zero entries."""
    row_bounds, col_bounds = grid_bounds(mtype, dst)
    n_cols = len(col_bounds)
    block_of = np.zeros(len(v), dtype=np.int64)
    if len(row_bounds) > 1:
        block_of += r // row_bounds[0][1] * n_cols
    if n_cols > 1:
        block_of += c // col_bounds[0][1]
        # A stable sort keeps each block's entries row-major.
        order = np.argsort(block_of, kind="stable")
        r, c, v, block_of = r[order], c[order], v[order], block_of[order]
    cuts = np.searchsorted(block_of, np.arange(len(row_bounds) * n_cols + 1))
    rows: dict[BlockKey, object] = {}
    for i, (r0, r1) in enumerate(row_bounds):
        for j, (c0, c1) in enumerate(col_bounds):
            k = i * n_cols + j
            run = slice(cuts[k], cuts[k + 1])
            shape = (r1 - r0, c1 - c0)
            if dst.is_sparse:
                rows[(i, j)] = _csr(r[run] - r0, c[run] - c0, v[run], shape)
            else:
                block = np.zeros(shape)
                block[r[run] - r0, c[run] - c0] = v[run]
                rows[(i, j)] = block
    return rows


def _csr(r, c, v, shape: tuple[int, int]) -> sp.csr_matrix:
    """The CSR block ``csr_matrix`` builds from a dense block whose
    non-zeros are the row-major entries ``(r, c, v)``."""
    index = np.int64 if max(*shape, len(v)) > _INT32_MAX else np.int32
    indptr = np.zeros(shape[0] + 1, dtype=index)
    indptr[1:] = np.cumsum(np.bincount(r, minlength=shape[0]))
    return sp.csr_matrix((v.copy(), c.astype(index), indptr), shape=shape)
