"""The dense round trip the engine's storage layer used before it worked on
blocks: the differential oracle of ``tests/engine/test_storage.py``.

Every transform was ``split(assemble(stored))`` — gather the whole matrix
into one dense array, then cut it up again in the destination format —
and a ``store_as`` whose keys missed the destination grid did the same
through an inferred tile format.  The block-level ``convert`` and
``store_as`` in :mod:`repro.engine.storage` must reproduce these
functions' keys, homes, payload types, index dtypes and values exactly;
only the memory they touch changes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.formats import Layout
from repro.engine.relation import Relation
from repro.engine.storage import StoredMatrix, _block_bounds, infer_format


def split(matrix, mtype, fmt, cluster) -> StoredMatrix:
    """Store a dense numpy matrix (2-D) in ``fmt``."""
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.ndim == 1:
        dense = dense.reshape(1, -1)
    if dense.shape != (mtype.rows, mtype.cols):
        raise ValueError(
            f"data shape {dense.shape} does not match type {mtype}")

    rows = {}
    if fmt.layout is Layout.COO:
        r, c = np.nonzero(dense)
        vals = dense[r, c]
        parts = fmt.grid(mtype)[0]
        bounds = np.array_split(np.arange(len(vals)), parts)
        for i, idx in enumerate(bounds):
            rows[(i, 0)] = np.column_stack(
                [r[idx].astype(np.float64), c[idx].astype(np.float64),
                 vals[idx]])
        return StoredMatrix(mtype, fmt, Relation.load(cluster, rows))

    row_block = fmt.block_rows if (fmt.is_row_partitioned or fmt.is_tiled) \
        else None
    col_block = fmt.block_cols if (fmt.is_col_partitioned or fmt.is_tiled) \
        else None
    for i, (r0, r1) in enumerate(_block_bounds(mtype.rows, row_block)):
        for j, (c0, c1) in enumerate(_block_bounds(mtype.cols, col_block)):
            block = dense[r0:r1, c0:c1]
            if fmt.is_sparse:
                rows[(i, j)] = sp.csr_matrix(block)
            else:
                rows[(i, j)] = block.copy()
    return StoredMatrix(mtype, fmt, Relation.load(cluster, rows))


def assemble(stored: StoredMatrix) -> np.ndarray:
    """Gather a stored matrix back into one dense numpy array."""
    mtype, fmt = stored.mtype, stored.fmt
    out = np.zeros((mtype.rows, mtype.cols))
    if fmt.layout is Layout.COO:
        for chunk in stored.relation.rows.values():
            if len(chunk):
                out[chunk[:, 0].astype(int), chunk[:, 1].astype(int)] += \
                    chunk[:, 2]
        return out

    row_block = fmt.block_rows if (fmt.is_row_partitioned or fmt.is_tiled) \
        else None
    col_block = fmt.block_cols if (fmt.is_col_partitioned or fmt.is_tiled) \
        else None
    row_bounds = _block_bounds(mtype.rows, row_block)
    col_bounds = _block_bounds(mtype.cols, col_block)
    for (i, j), block in stored.relation.rows.items():
        r0, r1 = row_bounds[i]
        c0, c1 = col_bounds[j]
        dense = block.toarray() if sp.issparse(block) else block
        out[r0:r1, c0:c1] = dense
    return out


def convert(stored: StoredMatrix, dst, cluster) -> StoredMatrix:
    """Restructure through one dense copy of the whole matrix."""
    if stored.fmt == dst:
        return stored
    return split(assemble(stored), stored.mtype, dst, cluster)


def store_as_fallback(relation: Relation, mtype, fmt,
                      cluster) -> StoredMatrix:
    """``store_as`` for keys that miss ``fmt``'s grid: reassemble through
    the inferred tile format and re-split."""
    tmp = StoredMatrix(mtype, infer_format(mtype, set(relation.rows)),
                       relation)
    return split(assemble(tmp), mtype, fmt, cluster)
