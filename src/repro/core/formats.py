"""Physical matrix implementations (the set :math:`\\mathcal{P}` of the paper).

A physical matrix implementation is a storage specification such as "single
tuple", "tile-based with 1000 by 1000 tiles", or "row strips of height 50"
(paper Section 3).  Each format knows

* whether it *admits* a given :class:`~repro.core.types.MatrixType`
  (the paper's ``p.f : M -> {true, false}``) — e.g. a 40 GB matrix cannot be
  stored as a single tuple;
* how many tuples (blocks) it decomposes the matrix into, and how large each
  tuple payload is — the quantities the cost model is built on.

The default catalog :data:`DEFAULT_FORMATS` contains 19 formats, matching the
paper's prototype inventory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .types import ENTRY_BYTES, SPARSE_ENTRY_BYTES, MatrixType, is_extent

#: Upper bound on the payload of one tuple.  SimSQL/PlinyCompute tuples live
#: in worker RAM during joins; the paper notes a single tuple cannot hold a
#: 40 GB matrix.  4 GB per tuple is a generous but finite bound.
MAX_TUPLE_BYTES = 4 * 1024**3

#: Sparse formats are pointless (and are never produced by the engine) for
#: data that is essentially fully dense.
SPARSE_ADMIT_THRESHOLD = 0.6


class Layout(enum.Enum):
    """Families of physical layouts supported by the engine."""

    SINGLE = "single"            # whole matrix in one tuple, dense
    ROW_STRIP = "row_strip"      # horizontal strips of fixed height, dense
    COL_STRIP = "col_strip"      # vertical strips of fixed width, dense
    TILE = "tile"                # square tiles, dense
    COO = "coo"                  # relational (row, col, value) triples
    CSR_STRIP = "csr_strip"      # horizontal strips, CSR-encoded
    CSC_STRIP = "csc_strip"      # vertical strips, CSC-encoded
    SPARSE_TILE = "sparse_tile"  # square tiles, CSR-encoded per tile
    SPARSE_SINGLE = "sparse_single"  # whole matrix in one tuple, CSR


#: Layouts that store only non-zero entries.
SPARSE_LAYOUTS = frozenset(
    {Layout.COO, Layout.CSR_STRIP, Layout.CSC_STRIP, Layout.SPARSE_TILE,
     Layout.SPARSE_SINGLE}
)

#: Layouts that keep the whole matrix in one tuple.
SINGLE_LAYOUTS = frozenset({Layout.SINGLE, Layout.SPARSE_SINGLE})

#: Horizontal-strip layouts (blocked along rows only).
ROW_LAYOUTS = frozenset({Layout.ROW_STRIP, Layout.CSR_STRIP})

#: Vertical-strip layouts (blocked along columns only).
COL_LAYOUTS = frozenset({Layout.COL_STRIP, Layout.CSC_STRIP})

#: Square-tile layouts (blocked along both).
TILE_LAYOUTS = frozenset({Layout.TILE, Layout.SPARSE_TILE})

#: Each layout's position in :class:`Layout`: a format's hash is built from
#: integers only, so it is the same in every process (an enum member
#: hashes its name string, which ``PYTHONHASHSEED`` salts) and a cached
#: hash stays valid when a format is pickled to another process.
_LAYOUT_CODES = {layout: code for code, layout in enumerate(Layout)}


@dataclass(frozen=True)
class PhysicalFormat:
    """One concrete physical matrix implementation.

    ``block_rows`` / ``block_cols`` give the block extents where meaningful:
    strips use one of them, tiles use both, single/COO use neither.

    The layout-class flags and the hash are computed once, on
    construction: the search asks for them millions of times per plan.
    """

    layout: Layout
    block_rows: int | None = None
    block_cols: int | None = None

    def __post_init__(self) -> None:
        layout = self.layout
        if not isinstance(layout, Layout):
            raise ValueError(f"layout must be a Layout, got {layout!r}")
        row_blocked = layout in ROW_LAYOUTS
        col_blocked = layout in COL_LAYOUTS
        tiled = layout in TILE_LAYOUTS
        needs_rows = row_blocked or tiled
        needs_cols = col_blocked or tiled
        for name, needs in (("block_rows", needs_rows),
                            ("block_cols", needs_cols)):
            value = getattr(self, name)
            if not needs:
                if value is not None:
                    raise ValueError(f"{layout} takes no {name}")
            elif not is_extent(value):
                raise ValueError(
                    f"{layout} needs a positive integer {name}, got {value!r}")
        # Not fields: equality, repr and ``dataclasses.fields`` see only
        # the layout and the block extents.
        self.__dict__.update(
            _sparse=layout in SPARSE_LAYOUTS,
            _single=layout in SINGLE_LAYOUTS,
            _row_blocked=row_blocked,
            _col_blocked=col_blocked,
            _tiled=tiled,
            _coo=layout is Layout.COO,
            _hash=hash((_LAYOUT_CODES[layout], self.block_rows or 0,
                        self.block_cols or 0)))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def is_sparse(self) -> bool:
        """True when the format stores only non-zero entries."""
        return self._sparse

    @property
    def is_single(self) -> bool:
        """True when the whole matrix lives in one tuple."""
        return self._single

    @property
    def is_row_partitioned(self) -> bool:
        """True for horizontal-strip layouts."""
        return self._row_blocked

    @property
    def is_col_partitioned(self) -> bool:
        """True for vertical-strip layouts."""
        return self._col_blocked

    @property
    def is_tiled(self) -> bool:
        """True for square-tile layouts."""
        return self._tiled

    @property
    def dense_family(self) -> Layout:
        """The dense layout with the same partitioning scheme."""
        return {
            Layout.SINGLE: Layout.SINGLE,
            Layout.ROW_STRIP: Layout.ROW_STRIP,
            Layout.COL_STRIP: Layout.COL_STRIP,
            Layout.TILE: Layout.TILE,
            Layout.COO: Layout.TILE,
            Layout.CSR_STRIP: Layout.ROW_STRIP,
            Layout.CSC_STRIP: Layout.COL_STRIP,
            Layout.SPARSE_TILE: Layout.TILE,
            Layout.SPARSE_SINGLE: Layout.SINGLE,
        }[self.layout]

    # ------------------------------------------------------------------
    # Block grid
    # ------------------------------------------------------------------
    def grid(self, mtype: MatrixType) -> tuple[int, int]:
        """Number of blocks along (rows, cols) for ``mtype``.

        The last strip/tile in each direction may be ragged (smaller than the
        nominal block size); the engine handles ragged blocks natively.
        """
        if self._single:
            return (1, 1)
        if self._coo:
            # Modelled as one logical partition per ~1M non-zeros, at least 1.
            parts = max(1, math.ceil(mtype.nnz / 1_000_000))
            return (parts, 1)
        if self._row_blocked:
            return (math.ceil(mtype.rows / self.block_rows), 1)
        if self._col_blocked:
            return (1, math.ceil(mtype.cols / self.block_cols))
        return (math.ceil(mtype.rows / self.block_rows),
                math.ceil(mtype.cols / self.block_cols))

    def tuple_count(self, mtype: MatrixType) -> int:
        """Number of tuples the matrix decomposes into under this format."""
        gr, gc = self.grid(mtype)
        return gr * gc

    def block_shape(self, mtype: MatrixType, row: int, col: int) -> tuple[int, int]:
        """Shape of the block at grid position ``(row, col)``."""
        gr, gc = self.grid(mtype)
        if not (0 <= row < gr and 0 <= col < gc):
            raise IndexError(f"block ({row}, {col}) outside grid ({gr}, {gc})")
        rows, cols = mtype.rows, mtype.cols
        if self._coo:
            return (rows, cols)
        br, bc = self._block_extents(mtype)
        r0, c0 = row * br, col * bc
        return (min(br, rows - r0), min(bc, cols - c0))

    def _block_extents(self, mtype: MatrixType) -> tuple[int, int]:
        """Nominal block extents for ``mtype``: the full extent along an
        unblocked dimension."""
        br = self.block_rows if (self._row_blocked or self._tiled) else None
        bc = self.block_cols if (self._col_blocked or self._tiled) else None
        return (br or mtype.rows, bc or mtype.cols)

    # ------------------------------------------------------------------
    # Storage sizes
    # ------------------------------------------------------------------
    def stored_bytes(self, mtype: MatrixType) -> float:
        """Total payload bytes used to store ``mtype`` in this format."""
        if self._sparse:
            return max(mtype.nnz * SPARSE_ENTRY_BYTES, SPARSE_ENTRY_BYTES)
        return mtype.entries * ENTRY_BYTES

    def max_tuple_bytes(self, mtype: MatrixType) -> float:
        """Payload bytes of the largest single tuple."""
        return self._max_tuple_bytes(mtype, self.grid(mtype))

    def _max_tuple_bytes(self, mtype: MatrixType,
                         grid: tuple[int, int]) -> float:
        """:meth:`max_tuple_bytes` given ``mtype``'s block grid."""
        if self._coo:
            return self.stored_bytes(mtype) / (grid[0] * grid[1])
        # The first block is the largest: only the last ones are ragged.
        br, bc = self._block_extents(mtype)
        entries = min(br, mtype.rows) * min(bc, mtype.cols)
        if self._sparse:
            return max(entries * mtype.sparsity * SPARSE_ENTRY_BYTES,
                       SPARSE_ENTRY_BYTES)
        return entries * ENTRY_BYTES

    # ------------------------------------------------------------------
    # Admission: the paper's p.f(m)
    # ------------------------------------------------------------------
    def admits(self, mtype: MatrixType) -> bool:
        """Whether this format can implement the given matrix type."""
        if mtype.ndim > 2:
            return False
        if self._sparse and mtype.sparsity > SPARSE_ADMIT_THRESHOLD:
            return False
        if (self._row_blocked or self._tiled) and \
                self.block_rows > mtype.rows:
            return False
        if (self._col_blocked or self._tiled) and \
                self.block_cols > mtype.cols:
            return False
        grid = self.grid(mtype)
        if self._max_tuple_bytes(mtype, grid) > MAX_TUPLE_BYTES:
            return False
        # Guard against absurd tuple counts (per-tuple overhead dominates).
        if grid[0] * grid[1] > 4_000_000:
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_single or self.layout is Layout.COO:
            return self.layout.value
        if self.is_row_partitioned:
            return f"{self.layout.value}[{self.block_rows}]"
        if self.is_col_partitioned:
            return f"{self.layout.value}[{self.block_cols}]"
        return f"{self.layout.value}[{self.block_rows}x{self.block_cols}]"


# ----------------------------------------------------------------------
# Concrete constructors
# ----------------------------------------------------------------------
def single() -> PhysicalFormat:
    """Whole dense matrix in one tuple."""
    return PhysicalFormat(Layout.SINGLE)


def row_strips(height: int) -> PhysicalFormat:
    """Dense horizontal strips of the given height."""
    return PhysicalFormat(Layout.ROW_STRIP, block_rows=height)


def col_strips(width: int) -> PhysicalFormat:
    """Dense vertical strips of the given width."""
    return PhysicalFormat(Layout.COL_STRIP, block_cols=width)


def tiles(size: int, cols: int | None = None) -> PhysicalFormat:
    """Dense square (or ``size x cols``) tiles."""
    return PhysicalFormat(Layout.TILE, block_rows=size,
                          block_cols=cols if cols is not None else size)


def coo() -> PhysicalFormat:
    """Relational (rowIndex, colIndex, value) triples."""
    return PhysicalFormat(Layout.COO)


def csr_strips(height: int) -> PhysicalFormat:
    """CSR-encoded horizontal strips."""
    return PhysicalFormat(Layout.CSR_STRIP, block_rows=height)


def csc_strips(width: int) -> PhysicalFormat:
    """CSC-encoded vertical strips."""
    return PhysicalFormat(Layout.CSC_STRIP, block_cols=width)


def sparse_tiles(size: int) -> PhysicalFormat:
    """CSR-encoded square tiles."""
    return PhysicalFormat(Layout.SPARSE_TILE, block_rows=size, block_cols=size)


def sparse_single() -> PhysicalFormat:
    """Whole matrix in one CSR-encoded tuple."""
    return PhysicalFormat(Layout.SPARSE_SINGLE)


#: The 19-format default catalog, matching the paper's prototype inventory
#: ("a total of 19 physical matrix implementations", Section 8.1).
DEFAULT_FORMATS: tuple[PhysicalFormat, ...] = (
    single(),                       # 1
    row_strips(100),                # 2
    row_strips(1_000),              # 3
    row_strips(5_000),              # 4
    row_strips(10_000),             # 5
    col_strips(100),                # 6
    col_strips(1_000),              # 7
    col_strips(5_000),              # 8
    col_strips(10_000),             # 9
    tiles(100),                     # 10
    tiles(1_000),                   # 11
    tiles(2_000),                   # 12
    tiles(5_000),                   # 13
    tiles(10_000),                  # 14
    coo(),                          # 15
    csr_strips(1_000),              # 16
    csc_strips(1_000),              # 17
    sparse_tiles(1_000),            # 18
    sparse_single(),                # 19
)

#: Paper Fig 13 "Single/Strip/Block formats" subset (16 formats).
SINGLE_STRIP_BLOCK_FORMATS: tuple[PhysicalFormat, ...] = tuple(
    f for f in DEFAULT_FORMATS
    if f.layout in (Layout.SINGLE, Layout.ROW_STRIP, Layout.COL_STRIP,
                    Layout.TILE)
) + (csr_strips(1_000), csc_strips(1_000))

#: Paper Fig 13 "Single/Block formats" subset (10 formats).
SINGLE_BLOCK_FORMATS: tuple[PhysicalFormat, ...] = tuple(
    f for f in DEFAULT_FORMATS
    if f.layout in (Layout.SINGLE, Layout.TILE)
) + (sparse_tiles(1_000), sparse_single(), coo(), csr_strips(1_000))

#: Dense-only subset, used for the "no sparsity" constrained runs of Fig 12.
DENSE_FORMATS: tuple[PhysicalFormat, ...] = tuple(
    f for f in DEFAULT_FORMATS if not f.is_sparse
)


def admissible_formats(
    mtype: MatrixType,
    catalog: tuple[PhysicalFormat, ...] = DEFAULT_FORMATS,
) -> tuple[PhysicalFormat, ...]:
    """All formats from ``catalog`` that admit ``mtype``."""
    return tuple(f for f in catalog if f.admits(mtype))
