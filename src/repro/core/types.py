"""Matrix types.

The paper (Section 3) defines a *matrix type* as a pair ``(d, b)`` where ``d``
is the dimensionality and ``b`` gives the extent along each dimension.  For
the cost model (Section 7) we additionally carry the *sparsity* of the data —
defined, as in the paper, as the fraction of entries that are non-zero
(``1.0`` means fully dense).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

#: Bytes per matrix entry.  The paper stores double-precision floats.
ENTRY_BYTES = 8

#: Approximate bytes per non-zero in a COO/CSR-style sparse encoding
#: (value + index overhead).
SPARSE_ENTRY_BYTES = 16


def is_extent(value: object) -> bool:
    """True for a positive integer: a valid extent or block size.  Bools
    are integers to Python but never an extent."""
    if type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        return False
    return value > 0


@dataclass(frozen=True)
class MatrixType:
    """A logical matrix/tensor type: shape plus estimated sparsity.

    ``dims`` is the extent along each dimension: ``(n,)`` for a vector,
    ``(rows, cols)`` for a matrix.  Higher-order tensors are representable but
    the default operator catalog works on vectors and matrices, mirroring the
    paper's prototype.

    ``sparsity`` is the estimated fraction of non-zero entries in
    ``[0.0, 1.0]``; it only affects costing, never typing.

    The shape accessors ``ndim`` (dimensionality ``d``: 1 = vector,
    2 = matrix), ``rows`` (a vector is treated as a single-row matrix) and
    ``cols`` (a vector's length), and the hash, are computed once on
    construction: the search reads them millions of times per plan.
    """

    dims: tuple[int, ...]
    sparsity: float = 1.0

    def __post_init__(self) -> None:
        dims, sparsity = self.dims, self.sparsity
        if not isinstance(dims, tuple) or not dims:
            raise ValueError(
                f"a matrix type needs a non-empty tuple of extents, got "
                f"{dims!r}")
        if not all(map(is_extent, dims)):
            raise ValueError(
                f"all extents must be positive integers, got {dims}")
        if type(sparsity) is not float and (
                isinstance(sparsity, bool)
                or not isinstance(sparsity, numbers.Real)):
            raise ValueError(f"sparsity must be a real number, got "
                             f"{sparsity!r}")
        if not 0.0 <= sparsity <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
        # Not fields: equality, repr, ``dataclasses.fields`` and the
        # serialized form see only ``dims`` and ``sparsity``.
        ndim = len(dims)
        self.__dict__.update(ndim=ndim, rows=dims[0] if ndim >= 2 else 1,
                             cols=dims[-1], _hash=hash((dims, sparsity)))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def entries(self) -> int:
        """Total number of entries."""
        return math.prod(self.dims)

    @property
    def nnz(self) -> float:
        """Estimated number of non-zero entries."""
        return self.entries * self.sparsity

    # ------------------------------------------------------------------
    # Byte sizes
    # ------------------------------------------------------------------
    @property
    def dense_bytes(self) -> int:
        """Bytes needed to store the matrix densely."""
        return self.entries * ENTRY_BYTES

    @property
    def sparse_bytes(self) -> float:
        """Approximate bytes needed to store only the non-zeros."""
        return self.nnz * SPARSE_ENTRY_BYTES

    @property
    def is_dense(self) -> bool:
        """True when a dense encoding is at least as compact as sparse."""
        return self.dense_bytes <= self.sparse_bytes

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------
    def with_sparsity(self, sparsity: float) -> "MatrixType":
        """Return the same shape with a different sparsity estimate."""
        return MatrixType(self.dims, sparsity)

    def transposed(self) -> "MatrixType":
        """Type of the transpose (2-D only)."""
        if self.ndim != 2:
            raise ValueError("transpose is only defined for 2-D types")
        return MatrixType((self.dims[1], self.dims[0]), self.sparsity)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        shape = "x".join(str(d) for d in self.dims)
        if self.sparsity < 1.0:
            return f"{shape}(sp={self.sparsity:.4g})"
        return shape


def matrix(rows: int, cols: int, sparsity: float = 1.0) -> MatrixType:
    """Convenience constructor for a 2-D matrix type."""
    return MatrixType((rows, cols), sparsity)


def vector(length: int, sparsity: float = 1.0) -> MatrixType:
    """Convenience constructor for a (row-)vector type."""
    return MatrixType((1, length), sparsity)


def matmul_sparsity(lhs: MatrixType, rhs: MatrixType) -> float:
    """Estimated output sparsity of ``lhs @ rhs``.

    Uses the standard independence assumption: an output cell is zero only if
    every one of the ``k`` product terms along the inner dimension is zero,
    giving nnz fraction ``1 - (1 - s_l * s_r)**k``.  This is the simple
    estimator the paper's prototype uses; the MNC-style structured estimator
    (paper Section 7, future work) lives in :mod:`repro.cost.sparsity`.
    """
    k = lhs.cols
    p = lhs.sparsity * rhs.sparsity
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    # log1p-based evaluation stays accurate for tiny p and huge k.
    return -math.expm1(k * math.log1p(-p))


def union_sparsity(a: float, b: float) -> float:
    """Estimated sparsity of an entry-wise union (e.g. add/sub)."""
    return min(1.0, a + b - a * b)


def intersect_sparsity(a: float, b: float) -> float:
    """Estimated sparsity of an entry-wise intersection (e.g. Hadamard)."""
    return a * b
