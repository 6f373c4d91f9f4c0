"""Atomic computation implementations (the set :math:`\\mathcal{I}`).

Whereas an atomic computation (:mod:`repro.core.atoms`) is abstract, each
implementation here is a concrete distributed algorithm with

* a type-specification function ``f : (M x P)^n -> P ∪ {⊥}``
  (:meth:`OpImplementation.output_format`) that says which input physical
  formats it accepts and which output format it produces, taking the cluster
  hardware into account (paper Section 3/4.2), and
* a cost-feature function (:meth:`OpImplementation.features`) producing the
  analytic features of paper Section 7 (FLOPs, worst-case network bytes,
  intermediate bytes, tuple counts), from which the regression cost model
  predicts seconds.

The default catalog built by :func:`build_default_implementations` has 38
entries, matching the paper's prototype inventory ("38 different atomic
computation implementations", Section 8.1).
"""

from __future__ import annotations

import dataclasses
import enum
from abc import ABC, abstractmethod
from typing import Iterator, Sequence

from ..cost.features import CostFeatures
from ..cluster import ClusterConfig
from .atoms import (
    ADD,
    ADD_BIAS,
    BINARY_ELEMENTWISE,
    COL_SUMS,
    ELEM_MUL,
    INVERSE,
    MATMUL,
    ROW_SUMS,
    SOFTMAX,
    SUB,
    TRANSPOSE,
    UNARY_MAPS,
    AtomicOp,
    atom_by_name,
    fused_steps,
)
from .formats import Layout, PhysicalFormat, admissible_formats, tiles
from .types import MatrixType

Formats = Sequence[PhysicalFormat]
Types = Sequence[MatrixType]


class JoinStrategy(enum.Enum):
    """How the relational engine evaluates the implementation."""

    LOCAL = "local"          # single worker, no data movement
    MAP = "map"              # per-tuple map, fully parallel, no movement
    COPART = "copart"        # co-partitioned join on block id
    SHUFFLE = "shuffle"      # repartition both sides, then join (+ maybe agg)
    BROADCAST = "broadcast"  # replicate one side to every worker
    CROSS = "cross"          # cross join (replicate smaller side)


# ----------------------------------------------------------------------
# Feature helpers
# ----------------------------------------------------------------------
def _density(mtype: MatrixType, fmt: PhysicalFormat) -> float:
    """Fraction of entries a kernel touches: sparse kernels skip zeros."""
    return mtype.sparsity if fmt.is_sparse else 1.0


def _serialized(flops: float, cluster: ClusterConfig, usable: float) -> float:
    """Inflate a FLOP count to reflect limited parallelism.

    The cost model normalizes FLOPs by the *aggregate* cluster throughput,
    so work that only ``usable`` of the ``num_workers`` workers can share is
    scaled up by the idle fraction.
    """
    usable = max(1.0, min(float(cluster.num_workers), usable))
    return flops * cluster.num_workers / usable


def _share(total_bytes: float, cluster: ClusterConfig) -> float:
    """Per-worker share of evenly partitioned data, with a skew allowance."""
    return 1.5 * total_bytes / cluster.num_workers


def _working_set(in_types: Types, in_formats: Formats,
                 blocks: float = 4.0) -> float:
    """RAM-resident bytes for a streaming operator: a few blocks at a time."""
    return blocks * max(f.max_tuple_bytes(t)
                        for t, f in zip(in_types, in_formats))


#: Map-side combining bounds the partial products a shuffle-aggregate
#: multiply materializes: combiners merge same-key partials before the
#: shuffle, so at most ~this many output-sized waves hit the wire/disk even
#: when the inner dimension is split into many more blocks.
COMBINER_WAVES = 10


class OpImplementation(ABC):
    """Base class for one concrete implementation of an atomic computation."""

    #: The atomic computation this implements (the paper's ``i.a``).
    op: AtomicOp
    #: Unique name within the catalog.
    name: str
    #: Relational evaluation strategy (for reporting and execution).
    join: JoinStrategy

    def __init__(self, op: AtomicOp, name: str, join: JoinStrategy) -> None:
        self.op = op
        self.name = name
        self.join = join

    # -- typing --------------------------------------------------------
    @abstractmethod
    def output_format(self, in_types: Types, in_formats: Formats,
                      cluster: ClusterConfig) -> PhysicalFormat | None:
        """The paper's ``i.f``: output format, or None (⊥) if not applicable.

        Implementations must verify every input format admits its type, that
        formats are mutually compatible, and that the computation fits the
        cluster (e.g. a broadcast side must fit in worker RAM).
        """

    # -- costing -------------------------------------------------------
    @abstractmethod
    def features(self, in_types: Types, in_formats: Formats,
                 cluster: ClusterConfig) -> CostFeatures:
        """Analytic cost features; only called after ``output_format`` is
        known to be non-None for the same arguments."""

    # -- search support -------------------------------------------------
    def candidate_patterns(
        self, in_types: Types, catalog: Formats, cluster: ClusterConfig,
    ) -> Iterator[tuple[tuple[PhysicalFormat, ...], PhysicalFormat]]:
        """Enumerate accepted input-format tuples (and their outputs).

        The default first narrows each input's ``catalog`` to the formats
        that admit that input's type, then walks the cross product of those
        in catalog order, filtering through :meth:`output_format`.  It
        yields exactly what the full ``catalog ** arity`` product would,
        in the same order, because ``output_format`` returns None whenever
        some input format does not admit its type; subclasses override
        when a cheaper enumeration exists.
        """
        admitted = [admissible_formats(t, catalog) for t in in_types]
        if self.op.arity == 1:
            for f in admitted[0]:
                out = self.output_format(in_types, (f,), cluster)
                if out is not None:
                    yield (f,), out
        elif self.op.arity == 2:
            rights = admitted[1]
            for f1 in admitted[0]:
                for f2 in rights:
                    out = self.output_format(in_types, (f1, f2), cluster)
                    if out is not None:
                        yield (f1, f2), out
        else:  # pragma: no cover - no ternary ops in the default catalog
            raise NotImplementedError

    # -- misc ------------------------------------------------------------
    def _admitted(self, in_types: Types, in_formats: Formats) -> bool:
        return all(f.admits(t) for t, f in zip(in_types, in_formats))

    def _out_type(self, in_types: Types) -> MatrixType:
        out = self.op.out_type(*in_types)
        if out is None:
            raise ValueError(
                f"{self.name}: inputs {list(map(str, in_types))} are not "
                f"type-correct for {self.op.name}")
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<impl {self.name} ({self.op.name}, {self.join.value})>"


# ======================================================================
# Matrix multiplication implementations
# ======================================================================
class MMTileShuffle(OpImplementation):
    """tile x tile multiply via shuffle join on the inner block index plus a
    group-by-SUM aggregation (the classic SQL tiling plan of Section 1)."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_tile_shuffle", JoinStrategy.SHUFFLE)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        lt, rt = in_types
        if lf.layout is not Layout.TILE or rf.layout is not Layout.TILE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        # The inner dimension must be split identically on both sides.
        if lf.block_cols != rf.block_rows:
            return None
        out = tiles(lf.block_rows, rf.block_cols)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf, rf = in_formats
        ot = self._out_type(in_types)
        inner_blocks = lf.grid(lt)[1]
        flops = 2.0 * lt.rows * lt.cols * rt.cols
        # The equi-join on the inner block index repartitions both inputs;
        # every partial product is then materialized and shuffled to the
        # GROUP BY aggregator: (m/s x n/s) output tiles, one partial per
        # inner block — the "too much intermediate data" driver.
        input_bytes = lf.stored_bytes(lt) + rf.stored_bytes(rt)
        waves = min(inner_blocks, COMBINER_WAVES)
        partial_bytes = ot.dense_bytes * waves
        partial_tuples = lf.grid(lt)[0] * rf.grid(rt)[1] * waves
        net = input_bytes + partial_bytes
        tuples = (lf.tuple_count(lt) + rf.tuple_count(rt) + partial_tuples)
        out_tile = ot.dense_bytes / max(1.0, partial_tuples / waves)
        resident = _working_set(in_types, in_formats) + 2.0 * out_tile
        spill = _share(input_bytes + partial_bytes + ot.dense_bytes, cluster)
        return CostFeatures(
            flops=flops, network_bytes=net,
            intermediate_bytes=input_bytes + partial_bytes,
            tuples=tuples, output_bytes=ot.dense_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


class MMTileBroadcast(OpImplementation):
    """tile x tile multiply that broadcasts the smaller side to every worker
    and aggregates partials locally before one output-sized shuffle."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_tile_bcast", JoinStrategy.BROADCAST)

    def _small_side_bytes(self, in_types, in_formats) -> float:
        return min(in_formats[0].stored_bytes(in_types[0]),
                   in_formats[1].stored_bytes(in_types[1]))

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf.layout is not Layout.TILE or rf.layout is not Layout.TILE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if lf.block_cols != rf.block_rows:
            return None
        # The broadcast side must fit comfortably in every worker's RAM.
        if self._small_side_bytes(in_types, in_formats) > 0.25 * cluster.ram_bytes:
            return None
        out = tiles(lf.block_rows, rf.block_cols)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf, rf = in_formats
        ot = self._out_type(in_types)
        small = self._small_side_bytes(in_types, in_formats)
        big = max(lf.stored_bytes(lt), rf.stored_bytes(rt))
        flops = 2.0 * lt.rows * lt.cols * rt.cols
        net = small * cluster.num_workers + ot.dense_bytes
        tuples = (lf.tuple_count(lt) + rf.tuple_count(rt)
                  + ot.entries / (lf.block_rows * rf.block_cols))
        resident = small + _working_set(in_types, in_formats)
        spill = _share(big + ot.dense_bytes, cluster)
        return CostFeatures(
            flops=flops, network_bytes=net,
            intermediate_bytes=small + big + ot.dense_bytes, tuples=tuples,
            output_bytes=ot.dense_bytes, max_worker_bytes=resident,
            spill_bytes=spill)


class MMStripCross(OpImplementation):
    """row-strips x col-strips multiply via a cross join: every strip pair
    meets once, no aggregation needed (Section 1's strip plan)."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_strip_cross", JoinStrategy.CROSS)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf.layout is not Layout.ROW_STRIP or rf.layout is not Layout.COL_STRIP:
            return None
        # Strip extents must match so the output is square-tiled; this keeps
        # the space of producible output formats (and hence the DP state
        # space) small without losing the plans the paper's engine supports.
        if lf.block_rows != rf.block_cols:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        out = tiles(lf.block_rows, rf.block_cols)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf, rf = in_formats
        ot = self._out_type(in_types)
        lb, rb = lf.stored_bytes(lt), rf.stored_bytes(rt)
        flops = 2.0 * lt.rows * lt.cols * rt.cols
        # The smaller side is replicated to wherever the bigger side lives.
        small, big = min(lb, rb), max(lb, rb)
        out_tuples = lf.grid(lt)[0] * rf.grid(rt)[1]
        net = small * cluster.num_workers
        tuples = lf.tuple_count(lt) + rf.tuple_count(rt) + out_tuples
        # The replicated small side stays RAM-resident for reuse.
        resident = small + _working_set(in_types, in_formats, blocks=3.0) \
            + ot.dense_bytes / max(1.0, out_tuples)
        spill = _share(big + ot.dense_bytes, cluster)
        return CostFeatures(
            flops=flops, network_bytes=net,
            intermediate_bytes=small + big + ot.dense_bytes,
            tuples=tuples, output_bytes=ot.dense_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


class MMOuterAgg(OpImplementation):
    """col-strips x row-strips multiply: aligned strips join on the inner
    index producing full-size partials that are SUM-aggregated to a single
    tuple.  Cheap join, very expensive aggregation."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_outer_agg", JoinStrategy.COPART)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf.layout is not Layout.COL_STRIP or rf.layout is not Layout.ROW_STRIP:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if lf.block_cols != rf.block_rows:
            return None
        out = PhysicalFormat(Layout.SINGLE)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf, rf = in_formats
        ot = self._out_type(in_types)
        inner_blocks = lf.grid(lt)[1]
        flops = 2.0 * lt.rows * lt.cols * rt.cols
        partial_bytes = ot.dense_bytes * min(inner_blocks, COMBINER_WAVES)
        net = (min(lf.stored_bytes(lt), rf.stored_bytes(rt))
               + partial_bytes)
        tuples = lf.tuple_count(lt) + rf.tuple_count(rt) + inner_blocks
        # Each worker aggregates full-size partials in memory.
        resident = 2.0 * ot.dense_bytes \
            + _working_set(in_types, in_formats, blocks=2.0)
        spill = _share(partial_bytes, cluster)
        return CostFeatures(
            flops=flops, network_bytes=net,
            intermediate_bytes=lf.stored_bytes(lt) + rf.stored_bytes(rt)
            + partial_bytes,
            tuples=tuples, output_bytes=ot.dense_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


class MMLocalSingle(OpImplementation):
    """single x single multiply on one worker."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_local_single", JoinStrategy.LOCAL)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if not (lf.layout is Layout.SINGLE and rf.layout is Layout.SINGLE):
            return None
        if not self._admitted(in_types, in_formats):
            return None
        ot = self._out_type(in_types)
        out = PhysicalFormat(Layout.SINGLE)
        if not out.admits(ot):
            return None
        total = (in_types[0].dense_bytes + in_types[1].dense_bytes
                 + ot.dense_bytes)
        if total > 0.5 * cluster.ram_bytes:
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        ot = self._out_type(in_types)
        flops = _serialized(2.0 * lt.rows * lt.cols * rt.cols, cluster, 1.0)
        mem = lt.dense_bytes + rt.dense_bytes + ot.dense_bytes
        return CostFeatures(
            flops=flops, network_bytes=min(lt.dense_bytes, rt.dense_bytes),
            intermediate_bytes=0.0, tuples=3.0,
            output_bytes=ot.dense_bytes, max_worker_bytes=mem)


class MMBroadcastLeft(OpImplementation):
    """single x col-strips multiply via a broadcast join: the (small) single
    left side is replicated to every worker and multiplied against local
    strips.  No aggregation (Fig 1, Implementation 2)."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_bcast_left", JoinStrategy.BROADCAST)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf.layout is not Layout.SINGLE or rf.layout is not Layout.COL_STRIP:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if in_types[0].dense_bytes > 0.25 * cluster.ram_bytes:
            return None
        out = PhysicalFormat(Layout.COL_STRIP, block_cols=rf.block_cols)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        rf = in_formats[1]
        ot = self._out_type(in_types)
        flops = 2.0 * lt.rows * lt.cols * rt.cols
        usable = min(cluster.num_workers, rf.tuple_count(rt))
        flops = _serialized(flops, cluster, usable)
        net = lt.dense_bytes * cluster.num_workers
        tuples = 1.0 + 2.0 * rf.tuple_count(rt)
        resident = lt.dense_bytes + _working_set(in_types, in_formats,
                                                 blocks=3.0)
        spill = _share(rf.stored_bytes(rt) + ot.dense_bytes, cluster)
        return CostFeatures(
            flops=flops, network_bytes=net,
            intermediate_bytes=rf.stored_bytes(rt) + ot.dense_bytes,
            tuples=tuples, output_bytes=ot.dense_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


class MMBroadcastRight(OpImplementation):
    """row-strips x single multiply via a broadcast join of the right side."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_bcast_right", JoinStrategy.BROADCAST)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf.layout is not Layout.ROW_STRIP or rf.layout is not Layout.SINGLE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if in_types[1].dense_bytes > 0.25 * cluster.ram_bytes:
            return None
        out = PhysicalFormat(Layout.ROW_STRIP, block_rows=lf.block_rows)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf = in_formats[0]
        ot = self._out_type(in_types)
        flops = 2.0 * lt.rows * lt.cols * rt.cols
        usable = min(cluster.num_workers, lf.tuple_count(lt))
        flops = _serialized(flops, cluster, usable)
        net = rt.dense_bytes * cluster.num_workers
        tuples = 1.0 + 2.0 * lf.tuple_count(lt)
        resident = rt.dense_bytes + _working_set(in_types, in_formats,
                                                 blocks=3.0)
        spill = _share(lf.stored_bytes(lt) + ot.dense_bytes, cluster)
        return CostFeatures(
            flops=flops, network_bytes=net,
            intermediate_bytes=lf.stored_bytes(lt) + ot.dense_bytes,
            tuples=tuples, output_bytes=ot.dense_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


class MMSparseBcastDense(OpImplementation):
    """CSR row-strips x broadcast dense single: the sparse-data-times-dense-
    model multiply of paper Section 7.  FLOPs scale with the nnz count."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_csr_bcast_dense", JoinStrategy.BROADCAST)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf.layout is not Layout.CSR_STRIP or rf.layout is not Layout.SINGLE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if in_types[1].dense_bytes > 0.25 * cluster.ram_bytes:
            return None
        out = PhysicalFormat(Layout.ROW_STRIP, block_rows=lf.block_rows)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf = in_formats[0]
        ot = self._out_type(in_types)
        flops = 2.0 * lt.nnz * rt.cols
        usable = min(cluster.num_workers, lf.tuple_count(lt))
        flops = _serialized(flops, cluster, usable)
        net = rt.dense_bytes * cluster.num_workers
        tuples = 1.0 + 2.0 * lf.tuple_count(lt)
        resident = rt.dense_bytes + _working_set(in_types, in_formats,
                                                 blocks=3.0)
        spill = _share(lf.stored_bytes(lt) + ot.dense_bytes, cluster)
        return CostFeatures(
            flops=flops, network_bytes=net,
            intermediate_bytes=lf.stored_bytes(lt) + ot.dense_bytes,
            tuples=tuples, output_bytes=ot.dense_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


class MMSparseLocal(OpImplementation):
    """sparse-single x single multiply on one worker (sparse kernel)."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_sparse_local", JoinStrategy.LOCAL)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf.layout is not Layout.SPARSE_SINGLE or rf.layout is not Layout.SINGLE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        ot = self._out_type(in_types)
        out = PhysicalFormat(Layout.SINGLE)
        if not out.admits(ot):
            return None
        total = (lf.stored_bytes(in_types[0]) + in_types[1].dense_bytes
                 + ot.dense_bytes)
        if total > 0.5 * cluster.ram_bytes:
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf = in_formats[0]
        ot = self._out_type(in_types)
        flops = _serialized(2.0 * lt.nnz * rt.cols, cluster, 1.0)
        mem = lf.stored_bytes(lt) + rt.dense_bytes + ot.dense_bytes
        return CostFeatures(
            flops=flops,
            network_bytes=min(lf.stored_bytes(lt), rt.dense_bytes),
            intermediate_bytes=0.0, tuples=3.0,
            output_bytes=ot.dense_bytes, max_worker_bytes=mem)


class MMCooTileShuffle(OpImplementation):
    """COO triples x dense tiles: triples are shuffled by column block,
    joined with the tiles, and partials aggregated into output tiles."""

    def __init__(self) -> None:
        super().__init__(MATMUL, "mm_coo_tile", JoinStrategy.SHUFFLE)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf.layout is not Layout.COO or rf.layout is not Layout.TILE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        out = tiles(rf.block_rows, rf.block_cols)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf, rf = in_formats
        ot = self._out_type(in_types)
        inner_blocks = rf.grid(rt)[0]
        flops = 2.0 * lt.nnz * rt.cols
        partial_bytes = ot.dense_bytes * min(inner_blocks, 8)
        net = lf.stored_bytes(lt) + partial_bytes
        tuples = (lf.tuple_count(lt) + rf.tuple_count(rt)
                  + ot.entries / (rf.block_rows * rf.block_cols))
        resident = _working_set(in_types, in_formats, blocks=6.0)
        spill = _share(lf.stored_bytes(lt) + rf.stored_bytes(rt)
                       + partial_bytes, cluster)
        return CostFeatures(
            flops=flops, network_bytes=net,
            intermediate_bytes=lf.stored_bytes(lt) + rf.stored_bytes(rt)
            + partial_bytes,
            tuples=tuples, output_bytes=ot.dense_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


# ======================================================================
# Element-wise binary implementations
# ======================================================================
_PARTITIONED_DENSE = (Layout.ROW_STRIP, Layout.COL_STRIP, Layout.TILE)
_PARTITIONED_SPARSE = (Layout.CSR_STRIP, Layout.CSC_STRIP, Layout.SPARSE_TILE)


class EWBlocked(OpImplementation):
    """Element-wise op over matching dense partitioned formats via a
    co-partitioned join on the block index."""

    def __init__(self, op: AtomicOp) -> None:
        super().__init__(op, f"ew_blocked_{op.name}", JoinStrategy.COPART)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf != rf or lf.layout not in _PARTITIONED_DENSE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if not lf.admits(self._out_type(in_types)):
            return None
        return lf

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf, rf = in_formats
        ot = self._out_type(in_types)
        flops = float(lt.entries)
        # Worst case one side is repartitioned to align with the other.
        net = min(lf.stored_bytes(lt), rf.stored_bytes(rt))
        tuples = lf.tuple_count(lt) + rf.tuple_count(rt)
        resident = _working_set(in_types, in_formats)
        spill = _share(lf.stored_bytes(lt) + rf.stored_bytes(rt)
                       + ot.dense_bytes, cluster)
        return CostFeatures(
            flops=flops, network_bytes=net,
            intermediate_bytes=lf.stored_bytes(lt) + rf.stored_bytes(rt)
            + ot.dense_bytes,
            tuples=tuples, output_bytes=ot.dense_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


class EWSingle(OpImplementation):
    """Element-wise op over two single-tuple matrices on one worker."""

    def __init__(self, op: AtomicOp) -> None:
        super().__init__(op, f"ew_single_{op.name}", JoinStrategy.LOCAL)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf.layout is not Layout.SINGLE or rf.layout is not Layout.SINGLE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        ot = self._out_type(in_types)
        out = PhysicalFormat(Layout.SINGLE)
        if not out.admits(ot):
            return None
        if 3 * ot.dense_bytes > 0.5 * cluster.ram_bytes:
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        ot = self._out_type(in_types)
        flops = _serialized(float(lt.entries), cluster, 1.0)
        mem = lt.dense_bytes + rt.dense_bytes + ot.dense_bytes
        return CostFeatures(
            flops=flops, network_bytes=min(lt.dense_bytes, rt.dense_bytes),
            intermediate_bytes=0.0, tuples=3.0,
            output_bytes=ot.dense_bytes, max_worker_bytes=mem)


class EWSparseBlocked(OpImplementation):
    """Element-wise op over matching *sparse* partitioned formats; FLOPs and
    bytes scale with the union/intersection of non-zeros."""

    def __init__(self, op: AtomicOp) -> None:
        super().__init__(op, f"ew_sparse_{op.name}", JoinStrategy.COPART)

    def output_format(self, in_types, in_formats, cluster):
        lf, rf = in_formats
        if lf != rf or lf.layout not in _PARTITIONED_SPARSE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        ot = self._out_type(in_types)
        if not lf.admits(ot):
            return None
        return lf

    def features(self, in_types, in_formats, cluster):
        lt, rt = in_types
        lf, rf = in_formats
        ot = self._out_type(in_types)
        flops = lt.nnz + rt.nnz
        net = min(lf.stored_bytes(lt), rf.stored_bytes(rt))
        tuples = lf.tuple_count(lt) + rf.tuple_count(rt)
        out_bytes = lf.stored_bytes(ot)
        resident = _working_set(in_types, in_formats)
        spill = _share(lf.stored_bytes(lt) + rf.stored_bytes(rt) + out_bytes,
                       cluster)
        return CostFeatures(
            flops=flops, network_bytes=net, intermediate_bytes=0.0,
            tuples=tuples, output_bytes=out_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


# ======================================================================
# Unary map implementations
# ======================================================================
class UnaryMap(OpImplementation):
    """Per-tuple map over any format: relu, sigmoid, exp, scalar multiply,
    relu-gradient.  Format preserving, no data movement."""

    def __init__(self, op: AtomicOp) -> None:
        super().__init__(op, f"map_{op.name}", JoinStrategy.MAP)

    def output_format(self, in_types, in_formats, cluster):
        (fmt,) = in_formats
        if not self._admitted(in_types, in_formats):
            return None
        ot = self._out_type(in_types)
        if not fmt.admits(ot):
            return None
        return fmt

    def features(self, in_types, in_formats, cluster):
        (t,) = in_types
        (fmt,) = in_formats
        ot = self._out_type(in_types)
        flops = t.entries * _density(t, fmt)
        usable = min(cluster.num_workers, fmt.tuple_count(t))
        flops = _serialized(flops, cluster, usable)
        out_bytes = fmt.stored_bytes(ot)
        resident = 2.0 * fmt.max_tuple_bytes(t)
        spill = (fmt.stored_bytes(t) + out_bytes) / max(1.0, float(usable))
        return CostFeatures(
            flops=flops, network_bytes=0.0, intermediate_bytes=0.0,
            tuples=float(fmt.tuple_count(t)), output_bytes=out_bytes,
            max_worker_bytes=resident, spill_bytes=spill)


# ======================================================================
# Transpose implementations
# ======================================================================
_TRANSPOSED_LAYOUT = {
    Layout.ROW_STRIP: Layout.COL_STRIP,
    Layout.COL_STRIP: Layout.ROW_STRIP,
    Layout.TILE: Layout.TILE,
    Layout.CSR_STRIP: Layout.CSC_STRIP,
    Layout.CSC_STRIP: Layout.CSR_STRIP,
    Layout.SPARSE_TILE: Layout.SPARSE_TILE,
    Layout.COO: Layout.COO,
}


def _transposed_format(fmt: PhysicalFormat) -> PhysicalFormat | None:
    layout = _TRANSPOSED_LAYOUT.get(fmt.layout)
    if layout is None:
        return None
    return PhysicalFormat(layout, block_rows=fmt.block_cols,
                          block_cols=fmt.block_rows)


class TransposeBlocked(OpImplementation):
    """Transpose of a partitioned matrix: transpose each block locally and
    swap block indices (a pure relabel plus a repartition)."""

    def __init__(self, sparse: bool) -> None:
        self._sparse = sparse
        name = "t_blocked_sparse" if sparse else "t_blocked"
        super().__init__(TRANSPOSE, name, JoinStrategy.SHUFFLE)

    def output_format(self, in_types, in_formats, cluster):
        (fmt,) = in_formats
        if fmt.is_single or fmt.is_sparse != self._sparse:
            return None
        out = _transposed_format(fmt)
        if out is None:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        (t,) = in_types
        (fmt,) = in_formats
        ot = self._out_type(in_types)
        stored = fmt.stored_bytes(t)
        flops = t.entries * _density(t, fmt)
        return CostFeatures(
            flops=flops, network_bytes=stored, intermediate_bytes=0.0,
            tuples=2.0 * fmt.tuple_count(t), output_bytes=stored,
            max_worker_bytes=2.0 * fmt.max_tuple_bytes(t),
            spill_bytes=2.0 * _share(stored, cluster))


class TransposeSingle(OpImplementation):
    """Transpose of a single-tuple matrix on one worker."""

    def __init__(self) -> None:
        super().__init__(TRANSPOSE, "t_single", JoinStrategy.LOCAL)

    def output_format(self, in_types, in_formats, cluster):
        (fmt,) = in_formats
        if not fmt.is_single:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        out = PhysicalFormat(fmt.layout)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        (t,) = in_types
        (fmt,) = in_formats
        stored = fmt.stored_bytes(t)
        flops = _serialized(t.entries * _density(t, fmt), cluster, 1.0)
        return CostFeatures(
            flops=flops, network_bytes=0.0, intermediate_bytes=0.0,
            tuples=2.0, output_bytes=stored,
            max_worker_bytes=2.0 * stored)


# ======================================================================
# Softmax / row-col reductions
# ======================================================================
_ROW_COMPLETE = (Layout.SINGLE, Layout.ROW_STRIP, Layout.CSR_STRIP)
_COL_COMPLETE = (Layout.SINGLE, Layout.COL_STRIP, Layout.CSC_STRIP)


class SoftmaxRowLocal(OpImplementation):
    """Row-wise softmax when every row is complete inside one tuple
    (single or row strips): a pure map."""

    def __init__(self) -> None:
        super().__init__(SOFTMAX, "softmax_row_local", JoinStrategy.MAP)

    def output_format(self, in_types, in_formats, cluster):
        (fmt,) = in_formats
        if fmt.layout not in (Layout.SINGLE, Layout.ROW_STRIP):
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if not fmt.admits(self._out_type(in_types)):
            return None
        return fmt

    def features(self, in_types, in_formats, cluster):
        (t,) = in_types
        (fmt,) = in_formats
        flops = 4.0 * t.entries
        usable = min(cluster.num_workers, fmt.tuple_count(t))
        flops = _serialized(flops, cluster, usable)
        out_bytes = fmt.stored_bytes(self._out_type(in_types))
        return CostFeatures(
            flops=flops, network_bytes=0.0, intermediate_bytes=0.0,
            tuples=float(fmt.tuple_count(t)), output_bytes=out_bytes,
            max_worker_bytes=2.0 * fmt.max_tuple_bytes(t),
            spill_bytes=(fmt.stored_bytes(t) + out_bytes)
            / max(1.0, float(usable)))


class SoftmaxBlocked(OpImplementation):
    """Row-wise softmax over column-split formats (tiles / col strips):
    needs two cross-block aggregations (row max, row sum) before the map."""

    def __init__(self) -> None:
        super().__init__(SOFTMAX, "softmax_blocked", JoinStrategy.SHUFFLE)

    def output_format(self, in_types, in_formats, cluster):
        (fmt,) = in_formats
        if fmt.layout not in (Layout.TILE, Layout.COL_STRIP):
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if not fmt.admits(self._out_type(in_types)):
            return None
        return fmt

    def features(self, in_types, in_formats, cluster):
        (t,) = in_types
        (fmt,) = in_formats
        ot = self._out_type(in_types)
        gr, gc = fmt.grid(t)
        flops = 5.0 * t.entries
        stats_bytes = 2.0 * t.rows * 8.0 * gc  # row max + row sum per block col
        net = stats_bytes + stats_bytes  # reduce then rebroadcast along rows
        tuples = 3.0 * fmt.tuple_count(t)
        return CostFeatures(
            flops=flops, network_bytes=net, intermediate_bytes=stats_bytes,
            tuples=tuples, output_bytes=fmt.stored_bytes(ot),
            max_worker_bytes=2.0 * fmt.max_tuple_bytes(t) + stats_bytes,
            spill_bytes=_share(2.0 * fmt.stored_bytes(t), cluster))


class ReduceLocal(OpImplementation):
    """row_sums / col_sums when the reduced dimension is complete inside a
    tuple: a pure map followed by tuple concatenation."""

    def __init__(self, op: AtomicOp) -> None:
        if op not in (ROW_SUMS, COL_SUMS):
            raise ValueError("ReduceLocal implements row_sums / col_sums only")
        super().__init__(op, f"{op.name}_local", JoinStrategy.MAP)

    def output_format(self, in_types, in_formats, cluster):
        (fmt,) = in_formats
        ok_layouts = _ROW_COMPLETE if self.op is ROW_SUMS else _COL_COMPLETE
        if fmt.layout not in ok_layouts:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        out = PhysicalFormat(Layout.SINGLE)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        (t,) = in_types
        (fmt,) = in_formats
        ot = self._out_type(in_types)
        flops = t.entries * _density(t, fmt)
        usable = min(cluster.num_workers, fmt.tuple_count(t))
        flops = _serialized(flops, cluster, usable)
        return CostFeatures(
            flops=flops, network_bytes=ot.dense_bytes,
            intermediate_bytes=0.0, tuples=float(fmt.tuple_count(t)) + 1.0,
            output_bytes=ot.dense_bytes,
            max_worker_bytes=fmt.max_tuple_bytes(t) + ot.dense_bytes,
            spill_bytes=_share(fmt.stored_bytes(t), cluster))


class ReduceShuffle(OpImplementation):
    """row_sums / col_sums over formats split along the reduced dimension:
    per-block partial sums shuffled to an aggregator."""

    def __init__(self, op: AtomicOp) -> None:
        if op not in (ROW_SUMS, COL_SUMS):
            raise ValueError("ReduceShuffle implements row_sums / col_sums only")
        super().__init__(op, f"{op.name}_shuffle", JoinStrategy.SHUFFLE)

    def output_format(self, in_types, in_formats, cluster):
        (fmt,) = in_formats
        bad_layouts = _ROW_COMPLETE if self.op is ROW_SUMS else _COL_COMPLETE
        if fmt.layout in bad_layouts or fmt.layout is Layout.COO:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        out = PhysicalFormat(Layout.SINGLE)
        if not out.admits(self._out_type(in_types)):
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        (t,) = in_types
        (fmt,) = in_formats
        ot = self._out_type(in_types)
        gr, gc = fmt.grid(t)
        splits = gc if self.op is ROW_SUMS else gr
        flops = t.entries * _density(t, fmt)
        partial_bytes = ot.dense_bytes * splits
        return CostFeatures(
            flops=flops, network_bytes=partial_bytes,
            intermediate_bytes=partial_bytes,
            tuples=float(fmt.tuple_count(t)) + splits,
            output_bytes=ot.dense_bytes,
            max_worker_bytes=fmt.max_tuple_bytes(t) + partial_bytes,
            spill_bytes=_share(fmt.stored_bytes(t), cluster))


# ======================================================================
# Inverse and bias add
# ======================================================================
class InverseSingle(OpImplementation):
    """Dense matrix inverse of a single-tuple matrix on one worker (LAPACK).

    Larger inverses are expressed *in the compute graph* via the two-level
    block decomposition of paper Section 8.2 (:mod:`repro.workloads.inverse`).
    """

    def __init__(self) -> None:
        super().__init__(INVERSE, "inv_single", JoinStrategy.LOCAL)

    def output_format(self, in_types, in_formats, cluster):
        (fmt,) = in_formats
        if fmt.layout is not Layout.SINGLE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        ot = self._out_type(in_types)
        out = PhysicalFormat(Layout.SINGLE)
        if not out.admits(ot):
            return None
        if 3 * ot.dense_bytes > 0.5 * cluster.ram_bytes:
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        (t,) = in_types
        ot = self._out_type(in_types)
        flops = _serialized(2.0 * float(t.rows) ** 3, cluster, 1.0)
        mem = 3.0 * ot.dense_bytes
        return CostFeatures(
            flops=flops, network_bytes=t.dense_bytes,
            intermediate_bytes=0.0, tuples=2.0,
            output_bytes=ot.dense_bytes, max_worker_bytes=mem)


class AddBiasBlocked(OpImplementation):
    """Broadcast a 1 x n bias vector (single tuple) against a partitioned
    dense matrix: broadcast join, format preserving."""

    def __init__(self) -> None:
        super().__init__(ADD_BIAS, "add_bias_blocked", JoinStrategy.BROADCAST)

    def output_format(self, in_types, in_formats, cluster):
        xf, bf = in_formats
        if xf.layout not in _PARTITIONED_DENSE or bf.layout is not Layout.SINGLE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        if in_types[1].dense_bytes > 0.25 * cluster.ram_bytes:
            return None
        if not xf.admits(self._out_type(in_types)):
            return None
        return xf

    def features(self, in_types, in_formats, cluster):
        xt, bt = in_types
        xf = in_formats[0]
        ot = self._out_type(in_types)
        flops = float(xt.entries)
        usable = min(cluster.num_workers, xf.tuple_count(xt))
        flops = _serialized(flops, cluster, usable)
        net = bt.dense_bytes * cluster.num_workers
        return CostFeatures(
            flops=flops, network_bytes=net, intermediate_bytes=0.0,
            tuples=1.0 + xf.tuple_count(xt), output_bytes=xf.stored_bytes(ot),
            max_worker_bytes=bt.dense_bytes + 2.0 * xf.max_tuple_bytes(xt),
            spill_bytes=_share(2.0 * xf.stored_bytes(xt), cluster))


class AddBiasSingle(OpImplementation):
    """Bias add when both operands are single tuples, on one worker."""

    def __init__(self) -> None:
        super().__init__(ADD_BIAS, "add_bias_single", JoinStrategy.LOCAL)

    def output_format(self, in_types, in_formats, cluster):
        xf, bf = in_formats
        if xf.layout is not Layout.SINGLE or bf.layout is not Layout.SINGLE:
            return None
        if not self._admitted(in_types, in_formats):
            return None
        ot = self._out_type(in_types)
        out = PhysicalFormat(Layout.SINGLE)
        if not out.admits(ot):
            return None
        if 3 * ot.dense_bytes > 0.5 * cluster.ram_bytes:
            return None
        return out

    def features(self, in_types, in_formats, cluster):
        xt, bt = in_types
        ot = self._out_type(in_types)
        flops = _serialized(float(xt.entries), cluster, 1.0)
        mem = xt.dense_bytes + bt.dense_bytes + ot.dense_bytes
        return CostFeatures(
            flops=flops, network_bytes=bt.dense_bytes,
            intermediate_bytes=0.0, tuples=3.0,
            output_bytes=ot.dense_bytes, max_worker_bytes=mem)


# ======================================================================
# Fused elementwise chains (logical rewrite layer)
# ======================================================================
class FusedEltwise(OpImplementation):
    """One-stage execution of a fused elementwise chain.

    Wraps a *template* implementation of the chain's base op (a unary map,
    an elementwise binary, or ``add_bias``); typing delegates to the
    template with an extra admission check for the — possibly densified —
    fused output type.  Costing charges the template's features plus one
    pass of FLOPs per extra unary step: the per-stage overheads (stage
    latency, tuple counts, intermediate materialization) are paid once
    instead of once per step, which is exactly where fusion wins.
    """

    def __init__(self, atom: AtomicOp, template: OpImplementation,
                 variant: str) -> None:
        super().__init__(atom, f"fused_{variant}[{atom.name}]", template.join)
        self.template = template
        self.steps = fused_steps(atom.name)

    def output_format(self, in_types, in_formats, cluster):
        fmt = self.template.output_format(in_types, in_formats, cluster)
        if fmt is None:
            return None
        if not fmt.admits(self._out_type(in_types)):
            return None
        return fmt

    def features(self, in_types, in_formats, cluster):
        feats = self.template.features(in_types, in_formats, cluster)
        extra = float(len(self.steps) - 1) * float(
            self._out_type(in_types).entries)
        return dataclasses.replace(feats, flops=feats.flops + extra)


_FUSED_IMPLS: dict[str, tuple[OpImplementation, ...]] = {}


def fused_implementations(atom: AtomicOp) -> tuple[OpImplementation, ...]:
    """The (interned) implementations of one fused atom.

    These live outside :data:`DEFAULT_IMPLEMENTATIONS` — the static catalog
    stays at the paper's 38 entries — and are reached through
    :meth:`repro.core.registry.OptimizerContext.impls_for`.
    """
    cached = _FUSED_IMPLS.get(atom.name)
    if cached is not None:
        return cached
    base = atom_by_name(fused_steps(atom.name)[0].op_name)
    if base in BINARY_ELEMENTWISE:
        templates = [(EWBlocked(base), "blocked"), (EWSingle(base), "single")]
    elif base is ADD_BIAS:
        templates = [(AddBiasBlocked(), "blocked"),
                     (AddBiasSingle(), "single")]
    elif base in UNARY_MAPS:
        templates = [(UnaryMap(base), "map")]
    else:
        templates = []
    impls = tuple(FusedEltwise(atom, t, variant) for t, variant in templates)
    _FUSED_IMPLS[atom.name] = impls
    return impls


def fused_impl_by_name(name: str) -> OpImplementation | None:
    """Reconstruct a fused implementation from its catalog name (used when
    deserializing plans whose graphs contain fused vertices)."""
    if not name.startswith("fused_") or not name.endswith("]"):
        return None
    bracket = name.find("[")
    if bracket < 0:
        return None
    try:
        atom = atom_by_name(name[bracket + 1:-1])
    except (KeyError, ValueError):
        return None
    for impl in fused_implementations(atom):
        if impl.name == name:
            return impl
    return None


# ======================================================================
# Catalog
# ======================================================================
def build_default_implementations() -> tuple[OpImplementation, ...]:
    """The paper-matching catalog of 38 atomic computation implementations."""
    impls: list[OpImplementation] = [
        # matmul (10)
        MMTileShuffle(), MMTileBroadcast(), MMStripCross(), MMOuterAgg(),
        MMLocalSingle(), MMBroadcastLeft(), MMBroadcastRight(),
        MMSparseBcastDense(), MMSparseLocal(), MMCooTileShuffle(),
    ]
    # element-wise binary, dense (8)
    for op in BINARY_ELEMENTWISE:
        impls.append(EWBlocked(op))
        impls.append(EWSingle(op))
    # element-wise binary, sparse (3)
    for op in (ADD, SUB, ELEM_MUL):
        impls.append(EWSparseBlocked(op))
    # unary maps (5)
    for op in UNARY_MAPS:
        impls.append(UnaryMap(op))
    # transpose (3)
    impls.extend([TransposeBlocked(sparse=False),
                  TransposeBlocked(sparse=True), TransposeSingle()])
    # softmax (2)
    impls.extend([SoftmaxRowLocal(), SoftmaxBlocked()])
    # reductions (4)
    impls.extend([ReduceLocal(ROW_SUMS), ReduceShuffle(ROW_SUMS),
                  ReduceLocal(COL_SUMS), ReduceShuffle(COL_SUMS)])
    # inverse (1) + bias (2)
    impls.extend([InverseSingle(), AddBiasBlocked(), AddBiasSingle()])
    return tuple(impls)


DEFAULT_IMPLEMENTATIONS: tuple[OpImplementation, ...] = (
    build_default_implementations()
)


def implementations_for(op: AtomicOp,
                        catalog: Sequence[OpImplementation]
                        = DEFAULT_IMPLEMENTATIONS
                        ) -> tuple[OpImplementation, ...]:
    """All implementations of ``op`` in ``catalog`` (the paper's i.a = v.a)."""
    return tuple(i for i in catalog if i.op == op)
