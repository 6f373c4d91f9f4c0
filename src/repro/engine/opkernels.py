"""Operator execution routines: one relational recipe per implementation.

These are the kernel bodies the old ``Executor`` methods carried, lifted to
free functions so a lowered :class:`~repro.engine.stages.OpStage` can bind
them as thunks: each takes the :class:`~repro.engine.relation.
RelationalEngine` to run on (which owns the ledger every sub-stage charges
to), the vertex with its chosen implementation, the already-transformed
stored inputs, and the annotated output format.
"""

from __future__ import annotations

import numpy as np

from ..core.formats import Layout, PhysicalFormat
from ..core.implementations import JoinStrategy
from . import kernels
from .relation import RelationalEngine
from .storage import StoredMatrix, assemble, convert, grid_bounds, split, \
    store_as

_JOIN_STRATEGY = {
    JoinStrategy.SHUFFLE: "shuffle",
    JoinStrategy.BROADCAST: "broadcast",
    JoinStrategy.CROSS: "broadcast",
    JoinStrategy.COPART: "copart",
    JoinStrategy.LOCAL: "copart",
    JoinStrategy.MAP: "copart",
}


def execute_op(engine: RelationalEngine, v, impl,
               args: list[StoredMatrix],
               out_fmt: PhysicalFormat) -> StoredMatrix:
    """Dispatch a vertex's implementation to its execution routine."""
    name = impl.name
    if name.startswith("mm_"):
        return _matmul(engine, v, impl, args, out_fmt)
    if name.startswith("ew_"):
        return _elementwise(engine, v, impl, args, out_fmt)
    if name.startswith("map_"):
        return _unary_map(engine, v, impl, args[0], out_fmt)
    if name.startswith("t_"):
        return _transpose(engine, v, args[0], out_fmt)
    if name == "softmax_row_local":
        return _rowwise_map(engine, v, args[0], out_fmt,
                            kernels.softmax_rows)
    if name in ("softmax_blocked", "inv_single") or \
            name.startswith(("row_sums", "col_sums")):
        return _direct(engine, v, impl, args, out_fmt)
    if name.startswith("add_bias"):
        return _add_bias(engine, v, impl, args, out_fmt)
    if name.startswith("fused_"):
        return _fused(engine, v, impl, args, out_fmt)
    raise NotImplementedError(f"no execution routine for {name}")


# -- matmul ------------------------------------------------------------
def _matmul(engine, v, impl, args, out_fmt) -> StoredMatrix:
    lhs, rhs = args
    if lhs.fmt.layout is Layout.COO:
        # Shuffle triples into sparse blocks aligned with the rhs grid.
        inner = rhs.fmt.block_rows or rhs.mtype.rows
        blocked = PhysicalFormat(Layout.SPARSE_TILE, block_rows=inner,
                                 block_cols=inner)
        lhs = convert(lhs, blocked, engine.cluster)

    strategy = _JOIN_STRATEGY[impl.join]
    partials = engine.join(
        lhs.relation, rhs.relation,
        left_key=lambda k: k[1], right_key=lambda k: k[0],
        combine=lambda lk, lp, rk, rp: (
            (lk[0], rk[1], lk[1]), kernels.matmul(lp, rp)),
        strategy=strategy,
        flops_fn=kernels.matmul_flops,
        stage=f"{v.name}:{impl.name}")
    # Every partial product is a fresh array of this attempt, so the sums
    # accumulate in place.
    summed = engine.group_agg(
        partials, group_fn=lambda k: (k[0], k[1]),
        agg_fn=kernels.accumulate, stage=f"{v.name}:agg")
    return store_as(summed, v.mtype, out_fmt, engine.cluster)


# -- element-wise binary -----------------------------------------------
def _elementwise(engine, v, impl, args, out_fmt) -> StoredMatrix:
    lhs, rhs = args
    kernel = kernels.BINARY_KERNELS[v.op.name]
    joined = engine.join(
        lhs.relation, rhs.relation,
        left_key=lambda k: k, right_key=lambda k: k,
        combine=lambda lk, lp, rk, rp: (lk, kernel(lp, rp)),
        strategy="copart",
        flops_fn=lambda a, b: float(np.prod(a.shape)),
        stage=f"{v.name}:{impl.name}")
    return store_as(joined, v.mtype, out_fmt, engine.cluster)


# -- unary maps --------------------------------------------------------
def _unary_map(engine, v, impl, arg: StoredMatrix, out_fmt) -> StoredMatrix:
    if v.op.name == "scalar_mul":
        scalar = v.param if v.param is not None else 1.0
        fn = lambda key, p: (key, kernels.scalar_mul(p, scalar))
    else:
        kernel = kernels.UNARY_KERNELS[v.op.name]
        fn = lambda key, p: (key, kernel(p))
    rel = engine.map_rows(arg.relation, fn,
                          flops=float(arg.mtype.entries),
                          stage=f"{v.name}:{impl.name}")
    return store_as(rel, v.mtype, out_fmt, engine.cluster)


def _rowwise_map(engine, v, arg: StoredMatrix, out_fmt,
                 kernel) -> StoredMatrix:
    rel = engine.map_rows(
        arg.relation, lambda key, p: (key, kernel(p)),
        flops=4.0 * arg.mtype.entries, stage=f"{v.name}:softmax")
    return store_as(rel, v.mtype, out_fmt, engine.cluster)


# -- transpose ---------------------------------------------------------
def _transpose(engine, v, arg: StoredMatrix, out_fmt) -> StoredMatrix:
    rel = engine.map_rows(
        arg.relation,
        lambda key, p: ((key[1], key[0]), kernels.transpose(p)),
        flops=float(arg.mtype.entries), stage=f"{v.name}:transpose")
    rel = engine.repartition(rel, lambda k: k,
                             stage=f"{v.name}:t-shuffle")
    return store_as(rel, v.mtype, out_fmt, engine.cluster)


# -- direct ops (softmax over column blocks, reductions, inverse) ------
def _direct(engine, v, impl, args, out_fmt) -> StoredMatrix:
    # Computed via gather + numpy; cost charged from analytic features,
    # as documented in DESIGN.md.
    in_types = tuple(a.mtype for a in args)
    in_formats = tuple(a.fmt for a in args)
    feats = impl.features(in_types, in_formats, engine.cluster)
    engine.ledger.charge(f"{v.name}:{impl.name}", feats)
    dense = assemble(args[0])
    if v.op.name == "softmax":
        result = kernels.softmax_rows(dense)
    elif v.op.name == "row_sums":
        result = kernels.row_sums(dense)
    elif v.op.name == "col_sums":
        result = kernels.col_sums(dense)
    elif v.op.name == "inverse":
        result = kernels.inverse(dense)
    else:  # pragma: no cover - routing error
        raise NotImplementedError(v.op.name)
    return split(result, v.mtype, out_fmt, engine.cluster)


# -- bias add ----------------------------------------------------------
def _add_bias(engine, v, impl, args, out_fmt) -> StoredMatrix:
    x, bias = args
    bounds = grid_bounds(x.mtype, x.fmt)[1]
    bias_row = assemble(bias).reshape(1, -1)
    if impl.join is JoinStrategy.BROADCAST:
        engine.broadcast(bias.relation, stage=f"{v.name}:bcast-bias")
    rel = engine.map_rows(
        x.relation,
        lambda key, p: (key, kernels.add_bias(
            p, bias_row[:, bounds[key[1]][0]:bounds[key[1]][1]])),
        flops=float(x.mtype.entries), stage=f"{v.name}:{impl.name}")
    return store_as(rel, v.mtype, out_fmt, engine.cluster)


# -- fused elementwise chains ------------------------------------------
def _fused(engine, v, impl, args, out_fmt) -> StoredMatrix:
    """One stage for a whole fused chain: the base operation's kernel
    followed by the unary epilogue, applied per payload — no intermediate
    matrices are materialized, and the epilogue overwrites the base
    kernel's fresh result instead of allocating one array per step."""
    steps = impl.steps
    base, epilogue = steps[0], steps[1:]
    flops_per_entry = float(len(steps))
    stage = f"{v.name}:{impl.name}"

    if base.op_name in kernels.BINARY_KERNELS:
        kernel = kernels.BINARY_KERNELS[base.op_name]
        lhs, rhs = args
        joined = engine.join(
            lhs.relation, rhs.relation,
            left_key=lambda k: k, right_key=lambda k: k,
            combine=lambda lk, lp, rk, rp: (
                lk, kernels.apply_epilogue(kernel(lp, rp), epilogue,
                                           owned=True)),
            strategy="copart",
            flops_fn=lambda a, b: flops_per_entry * float(
                np.prod(a.shape)),
            stage=stage)
        return store_as(joined, v.mtype, out_fmt, engine.cluster)

    if base.op_name == "add_bias":
        x, bias = args
        bounds = grid_bounds(x.mtype, x.fmt)[1]
        bias_row = assemble(bias).reshape(1, -1)
        if impl.join is JoinStrategy.BROADCAST:
            engine.broadcast(bias.relation,
                             stage=f"{v.name}:bcast-bias")
        rel = engine.map_rows(
            x.relation,
            lambda key, p: (key, kernels.apply_epilogue(
                kernels.add_bias(
                    p, bias_row[:, bounds[key[1]][0]:bounds[key[1]][1]]),
                epilogue, owned=True)),
            flops=flops_per_entry * x.mtype.entries, stage=stage)
        return store_as(rel, v.mtype, out_fmt, engine.cluster)

    # Unary base: the whole chain is an epilogue over the one input.
    arg = args[0]
    rel = engine.map_rows(
        arg.relation,
        lambda key, p: (key, kernels.apply_epilogue(p, steps)),
        flops=flops_per_entry * arg.mtype.entries, stage=stage)
    return store_as(rel, v.mtype, out_fmt, engine.cluster)
