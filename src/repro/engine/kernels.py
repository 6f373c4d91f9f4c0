"""Per-block numerical kernels for the 16 atomic computations.

Each kernel works on one tuple payload (a dense numpy block or a scipy CSR
block) and is numerically identical to the corresponding full-matrix numpy
operation — the property the integration tests verify end to end.

Kernels never write into their inputs: payloads are shared by lineage
checkpoints, intermediate-store entries and later stages.  A kernel may
write into an array it allocated itself, and the unary kernels take an
``out`` block to overwrite, which callers pass only for a dense block they
allocated in the same stage attempt (:func:`apply_epilogue`,
:func:`accumulate`).  Writing in place rounds exactly as the fresh-array
form does, so results stay bit-identical.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def to_dense(block) -> np.ndarray:
    """Dense view of a payload."""
    return block.toarray() if sp.issparse(block) else np.asarray(block)


def matmul(a, b):
    """Block product; densifies the result when either input is sparse."""
    out = a @ b
    return out.toarray() if sp.issparse(out) else out


def matmul_flops(a, b) -> float:
    """FLOPs of one block product (2·nnz(a)·cols(b) for sparse a)."""
    cols = b.shape[1]
    if sp.issparse(a):
        return 2.0 * a.nnz * cols
    return 2.0 * a.shape[0] * a.shape[1] * cols


def accumulate(total, part):
    """``total + part``, summed into ``total`` when both are dense float
    blocks of one shape.  The caller must own ``total``."""
    if _writable(total) and _writable(part) and total.shape == part.shape:
        total += part
        return total
    return total + part


def _writable(block) -> bool:
    return type(block) is np.ndarray and block.dtype == np.float64


def add(a, b):
    return a + b


def sub(a, b):
    return a - b


def elem_mul(a, b):
    if sp.issparse(a) or sp.issparse(b):
        return sp.csr_matrix(a).multiply(sp.csr_matrix(b))
    return a * b


def elem_div(a, b):
    return to_dense(a) / to_dense(b)


def scalar_mul(a, scalar: float, out=None):
    if out is None:
        return a * scalar
    return np.multiply(a, scalar, out=out)


def transpose(a):
    return a.T.copy() if isinstance(a, np.ndarray) else a.T.tocsr()


def relu(a, out=None):
    if sp.issparse(a):
        res = a.copy()
        res.data = np.maximum(res.data, 0.0)
        return res
    return np.maximum(a, 0.0, out=out)


def relu_grad(a, out=None):
    if sp.issparse(a):
        res = a.copy()
        res.data = (res.data > 0).astype(np.float64)
        return res
    if out is not None:
        return np.greater(a, 0, out=out)
    return (to_dense(a) > 0).astype(np.float64)


def sigmoid(a, out=None):
    # 1 / (1 + exp(-a)), in one array.
    e = np.negative(to_dense(a), out=out)
    np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


def exp(a, out=None):
    return np.exp(to_dense(a), out=out)


def softmax_rows(a):
    """Numerically stable row-wise softmax of a row-complete block."""
    dense = to_dense(a)
    e = dense - dense.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def row_sums(a):
    dense_sum = np.asarray(a.sum(axis=1))
    return dense_sum.reshape(-1, 1)


def col_sums(a):
    dense_sum = np.asarray(a.sum(axis=0))
    return dense_sum.reshape(1, -1)


def inverse(a):
    return np.linalg.inv(to_dense(a))


def add_bias(a, bias_slice):
    return to_dense(a) + bias_slice


#: Unary-map kernel table, keyed by atomic computation name.  ``scalar_mul``
#: takes the vertex's scalar parameter.
UNARY_KERNELS = {
    "relu": relu,
    "relu_grad": relu_grad,
    "sigmoid": sigmoid,
    "exp": exp,
}

#: Element-wise binary kernel table.
BINARY_KERNELS = {
    "add": add,
    "sub": sub,
    "elem_mul": elem_mul,
    "elem_div": elem_div,
}


def unary_step(block, op_name: str, param: float | None = None,
               out=None):
    """One unary step of a fused chain on one payload."""
    if op_name == "scalar_mul":
        return scalar_mul(block, param if param is not None else 1.0,
                          out=out)
    return UNARY_KERNELS[op_name](block, out=out)


def apply_epilogue(block, steps, owned: bool = False):
    """Apply the unary tail of a fused chain (anything after the base
    operation) to one payload, in order.  ``steps`` are objects with
    ``op_name`` and ``param`` attributes
    (:class:`repro.core.atoms.FusedStep`).

    Every step returns a fresh payload, so each step after the first
    overwrites its dense input; ``owned`` says the caller allocated
    ``block`` in this attempt, so the first step may overwrite it too.
    """
    for step in steps:
        out = block if owned and _writable(block) else None
        block = unary_step(block, step.op_name, step.param, out=out)
        owned = True
    return block
