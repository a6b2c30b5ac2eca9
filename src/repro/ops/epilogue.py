"""The fused-GEMM epilogue (bias, activation, residual add, layernorm) of
every GEMM operator and of ``layer_norm_op``: one numerics function and
one cost helper. The host runs it in place on L2-sized row blocks of the
op's output, so each step reads the block from cache (DESIGN §10).
"""

from __future__ import annotations

import numpy as np

from repro.ops.elementwise import gelu, relu

#: Output bytes per block: a quarter of a 2 MiB L2, leaving room for the
#: block's scratch copy and residual block (BERT_BASE fc1: 21 rows).
EPILOGUE_BLOCK_BYTES = 512 * 1024

_ACTIVATIONS = {None: None, "gelu": gelu, "relu": relu}


def _activation(act: str | None):
    if act not in _ACTIVATIONS:
        raise ValueError(f"unknown activation: {act!r}")
    return _ACTIVATIONS[act]


def epilogue_cost(
    bytes_per_elem: int,
    m: int,
    n: int,
    bias: np.ndarray | None = None,
    act: str | None = None,
    residual: np.ndarray | None = None,
    ln: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float]:
    """Extra ``(flops, bytes_loaded)`` of the epilogue of an ``m×n`` GEMM:
    it rides in registers, so the GEMM result makes no extra global round
    trip. Rejects an unknown ``act`` before the op does any work."""
    _activation(act)
    extra_flops = 0.0
    extra_loaded = 0.0
    if bias is not None:
        extra_flops += m * n
        extra_loaded += n * bytes_per_elem
    if act is not None:
        extra_flops += 8.0 * m * n
    if residual is not None:
        extra_flops += m * n
        extra_loaded += m * n * bytes_per_elem
    if ln is not None:
        extra_flops += 8.0 * m * n
        extra_loaded += 2.0 * n * bytes_per_elem
    return extra_flops, extra_loaded


def _apply(ufunc: np.ufunc, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``ufunc(y, v)``, in place unless that would narrow the result."""
    if np.result_type(y, v) == y.dtype:
        return ufunc(y, v, out=y)
    return ufunc(y, v)


def epilogue(
    y: np.ndarray,
    bias: np.ndarray | None = None,
    act: str | None = None,
    residual: np.ndarray | None = None,
    ln: tuple[np.ndarray, np.ndarray] | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """``layer_norm(act(y + bias) + residual)``, overwriting ``y``.

    ``y`` is the op's own output, rewritten one block of
    :data:`EPILOGUE_BLOCK_BYTES` of rows at a time; the other operands are
    only read. Each element sees the unfused chain's ufuncs in the same
    order and LN reduces per row, so the bits are the chain's. A wider
    operand promotes the result into a new array, as ``y + bias`` would.
    """
    fn = _activation(act)
    n = y.shape[-1]
    rows = y.reshape(int(np.prod(y.shape[:-1])), n)
    res = (None if residual is None
           else np.broadcast_to(residual, y.shape).reshape(rows.shape))
    step = max(1, EPILOGUE_BLOCK_BYTES // max(1, n * y.itemsize))
    out = None
    for i in range(0, rows.shape[0], step):
        b = rows[i:i + step]
        if bias is not None:
            b = _apply(np.add, b, bias)
        if fn is not None:
            b = fn(b, out=b)
        if res is not None:
            b = _apply(np.add, b, res[i:i + step])
        if ln is not None:
            b -= b.mean(axis=-1, keepdims=True)
            var = np.add.reduce(b * b, axis=-1, keepdims=True)
            var /= n
            var += eps
            b /= np.sqrt(var, out=var)
            b = _apply(np.add, _apply(np.multiply, b, ln[0]), ln[1])
        if b.dtype != rows.dtype:
            if out is None:
                out = np.empty(rows.shape, b.dtype)
            out[i:i + step] = b
    return (rows if out is None else out).reshape(y.shape)
