"""Pointwise and data-movement operators.

Each of these is a separate kernel in the unfused (PyTorch-like) engine; the
fused engines absorb most of them into GEMM epilogues via
:func:`repro.ops.gemm.gemm_bias_act` or into the on-the-fly attention
operator.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelCost, MemPattern
from repro.ops.context import ExecContext

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """tanh-approximated GELU (the BERT convention).

    Computes ``0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`` with in-place
    ufuncs — one scratch array, and ``x·x·x`` instead of ``x**3`` (NumPy
    routes float ``**3`` through libm ``pow``, which is several times
    slower for the same cubic). ``out=x`` overwrites ``x`` with the same
    bits.
    """
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _SQRT_2_OVER_PI
    np.tanh(inner, out=inner)
    inner += 1.0
    out = np.multiply(inner, x, out=inner if out is None else out)
    out *= 0.5
    return out


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0, out=out)


def _pointwise_cost(
    ctx: ExecContext,
    name: str,
    n_elems: int,
    flops_per_elem: float,
    n_inputs: int = 1,
    n_outputs: int = 1,
    tag: str = "",
    pattern: MemPattern | None = None,
) -> KernelCost:
    b = ctx.bytes_per_elem
    return KernelCost(
        name=name,
        flops=flops_per_elem * n_elems,
        bytes_loaded=n_inputs * n_elems * b,
        bytes_stored=n_outputs * n_elems * b,
        ctas=max(1, n_elems // 1024),
        uses_tensor_core=False,
        compute_eff=0.5,
        mem_pattern=pattern or ctx.elementwise_pattern,
        tag=tag or name,
    )


def add_bias(ctx: ExecContext, x: np.ndarray, bias: np.ndarray,
             tag: str = "") -> np.ndarray:
    """Standalone bias-add kernel (unfused engines only)."""
    ctx.tl.launch(_pointwise_cost(ctx, "add_bias", x.size, 1.0, tag=tag))
    return x + bias


def residual_add(ctx: ExecContext, x: np.ndarray, residual: np.ndarray,
                 tag: str = "") -> np.ndarray:
    """Standalone residual-add kernel."""
    ctx.tl.launch(
        _pointwise_cost(ctx, "residual_add", x.size, 1.0, n_inputs=2, tag=tag)
    )
    return x + residual


def scale(ctx: ExecContext, x: np.ndarray, factor: float,
          tag: str = "") -> np.ndarray:
    """Matrix-scalar multiply — step ② of Fig. 3 when run standalone."""
    ctx.tl.launch(_pointwise_cost(ctx, "scale", x.size, 1.0, tag=tag))
    return x * factor


def gelu_op(ctx: ExecContext, x: np.ndarray, tag: str = "") -> np.ndarray:
    """Standalone GELU activation kernel."""
    ctx.tl.launch(_pointwise_cost(ctx, "gelu", x.size, 8.0, tag=tag))
    return gelu(x)


def relu_op(ctx: ExecContext, x: np.ndarray, tag: str = "") -> np.ndarray:
    """Standalone ReLU kernel."""
    ctx.tl.launch(_pointwise_cost(ctx, "relu", x.size, 1.0, tag=tag))
    return relu(x)


def transpose_heads(
    ctx: ExecContext,
    x: np.ndarray,
    num_heads: int,
    tag: str = "",
) -> np.ndarray:
    """Reshape ``(s, d)`` activations to per-head ``(H, s, d_k)`` layout.

    In real frameworks this is a strided-copy kernel (the batched attention
    GEMMs need head-major contiguity); E.T.'s custom kernels index heads in
    place and never pay it.
    """
    s, d = x.shape
    if d % num_heads:
        raise ValueError(f"d_model {d} not divisible by {num_heads} heads")
    ctx.tl.launch(
        _pointwise_cost(
            ctx, "transpose_heads", x.size, 0.0,
            tag=tag, pattern=MemPattern.STRIDED,
        )
    )
    return np.ascontiguousarray(
        x.reshape(s, num_heads, d // num_heads).transpose(1, 0, 2)
    )


def untranspose_heads(ctx: ExecContext, x: np.ndarray, tag: str = "") -> np.ndarray:
    """Inverse of :func:`transpose_heads`: ``(H, s, d_k)`` back to ``(s, d)``."""
    h, s, dk = x.shape
    ctx.tl.launch(
        _pointwise_cost(
            ctx, "untranspose_heads", x.size, 0.0,
            tag=tag, pattern=MemPattern.STRIDED,
        )
    )
    return np.ascontiguousarray(x.transpose(1, 0, 2).reshape(s, h * dk))
