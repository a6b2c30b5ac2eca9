"""Layer normalization (applied after self-attention and after the MLP).

Defined as in Section 2.1: the module input is added to the module output
(residual) and the sum is normalized per token over the feature dimension.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelCost
from repro.ops.context import ExecContext
from repro.ops.epilogue import epilogue


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Reference numerics: normalize over the trailing axis, affine transform."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def layer_norm_op(
    ctx: ExecContext,
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    residual: np.ndarray | None = None,
    eps: float = 1e-5,
    tag: str = "",
) -> np.ndarray:
    """LayerNorm kernel, optionally fused with the residual add.

    The unfused engine calls this twice per encoder (plus separate residual
    adds); the fused engines pass ``residual`` so add+normalize is one kernel.
    """
    b = ctx.bytes_per_elem
    n_inputs = 2 if residual is not None else 1
    ctx.tl.launch(
        KernelCost(
            name="layernorm" if residual is None else "add_layernorm",
            flops=(8.0 + (1.0 if residual is not None else 0.0)) * x.size,
            bytes_loaded=n_inputs * x.size * b + 2 * gamma.size * b,
            bytes_stored=x.size * b,
            ctas=max(1, int(np.prod(x.shape[:-1]))),
            uses_tensor_core=False,
            compute_eff=0.5,
            mem_pattern=ctx.elementwise_pattern,
            tag=tag or "layernorm",
        )
    )
    # The epilogue overwrites its input: never the caller's ``x``.
    y = x + residual if residual is not None else x.copy()
    return epilogue(y, ln=(gamma, beta), eps=eps)
