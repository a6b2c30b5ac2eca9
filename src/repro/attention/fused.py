"""TensorRT-style vertically fused attention.

TensorRT fuses the pointwise chain (scale + mask + softmax) into one kernel
but — as Section 3.1 stresses — it *cannot change how each operator is
implemented*: the batched GEMMs still write Q·Kᵀ and read S from global
memory. Three kernels, two full S round trips.
"""

from __future__ import annotations

import numpy as np

from repro.ops.context import ExecContext
from repro.ops.gemm import GemmAlgo, batched_gemm
from repro.ops.softmax import masked_softmax


def fused_attention(
    ctx: ExecContext,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    algo: GemmAlgo = GemmAlgo.HEURISTIC,
) -> np.ndarray:
    """Three-kernel attention over head-major ``(H, s, d_k)`` operands."""
    d_k = q.shape[-1]
    scores = batched_gemm(
        ctx, q, k.transpose(0, 2, 1), algo=algo, name="qk_t", tag="step3_qk"
    )
    probs = masked_softmax(
        ctx,
        scores,
        np.broadcast_to(mask, scores.shape) if mask is not None else None,
        scale_factor=1.0 / np.sqrt(float(d_k)),
        tag="step5_softmax",
    )
    return batched_gemm(ctx, probs, v, algo=algo, name="sv", tag="step6_sv")
