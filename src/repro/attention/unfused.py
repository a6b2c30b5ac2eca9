"""PyTorch-eager-style attention: one kernel per primitive.

This is the "modular system implementation" the introduction criticizes:
Q·Kᵀ, scaling, masking, softmax and S·V each launch separately and every
intermediate result round-trips through global memory.
"""

from __future__ import annotations

import numpy as np

from repro.ops.context import ExecContext
from repro.ops.elementwise import scale
from repro.ops.gemm import GemmAlgo, batched_gemm
from repro.ops.softmax import apply_mask, softmax_rows


def unfused_attention(
    ctx: ExecContext,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    algo: GemmAlgo = GemmAlgo.DEFAULT,
) -> np.ndarray:
    """Five-kernel attention over head-major ``(H, s, d_k)`` operands."""
    d_k = q.shape[-1]
    scores = batched_gemm(
        ctx, q, k.transpose(0, 2, 1), algo=algo, name="qk_t", tag="step3_qk"
    )
    scores = scale(ctx, scores, 1.0 / np.sqrt(float(d_k)), tag="step2_scale")
    if mask is not None:
        scores = apply_mask(
            ctx, scores, np.broadcast_to(mask, scores.shape), tag="step4_mask"
        )
    probs = softmax_rows(ctx, scores, tag="step5_softmax")
    return batched_gemm(ctx, probs, v, algo=algo, name="sv", tag="step6_sv")
