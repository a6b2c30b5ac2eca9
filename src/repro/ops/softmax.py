"""Masking and softmax operators (steps ④–⑤ of Fig. 3).

The softmax is numerically the standard max-subtracted row softmax; the
row-level data dependency it creates (the max and sum span an entire row of
one head of Q·Kᵀ) is why the paper's minimal independent work unit is one row
of one head (Section 3.1).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelCost, MemPattern
from repro.ops.context import ExecContext

#: Additive mask value for excluded interactions. Using a large negative
#: finite value (not -inf) keeps FP16 emulation free of inf-inf NaNs.
MASK_NEG = -1.0e4


def causal_mask(seq_len: int) -> np.ndarray:
    """Lower-triangular additive mask (Section 2.1's ``popular masking``):
    zero on and below the diagonal, large-negative above, so later positions
    cannot affect earlier ones."""
    m = np.zeros((seq_len, seq_len), dtype=np.float32)
    iu = np.triu_indices(seq_len, k=1)
    m[iu] = MASK_NEG
    return m


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Reference max-subtracted softmax (pure numerics, no kernel).

    The exp and the normalizing divide run in place on the shifted scratch
    array — same operations and order, one temporary instead of three.
    """
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def online_softmax_update(
    m: np.ndarray,
    l: np.ndarray,
    acc: np.ndarray,
    scores: np.ndarray,
    v_tile: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One column-tile step of the online (streaming) softmax.

    Folds a ``(..., rows, bc)`` tile of masked, scaled scores and its
    ``(..., bc, d_v)`` V tile into the running row statistics: ``m`` is the
    running row max, ``l`` the running denominator, ``acc`` the
    *unnormalized* output accumulator (``softmax(S) @ V`` times ``l``).
    Returns the updated ``(m, l, acc)``; after the last tile the caller
    normalizes with ``acc / l``. Rescaling uses ``exp(m_old - m_new)``,
    which is exactly 0.0 for the ``m = -inf`` initial state, so the first
    tile needs no special case.

    All operations are elementwise or batched matmuls over the leading
    (head) axes.
    """
    m_new = np.maximum(m, scores.max(axis=-1))
    p = np.exp(scores - m_new[..., None])
    corr = np.exp(m - m_new)
    l_new = l * corr + p.sum(axis=-1)
    acc_new = acc * corr[..., None] + p @ v_tile
    return m_new, l_new, acc_new


def _score_pattern(ctx: ExecContext, scores: np.ndarray) -> MemPattern:
    """Per-head (H, s, s) score tensors are strided-batched accesses."""
    return MemPattern.BATCHED if scores.ndim == 3 else ctx.elementwise_pattern


def apply_mask(ctx: ExecContext, scores: np.ndarray, mask: np.ndarray | None,
               tag: str = "") -> np.ndarray:
    """Standalone masking kernel (unfused engines); no-op without a mask."""
    if mask is None:
        return scores
    b = ctx.bytes_per_elem
    ctx.tl.launch(
        KernelCost(
            name="mask",
            flops=scores.size,
            bytes_loaded=(scores.size + mask.size) * b,
            bytes_stored=scores.size * b,
            ctas=max(1, scores.size // 1024),
            uses_tensor_core=False,
            compute_eff=0.5,
            mem_pattern=_score_pattern(ctx, scores),
            tag=tag or "mask",
        )
    )
    return scores + mask


def softmax_rows(ctx: ExecContext, scores: np.ndarray, tag: str = "") -> np.ndarray:
    """Standalone row-softmax kernel over the trailing axis."""
    b = ctx.bytes_per_elem
    ctx.tl.launch(
        KernelCost(
            name="softmax",
            flops=5.0 * scores.size,
            bytes_loaded=scores.size * b,
            bytes_stored=scores.size * b,
            ctas=max(1, int(np.prod(scores.shape[:-1]))),
            uses_tensor_core=False,
            compute_eff=0.5,
            mem_pattern=_score_pattern(ctx, scores),
            tag=tag or "softmax",
        )
    )
    return softmax(scores)


def masked_softmax(
    ctx: ExecContext,
    scores: np.ndarray,
    mask: np.ndarray | None,
    scale_factor: float | None = None,
    tag: str = "",
) -> np.ndarray:
    """TensorRT-style fused scale+mask+softmax: one kernel, one S round trip."""
    b = ctx.bytes_per_elem
    mask_bytes = mask.size * b if mask is not None else 0
    ctx.tl.launch(
        KernelCost(
            name="masked_softmax",
            flops=7.0 * scores.size,
            bytes_loaded=scores.size * b + mask_bytes,
            bytes_stored=scores.size * b,
            ctas=max(1, int(np.prod(scores.shape[:-1]))),
            uses_tensor_core=False,
            compute_eff=0.5,
            mem_pattern=_score_pattern(ctx, scores),
            tag=tag or "masked_softmax",
        )
    )
    s = scores if scale_factor is None else scores * scale_factor
    if mask is not None:
        s = s + mask
    return softmax(s)
