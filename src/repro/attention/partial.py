"""Partial on-the-fly attention: the sequence-length-aware split (Section 3.2).

For long sequences the full OTF operator's K re-load (once per 16-row tile)
overwhelms the bandwidth saved on intermediate stores. The remedy is to break
steps ②–③ out of the fused kernel:

- **Kernel 1** computes Q·Kᵀ (scaled) as an *outer-product* GEMM: each column
  of Q and row of Kᵀ is loaded exactly once, the whole score matrix S is
  accumulated across the device and written to global memory, followed by a
  device-wide synchronization.
- **Kernel 2** streams each 16-row tile of S back into shared memory for
  masking + softmax, then multiplies against V (still re-loaded per tile) to
  produce Z.

The trade: one extra S round trip plus a launch+sync, against K loads that no
longer scale with ``seqLen²/16``. The crossover lands near seqLen = 224
(Fig. 8), and :func:`repro.attention.adaptive.select_attention` picks sides.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelCost, MemPattern
from repro.ops.context import ExecContext
from repro.ops.gemm import GEMM_SAT_FLOPS
from repro.ops.softmax import softmax
from repro.attention.onthefly import (
    OTF_COMPUTE_EFF,
    TILE_ROWS,
    otf_smem_bytes,
    reload_contention_penalty,
)


def partial_otf_costs(
    num_heads: int,
    seq_len: int,
    d_k: int,
    v_width: int,
    has_mask: bool,
    bytes_per_elem: int = 2,
    tensor_core: bool = True,
    tile_rows: int = TILE_ROWS,
    tag: str = "attention",
) -> list[KernelCost]:
    """Cost-only twin of :func:`partial_otf_attention`: both kernel costs.

    A pure function of shapes — the attention autotuner prices the
    two-kernel split with this instead of running scratch numerics.
    """
    h, s, b = num_heads, seq_len, bytes_per_elem
    n_tiles = -(-s // tile_rows)

    # Kernel 1: outer-product scaled Q·Kᵀ; Q and K stream exactly once.
    k1_flops = 2.0 * h * s * s * d_k + h * s * d_k
    k1 = KernelCost(
        name="otf_qk_outer",
        flops=k1_flops,
        bytes_loaded=2.0 * h * s * d_k * b,
        bytes_stored=h * s * s * b,
        ctas=max(1, h * -(-s // 64) * -(-s // 64)),
        uses_tensor_core=tensor_core,
        compute_eff=max(1e-4, OTF_COMPUTE_EFF * k1_flops / (k1_flops + GEMM_SAT_FLOPS)),
        mem_pattern=MemPattern.STREAM,
        tag=tag,
        sync_after=True,  # device-wide sync before S is consumed
    )

    # Kernel 2: per-row-tile mask + softmax + S·V.
    k2_flops = 2.0 * h * s * s * v_width + 7.0 * h * s * s
    k2_loads = h * s * s * b  # S, once
    k2_loads += h * n_tiles * s * v_width * b  # V per row tile
    if has_mask:
        k2_loads += h * s * s * b
    # Only V is re-streamed, and every CTA consumes V rows in the same order
    # (lockstep), so half the redundant traffic is L2-served — unlike the full
    # OTF kernel's interleaved K+V streams.
    k2_redundant = 0.5 * h * (n_tiles - 1) * s * v_width * b
    k2 = KernelCost(
        name="otf_softmax_sv",
        flops=k2_flops,
        bytes_loaded=k2_loads,
        bytes_stored=h * s * v_width * b,
        smem_per_cta_bytes=otf_smem_bytes(s, d_k, b, False, tile_rows),
        ctas=h * n_tiles,
        uses_tensor_core=tensor_core,
        compute_eff=max(1e-4, OTF_COMPUTE_EFF * k2_flops / (k2_flops + GEMM_SAT_FLOPS)),
        mem_pattern=MemPattern.STREAM,
        mem_eff_scale=reload_contention_penalty(k2_redundant),
        tag=tag,
    )
    return [k1, k2]


def partial_otf_attention(
    ctx: ExecContext,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    tile_rows: int = TILE_ROWS,
    effective_v_width: int | None = None,
    tag: str = "attention",
) -> np.ndarray:
    """Two-kernel attention over head-major ``(H, s, d_k)`` operands.

    Returns merged ``(s, H·d_v)`` Z like :func:`otf_attention`.
    ``effective_v_width`` mirrors :func:`otf_attention`'s cost-only override.
    """
    if q.shape != k.shape:
        raise ValueError(f"q/k shapes differ: {q.shape} vs {k.shape}")
    h, s, d_k = q.shape
    v_width = effective_v_width if effective_v_width is not None else v.shape[2]
    for cost in partial_otf_costs(h, s, d_k, v_width, mask is not None,
                                  ctx.bytes_per_elem, ctx.tensor_core,
                                  tile_rows, tag):
        ctx.tl.launch(cost)

    scores = (q / np.sqrt(float(d_k))) @ k.transpose(0, 2, 1)
    if mask is not None:
        scores = scores + mask
    z = softmax(scores, axis=-1) @ v
    return z.transpose(1, 0, 2).reshape(s, h * v.shape[2])
