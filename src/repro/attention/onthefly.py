"""E.T.'s on-the-fly attention operator (Section 3.1).

Steps ②–⑥ of Fig. 3 execute as **one kernel**: each CTA owns a 16-row tile of
one head, scales its rows of Q (reordered ahead of the product, Section 3.3),
multiplies them against the whole head of Kᵀ, keeps the resulting score rows
in shared memory for masking and softmax, then multiplies against the whole
head of V — all without writing any intermediate to global memory.

Cost consequences the model captures:

- Global traffic is Q once, K and V once **per 16-row tile** (the re-load the
  paper accepts), Z stored once. Compared to the fused baseline this is ≈1.8×
  more loads but ≈5× fewer stores at seqLen 128 (Fig. 11).
- Shared memory per CTA follows Equation 6:
  ``tileHeight·d_k + tileHeight·seqLen`` elements; mixed-precision doubles the
  score-row term (FP32), which is overhead the scaling reorder avoids.
- One launch instead of three-to-five.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelCost, MemPattern
from repro.ops.context import ExecContext
from repro.ops.gemm import GEMM_SAT_FLOPS
from repro.ops.softmax import softmax

#: CTA tile height — the tensor-core tile edge (Section 3.1: "one CTA is
#: responsible for 16 rows of a head at a time").
TILE_ROWS = 16

#: Asymptotic tensor-core efficiency of the OTF kernel's row-tile GEMM
#: fragments (inner products against full K/V heads; lower than a bulk
#: library GEMM but it hardly matters — the kernel is memory-bound).
OTF_COMPUTE_EFF = 0.45

#: Redundant-reload contention scale. Re-streaming the same K/V head once per
#: 16-row tile makes concurrent CTAs thrash the L2/DRAM row buffers; achieved
#: bandwidth degrades quadratically in the redundant byte volume. This is the
#: effect that caps full-OTF at long sequences and produces the ≈224 crossover
#: of Fig. 8 (Section 3.2's "overwhelming memory access traffic").
RELOAD_CONTENTION_BYTES = 20.0e6


def reload_contention_penalty(redundant_bytes: float) -> float:
    """Bandwidth multiplier in (0, 1] for redundant re-load traffic."""
    x = redundant_bytes / RELOAD_CONTENTION_BYTES
    return 1.0 / (1.0 + x * x)


def otf_smem_bytes(
    seq_len: int,
    d_k: int,
    bytes_per_elem: int = 2,
    mixed_precision: bool = False,
    tile_rows: int = TILE_ROWS,
) -> int:
    """Equation 6's shared-memory budget for one CTA.

    ``tile_rows · d_k`` elements for the Q tile plus ``tile_rows · seq_len``
    for the score/softmax rows; the score rows are FP32 under mixed
    precision (Section 3.3 overhead (i)).
    """
    q_tile = tile_rows * d_k * bytes_per_elem
    score_bytes = 4 if mixed_precision else bytes_per_elem
    s_tile = tile_rows * seq_len * score_bytes
    return q_tile + s_tile


def otf_attention_cost(
    num_heads: int,
    seq_len: int,
    d_k: int,
    v_width: int,
    has_mask: bool,
    bytes_per_elem: int = 2,
    tensor_core: bool = True,
    mixed_precision: bool = False,
    tile_rows: int = TILE_ROWS,
    name: str = "otf_attention",
    tag: str = "attention",
) -> KernelCost:
    """Cost-only twin of :func:`otf_attention`: the one-kernel launch cost.

    A pure function of shapes — no numerics, no timeline. The attention
    autotuner (:mod:`repro.runtime.autotune`) prices candidates with this
    instead of paying a scratch numerics pass per estimate.
    """
    b = bytes_per_elem
    n_tiles = -(-seq_len // tile_rows)
    h = num_heads
    s = seq_len

    loads = h * s * d_k * b  # Q, once
    loads += h * n_tiles * s * d_k * b  # K, once per row tile
    loads += h * n_tiles * s * v_width * b  # V (or X·M), once per row tile
    if has_mask:
        loads += h * s * s * b  # each CTA streams its mask rows
    stores = h * s * v_width * b  # Z only — no intermediates
    # Everything beyond the first K/V pass is redundant re-streaming that
    # contends in L2/DRAM (Section 3.2's long-sequence failure mode).
    redundant = h * (n_tiles - 1) * s * (d_k + v_width) * b

    flops = 2.0 * h * s * s * d_k  # Q·Kᵀ
    flops += 2.0 * h * s * s * v_width  # S·V
    flops += 7.0 * h * s * s + h * s * d_k  # mask+softmax+scale
    if mixed_precision:
        flops += 2.0 * h * s * s  # FP32→FP16 conversions (overhead (ii))

    eff = OTF_COMPUTE_EFF * flops / (flops + GEMM_SAT_FLOPS)
    return KernelCost(
        name=name,
        flops=flops,
        bytes_loaded=loads,
        bytes_stored=stores,
        smem_per_cta_bytes=otf_smem_bytes(s, d_k, b, mixed_precision, tile_rows),
        ctas=h * n_tiles,
        uses_tensor_core=tensor_core,
        compute_eff=max(1e-4, eff),
        # Mixed precision halves resident CTAs (doubled smem), degrading
        # streaming quality; the reordered pure-FP16 kernel streams cleanly.
        mem_pattern=MemPattern.TILED if mixed_precision else MemPattern.STREAM,
        mem_eff_scale=reload_contention_penalty(redundant),
        tag=tag or name,
    )


def otf_attention(
    ctx: ExecContext,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    mixed_precision: bool = False,
    tile_rows: int = TILE_ROWS,
    effective_v_width: int | None = None,
    name: str = "otf_attention",
    tag: str = "attention",
) -> np.ndarray:
    """One-kernel attention over head-major ``(H, s, d_k)`` operands.

    Returns the merged ``(s, H·d_k)`` Z — the custom kernel writes the output
    token-major, so no head-transpose kernel follows it.

    ``mixed_precision=True`` models the un-reordered design of Section 3.3:
    score rows kept in FP32 shared memory with conversion overhead. Results
    are numerically identical (this simulator computes in FP32 either way);
    only the cost differs — which is the paper's point: reordering changes
    cost, not results.

    ``effective_v_width`` overrides the per-head V width used by the *cost*
    (not the numerics): a row-pruned W_V leaves V column-sparse, and the real
    kernel streams only the kept columns (Section 5.3.3).
    """
    if q.shape != k.shape:
        raise ValueError(f"q/k shapes differ: {q.shape} vs {k.shape}")
    h, s, d_k = q.shape
    if v.shape[0] != h or v.shape[1] != s:
        raise ValueError(f"v shape {v.shape} incompatible with q {q.shape}")
    v_width = effective_v_width if effective_v_width is not None else v.shape[2]
    cost = otf_attention_cost(
        h, s, d_k, v_width, mask is not None, ctx.bytes_per_elem,
        ctx.tensor_core, mixed_precision, tile_rows, name, tag,
    )
    ctx.tl.launch(cost)

    # Numerics: scaling reordered onto Q (Section 3.3) — same math either way.
    scores = (q / np.sqrt(float(d_k))) @ k.transpose(0, 2, 1)
    if mask is not None:
        scores = scores + mask
    z = softmax(scores, axis=-1) @ v
    return z.transpose(1, 0, 2).reshape(s, h * v.shape[2])
