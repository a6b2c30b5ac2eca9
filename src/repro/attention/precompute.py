"""The pre-computed linear transformation operator (Section 3.1, Equation 5).

Because ``Z_h = S_h · V_h`` and ``V_h = X · W_V,hᵀ``::

    Output = Σ_h S_h · X · (W_V,hᵀ · W_O,hᵀ)

so each head's ``M_h = W_V,hᵀ · W_O,hᵀ`` is computable **offline**
(:func:`fold_vo`). At inference, step ① becomes ``X · (M_1 ‖ M_2 ‖ …)`` and
the final linear transformation (step ⑦) disappears — its work is absorbed
into the attention operator's S·(XM) stage, whose per-head results are
*summed* rather than concatenated.

The attention-aware pruning design (Section 4.3) row-prunes W_O here: the
folded M_h then has nonzero columns only at W_O's kept rows, so both the
step-① GEMM and the in-attention S·(XM) multiply shrink, while W_V stays
dense (pruning it would change nothing downstream and would only burn
accuracy budget).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelCost, MemPattern
from repro.ops.context import ExecContext
from repro.ops.gemm import GEMM_SAT_FLOPS, GemmAlgo, gemm_efficiency
from repro.ops.softmax import softmax
from repro.attention.onthefly import (
    OTF_COMPUTE_EFF,
    TILE_ROWS,
    otf_smem_bytes,
    reload_contention_penalty,
)


def fold_vo(wv: np.ndarray, wo: np.ndarray, num_heads: int) -> np.ndarray:
    """Pre-compute the per-head folded matrices ``M_h = W_V,hᵀ · W_O,hᵀ``.

    Parameters
    ----------
    wv, wo:
        ``(d, d)`` weight matrices in the row-major "output features are
        rows" convention (``V = X · W_Vᵀ``, ``Output = Z · W_Oᵀ``).
    num_heads:
        H. W_V splits by *rows* (each head produces d_k features of V);
        W_Oᵀ splits by rows likewise (each head of Z consumes d_k columns).

    Returns
    -------
    ``(H, d, d)`` stack of folded head matrices.
    """
    d = wv.shape[0]
    if wv.shape != (d, d) or wo.shape != (d, d):
        raise ValueError(f"expected square (d, d) weights, got {wv.shape}, {wo.shape}")
    if d % num_heads:
        raise ValueError(f"d={d} not divisible by H={num_heads}")
    d_k = d // num_heads
    wo_t = wo.T
    heads = [
        wv[h * d_k : (h + 1) * d_k, :].T @ wo_t[h * d_k : (h + 1) * d_k, :]
        for h in range(num_heads)
    ]
    return np.stack(heads)


def condense_folded(m: np.ndarray, kept_cols: np.ndarray) -> np.ndarray:
    """Drop the zero columns a row-pruned W_O leaves in every folded head."""
    return np.ascontiguousarray(m[:, :, np.asarray(kept_cols, dtype=np.intp)])


def precomputed_vside(
    ctx: ExecContext,
    x: np.ndarray,
    m_heads: np.ndarray,
    algo: GemmAlgo = GemmAlgo.ALGO5_TENSOR_OP,
    tag: str = "step1_xm",
) -> np.ndarray:
    """Step ① of Fig. 3(b): ``X · (M_1 ‖ … ‖ M_H)`` as one wide GEMM.

    Returns head-major ``(H, s, w)`` where ``w`` is the (possibly condensed)
    folded width.
    """
    h, d, w = m_heads.shape
    s = x.shape[0]
    if x.shape[1] != d:
        raise ValueError(f"x width {x.shape[1]} != folded d {d}")
    bpe = ctx.bytes_per_elem
    n = h * w
    ctx.tl.launch(
        KernelCost(
            name="xm_gemm",
            flops=2.0 * s * n * d,
            bytes_loaded=(s * d + d * n) * bpe,
            bytes_stored=s * n * bpe,
            ctas=max(1, -(-s // 64) * -(-n // 64)),
            uses_tensor_core=ctx.tensor_core,
            compute_eff=gemm_efficiency(s, n, d, algo, ctx.tensor_core),
            mem_pattern=MemPattern.TILED,
            tag=tag,
        )
    )
    return np.einsum("sd,hdw->hsw", x, m_heads, optimize=True)


def otf_attention_precomputed(
    ctx: ExecContext,
    q: np.ndarray,
    k: np.ndarray,
    xm: np.ndarray,
    out_features: int,
    kept_cols: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    tile_rows: int = TILE_ROWS,
    tag: str = "attention",
) -> np.ndarray:
    """Steps ②–⑥ of Fig. 3(b): OTF attention that *sums* head results.

    Each CTA owns a 16-row tile and loops over heads, accumulating
    ``Σ_h S_h · (XM)_h`` in registers, so the (column-sparse) output is
    stored exactly once. Returns a full-width ``(s, out_features)`` matrix
    with zeros in the pruned columns.
    """
    h, s, d_k = q.shape
    w = xm.shape[2]
    b = ctx.bytes_per_elem
    n_tiles = -(-s // tile_rows)

    loads = h * s * d_k * b  # Q once
    loads += h * n_tiles * s * d_k * b  # K per row tile
    loads += h * n_tiles * s * w * b  # XM per row tile
    if mask is not None:
        loads += n_tiles * s * s * b  # mask rows, shared across heads in-CTA
    stores = s * w * b  # accumulated output, once

    flops = 2.0 * h * s * s * d_k + 2.0 * h * s * s * w + 7.0 * h * s * s
    eff = OTF_COMPUTE_EFF * flops / (flops + GEMM_SAT_FLOPS)
    redundant = h * (n_tiles - 1) * s * (d_k + w) * b
    ctx.tl.launch(
        KernelCost(
            name="otf_attention_precomputed",
            flops=flops,
            bytes_loaded=loads,
            bytes_stored=stores,
            smem_per_cta_bytes=otf_smem_bytes(s, d_k, b, False, tile_rows),
            ctas=n_tiles,
            uses_tensor_core=ctx.tensor_core,
            compute_eff=max(1e-4, eff),
            mem_pattern=MemPattern.STREAM,
            mem_eff_scale=reload_contention_penalty(redundant),
            tag=tag,
        )
    )

    scores = (q / np.sqrt(float(d_k))) @ k.transpose(0, 2, 1)
    if mask is not None:
        scores = scores + mask
    z = (softmax(scores, axis=-1) @ xm).sum(axis=0)  # (s, w)
    if kept_cols is None:
        if w != out_features:
            raise ValueError("kept_cols required when folded width is condensed")
        return z
    out = np.zeros((s, out_features), dtype=z.dtype)
    out[:, np.asarray(kept_cols, dtype=np.intp)] = z
    return out


def partial_otf_attention_precomputed(
    ctx: ExecContext,
    q: np.ndarray,
    k: np.ndarray,
    xm: np.ndarray,
    out_features: int,
    kept_cols: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    tile_rows: int = TILE_ROWS,
    tag: str = "attention",
) -> np.ndarray:
    """Sequence-length-aware split of the pre-computed attention.

    Mirrors :func:`repro.attention.partial.partial_otf_attention`: an
    outer-product scaled Q·Kᵀ kernel materializes S once (plus a device
    sync), then a second kernel streams S row-tiles through mask + softmax
    and accumulates ``Σ_h S_h·(XM)_h``.
    """
    h, s, d_k = q.shape
    w = xm.shape[2]
    b = ctx.bytes_per_elem
    n_tiles = -(-s // tile_rows)

    k1_flops = 2.0 * h * s * s * d_k + h * s * d_k
    ctx.tl.launch(
        KernelCost(
            name="otf_pc_qk_outer",
            flops=k1_flops,
            bytes_loaded=2.0 * h * s * d_k * b,
            bytes_stored=h * s * s * b,
            ctas=max(1, h * -(-s // 64) * -(-s // 64)),
            uses_tensor_core=ctx.tensor_core,
            compute_eff=max(1e-4, OTF_COMPUTE_EFF * k1_flops
                            / (k1_flops + GEMM_SAT_FLOPS)),
            mem_pattern=MemPattern.STREAM,
            tag=tag,
            sync_after=True,
        )
    )

    k2_flops = 2.0 * h * s * s * w + 7.0 * h * s * s
    k2_loads = h * s * s * b + h * n_tiles * s * w * b
    if mask is not None:
        k2_loads += n_tiles * s * s * b
    k2_redundant = 0.5 * h * (n_tiles - 1) * s * w * b
    ctx.tl.launch(
        KernelCost(
            name="otf_pc_softmax_sxm",
            flops=k2_flops,
            bytes_loaded=k2_loads,
            bytes_stored=s * w * b,
            smem_per_cta_bytes=otf_smem_bytes(s, d_k, b, False, tile_rows),
            ctas=n_tiles,
            uses_tensor_core=ctx.tensor_core,
            compute_eff=max(1e-4, OTF_COMPUTE_EFF * k2_flops
                            / (k2_flops + GEMM_SAT_FLOPS)),
            mem_pattern=MemPattern.STREAM,
            mem_eff_scale=reload_contention_penalty(k2_redundant),
            tag=tag,
        )
    )

    scores = (q / np.sqrt(float(d_k))) @ k.transpose(0, 2, 1)
    if mask is not None:
        scores = scores + mask
    z = (softmax(scores, axis=-1) @ xm).sum(axis=0)
    if kept_cols is None:
        if w != out_features:
            raise ValueError("kept_cols required when folded width is condensed")
        return z
    out = np.zeros((s, out_features), dtype=z.dtype)
    out[:, np.asarray(kept_cols, dtype=np.intp)] = z
    return out


def select_attention_precomputed(
    ctx: ExecContext,
    q: np.ndarray,
    k: np.ndarray,
    xm: np.ndarray,
    out_features: int,
    kept_cols: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, str]:
    """Cost-model dispatch between full and partial pre-computed OTF."""
    kwargs = dict(out_features=out_features, kept_cols=kept_cols, mask=mask)
    t = {}
    for name, impl in (("otf_precomputed", otf_attention_precomputed),
                       ("partial_otf_precomputed",
                        partial_otf_attention_precomputed)):
        scratch = ctx.fork()
        impl(scratch, q, k, xm, **kwargs)
        t[name] = (scratch.tl.total_time_us, impl)
    chosen = min(t, key=lambda n: t[n][0])
    return t[chosen][1](ctx, q, k, xm, **kwargs), chosen


def precomputed_context(
    wv: np.ndarray,
    wo: np.ndarray,
    num_heads: int,
    kept_cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Offline preparation: fold W_V·W_O and optionally condense.

    Returns ``(m_heads, kept_cols)`` ready for :func:`precomputed_vside` +
    :func:`otf_attention_precomputed`.
    """
    m = fold_vo(wv, wo, num_heads)
    if kept_cols is not None:
        m = condense_folded(m, kept_cols)
    return m, kept_cols
