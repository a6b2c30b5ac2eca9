"""Pruned linear transformations (Section 4.1's tensor-core-friendly formats).

Four consuming kernels, one per pruning family:

- :func:`tile_gemm` — tensor-tile pruned weights (:class:`TileBCSR` with
  internally dense tiles): a tensor-core GEMM that simply skips absent tiles.
  No input pre-processing, no output post-processing; only the surviving
  tiles' bytes and FLOPs are paid. This is the format the paper's adaptive
  design prefers for W_Q and W_K.
- :func:`col_pruned_gemm` — condensed column pruning (Fig. 5(b)): an input
  gather kernel produces ``X_adjusted`` (the pre-processing overhead), then a
  dense GEMM over the reduced inner dimension.
- :func:`row_pruned_gemm` — condensed row pruning (Fig. 5(a)): a dense GEMM
  to the reduced output width; optionally a scatter kernel restores full
  width (the post-processing overhead), or the condensed result is handed to
  a sparsity-aware consumer — the attention-aware design's key move.
- :func:`irregular_gemm` — magnitude-pruned weights in the hierarchical
  bitmap + BCSR format [59]: the per-tile bitmap decode and scattered operand
  access defeat the tensor core, so it runs on general cores at very low
  efficiency. Included because Table 1 measures it 39–44× slower.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelCost, MemPattern
from repro.ops.context import ExecContext
from repro.ops.epilogue import epilogue, epilogue_cost
from repro.ops.gemm import GemmAlgo, gemm_efficiency
from repro.tensor.sparse import CondensedColPruned, CondensedRowPruned, TileBCSR

#: Tensor-tile GEMM control-flow penalty relative to a dense GEMM of the same
#: surviving volume (tile-index indirection in the inner loop).
TILE_GEMM_PENALTY = 0.90

#: Irregular (bitmap + BCSR) kernels run on general cores at a few percent of
#: FP32 peak — the bitmap decode serializes the inner loop. Calibrated to
#: Table 1's 39–44× latency gap vs attention-aware pruning.
IRREGULAR_EFF = 0.012

#: Per-slot bitmap-scan work of the irregular kernel: every tile slot's bit
#: must be examined per output row regardless of sparsity, which is why
#: irregular latency shrinks far slower than its pruning ratio (Table 1:
#: 17.4 ms at 90 % vs 78.1 ms at 60 % — nothing like a 4× nnz gap suggests).
IRREGULAR_DECODE_OPS_PER_SLOT = 0.2


def tile_gemm(
    ctx: ExecContext,
    x: np.ndarray,
    w: TileBCSR,
    algo: GemmAlgo = GemmAlgo.ALGO5_TENSOR_OP,
    bias: np.ndarray | None = None,
    act: str | None = None,
    residual: np.ndarray | None = None,
    ln: tuple[np.ndarray, np.ndarray] | None = None,
    active_input_cols: int | None = None,
    name: str = "tile_gemm",
    tag: str = "",
) -> np.ndarray:
    """``x @ w.to_dense().T`` paying only for surviving tiles.

    ``active_input_cols`` propagates *input* column sparsity (e.g. a
    column-sparse Z coming out of a row-pruned V): loads of X and the FLOP
    count shrink proportionally — the attention-aware design's downstream
    benefit (Section 5.3.3). ``residual``/``ln`` fuse the add + layernorm
    following the projection into the epilogue, run in place on L2-sized
    row blocks of the product (:func:`~repro.ops.epilogue.epilogue`).
    """
    m = int(np.prod(x.shape[:-1]))
    n, k = w.shape
    if x.shape[-1] != k:
        raise ValueError(f"tile_gemm shape mismatch: {x.shape} vs W {w.shape}")
    r, c = w.tile
    kept = w.num_tiles
    b = ctx.bytes_per_elem
    in_frac = 1.0
    if active_input_cols is not None:
        if not 0 <= active_input_cols <= k:
            raise ValueError(f"active_input_cols {active_input_cols} out of [0, {k}]")
        in_frac = active_input_cols / k
    eff_flops = 2.0 * m * kept * r * c * in_frac
    # Density of surviving tiles decides how much of X must stream in: a
    # tile-column participates only if some tile in it survived.
    x_bytes = m * w.active_cols * c * b * in_frac
    meta_bytes = w.row_ptr.nbytes + w.col_idx.nbytes
    dense_eff = gemm_efficiency(m, n, max(k * kept // max(w.bitmap.size, 1), c),
                                algo, ctx.tensor_core)
    ep_flops, ep_loaded = epilogue_cost(b, m, n, bias, act, residual, ln)
    ctx.tl.launch(
        KernelCost(
            name=name,
            flops=eff_flops + ep_flops,
            bytes_loaded=x_bytes + kept * r * c * b + meta_bytes + ep_loaded,
            bytes_stored=m * n * b,
            ctas=max(1, -(-m // 64) * -(-n // 64)),
            uses_tensor_core=ctx.tensor_core,
            compute_eff=max(1e-3, dense_eff * TILE_GEMM_PENALTY),
            mem_pattern=MemPattern.STREAM,
            tag=tag or name,
        )
    )
    return epilogue(w.matmul(x), bias, act, residual, ln)


def col_pruned_gemm(
    ctx: ExecContext,
    x: np.ndarray,
    w: CondensedColPruned,
    algo: GemmAlgo = GemmAlgo.ALGO5_TENSOR_OP,
    bias: np.ndarray | None = None,
    act: str | None = None,
    residual: np.ndarray | None = None,
    ln: tuple[np.ndarray, np.ndarray] | None = None,
    name: str = "col_pruned_gemm",
    tag: str = "",
) -> np.ndarray:
    """Gathered-input dense GEMM over the kept columns (Fig. 5(b)).

    One kernel: the ``X_adjusted`` gather is fused into the GEMM's operand
    load. The pre-processing overhead shows up as (i) the *full* X being
    read (the gather scans every row, indexing kept columns) and (ii) the
    data-dependent GATHER access pattern — "nontrivial overheads on
    pre-processing the inputs".
    """
    m = int(np.prod(x.shape[:-1]))
    k_kept = w.kept_cols.size
    n = w.out_features
    b = ctx.bytes_per_elem
    ep_flops, ep_loaded = epilogue_cost(b, m, n, bias, act, residual, ln)
    xa = w.gather_input(x)
    ctx.tl.launch(
        KernelCost(
            name=name,
            flops=2.0 * m * n * k_kept + ep_flops,
            bytes_loaded=(m * w.in_features + k_kept * n) * b
            + w.kept_cols.nbytes + ep_loaded,
            bytes_stored=m * n * b,
            ctas=max(1, -(-m // 64) * -(-n // 64)),
            uses_tensor_core=ctx.tensor_core,
            compute_eff=gemm_efficiency(m, n, max(k_kept, 1), algo, ctx.tensor_core),
            mem_pattern=MemPattern.GATHER,
            tag=tag or name,
        )
    )
    return epilogue(xa @ w.weight.T, bias, act, residual, ln)


def row_pruned_gemm(
    ctx: ExecContext,
    x: np.ndarray,
    w: CondensedRowPruned,
    scatter: bool = True,
    masked_full: bool = False,
    algo: GemmAlgo = GemmAlgo.ALGO5_TENSOR_OP,
    bias: np.ndarray | None = None,
    act: str | None = None,
    name: str = "row_pruned_gemm",
    tag: str = "",
) -> np.ndarray:
    """Dense GEMM to the kept output width (Fig. 5(a)).

    With ``scatter=True`` a post-processing kernel writes the condensed
    columns back into a zeroed full-width result. With ``scatter=False`` the
    condensed ``(m, kept)`` result is returned — the attention-aware pipeline
    consumes it in condensed form, which is exactly why row pruning composes
    so well downstream. ``masked_full`` is a numerics convenience for that
    path: only the condensed GEMM is *charged*, but the returned array is the
    equivalent full-width matrix with zeros at pruned positions (the consumer
    kernel reads the condensed data plus kept-index metadata; this simulator
    keeps the zeros in place instead of threading per-head index plumbing).
    """
    m = int(np.prod(x.shape[:-1]))
    k = x.shape[-1]
    n_kept = w.kept_rows.size
    b = ctx.bytes_per_elem
    ep_flops, ep_loaded = epilogue_cost(b, m, max(n_kept, 1), bias, act)
    ctx.tl.launch(
        KernelCost(
            name=f"{name}:gemm",
            flops=2.0 * m * n_kept * k + ep_flops,
            bytes_loaded=(m * k + k * n_kept) * b + ep_loaded,
            bytes_stored=m * n_kept * b,
            ctas=max(1, -(-m // 64) * -(-max(n_kept, 1) // 64)),
            uses_tensor_core=ctx.tensor_core,
            compute_eff=gemm_efficiency(m, max(n_kept, 1), k, algo, ctx.tensor_core),
            mem_pattern=MemPattern.STREAM,
            tag=tag or name,
        )
    )
    kept_bias = None if bias is None else np.asarray(bias)[..., w.kept_rows]
    y_cond = epilogue(x @ w.weight.T, kept_bias, act)
    if not scatter and not masked_full:
        return y_cond
    if scatter:
        ctx.tl.launch(
            KernelCost(
                name=f"{name}:scatter",
                flops=0.0,
                bytes_loaded=m * n_kept * b + w.kept_rows.nbytes,
                bytes_stored=m * w.out_features * b,
                ctas=max(1, m * w.out_features // 1024),
                uses_tensor_core=False,
                compute_eff=0.5,
                mem_pattern=MemPattern.TILED,
                tag=tag or name,
            )
        )
    y = np.zeros((*x.shape[:-1], w.out_features), dtype=y_cond.dtype)
    y[..., w.kept_rows] = y_cond
    return y


def irregular_gemm(
    ctx: ExecContext,
    x: np.ndarray,
    w: TileBCSR,
    bias: np.ndarray | None = None,
    act: str | None = None,
    name: str = "irregular_gemm",
    tag: str = "",
) -> np.ndarray:
    """Bitmap + BCSR sparse GEMM for irregular (magnitude) pruning.

    Tiles are internally sparse; each surviving tile carries a bitmap that
    must be decoded per FMA group, which forces general-core execution with a
    serialized inner loop (Section 4.1, format from [59]).
    """
    m = int(np.prod(x.shape[:-1]))
    n, k = w.shape
    if x.shape[-1] != k:
        raise ValueError(f"irregular_gemm shape mismatch: {x.shape} vs {w.shape}")
    b = ctx.bytes_per_elem
    nnz = w.nnz
    r, c = w.tile
    bitmap_bytes = w.num_tiles * (r * c / 8.0)  # one bit per tile slot
    index_bytes = w.row_ptr.nbytes + w.col_idx.nbytes + nnz * 4
    decode_flops = IRREGULAR_DECODE_OPS_PER_SLOT * m * w.num_tiles * r * c
    ep_flops, ep_loaded = epilogue_cost(b, m, n, bias, act)
    ctx.tl.launch(
        KernelCost(
            name=name,
            flops=2.0 * m * nnz + decode_flops + ep_flops,
            bytes_loaded=m * k * b + nnz * b + bitmap_bytes + index_bytes + ep_loaded,
            bytes_stored=m * n * b,
            ctas=max(1, -(-m // 32) * -(-n // 32)),
            uses_tensor_core=False,
            compute_eff=IRREGULAR_EFF,
            mem_pattern=MemPattern.GATHER,
            tag=tag or name,
        )
    )
    return epilogue(w.matmul(x), bias, act)
