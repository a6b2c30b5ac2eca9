"""Dense GEMM with a cuBLAS-style algorithm table.

Section 5.2.1: *"E.T. can automatically search through various linear
transformation implementations and choose the optimal one (similar to
FasterTransformer); E.T. finds and uses the best cuBLAS GEMM routine, i.e.,
algorithm CUBLAS_GEMM_ALGO5_TENSOR_OP (on our server)."*

We model each algorithm as an asymptotic fraction of peak tensor-core
throughput; the achieved efficiency additionally saturates with problem
volume (small GEMMs cannot fill the machine). The autotuner in
:mod:`repro.runtime.autotune` searches this table exactly as the paper's
engine searches cuBLAS.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.gpu.kernel import KernelCost, MemPattern
from repro.ops.context import ExecContext
from repro.ops.epilogue import epilogue, epilogue_cost

#: FLOP volume at which the custom attention kernels reach half their
#: asymptotic efficiency (used by the OTF/partial cost models).
GEMM_SAT_FLOPS = 3.0e8

#: CTA-count at which a tensor-core GEMM reaches half its asymptotic
#: efficiency: inference GEMMs have m = seqLen = 128, i.e. only a couple of
#: row-tiles, so an (128, 768, 768) GEMM runs ~24 CTAs on 80 SMs and achieves
#: only ~10 % of tensor-core peak — which is exactly why a 95 %-tile-pruned
#: GEMM (same shape, 5 % of the FLOPs) can be 3.5× faster (Fig. 10) instead
#: of hiding behind idle hardware.
GEMM_UTIL_HALF_CTAS_TC = 200.0

#: FP32 general cores have 8× less peak, so far fewer CTAs saturate them.
GEMM_UTIL_HALF_CTAS_FP32 = 8.0

#: Split-K kicks in for deep, narrow GEMMs (the FC2 shape), recovering
#: parallelism at a reduction-overhead discount.
SPLIT_K_CHUNK = 512
SPLIT_K_PENALTY = 0.85


class GemmAlgo(enum.Enum):
    """cuBLAS GEMM algorithm choices (asymptotic efficiency fraction)."""

    DEFAULT = 0.30
    ALGO0_TENSOR_OP = 0.38
    ALGO2_TENSOR_OP = 0.46
    ALGO3_TENSOR_OP = 0.52
    HEURISTIC = 0.55
    ALGO5_TENSOR_OP = 0.62  # the best routine on the paper's server [38]


def gemm_efficiency(m: int, n: int, k: int, algo: GemmAlgo,
                    tensor_core: bool = True) -> float:
    """Achieved fraction of the compute peak for an ``m×k @ k×n`` GEMM.

    Efficiency is *shape*-based: the output-tile CTA count (plus split-K
    slices for deep GEMMs) determines SM utilization, and the reduction
    depth amortizes the pipeline ramp. Notably it is **not** volume-based —
    a pruned GEMM doing 5 % of the work at the same output shape takes ~5 %
    of the time, not 100 % of it.
    """
    ctas = max(1.0, -(-m // 64) * -(-n // 64))
    penalty = 1.0
    split_k = min(8, max(1, k // SPLIT_K_CHUNK))
    if split_k > 1:
        ctas *= split_k
        penalty = SPLIT_K_PENALTY
    half = GEMM_UTIL_HALF_CTAS_TC if tensor_core else GEMM_UTIL_HALF_CTAS_FP32
    # Skinny outputs (row-pruned condensed GEMMs) recover some parallelism
    # through aggressive split-K; floor the utilization accordingly.
    util = max(ctas / (ctas + half), 0.02 if tensor_core else 0.0)
    k_ramp = k / (k + 64.0)
    return max(1e-4, algo.value * util * k_ramp * penalty)


def _gemm_cost(
    ctx: ExecContext,
    m: int,
    n: int,
    k: int,
    algo: GemmAlgo,
    name: str,
    tag: str,
    extra_loaded: float = 0.0,
    extra_stored: float = 0.0,
    extra_flops: float = 0.0,
    mem_pattern: MemPattern = MemPattern.TILED,
) -> KernelCost:
    b = ctx.bytes_per_elem
    return KernelCost(
        name=name,
        flops=2.0 * m * n * k + extra_flops,
        bytes_loaded=(m * k + k * n) * b + extra_loaded,
        bytes_stored=m * n * b + extra_stored,
        ctas=max(1, -(-m // 64) * -(-n // 64)),
        uses_tensor_core=ctx.tensor_core,
        compute_eff=gemm_efficiency(m, n, k, algo, ctx.tensor_core),
        mem_pattern=mem_pattern,
        tag=tag or name,
    )


def gemm(
    ctx: ExecContext,
    a: np.ndarray,
    b: np.ndarray,
    algo: GemmAlgo = GemmAlgo.HEURISTIC,
    name: str = "gemm",
    tag: str = "",
) -> np.ndarray:
    """Plain dense ``a @ b`` as one kernel."""
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"gemm shape mismatch: {a.shape} @ {b.shape}")
    m = int(np.prod(a.shape[:-1]))
    k = a.shape[-1]
    n = b.shape[1]
    ctx.tl.launch(_gemm_cost(ctx, m, n, k, algo, name, tag))
    return a @ b


def gemm_bias_act(
    ctx: ExecContext,
    a: np.ndarray,
    w_t: np.ndarray,
    bias: np.ndarray | None = None,
    act: str | None = None,
    residual: np.ndarray | None = None,
    ln_gamma: np.ndarray | None = None,
    ln_beta: np.ndarray | None = None,
    ln_eps: float = 1e-5,
    algo: GemmAlgo = GemmAlgo.HEURISTIC,
    name: str = "gemm_fused",
    tag: str = "",
) -> np.ndarray:
    """GEMM with a fused epilogue: bias, activation, residual add, layernorm.

    TensorRT fuses convolution/GEMM + bias + ReLU-style chains (Section 2.3);
    E.T. goes further and folds the residual add and layernorm into the GEMM
    epilogue as well. All epilogue math happens in registers, so the fused
    kernel only adds the bias/residual loads and the epilogue FLOPs — no
    extra global round trip for the GEMM result. The host runs
    :func:`~repro.ops.epilogue.epilogue` in place on L2-sized row blocks
    of the product; an unknown ``act`` raises before the GEMM runs.
    """
    if a.shape[-1] != w_t.shape[0]:
        raise ValueError(f"gemm shape mismatch: {a.shape} @ {w_t.shape}")
    m = int(np.prod(a.shape[:-1]))
    k = a.shape[-1]
    n = w_t.shape[1]
    ln = None if ln_gamma is None else (ln_gamma, ln_beta)
    extra_flops, extra_loaded = epilogue_cost(ctx.bytes_per_elem, m, n, bias,
                                              act, residual, ln)
    ctx.tl.launch(
        _gemm_cost(
            ctx, m, n, k, algo, name, tag,
            extra_loaded=extra_loaded, extra_flops=extra_flops,
        )
    )
    return epilogue(a @ w_t, bias, act, residual, ln, ln_eps)


def batched_gemm(
    ctx: ExecContext,
    a: np.ndarray,
    b: np.ndarray,
    algo: GemmAlgo = GemmAlgo.HEURISTIC,
    name: str = "batched_gemm",
    tag: str = "",
) -> np.ndarray:
    """Batched (per-head) GEMM: ``a (H, m, k) @ b (H, k, n)`` in one kernel.

    This is how the baseline engines run Q·Kᵀ and S·V — one strided-batched
    cuBLAS call whose intermediates live in global memory.
    """
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0]:
        raise ValueError(f"batched_gemm expects (H,m,k),(H,k,n): {a.shape} {b.shape}")
    h, m, k = a.shape
    n = b.shape[2]
    bpe = ctx.bytes_per_elem
    flops = 2.0 * h * m * n * k
    # Batching restores machine-filling parallelism (utilization counts the
    # whole batch's CTAs) but per-head 32-tiles cost tile efficiency.
    ctas = max(1.0, h * -(-m // 32) * -(-n // 32))
    half = GEMM_UTIL_HALF_CTAS_TC if ctx.tensor_core else GEMM_UTIL_HALF_CTAS_FP32
    util = ctas / (ctas + half)
    eff = 0.85 * algo.value * util * (k / (k + 64.0))
    ctx.tl.launch(
        KernelCost(
            name=name,
            flops=flops,
            bytes_loaded=h * (m * k + k * n) * bpe,
            bytes_stored=h * m * n * bpe,
            ctas=max(1, h * -(-m // 32) * -(-n // 32)),
            uses_tensor_core=ctx.tensor_core,
            compute_eff=max(1e-4, eff),
            mem_pattern=MemPattern.BATCHED,
            tag=tag or name,
        )
    )
    return a @ b
