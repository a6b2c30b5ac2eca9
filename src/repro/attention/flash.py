"""FlashAttention-style tiled attention with online softmax.

The fifth engine-grade attention variant (alongside unfused, fused, OTF and
partial OTF). Where partial OTF accepts one full S = Q·Kᵀ round trip to HBM
to kill the OTF kernel's per-16-row K/V re-streams, the flash schedule
(arXiv 2205.14135, 2307.08691) removes the S materialization *and* most of
the re-streaming at once: each CTA owns a Br-row block of one head, streams
K/V in Bc-column tiles through shared memory, and folds every tile into
running row statistics (max m, denominator ℓ, unnormalized accumulator) via
:func:`repro.ops.softmax.online_softmax_update`. One pass, no recomputation,
no S bytes to HBM.

Cost consequences the model captures:

- K and V are re-streamed once per **Br-row block** — ``ceil(s/Br)`` passes
  with Br up to 128, versus the OTF kernel's ``ceil(s/16)``. The redundant
  traffic that produces OTF's long-sequence collapse shrinks by ~Br/16×.
- The price is grid coarseness: the launch has only ``H · ceil(s/Br)`` CTAs,
  which under-fills the device at short sequence lengths
  (:func:`repro.gpu.kernel.grid_occupancy`). That is why OTF still wins
  short sequences and the flash crossover *emerges* from the model rather
  than being hard-coded.
- Shared memory per CTA holds the Q block, one K and one V column tile, the
  score tile, and the FP32 accumulator + m/ℓ rows — the Equation 6 budget
  extended to two dimensions. Tile shapes are chosen per device by
  :func:`flash_tile_shape`, so the V100S (96 KB/SM) and A100 (164 KB/SM)
  legitimately pick different blocks.

Br is restricted to {64, 128}: the two chained MMAs per tile (Q·Kᵀ then
P·V, the second consuming the first's output) pipeline-bubble badly below
64 rows, which is why the real FlashAttention-2 kernels use exactly these
block heights.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.device import DeviceSpec, default_device
from repro.gpu.kernel import KernelCost, MemPattern, grid_occupancy, smem_fits
from repro.ops.context import ExecContext
from repro.ops.gemm import GEMM_SAT_FLOPS
from repro.ops.softmax import online_softmax_update
from repro.attention.onthefly import reload_contention_penalty

#: Asymptotic tensor-core efficiency of the flash kernel's per-tile MMA
#: pairs. Slightly below the OTF kernel's 0.45: the online-softmax rescale
#: (exp + multiply on the accumulator) sits on the critical path between
#: the two MMAs of every column tile.
FLASH_COMPUTE_EFF = 0.40

#: Candidate CTA tile shapes, coarse-first. Br ∈ {64, 128} (see module
#: docstring); Bc down to 32 so a K/V tile still fits small-smem devices.
TILE_CANDIDATES: tuple[tuple[int, int], ...] = (
    (128, 128), (128, 64), (128, 32),
    (64, 128), (64, 64), (64, 32),
)

#: Last-resort tile shapes for large head dimensions (d ≳ 160 at FP16),
#: where the Br×d FP32 accumulator alone exhausts the preferred tiles'
#: budget. Sub-64 Br starves the chained-MMA pipeline, so these are
#: considered only when nothing in :data:`TILE_CANDIDATES` fits.
TILE_FALLBACK: tuple[tuple[int, int], ...] = (
    (32, 64), (32, 32), (16, 32), (16, 16),
)


def flash_smem_bytes(
    br: int,
    bc: int,
    d_k: int,
    d_v: int | None = None,
    bytes_per_elem: int = 2,
) -> int:
    """Equation 6 extended to the two-dimensional flash tile.

    One CTA keeps resident: its ``br × d_k`` Q block, one ``bc × d_k`` K
    tile, one ``bc × d_v`` V tile, the ``br × bc`` score tile (all at the
    stream element width), plus the FP32 output accumulator (``br × d_v``)
    and the m/ℓ statistic rows (``2 × br``).
    """
    d_v = d_k if d_v is None else d_v
    b = bytes_per_elem
    operand_tiles = (br * d_k + bc * d_k + bc * d_v + br * bc) * b
    accumulator = br * d_v * 4  # FP32 regardless of stream dtype
    stats = 2 * br * 4  # m and ℓ rows, FP32
    return operand_tiles + accumulator + stats


def flash_attention_cost(
    num_heads: int,
    seq_len: int,
    d_k: int,
    v_width: int,
    has_mask: bool,
    device: DeviceSpec | None = None,
    bytes_per_elem: int = 2,
    tensor_core: bool = True,
    br: int | None = None,
    bc: int | None = None,
    name: str = "flash_attention",
    tag: str = "attention",
) -> KernelCost:
    """Cost-only twin of :func:`flash_attention`: the one-kernel launch cost.

    A pure function of shapes and the device (the device enters through tile
    selection and grid occupancy — flash is the one variant whose cost is
    not device-agnostic). ``br``/``bc`` override the tile shape; by default
    :func:`flash_tile_shape` picks the modeled-fastest fitting tile.
    """
    device = device or default_device()
    if br is None or bc is None:
        br, bc = flash_tile_shape(
            num_heads, seq_len, d_k, v_width, device, bytes_per_elem,
            tensor_core=tensor_core, has_mask=has_mask,
        )
    h, s, b = num_heads, seq_len, bytes_per_elem
    n_r = -(-s // br)  # row blocks = CTAs per head
    n_c = -(-s // bc)  # column tiles streamed per CTA

    loads = h * s * d_k * b  # Q, once
    loads += h * n_r * s * d_k * b  # K, once per row block
    loads += h * n_r * s * v_width * b  # V, once per row block
    if has_mask:
        loads += h * s * s * b  # each CTA streams its rows' mask once
    stores = h * s * v_width * b  # Z only — S never touches HBM
    # K/V passes beyond the first are redundant re-streaming, same contention
    # mechanism as OTF but with n_r = ceil(s/Br) instead of ceil(s/16).
    redundant = h * (n_r - 1) * s * (d_k + v_width) * b

    flops = 2.0 * h * s * s * d_k  # Q·Kᵀ, tile by tile
    flops += 2.0 * h * s * s * v_width  # P·V, tile by tile
    flops += 10.0 * h * s * s  # mask + exp + max/sum folds
    flops += h * s * n_c * (2.0 * v_width + 3.0)  # per-tile rescale of acc/m/ℓ
    flops += h * s * d_k  # scale folded into the Q block load

    eff = FLASH_COMPUTE_EFF * flops / (flops + GEMM_SAT_FLOPS)
    ctas = h * n_r
    return KernelCost(
        name=name,
        flops=flops,
        bytes_loaded=loads,
        bytes_stored=stores,
        smem_per_cta_bytes=flash_smem_bytes(br, bc, d_k, v_width, b),
        ctas=ctas,
        uses_tensor_core=tensor_core,
        compute_eff=max(1e-4, eff),
        mem_pattern=MemPattern.STREAM,
        # Coarse Br-row blocks under-fill the grid at short sequences — the
        # flip side of the reduced re-streaming at long ones.
        mem_eff_scale=reload_contention_penalty(redundant)
        * grid_occupancy(ctas, device),
        tag=tag or name,
    )


def flash_tile_shape(
    num_heads: int,
    seq_len: int,
    d_k: int,
    v_width: int | None = None,
    device: DeviceSpec | None = None,
    bytes_per_elem: int = 2,
    tensor_core: bool = True,
    has_mask: bool = True,
) -> tuple[int, int]:
    """Pick the (Br, Bc) tile the cost model predicts fastest on ``device``.

    Enumerates :data:`TILE_CANDIDATES`, drops shapes whose
    :func:`flash_smem_bytes` exceed the device's per-SM budget, and scores
    the rest with :func:`flash_attention_cost`. Ties (common — the kernel is
    memory-bound, and Bc barely moves traffic) break toward the earlier,
    coarser candidate, deterministically.
    """
    device = device or default_device()
    v_width = d_k if v_width is None else v_width

    def _fitting(cands: tuple[tuple[int, int], ...]) -> list[tuple[int, int, int]]:
        return [
            (idx, br, bc)
            for idx, (br, bc) in enumerate(cands)
            if smem_fits(flash_smem_bytes(br, bc, d_k, v_width, bytes_per_elem),
                         device)
        ]

    fitting = _fitting(TILE_CANDIDATES) or _fitting(TILE_FALLBACK)
    if not fitting:
        raise RuntimeError(
            f"no flash tile fits {device.name}: even "
            f"{TILE_FALLBACK[-1]} needs "
            f"{flash_smem_bytes(*TILE_FALLBACK[-1], d_k, v_width, bytes_per_elem)} B "
            f"of the {device.smem_per_sm_bytes} B per-SM budget"
        )
    _, br, bc = min(
        fitting,
        key=lambda t: (
            flash_attention_cost(
                num_heads, seq_len, d_k, v_width, has_mask, device,
                bytes_per_elem, tensor_core, br=t[1], bc=t[2],
            ).time_us(device),
            t[0],
        ),
    )
    return br, bc


def _flash_numerics(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None,
    br: int,
    bc: int,
) -> np.ndarray:
    """Tiled online-softmax attention over ``(..., s, d)`` operands.

    Generic over leading axes (:func:`flash_attention` passes ``(H, s, d)``);
    every operation is elementwise or a batched matmul over them. Scaling
    is applied to the Q block *before* the matmul — with FP16 inputs this
    keeps the score tile inside the representable range instead of
    overflowing and then scaling.
    """
    *lead, s, d_k = q.shape
    d_v = v.shape[-1]
    scale = np.asarray(1.0, dtype=q.dtype) / np.sqrt(
        np.asarray(float(d_k), dtype=q.dtype)
    )
    out = np.empty((*lead, s, d_v), dtype=np.result_type(q, k, v, np.float32))
    for r0 in range(0, s, br):
        r1 = min(r0 + br, s)
        q_blk = q[..., r0:r1, :] * scale
        rows = r1 - r0
        m = np.full((*lead, rows), -np.inf, dtype=np.float32)
        l = np.zeros((*lead, rows), dtype=np.float32)
        acc = np.zeros((*lead, rows, d_v), dtype=np.float32)
        for c0 in range(0, s, bc):
            c1 = min(c0 + bc, s)
            scores = (
                q_blk @ k[..., c0:c1, :].swapaxes(-1, -2)
            ).astype(np.float32)
            if mask is not None:
                scores = scores + mask[..., r0:r1, c0:c1]
            m, l, acc = online_softmax_update(
                m, l, acc, scores, v[..., c0:c1, :].astype(np.float32)
            )
        out[..., r0:r1, :] = acc / l[..., None]
    return out


def flash_attention(
    ctx: ExecContext,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    effective_v_width: int | None = None,
    br: int | None = None,
    bc: int | None = None,
    name: str = "flash_attention",
    tag: str = "attention",
) -> np.ndarray:
    """One-kernel tiled attention over head-major ``(H, s, d_k)`` operands.

    Returns the merged ``(s, H·d_v)`` Z like :func:`~repro.attention
    .onthefly.otf_attention`. ``effective_v_width`` is the same cost-only
    override (row-pruned W_V leaves V column-sparse); ``br``/``bc`` pin the
    tile shape, otherwise :func:`flash_tile_shape` picks per device.
    """
    if q.shape != k.shape:
        raise ValueError(f"q/k shapes differ: {q.shape} vs {k.shape}")
    h, s, d_k = q.shape
    if v.shape[0] != h or v.shape[1] != s:
        raise ValueError(f"v shape {v.shape} incompatible with q {q.shape}")
    v_width = effective_v_width if effective_v_width is not None else v.shape[2]
    device = ctx.tl.device
    if br is None or bc is None:
        br, bc = flash_tile_shape(
            h, s, d_k, v_width, device, ctx.bytes_per_elem,
            tensor_core=ctx.tensor_core, has_mask=mask is not None,
        )
    ctx.tl.launch(
        flash_attention_cost(
            h, s, d_k, v_width, mask is not None, device,
            ctx.bytes_per_elem, ctx.tensor_core, br, bc, name, tag,
        )
    )
    z = _flash_numerics(q, k, v, mask, br, bc)
    return z.transpose(1, 0, 2).reshape(s, h * v.shape[2])
