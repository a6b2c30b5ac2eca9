"""The scaling-reorder overflow study (Section 3.3, Fig. 4).

Multiplying a tile row of Q against K in pure FP16 overflows for most entries
of Q·Kᵀ; the fix is to move step ② (scaling by ``1/√d_k``) ahead of step ③
(the product). This module measures overflow heatmaps for both orderings and
both accumulation modes, reproducing Fig. 4's shaded map and the claim that
reordering yields identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.fp16 import MatmulReport, attention_scores_overflow


def overflow_heatmap(
    q: np.ndarray,
    k: np.ndarray,
    scale_first: bool,
    accumulate: str = "fp16",
) -> list[MatmulReport]:
    """Per-head Q·Kᵀ overflow reports for head-major ``(H, s, d_k)`` inputs."""
    if q.shape != k.shape or q.ndim != 3:
        raise ValueError(f"expected matching (H, s, d_k) operands: {q.shape} {k.shape}")
    d_k = q.shape[-1]
    return [
        attention_scores_overflow(q[h], k[h], d_k, scale_first, accumulate)
        for h in range(q.shape[0])
    ]


@dataclass
class OverflowStudy:
    """Fig. 4 in numbers: overflow fractions under each design.

    Attributes
    ----------
    post_scale_fp16:
        Conventional order (scale after the product), pure FP16 — the
        orange-shadowed regime of Fig. 4.
    pre_scale_fp16:
        E.T.'s reordered design — should be (near) zero.
    post_scale_mixed:
        Mixed-precision fallback (FP32 accumulate) for the conventional
        order; avoids accumulation overflow at the cost Section 3.3 details.
    max_abs_error:
        Largest |pre-scale − post-scale| discrepancy in exact arithmetic —
        the "reordering yields the same results" check.
    """

    post_scale_fp16: float
    pre_scale_fp16: float
    post_scale_mixed: float
    max_abs_error: float
    #: A100/TPU BF16 accumulation (Section 2.2): wider exponent range means
    #: no overflow even without reordering — but an 8-bit mantissa.
    post_scale_bf16: float = 0.0
    bf16_rel_error: float = 0.0

    @classmethod
    def run(cls, q: np.ndarray, k: np.ndarray) -> "OverflowStudy":
        """Measure all four designs on head-major (H, s, d_k) activations."""
        # Measuring the un-reordered, pure-FP16 regime (the one that
        # overflows) is this study's purpose.
        post = overflow_heatmap(q, k, scale_first=False, accumulate="fp16")
        pre = overflow_heatmap(q, k, scale_first=True, accumulate="fp16")
        mixed = overflow_heatmap(q, k, scale_first=False, accumulate="fp32")
        bf16 = overflow_heatmap(q, k, scale_first=False, accumulate="bf16")

        d_k = q.shape[-1]
        scale = 1.0 / np.sqrt(float(d_k))
        exact_post = (q.astype(np.float64) @ k.transpose(0, 2, 1).astype(np.float64)) * scale
        exact_pre = (q.astype(np.float64) * scale) @ k.transpose(0, 2, 1).astype(np.float64)
        bf16_res = np.stack([r.result for r in bf16])
        denom = np.maximum(np.abs(exact_post), 1e-6)
        return cls(
            post_scale_fp16=float(np.mean([r.overflow_fraction for r in post])),
            pre_scale_fp16=float(np.mean([r.overflow_fraction for r in pre])),
            post_scale_mixed=float(np.mean([r.overflow_fraction for r in mixed])),
            max_abs_error=float(np.max(np.abs(exact_post - exact_pre))),
            post_scale_bf16=float(np.mean([r.overflow_fraction for r in bf16])),
            bf16_rel_error=float(np.median(np.abs(bf16_res - exact_post) / denom)),
        )
