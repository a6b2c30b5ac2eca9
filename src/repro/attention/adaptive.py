"""Sequence-length-aware dispatch between the attention variants.

"E.T. will adapt the partial on-the-fly attention when sequence length is
larger than 224" (Section 5.2.2). Rather than hard-coding 224, the engine
prices the candidates with their cost-only estimators and picks the cheapest
— 224 then *emerges* for the BERT_BASE configuration, which the Fig. 8 bench
verifies. The arbitration is now three-way (full OTF, partial OTF, flash)
and runs through :func:`repro.runtime.autotune.autotune_attention`: a
per-(device, shape, dtype) decision memoized in the process-wide
``TUNE_CACHE``, so steady-state selection is a dict lookup instead of the
scratch numerics passes the original two-way dispatch paid per call.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.ops.context import ExecContext
from repro.attention.flash import flash_attention
from repro.attention.onthefly import otf_attention
from repro.attention.partial import partial_otf_attention

#: The paper's empirically observed OTF→partial switch point for BERT_BASE,
#: kept as a documented fallback for callers that want the fixed rule.
PAPER_THRESHOLD = 224


def _estimate_us(ctx: ExecContext, impl, q, k, v, mask, **kwargs) -> float:
    """Run ``impl`` on a forked (scratch) context and return its model time.

    The numerics oracle: tests hold the cost-only estimates behind
    :func:`otf_crossover_seqlen` and the autotuner to what a real run of
    the variant launches. Nothing on the engine or serving path calls it.
    """
    scratch = ctx.fork()
    impl(scratch, q, k, v, mask, **kwargs)
    return scratch.tl.total_time_us


def attention_choice(ctx: ExecContext, num_heads: int, seq_len: int,
                     d_k: int, v_width: int, has_mask: bool) -> str:
    """The autotuner's winner for one attention call priced in ``ctx``.

    The one place a dispatch key is built: :func:`select_attention` and
    ``ETEngine.attention_regimes`` both ask here, so they cannot disagree
    (lazy import: ``repro.runtime`` imports this module at package init).
    """
    from repro.runtime.autotune import AttentionKey, autotune_attention

    return autotune_attention(
        AttentionKey(ctx.device.name, num_heads, seq_len, d_k, v_width,
                     has_mask, ctx.bytes_per_elem, ctx.tensor_core))


def select_attention(
    ctx: ExecContext,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    effective_v_width: int | None = None,
) -> tuple[np.ndarray, str]:
    """Run whichever attention variant the cost model predicts is fastest.

    Returns ``(z, chosen)`` with ``chosen`` in ``{"otf", "partial_otf",
    "flash"}``, the decision of :func:`attention_choice`.
    """
    h, s, d_k = q.shape
    v_width = effective_v_width if effective_v_width is not None else v.shape[2]
    choice = attention_choice(ctx, h, s, d_k, v_width, mask is not None)
    kw = {"effective_v_width": effective_v_width}
    impls = {
        "otf": otf_attention,
        "partial_otf": partial_otf_attention,
        "flash": flash_attention,
    }
    return impls[choice](ctx, q, k, v, mask, **kw), choice


def _modeled_us(ctx: ExecContext, num_heads: int, d_k: int,
                seq_lens: range, with_mask: bool
                ) -> Iterator[tuple[int, dict[str, float]]]:
    """Yield ``(s, {algo: modeled us})`` for each probed length.

    Priced for ``ctx``'s device and dtype with the candidates' cost-only
    estimators — no numerics run.
    """
    from repro.runtime.autotune import (ATTENTION_ALGOS, AttentionKey,
                                        estimate_attention_us)

    for s in seq_lens:
        key = AttentionKey(ctx.device.name, num_heads, s, d_k, d_k,
                           with_mask, ctx.bytes_per_elem, ctx.tensor_core)
        yield s, {algo: estimate_attention_us(key, algo)
                  for algo in ATTENTION_ALGOS}


def otf_crossover_seqlen(
    ctx: ExecContext,
    num_heads: int,
    d_k: int,
    seq_lens: range = range(32, 513, 16),
    with_mask: bool = False,
) -> int | None:
    """First sequence length at which partial OTF beats full OTF.

    The paper's original two-way comparison (flash excluded), used by the
    Fig. 8 bench to verify the crossover lands near 224 for the BERT_BASE
    head geometry. The engine switches at the three-way winner
    (:func:`attention_choice`) instead. Both sides are priced with their
    cost-only estimators, so the sweep runs no attention numerics; the
    tests check it against :func:`_estimate_us` at every probed length.
    """
    return next((s for s, t in _modeled_us(ctx, num_heads, d_k, seq_lens,
                                           with_mask)
                 if t["partial_otf"] < t["otf"]), None)


def flash_crossover_seqlen(
    ctx: ExecContext,
    num_heads: int,
    d_k: int,
    seq_lens: range = range(32, 513, 16),
    with_mask: bool = False,
) -> int | None:
    """First sequence length at which flash beats *both* OTF variants.

    The three-way analogue of :func:`otf_crossover_seqlen`; beyond this
    point the adaptive dispatch picks flash (perf-smoke gates on it for
    the V100S).
    """
    return next((s for s, t in _modeled_us(ctx, num_heads, d_k, seq_lens,
                                           with_mask)
                 if t["flash"] < min(t["otf"], t["partial_otf"])), None)
