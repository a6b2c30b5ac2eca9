"""Sequence-length bucket policies aligned to the full/partial-OTF crossover.

The dynamic batcher only groups requests that fall in the same bucket, so the
bucket edges decide which sequence lengths can share a batch. Every policy
here forces the cost model's full/partial-OTF crossover
(:func:`model_crossover`, seqLen ≈ 224–240 for BERT_BASE head geometry,
Section 5.2.2) to be a bucket edge, and the bucket width bounds the padding
waste on either side of it.

The edge does not keep attention operators apart: the engine's
``select_attention`` picks among full OTF, partial OTF and flash per length
and, for BERT-class models, switches to flash below this edge (BERT_BASE at
80% sparsity: flash from seqLen 208, edge 240), so one batch can mix OTF and
flash members. Numerics are unaffected, because each member runs its own
forward pass with its own choice.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.attention.adaptive import PAPER_THRESHOLD, otf_crossover_seqlen
from repro.gpu.counters import Timeline
from repro.gpu.device import DeviceSpec
from repro.ops.context import fp16_ctx

#: Named policies accepted by the CLI and the serving bench: bucket width
#: below/above the crossover ("single" = one bucket per crossover side).
POLICY_WIDTHS = {"single": None, "fine32": 32, "fine64": 64}


@dataclass(frozen=True)
class BucketPolicy:
    """Half-open length buckets ``(edges[i-1], edges[i]]`` over seq lengths.

    ``edges`` are ascending inclusive upper bounds; the first bucket is
    ``(0, edges[0]]``. When ``crossover`` is set it must appear in ``edges``,
    so no bucket contains lengths from both sides of the cost model's
    full/partial-OTF crossover. That is not where the engine switches
    operators (see the module docstring): a bucket can still mix them.
    """

    name: str
    edges: tuple[int, ...]
    crossover: int | None = None

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("bucket policy needs at least one edge")
        if any(e <= 0 for e in self.edges):
            raise ValueError(f"edges must be positive: {self.edges}")
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError(f"edges must be strictly ascending: {self.edges}")
        if (self.crossover is not None
                and self.crossover < self.edges[-1]
                and self.crossover not in self.edges):
            raise ValueError(
                f"crossover {self.crossover} straddled by edges {self.edges}"
            )

    @property
    def num_buckets(self) -> int:
        """Number of buckets."""
        return len(self.edges)

    @property
    def max_seq_len(self) -> int:
        """Longest admissible sequence length."""
        return self.edges[-1]

    def bucket_of(self, seq_len: int) -> int:
        """Bucket index for a sequence length; raises when out of range."""
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        if seq_len > self.edges[-1]:
            raise ValueError(
                f"seq_len {seq_len} exceeds policy max {self.edges[-1]}"
            )
        return bisect.bisect_left(self.edges, seq_len)

    def label(self, bucket: int) -> str:
        """Human-readable ``(lo, hi]`` label for a bucket index."""
        lo = 0 if bucket == 0 else self.edges[bucket - 1]
        return f"({lo},{self.edges[bucket]}]"

    @classmethod
    def crossover_aligned(cls, crossover: int, max_seq_len: int,
                          width: int | None = None,
                          name: str | None = None) -> "BucketPolicy":
        """Buckets of ``width`` with the crossover forced in as an edge.

        ``width=None`` gives the coarsest aligned policy: one bucket per
        crossover side. The last edge is always ``max_seq_len``.
        """
        edges = {max_seq_len}
        if 0 < crossover < max_seq_len:
            edges.add(crossover)
        if width is not None:
            edges.update(e for e in range(width, max_seq_len, width))
        xo = crossover if crossover <= max_seq_len else None
        return cls(name=name or (f"fine{width}" if width else "single"),
                   edges=tuple(sorted(edges)), crossover=xo)


def model_crossover(num_heads: int, d_head: int, max_seq_len: int,
                    device: DeviceSpec | None = None) -> int:
    """The cost-model crossover for a head geometry (paper's 224 fallback).

    Sweeps the same estimator the engine's adaptive dispatch uses
    (:func:`repro.attention.adaptive.otf_crossover_seqlen`); when no switch
    happens inside the admissible range, the paper's fixed threshold is
    returned so policies stay well-defined for short-sequence deployments.
    """
    ctx = fp16_ctx(Timeline(device))
    xo = otf_crossover_seqlen(ctx, num_heads, d_head,
                              seq_lens=range(32, max_seq_len + 1, 16),
                              with_mask=True)
    return xo if xo is not None else PAPER_THRESHOLD


def make_policy(policy: str, crossover: int, max_seq_len: int) -> BucketPolicy:
    """Build one of the named CLI policies (`single`, `fine32`, `fine64`)."""
    if policy not in POLICY_WIDTHS:
        raise ValueError(
            f"unknown bucket policy {policy!r}; know {sorted(POLICY_WIDTHS)}"
        )
    return BucketPolicy.crossover_aligned(
        crossover, max_seq_len, POLICY_WIDTHS[policy], name=policy)
