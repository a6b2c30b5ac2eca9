"""Sequence-length bucket policies whose edges include the engine's switches.

The dynamic batcher only groups requests that fall in the same bucket, so the
bucket edges decide which sequence lengths can share a batch. Only the
engine knows where its attention operator (full OTF, partial OTF or flash)
changes with length: ``Engine.attention_regimes``. The serving drivers pass
each of its switches to :func:`make_policy`, which makes it a bucket edge.
So every length of a bucket runs one attention operator, no batch mixes
operators, and the bucket width bounds the padding waste around a switch.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable

from repro.attention.adaptive import PAPER_THRESHOLD, otf_crossover_seqlen
from repro.gpu.counters import Timeline
from repro.gpu.device import DeviceSpec
from repro.ops.context import fp16_ctx

#: Named policies accepted by the CLI and the serving bench: bucket width
#: between switches ("single" = one bucket per attention regime).
POLICY_WIDTHS = {"single": None, "fine32": 32, "fine64": 64}


@dataclass(frozen=True)
class BucketPolicy:
    """Half-open length buckets ``(edges[i-1], edges[i]]`` over seq lengths.

    ``edges`` are ascending inclusive upper bounds; the first bucket is
    ``(0, edges[0]]``.
    """

    name: str
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("bucket policy needs at least one edge")
        if any(e <= 0 for e in self.edges):
            raise ValueError(f"edges must be positive: {self.edges}")
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError(f"edges must be strictly ascending: {self.edges}")

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


def model_crossover(num_heads: int, d_head: int, max_seq_len: int,
                    device: DeviceSpec | None = None) -> int:
    """The cost-model crossover for a head geometry (paper's 224 fallback).

    Sweeps the two-way full/partial-OTF comparison
    (:func:`repro.attention.adaptive.otf_crossover_seqlen`), falling back
    to the paper's threshold when no switch lies in range. It is not the
    engine's three-way dispatch, and no serving driver here uses it.
    """
    ctx = fp16_ctx(Timeline(device))
    xo = otf_crossover_seqlen(ctx, num_heads, d_head,
                              seq_lens=range(32, max_seq_len + 1, 16),
                              with_mask=True)
    return xo if xo is not None else PAPER_THRESHOLD


def make_policy(policy: str, switches: int | Iterable[int],
                max_seq_len: int) -> BucketPolicy:
    """Build one of the named CLI policies (`single`, `fine32`, `fine64`).

    Every switch below ``max_seq_len`` is forced in as an edge (an ``int``
    is one switch); the named width adds its multiples, and the last edge
    is always ``max_seq_len``.
    """
    if policy not in POLICY_WIDTHS:
        raise ValueError(
            f"unknown bucket policy {policy!r}; know {sorted(POLICY_WIDTHS)}"
        )
    if isinstance(switches, int):
        switches = (switches,)
    edges = {max_seq_len, *(s for s in switches if 0 < s < max_seq_len)}
    width = POLICY_WIDTHS[policy]
    if width is not None:
        edges.update(range(width, max_seq_len, width))
    return BucketPolicy(name=policy, edges=tuple(sorted(edges)))
