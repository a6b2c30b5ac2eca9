"""Length-bucketed dynamic batching: the serving layer's one pending store.

Requests wait in the batcher from admission until a batch takes them, one
FIFO per length bucket. ``put`` applies admission control: at
``max_depth`` pending requests it raises :class:`QueueFullError`
(backpressure), in every backend. A bucket is ready when it holds a full
batch, when its oldest request has waited ``max_wait_us`` (the classic
dynamic-batching latency/throughput dial), or when the driver is flushing
(shutdown / no more arrivals possible).

Invariant: every driver admits in arrival order — the live servers stamp
the arrival under their lock at admission, the scheduler admits from its
``(arrival, rid)`` heap as time advances. So each FIFO is in arrival
order, ties in admission order, and readiness and dispatch read only
bucket heads. Not thread-safe: the live servers call it under their
condition.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.serving.bucketing import BucketPolicy
from repro.serving.request import Request


class QueueFullError(RuntimeError):
    """Raised by ``put`` when admission control turns a request away."""


@dataclass
class Batch:
    """One dispatchable group: same-bucket requests, dispatch order."""

    batch_id: int
    bucket: int
    requests: list[Request]

    @property
    def size(self) -> int:
        """Number of requests in the batch."""
        return len(self.requests)


@dataclass
class DynamicBatcher:
    """Pending requests in per-bucket FIFOs; forms same-bucket batches."""

    policy: BucketPolicy
    max_batch: int = 8
    max_wait_us: float = 2_000.0
    max_depth: int | None = None  # None: admission never refuses
    depth: int = field(default=0, init=False)  # pending, all buckets
    _next_batch_id: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive: {self.max_batch}")
        if self.max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0: {self.max_wait_us}")
        if self.max_depth is not None and self.max_depth <= 0:
            raise ValueError(f"max_depth must be positive: {self.max_depth}")
        #: bucket -> ``(admission seq, request)``, oldest first.
        self._pending: dict[int, deque[tuple[int, Request]]] = {
            bucket: deque() for bucket in range(self.policy.num_buckets)}
        self._admitted = itertools.count()

    def put(self, req: Request) -> None:
        """Admit a request; raises :class:`QueueFullError` at ``max_depth``."""
        bucket = self.policy.bucket_of(req.seq_len)
        if self.max_depth is not None and self.depth >= self.max_depth:
            raise QueueFullError(f"queue at max depth {self.max_depth}")
        self._pending[bucket].append((next(self._admitted), req))
        self.depth += 1

    def _heads(self) -> list[tuple[float, int, int]]:
        """``(oldest arrival, bucket, count)`` of each non-empty bucket."""
        return [(fifo[0][1].arrival_us, bucket, len(fifo))
                for bucket, fifo in self._pending.items() if fifo]

    def next_deadline_us(self) -> float | None:
        """Earliest time any pending bucket becomes overdue (None if empty).

        Buckets already holding a full batch are ready immediately: their
        deadline is their oldest arrival.
        """
        return min((oldest if count >= self.max_batch
                    else oldest + self.max_wait_us
                    for oldest, _, count in self._heads()), default=None)

    def pop_batch(self, now_us: float, flush: bool = False) -> Batch | None:
        """Pop the most urgent ready bucket as a batch, or None.

        Readiness: full batch, oldest member overdue, or ``flush``. Among
        ready buckets the one with the oldest waiting request dispatches
        first (ties broken by bucket index), which keeps the simulation and
        the threaded server deterministic for a fixed pending set.
        """
        ready = [(oldest, bucket) for oldest, bucket, count in self._heads()
                 if flush or count >= self.max_batch
                 or now_us - oldest >= self.max_wait_us]
        if not ready:
            return None
        bucket = min(ready)[1]
        fifo = self._pending[bucket]
        reqs = [fifo.popleft()[1]
                for _ in range(min(self.max_batch, len(fifo)))]
        self.depth -= len(reqs)
        batch = Batch(batch_id=self._next_batch_id, bucket=bucket,
                      requests=reqs)
        self._next_batch_id += 1
        return batch

    def drain(self) -> list[Request]:
        """Remove and return everything still pending, in admission order."""
        entries = sorted(itertools.chain(*self._pending.values()))
        for fifo in self._pending.values():
            fifo.clear()
        self.depth = 0
        return [req for _, req in entries]
