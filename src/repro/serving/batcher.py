"""Length-bucketed dynamic batching policy.

The batcher is a *policy* over the request queue, not a second store: given
the queue's pending set and the current clock it decides whether any bucket
is ready to dispatch and pops that bucket's requests. A bucket is ready when
it holds a full batch, or when its oldest request has waited ``max_wait_us``
(the classic dynamic-batching latency/throughput dial), or when the driver
is flushing (shutdown / no more arrivals possible).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serving.bucketing import BucketPolicy
from repro.serving.queue import RequestQueue
from repro.serving.request import Request


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
    """Forms same-bucket batches from a :class:`RequestQueue`."""

    policy: BucketPolicy
    max_batch: int = 8
    max_wait_us: float = 2_000.0
    _next_batch_id: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive: {self.max_batch}")
        if self.max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0: {self.max_wait_us}")

    def bucket_of(self, req: Request) -> int:
        """The policy bucket of a request."""
        return self.policy.bucket_of(req.seq_len)

    # ---- readiness --------------------------------------------------------

    def _bucket_state(self, queue: RequestQueue
                      ) -> list[tuple[int, int, float]]:
        """(bucket, count, oldest_arrival) for each non-empty bucket."""
        counts = queue.counts(self.bucket_of)
        out = []
        for bucket in sorted(counts):
            oldest = queue.oldest_arrival(
                lambda r, b=bucket: self.bucket_of(r) == b)
            out.append((bucket, counts[bucket], oldest))
        return out

    def next_deadline_us(self, queue: RequestQueue) -> float | None:
        """Earliest time any pending bucket becomes overdue (None if empty).

        Buckets already holding a full batch are ready immediately: their
        deadline is their oldest arrival.
        """
        deadlines = []
        for _, count, oldest in self._bucket_state(queue):
            if count >= self.max_batch:
                deadlines.append(oldest)
            else:
                deadlines.append(oldest + self.max_wait_us)
        return min(deadlines) if deadlines else None

    # ---- dispatch ---------------------------------------------------------

    def pop_batch(self, queue: RequestQueue, now_us: float,
                  flush: bool = False) -> Batch | None:
        """Pop the most urgent ready bucket as a batch, or None.

        Readiness: full batch, oldest member overdue, or ``flush``. Among
        ready buckets the one with the oldest waiting request dispatches
        first (ties broken by bucket index), which keeps the simulation and
        the threaded server deterministic for a fixed pending set.
        """
        best: tuple[float, int] | None = None
        for bucket, count, oldest in self._bucket_state(queue):
            ready = (flush or count >= self.max_batch
                     or now_us - oldest >= self.max_wait_us)
            if ready and (best is None or (oldest, bucket) < best):
                best = (oldest, bucket)
        if best is None:
            return None
        bucket = best[1]
        reqs = queue.pop_where(
            lambda r: self.bucket_of(r) == bucket, self.max_batch)
        batch = Batch(batch_id=self._next_batch_id, bucket=bucket,
                      requests=reqs)
        self._next_batch_id += 1
        return batch
