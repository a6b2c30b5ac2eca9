"""Bounded, thread-safe request queue with admission control.

The queue is the single pending store of the serving layer: requests wait
here from admission until the batcher pulls them into a dispatch. Ordering
is priority-first, FIFO within a priority level. ``put`` applies admission
control: at ``max_depth`` it rejects the request immediately
(backpressure), in every backend.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Callable

from repro.serving.request import Request


class QueueFullError(RuntimeError):
    """Raised by ``put`` when admission control turns a request away."""


class QueueClosedError(RuntimeError):
    """Raised when putting into a closed queue."""


class RequestQueue:
    """Priority/FIFO queue of pending requests, bounded by ``max_depth``."""

    def __init__(self, max_depth: int | None = None) -> None:
        if max_depth is not None and max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        self.max_depth = max_depth
        self._heap: list[tuple[tuple[int, float, int], Request]] = []
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._closed = False

    def _key(self, req: Request) -> tuple[int, float, int]:
        # Higher priority first; FIFO (arrival, then admission order) within.
        return (-req.priority, req.arrival_us, next(self._counter))

    def put(self, req: Request) -> None:
        """Admit a request; raises :class:`QueueFullError` at ``max_depth``."""
        with self._lock:
            if self._closed:
                raise QueueClosedError("queue is closed")
            if self.max_depth is not None and \
                    len(self._heap) >= self.max_depth:
                raise QueueFullError(f"queue at max depth {self.max_depth}")
            heapq.heappush(self._heap, (self._key(req), req))

    # ---- inspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of pending requests."""
        with self._lock:
            return len(self._heap)

    def oldest_arrival(self, pred: Callable[[Request], bool]) -> float | None:
        """Earliest arrival time among pending requests matching ``pred``."""
        with self._lock:
            times = [r.arrival_us for _, r in self._heap if pred(r)]
        return min(times) if times else None

    def counts(self, key: Callable[[Request], int]) -> dict[int, int]:
        """Pending-request count per ``key`` value (e.g. bucket index)."""
        out: dict[int, int] = {}
        with self._lock:
            for _, req in self._heap:
                k = key(req)
                out[k] = out.get(k, 0) + 1
        return out

    # ---- removal ----------------------------------------------------------

    def pop(self) -> Request | None:
        """Remove and return the highest-priority request (None if empty)."""
        with self._lock:
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[1]

    def pop_where(self, pred: Callable[[Request], bool],
                  limit: int) -> list[Request]:
        """Remove up to ``limit`` matching requests, in dispatch order.

        This is how the batcher pulls one bucket's worth of work while
        leaving other buckets queued.
        """
        if limit <= 0:
            return []
        with self._lock:
            taken, kept = [], []
            for entry in sorted(self._heap):
                if len(taken) < limit and pred(entry[1]):
                    taken.append(entry[1])
                else:
                    kept.append(entry)
            if taken:
                self._heap = kept
                heapq.heapify(self._heap)
            return taken

    def drain(self) -> list[Request]:
        """Remove and return everything still pending, in dispatch order."""
        with self._lock:
            entries = sorted(self._heap)
            self._heap = []
        return [req for _, req in entries]

    def close(self) -> None:
        """Stop admitting: every later ``put`` raises."""
        with self._lock:
            self._closed = True
