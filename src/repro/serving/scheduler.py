"""Deterministic virtual-time scheduler over a pool of engine workers.

The scheduler replays a stream of arrival-stamped requests on the cost
model's clock: arrivals enter the dynamic batcher (admission control may
reject), which forms same-bucket batches, and free workers execute
them through :meth:`Engine.run_batch` — the batch's service time is the
aggregated timeline's total. Everything is a pure function of the request
stream and the configuration, so a seeded load generator yields an
identical report on every run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.runtime.engine import Engine, EngineResult
from repro.serving.batcher import Batch, DynamicBatcher, QueueFullError
from repro.serving.core import ServingCore
from repro.serving.metrics import MetricsRegistry
from repro.serving.request import Request, Response


class EngineWorker:
    """One engine behind the batcher's ``run_batch`` API.

    With a ``payload_table`` (one shared input array per sequence length,
    as the virtual-time load generator holds) the worker runs
    each table array once and reuses its result afterwards. Only requests
    whose input *is* the table's array for their length hit the memo, so
    any other input of the same length still runs on the engine — a
    200-request sweep becomes O(unique lengths) engine executions without
    changing a single reported number.
    """

    def __init__(self, engine: Engine,
                 payload_table: dict[int, np.ndarray] | None = None) -> None:
        self.engine = engine
        self.payload_table = payload_table
        self._memo: dict[int, EngineResult] = {}
        self.batches_run = 0
        self.busy_us = 0.0

    def process(self, batch: Batch) -> tuple[list[EngineResult], float]:
        """Run one batch; returns per-request results and service time (us)."""
        reqs = batch.requests
        if self.payload_table is None:
            results, agg = self.engine.run_batch([r.x for r in reqs])
            service_us = agg.total_time_us
        else:
            results = self._memoized(reqs, self.payload_table)
            service_us = sum(res.timeline.total_time_us for res in results)
        self.batches_run += 1
        self.busy_us += service_us
        return results, service_us

    def _memoized(self, reqs: list[Request],
                  table: dict[int, np.ndarray]) -> list[EngineResult]:
        hits = [r.x is table.get(r.seq_len) for r in reqs]
        todo = {r.seq_len: r for r, hit in zip(reqs, hits)
                if hit and r.seq_len not in self._memo}
        if todo:
            results, _ = self.engine.run_batch([r.x for r in todo.values()])
            self._memo.update(zip(todo, results))
        return [self._memo[r.seq_len] if hit else self.engine.run(r.x)
                for r, hit in zip(reqs, hits)]


@dataclass
class Scheduler:
    """Event-driven simulation of batcher → worker pool."""

    workers: Sequence[EngineWorker]
    batcher: DynamicBatcher
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    events: EventLog = field(default_factory=lambda: NULL_EVENT_LOG)

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("need at least one worker")

    def run(
        self,
        arrivals: Sequence[Request],
        next_request: Callable[[Response], Request | None] | None = None,
    ) -> list[Response]:
        """Simulate a request stream to completion; returns all responses.

        ``next_request`` enables closed-loop load: called with every
        terminal response, it may return the issuing client's next request
        (with a future ``arrival_us``), which joins the stream.
        """
        core = ServingCore(self.batcher, self.metrics, self.events)
        batcher = core.batcher
        pending = [(r.arrival_us, r.rid, r) for r in arrivals]
        heapq.heapify(pending)
        free_us = [0.0] * len(self.workers)
        responses: list[Response] = []

        def settle(resp: Response) -> None:
            responses.append(resp)
            if next_request is not None:
                follow = next_request(resp)
                if follow is not None:
                    heapq.heappush(pending,
                                   (follow.arrival_us, follow.rid, follow))

        now = 0.0
        while pending or batcher.depth:
            while pending and pending[0][0] <= now:
                _, _, req = heapq.heappop(pending)
                try:
                    core.admit(req)
                except QueueFullError:
                    settle(Response.rejected(req, req.arrival_us))
            # Workers take batches in index order; batch choice itself is
            # deterministic (oldest-first), so the whole step is replayable.
            for w_idx, worker in enumerate(self.workers):
                if free_us[w_idx] > now or batcher.depth == 0:
                    continue
                # no future arrivals can join a bucket: flush
                batch = batcher.pop_batch(now, flush=not pending)
                if batch is None:
                    continue
                results, service_us = worker.process(batch)
                free_us[w_idx] = now + service_us
                core.batch_formed(batch, now)
                core.dispatched(batch, w_idx, now)
                for resp in core.complete(batch, w_idx, now, service_us,
                                          [res.output for res in results]):
                    settle(resp)
            # Next decision point: an arrival, a worker freeing up, or a
            # pending bucket crossing its batching deadline.
            candidates = []
            if pending:
                candidates.append(pending[0][0])
            if batcher.depth:
                deadline = batcher.next_deadline_us()
                if deadline is not None:
                    candidates.append(deadline)
                candidates.extend(f for f in free_us if f > now)
            future = [t for t in candidates if t > now]
            if not future:
                if batcher.depth:  # overdue work, worker free: loop again now
                    continue
                break
            now = min(future)
        return sorted(responses, key=lambda r: r.rid)
