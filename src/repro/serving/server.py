"""Live serving front ends: the shared :class:`LiveServer` and the threads.

:class:`LiveServer` is what both live backends share: the monotonic
clock, rid and SLO-deadline stamping (the core records the deadline a
request carries; only the front end knows the arrival instant), the
futures table, the condition guarding the
:class:`~repro.serving.core.ServingCore`, the "next batch" wait,
rejection of what a no-drain stop leaves queued, and the context
manager. Queueing time is wall clock (callers really wait); service time
stays in cost-model microseconds — the simulated GPU is the resource
being scheduled, the host threads only coordinate.

:class:`AsyncServer` executes batches on engine threads, each pulling
the next batch when free; the process-pool twin is
:class:`~repro.serving.pool.server.PoolServer`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import TypeVar

import numpy as np

from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.prometheus import prometheus_text
from repro.obs.slo import SloPolicy
from repro.runtime.engine import Engine
from repro.serving.batcher import Batch, DynamicBatcher
from repro.serving.bucketing import BucketPolicy
from repro.serving.core import ServingCore
from repro.serving.metrics import MetricsRegistry
from repro.serving.request import Request, Response
from repro.serving.scheduler import EngineWorker

_Server = TypeVar("_Server", bound="LiveServer")


class LiveServer:
    """Futures front end over a :class:`ServingCore`, on the wall clock.

    Subclasses implement :meth:`_launch` (bring up executors; the clock
    and running flag are already set) and ``stop``.
    """

    def __init__(self, policy: BucketPolicy, max_batch: int,
                 max_wait_us: float, max_depth: int, events: EventLog,
                 slo: SloPolicy | None) -> None:
        self.policy = policy
        self.slo = slo
        self._core = ServingCore(
            DynamicBatcher(policy, max_batch=max_batch,
                           max_wait_us=max_wait_us),
            max_depth, MetricsRegistry(), events)
        self._work = threading.Condition()
        self._futures: dict[int, Future] = {}
        self._next_rid = 0
        self._running = False
        # Live servers are the repo's designated wall-clock timing
        # boundary: queueing time is real waiting.
        self._t0 = time.monotonic()  # etlint: disable=ET301 timing boundary

    @property
    def metrics(self) -> MetricsRegistry:
        """The core's registry (the event log is the caller's)."""
        return self._core.metrics

    # ---- lifecycle --------------------------------------------------------

    def start(self: _Server) -> _Server:
        """Restart the clock and bring up the executors."""
        with self._work:
            if self._running:
                raise RuntimeError("server already started")
            self._running = True
            self._t0 = time.monotonic()  # etlint: disable=ET301 timing boundary
        try:
            self._launch()
        except BaseException:
            with self._work:
                self._running = False
            raise
        return self

    def _launch(self) -> None:
        raise NotImplementedError

    def __enter__(self: _Server) -> _Server:
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def stop(self, drain: bool = True) -> None:
        raise NotImplementedError

    # ---- client API -------------------------------------------------------

    def _now_us(self) -> float:
        return (time.monotonic() - self._t0) * 1e6  # etlint: disable=ET301 timing boundary

    def submit(self, x: np.ndarray, priority: int = 0,
               client: int = 0) -> "Future[Response]":
        """Enqueue one sequence; raises :class:`QueueFullError` when full.

        The returned future resolves to the request's :class:`Response`
        when its batch completes (or it is rejected).
        """
        x = np.asarray(x, dtype=np.float64)
        seq_len = int(x.shape[0])
        self.policy.bucket_of(seq_len)  # reject oversize up front
        fut: Future[Response] = Future()
        with self._work:
            if not self._running:
                raise RuntimeError("server is not running")
            rid = self._next_rid
            self._next_rid += 1
            arrival = self._now_us()
            deadline = (None if self.slo is None else
                        self.slo.deadline_us(seq_len, arrival))
            self._core.admit(Request(
                rid=rid, x=x, arrival_us=arrival, priority=priority,
                client=client, deadline_us=deadline))
            self._futures[rid] = fut
            self._work.notify()
        return fut

    @property
    def depth(self) -> int:
        """Current queue depth."""
        return self._core.queue.depth

    # ---- shared machinery -------------------------------------------------

    def _next_batch(self) -> Batch | None:
        """Block until the batcher releases a batch; None once stopped
        and the queue is flushed.

        ``batch_formed`` is recorded at the pop itself, under the same
        lock as admissions, so the event log orders every admit exactly
        against the batches that left the queue before it.
        """
        with self._work:
            while True:
                now = self._now_us()
                batch = self._core.batcher.pop_batch(
                    self._core.queue, now, flush=not self._running)
                if batch is not None:
                    self._core.batch_formed(batch, now)
                    return batch
                if not self._running:
                    return None
                deadline = self._core.batcher.next_deadline_us(
                    self._core.queue)
                self._work.wait(None if deadline is None else
                                max(1e-4, (deadline - now) / 1e6))

    def _reject(self, requests: list[Request], detail: str) -> None:
        """Terminally reject requests that will never run."""
        now = self._now_us()
        with self._work:
            responses = [self._core.reject(req, now, detail)
                         for req in requests]
        self._resolve(responses)

    def _resolve(self, responses: list[Response]) -> None:
        """Hand terminal responses to the futures waiting on them."""
        with self._work:
            futures = [self._futures.pop(r.rid, None) for r in responses]
        for resp, fut in zip(responses, futures):
            if fut is not None:
                fut.set_result(resp)


class AsyncServer(LiveServer):
    """Futures-based serving loop over a pool of engine worker threads."""

    def __init__(
        self,
        engines: list[Engine],
        policy: BucketPolicy,
        max_batch: int = 8,
        max_wait_us: float = 2_000.0,
        max_depth: int = 64,
        events: EventLog = NULL_EVENT_LOG,
        slo: SloPolicy | None = None,
    ) -> None:
        if not engines:
            raise ValueError("need at least one engine")
        super().__init__(policy, max_batch, max_wait_us, max_depth, events,
                         slo)
        self._workers = [EngineWorker(e) for e in engines]
        self._threads: list[threading.Thread] = []

    def _launch(self) -> None:
        """Spawn one thread per engine worker."""
        threads = [
            threading.Thread(target=self._worker_loop, args=(i, w),
                             name=f"serve-worker-{i}", daemon=True)
            for i, w in enumerate(self._workers)
        ]
        with self._work:
            self._threads = threads
        for t in threads:
            t.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the workers; with ``drain`` they finish everything queued.

        Without ``drain`` the queue is taken in the same critical section
        that clears the running flag, so no worker can flush it into a
        batch; those requests are rejected as shed.
        """
        with self._work:
            self._running = False
            dropped = [] if drain else self._core.queue.drain()
            threads = self._threads
            self._threads = []
            self._work.notify_all()
        for t in threads:  # joining must not hold the lock workers need
            t.join()
        with self._work:
            self._core.queue.close()
        self._reject(dropped, "shed")

    def metrics_text(self) -> str:
        """The live metrics as one Prometheus exposition page (scrapable)."""
        with self._work:
            return prometheus_text(self._core.metrics)

    def _worker_loop(self, w_idx: int, worker: EngineWorker) -> None:
        while (batch := self._next_batch()) is not None:
            start = self._now_us()
            results, service_us = worker.process(batch)
            with self._work:
                self._core.dispatched(batch, w_idx, start)
                responses = self._core.complete(
                    batch, w_idx, start, service_us,
                    [res.output for res in results])
            self._resolve(responses)
