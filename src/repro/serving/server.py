"""Live serving front ends: the shared :class:`LiveServer` and the threads.

:class:`LiveServer` is what both live backends share: the monotonic
clock, rid and SLO-deadline stamping (the core records the deadline a
request carries; only the front end knows the arrival instant), the
futures table, the condition guarding the
:class:`~repro.serving.core.ServingCore`, and the one worker loop — each
slot pulls the next batch when it is free, executes it, records it and
resolves its futures. Queueing time is wall clock (callers really wait);
service time stays in cost-model microseconds — the simulated GPU is the
resource being scheduled, the host threads only coordinate.

The backends differ only in how one batch executes: :class:`AsyncServer`
runs it on the slot's engine thread, the process-pool twin
:class:`~repro.serving.pool.server.PoolServer` on a replica process.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Sequence, TypeVar

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

#: What :meth:`LiveServer._execute` returns for a batch that ran:
#: ``(replica, service_us, outputs)``.
Executed = tuple[int, float, Sequence[np.ndarray | None]]


class SlotRetired(Exception):
    """Raised by :meth:`LiveServer._execute` when the slot's executor is
    gone for good; the batch was already handed back, the slot stops."""


class LiveServer:
    """Futures front end over a :class:`ServingCore`, on the wall clock.

    Runs ``slots`` threads of :meth:`_worker_loop`. Subclasses implement
    :meth:`_execute` and may bring executors up and down in
    :meth:`_launch` and :meth:`_shutdown`.
    """

    def __init__(self, policy: BucketPolicy, max_batch: int,
                 max_wait_us: float, max_depth: int, events: EventLog,
                 slo: SloPolicy | None, slots: int) -> None:
        self.policy = policy
        self.slo = slo
        self._core = ServingCore(
            DynamicBatcher(policy, max_batch=max_batch,
                           max_wait_us=max_wait_us, max_depth=max_depth),
            MetricsRegistry(), events)
        self._work = threading.Condition()
        self._futures: dict[int, Future] = {}
        self._slots = slots
        self._threads: list[threading.Thread] = []
        #: Formed batches handed back by a dead executor: taken before
        #: anything the batcher releases.
        self._requeued: deque[Batch] = deque()
        #: Batches taken by a slot and not yet settled; while any is, a
        #: stopping slot stays up, since it may still be handed back.
        self._executing = 0
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
        """Restart the clock, bring up the executors, start the slots."""
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
        threads = [
            threading.Thread(target=self._worker_loop, args=(slot,),
                             name=f"serve-worker-{slot}", daemon=True)
            for slot in range(self._slots)
        ]
        with self._work:
            self._threads = threads
        for t in threads:
            t.start()
        return self

    def _launch(self) -> None:
        """Bring up what the slots execute on (the clock is already set)."""

    def _shutdown(self) -> None:
        """Take the executors down once every slot has stopped."""

    def __enter__(self: _Server) -> _Server:
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def stop(self, drain: bool = True) -> None:
        """Stop the slots; with ``drain`` they finish everything queued.

        Without ``drain`` the queue and any handed-back batch are taken in
        the same critical section that clears the running flag, so no
        slot can flush them into a batch; those requests are rejected as
        shed. Either way a batch already taken still runs, and one its
        executor hands back later runs elsewhere or is shed: no slot
        exits while a batch is executing.
        """
        with self._work:
            self._running = False
            dropped: list[Request] = []
            if not drain:
                dropped = [r for b in self._requeued for r in b.requests]
                dropped += self._core.batcher.drain()
                self._requeued.clear()
            threads = self._threads
            self._threads = []
            self._work.notify_all()
        for t in threads:  # joining must not hold the lock slots need
            t.join()
        self._shutdown()
        self._reject(dropped, "shed")

    # ---- client API -------------------------------------------------------

    def _now_us(self) -> float:
        return (time.monotonic() - self._t0) * 1e6  # etlint: disable=ET301 timing boundary

    def submit(self, x: np.ndarray, client: int = 0) -> "Future[Response]":
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
                rid=rid, x=x, arrival_us=arrival, client=client,
                deadline_us=deadline))
            self._futures[rid] = fut
            self._work.notify()
        return fut

    @property
    def depth(self) -> int:
        """Current queue depth."""
        return self._core.batcher.depth

    def metrics_text(self) -> str:
        """The live metrics as one Prometheus exposition page (scrapable)."""
        with self._work:
            return prometheus_text(self._core.metrics)

    # ---- the worker loop --------------------------------------------------

    def _worker_loop(self, slot: int) -> None:
        """One slot: take the next batch when free, execute, complete.

        A batch's ``dispatch`` is recorded together with its completion,
        under one lock; the event carries the start stamp, so the sorted
        log still places it where the batch started.
        """
        retired = False
        while not retired and (batch := self._next_batch()) is not None:
            start = self._now_us()
            try:
                ran = self._execute(slot, batch, start)
            except SlotRetired:
                ran, retired = None, True
            responses: list[Response] = []
            with self._work:
                if ran is not None:  # else it was shed or handed back
                    replica, service_us, outputs = ran
                    self._core.dispatched(batch, replica, start)
                    responses = self._core.complete(
                        batch, replica, start, service_us, outputs)
                self._executing -= 1
                if not self._running and not self._executing:
                    self._work.notify_all()  # stopping slots may exit now
            self._resolve(responses)

    def _execute(self, slot: int, batch: Batch,
                 start: float) -> Executed | None:
        """Run ``batch`` on the slot's executor; ``None`` if it was shed."""
        raise NotImplementedError

    def _next_batch(self) -> Batch | None:
        """Block until a handed-back batch or the batcher releases one;
        None once stopped, the queue is flushed and no batch is executing.

        ``batch_formed`` is recorded at the pop itself, under the same
        lock as admissions, so the event log orders every admit exactly
        against the batches that left the queue before it.
        """
        with self._work:
            while True:
                if self._requeued:
                    self._executing += 1
                    return self._requeued.popleft()
                now = self._now_us()
                batch = self._core.batcher.pop_batch(
                    now, flush=not self._running)
                if batch is not None:
                    self._core.batch_formed(batch, now)
                    self._executing += 1
                    return batch
                if not self._running and not self._executing:
                    return None
                deadline = self._core.batcher.next_deadline_us()
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
                         slo, slots=len(engines))
        self._workers = [EngineWorker(e) for e in engines]

    def _execute(self, slot: int, batch: Batch,
                 start: float) -> Executed | None:
        """Run the batch on this slot's engine, in this thread."""
        results, service_us = self._workers[slot].process(batch)
        return slot, service_us, [res.output for res in results]
