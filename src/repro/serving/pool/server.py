"""Multi-process pool serving backend on the shared live front end.

:class:`PoolServer` is the process-pool twin of
:class:`~repro.serving.server.AsyncServer` — both run
:class:`~repro.serving.server.LiveServer`'s one worker loop over a
serving core — but batches execute on replica *processes* that share one
read-only weight segment (:mod:`repro.runtime.shm`) instead of engine
threads contending on the GIL.

Each replica has :data:`REPLICA_SLOTS` slots, so it always has its
next batch queued while it runs one. The pool runs one parent thread per
slot. A thread that is free takes the next batch straight from the
batcher, sends it to the lowest free ``(replica, slot)`` and waits on
that slot's result queue. No batch is booked ahead of time; lowest-first
means a burst fills replica 0's pipeline before replica 1's, which pairs
the first two batches of a burst on one replica and the next two on the
other.

While a thread waits it checks that the replica is alive. When a replica
dies, the pool records one ``worker_death``, takes the replica's slots
out of service and puts every batch the replica was sent but never
answered back at the front of the dispatch order with a ``rebook``
event; the next free survivor takes it. With no replica left, those
batches and everything queued are shed.

Responses are bitwise-identical to the AsyncServer's because engine
outputs depend only on the input sequence — never on batch composition,
replica identity, or worker count.
"""

from __future__ import annotations

import os
import queue
import time
from concurrent.futures import Future
from multiprocessing import get_context

import numpy as np

from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.prometheus import pool_prometheus_text, prometheus_text
from repro.obs.slo import SloPolicy
from repro.runtime.engine import Engine
from repro.runtime.shm import SharedWeightStore, segment_exists
from repro.serving.batcher import Batch
from repro.serving.bucketing import BucketPolicy
from repro.serving.loadgen import (
    LoadgenSpec,
    build_engine,
    build_payloads,
    build_policy,
    make_slo_policy,
)
from repro.serving.pool.admission import (
    AdmissionController,
    QuotaExceededError,
)
from repro.serving.pool.worker import (
    STOP,
    BatchResult,
    BatchTask,
    replica_main,
)
from repro.serving.request import Request, Response
from repro.serving.server import Executed, LiveServer, SlotRetired
from repro.threads import pin_blas_threads

#: Batches one replica holds at once: one running, one in its task pipe.
REPLICA_SLOTS = 2

#: How often a thread waiting on a replica checks that the replica lives.
_LIVENESS_POLL_S = 0.1


class PoolServer(LiveServer):
    """Futures-based serving loop over a pool of replica processes."""

    #: How long ``start`` waits for every replica to come up.
    start_timeout_s = 120.0

    def __init__(
        self,
        engine: Engine,
        policy: BucketPolicy,
        n_workers: int = 2,
        max_batch: int = 8,
        max_wait_us: float = 2_000.0,
        max_depth: int = 64,
        max_inflight_per_tenant: int | None = None,
        events: EventLog = NULL_EVENT_LOG,
        slo: SloPolicy | None = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError(f"need at least one replica, got {n_workers}")
        super().__init__(policy, max_batch, max_wait_us, max_depth, events,
                         slo, slots=n_workers * REPLICA_SLOTS)
        self.engine = engine  # parent-side: weights and engine name
        self.n_workers = n_workers
        self.worker_deaths = 0
        self.shm_bytes = 0
        self._segment_name: str | None = None
        #: Latest cumulative per-replica counters shipped over IPC.
        self._replica_counters: dict[int, dict[str, float]] = {}
        self._admission = AdmissionController(
            max_inflight_per_tenant=max_inflight_per_tenant)
        self._ctx = get_context("spawn")  # safe beside parent threads
        self._store: SharedWeightStore | None = None
        self._task_qs: list = []
        #: Per replica, each slot's result queue.
        self._results: list[list] = []
        self._procs: list = []
        self._dead: set[int] = set()
        #: ``(replica, slot)`` pairs of live replicas holding no batch.
        self._free: set[tuple[int, int]] = set()
        self._dispatches = 0
        self._held = [0] * n_workers  # batches sent, not yet answered

    # ---- lifecycle --------------------------------------------------------

    def _launch(self) -> None:
        """Create the weight segment and spawn the replicas."""
        store = SharedWeightStore.create(self.engine.weights)
        task_qs = [self._ctx.Queue() for _ in range(self.n_workers)]
        results = [[self._ctx.Queue() for _ in range(REPLICA_SLOTS)]
                   for _ in range(self.n_workers)]
        procs = [
            self._ctx.Process(
                target=replica_main,
                args=(rid, store.manifest, self.engine.name, task_qs[rid],
                      results[rid]),
                name=f"pool-replica-{rid}", daemon=True)
            for rid in range(self.n_workers)
        ]
        with self._work:
            self._store = store
            self.shm_bytes = store.nbytes
            self._segment_name = store.manifest.segment
            self._task_qs = task_qs
            self._results = results
            self._procs = procs
            self._dead = set()
            self._free = {(rid, index) for rid in range(self.n_workers)
                          for index in range(REPLICA_SLOTS)}
            self._dispatches = 0
            self._held = [0] * self.n_workers
        pinned = pin_blas_threads()  # the replicas inherit the environment
        try:
            for p in procs:
                p.start()
            self._await_hellos()
        except BaseException:
            self._shutdown()
            raise
        finally:
            for var in pinned:
                del os.environ[var]

    def _await_hellos(self) -> None:
        """Block until every replica announced itself (or fail loudly).

        Waits in short slices, so a replica that exits before its hello
        fails ``start`` at once, naming the replica and its exit code.
        """
        deadline = time.monotonic() + self.start_timeout_s  # etlint: disable=ET301 timing boundary
        waiting = list(range(self.n_workers))
        while waiting:
            if time.monotonic() > deadline:  # etlint: disable=ET301 timing boundary
                raise RuntimeError(
                    f"only {self.n_workers - len(waiting)}/{self.n_workers} "
                    f"replicas came up within {self.start_timeout_s:g}s")
            rid = waiting[0]
            try:
                self._results[rid][0].get(timeout=0.1)  # its WorkerHello
            except queue.Empty:
                code = self._procs[rid].exitcode
                if code is not None:
                    raise RuntimeError(
                        f"replica {rid} exited with code {code} "
                        f"before it came up") from None
                continue
            waiting.pop(0)

    def _shutdown(self) -> None:
        """Order every replica out, join them, unlink the weight segment.

        After it returns no shared-memory segment of this pool remains
        linked.
        """
        with self._work:
            task_qs = list(self._task_qs)
            procs = list(self._procs)
            results = [q for slot_qs in self._results for q in slot_qs]
        for tq, p in zip(task_qs, procs):
            if p.is_alive():
                try:
                    tq.put(STOP)
                except (ValueError, OSError):
                    pass
        for p in procs:
            if p.pid is None:  # start() never ran (or failed): no process
                continue
            p.join(timeout=10)
            if p.is_alive():  # wedged replica: the pool must still come down
                p.terminate()
                p.join(timeout=5)
        # Tasks a dead replica never read must not hold this process's
        # exit on a full pipe.
        for tq in task_qs:
            tq.cancel_join_thread()
        for rq in results:
            rq.close()
        self._destroy_store()
        # Drain contract: the weight segment must be gone. A leak here is a
        # lifecycle bug (crashed owner, double attach) that would otherwise
        # only surface as a stale /dev/shm file.
        assert self._live_segments() == 0, \
            f"leaked shared-memory segment {self._segment_name!r} after stop"

    def _destroy_store(self) -> None:
        with self._work:
            store = self._store
            self._store = None
        if store is not None:
            store.close()
            store.unlink()

    def _live_segments(self) -> int:
        """How many of this pool's weight segments are still linked.

        One segment per pool, so this is 1 while serving and must be 0
        after :meth:`stop`; exported as the ``pool_shm_segments`` gauge.
        """
        if self._segment_name is None:
            return 0
        return 1 if segment_exists(self._segment_name) else 0

    # ---- client API -------------------------------------------------------

    def submit(self, x: np.ndarray, client: int = 0) -> "Future[Response]":
        """Enqueue one sequence; raises :class:`QueueFullError` when the
        batcher is at depth and :class:`QuotaExceededError` when the
        tenant is over its in-flight quota."""
        # super().submit checks the length again; checked here first so an
        # oversize request from a tenant at quota raises ValueError and
        # records no quota_reject.
        seq_len = len(x)
        self.policy.bucket_of(seq_len)
        try:
            self._admission.admit(client)
        except QuotaExceededError:
            # Quota rejections precede rid assignment: the event carries
            # the tenant, not a rid (the request never entered the system).
            with self._work:
                self._core.emit("quota_reject", self._now_us(),
                                seq_len=seq_len, tenant=client)
            raise
        try:
            return super().submit(x, client)
        except BaseException:
            self._admission.release(client)
            raise

    def pool_snapshot(self) -> dict[str, object]:
        """Pool-level state for metrics: per-replica load, shm, deaths."""
        with self._work:
            replicas = {
                rid: {
                    "inpipe": float(self._held[rid]),
                    "alive": rid not in self._dead and bool(proc.is_alive()),
                    "counters": dict(self._replica_counters.get(rid, {})),
                }
                for rid, proc in enumerate(self._procs)
            }
            dispatches = self._dispatches
            shm_bytes = self.shm_bytes
            deaths = self.worker_deaths
        return {
            "replicas": replicas,
            "batches_dispatched": float(dispatches),
            "shm_bytes": float(shm_bytes),
            "shm_segments": float(self._live_segments()),
            "worker_deaths": float(deaths),
            "tenants_inflight": self._admission.snapshot(),
        }

    def metrics_text(self) -> str:
        """Serving metrics + pool series as one Prometheus exposition page."""
        snapshot = self.pool_snapshot()
        with self._work:
            base = prometheus_text(self._core.metrics)
        return base + pool_prometheus_text(snapshot)

    def _resolve(self, responses: list[Response]) -> None:
        for resp in responses:  # every terminal frees its tenant slot
            self._admission.release(resp.client)
        super()._resolve(responses)

    # ---- one batch on one replica -----------------------------------------

    def _execute(self, slot: int, batch: Batch,
                 start: float) -> Executed | None:
        """Send the batch to the lowest free replica slot and wait for
        its result.

        A replica that dies while the thread waits hands the batch back
        with a ``rebook``. A thread that finds no free slot (deaths took
        more slots than there are busy threads) hands its batch back
        unsent. Either way the thread retires.
        """
        with self._work:
            pair = min(self._free, default=None)
            if pair is not None:
                self._free.remove(pair)
                self._dispatches += 1
                self._held[pair[0]] += 1
        if pair is None:
            self._hand_back(batch)
            raise SlotRetired
        rid, index = pair
        self._task_qs[rid].put(BatchTask(
            batch_id=batch.batch_id, payloads=[r.x for r in batch.requests],
            slot=index))
        result = self._await_result(rid, index)
        with self._work:
            self._held[rid] -= 1
            if result is not None:
                if rid not in self._dead:
                    self._free.add(pair)
                # Two slots' answers can land out of order; the counters
                # are cumulative, so the larger value is the later one.
                counters = self._replica_counters.setdefault(rid, {})
                for key, value in result.counters.items():
                    counters[key] = max(value, counters.get(key, value))
            if result is not None and result.outputs is None:
                self._core.emit(
                    "exec", start, batch_id=batch.batch_id,
                    bucket=batch.bucket, size=batch.size, replica=rid,
                    detail="error")
        if result is None:
            self._hand_back(batch, dead=rid)
            raise SlotRetired
        if result.outputs is None:  # the replica raised (result.error)
            self._reject(batch.requests, "shed")
            return None
        return rid, result.service_us, result.outputs

    def _await_result(self, rid: int, index: int) -> BatchResult | None:
        """The replica's answer on this slot's queue; None if it died."""
        results, proc = self._results[rid][index], self._procs[rid]
        while True:
            try:
                return results.get(timeout=_LIVENESS_POLL_S)
            except queue.Empty:
                if proc.is_alive():
                    continue
            try:  # an answer sent just before the death is still readable
                return results.get_nowait()
            except queue.Empty:
                return None

    def _hand_back(self, batch: Batch, dead: int | None = None) -> None:
        """Put ``batch`` back at the front of the dispatch order.

        ``dead`` names the replica that was sent the batch and died
        before answering: its death is recorded once, its slots leave
        service, and the batch gets a ``rebook`` (``src`` = that replica).
        With no replica left, the pool stops admitting and sheds every
        handed back and queued request.
        """
        shed: list[Request] = []
        with self._work:
            now = self._now_us()
            if dead is not None:
                if dead not in self._dead:
                    self._dead.add(dead)
                    self.worker_deaths += 1
                    self._core.emit("worker_death", now, replica=dead)
                    self._free -= {(dead, index)
                                   for index in range(REPLICA_SLOTS)}
                self._core.emit("rebook", now, batch_id=batch.batch_id,
                                bucket=batch.bucket, size=batch.size,
                                src=dead)
            self._requeued.appendleft(batch)
            if len(self._dead) == self.n_workers:
                self._running = False
                shed = [r for b in self._requeued for r in b.requests]
                shed += self._core.batcher.drain()
                self._requeued.clear()
            self._work.notify_all()
        self._reject(shed, "shed")


def build_pool_server(
    spec: LoadgenSpec,
    n_workers: int,
    max_inflight_per_tenant: int | None = None,
    events: EventLog = NULL_EVENT_LOG,
) -> tuple[PoolServer, dict[int, np.ndarray], BucketPolicy]:
    """A pool configured like the loadgen scheduler for ``spec``.

    Same engine, payloads, bucket and SLO policy as
    :func:`~repro.serving.loadgen.run_loadgen`, so
    :func:`~repro.serving.loadgen.drive_server` serves it the same seeded
    work as the thread-backed server, and like it runs every request.
    Returns ``(server, payloads, policy)``; the server is not started.
    """
    engine = build_engine(spec)
    payloads = build_payloads(spec)
    policy = build_policy(spec, engine, max(payloads))
    server = PoolServer(
        engine, policy, n_workers=n_workers, max_batch=spec.max_batch,
        max_wait_us=spec.max_wait_us, max_depth=spec.max_depth,
        max_inflight_per_tenant=max_inflight_per_tenant,
        events=events, slo=make_slo_policy(spec, engine, policy),
    )
    return server, payloads, policy
