"""Multi-process pool serving backend on the shared live front end.

:class:`PoolServer` is the process-pool twin of
:class:`~repro.serving.server.AsyncServer` — both subclass
:class:`~repro.serving.server.LiveServer` over a serving core — but
batches execute on replica *processes* that share one read-only weight
segment (:mod:`repro.runtime.shm`) instead of engine threads contending
on the GIL.

Division of labour (three parent threads, N replica processes):

- the **dispatcher** thread forms length-bucketed batches and books each
  one onto the least-loaded replica through the
  :class:`~repro.serving.pool.router.Router`;
- :meth:`_feed` (run by dispatcher *and* collector) moves booked batches
  from router backlogs into replica task pipes, at most
  ``pipeline_depth`` in flight per replica — batches still in a backlog
  remain stealable, which is how seqLen-bucket skew resolves;
- the **collector** thread consumes one shared result queue: it settles
  router accounting, resolves futures, records each replica's cumulative
  counters for :meth:`pool_snapshot`, and reaps dead replicas (their
  unfinished batches are re-booked onto survivors, or rejected when none
  remain).

Responses are bitwise-identical to the AsyncServer's because engine
outputs depend only on the input sequence — never on batch composition,
replica identity, or worker count.
"""

from __future__ import annotations

import os
import queue as std_queue
import threading
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
from repro.serving.bucketing import BucketPolicy, make_policy, model_crossover
from repro.serving.loadgen import (
    LoadgenSpec,
    build_engine,
    build_payloads,
    make_slo_policy,
)
from repro.serving.pool.router import (
    AdmissionController,
    QuotaExceededError,
    Router,
)
from repro.serving.pool.worker import (
    STOP,
    BatchResult,
    BatchTask,
    WorkerGoodbye,
    WorkerHello,
    replica_main,
)
from repro.serving.request import Request, Response
from repro.serving.server import LiveServer
from repro.threads import pin_blas_threads


class PoolServer(LiveServer):
    """Futures-based serving loop over a pool of replica processes."""

    def __init__(
        self,
        engine: Engine,
        policy: BucketPolicy,
        n_workers: int = 2,
        max_batch: int = 8,
        max_wait_us: float = 2_000.0,
        max_depth: int = 64,
        max_inflight_per_tenant: int | None = None,
        tenant_quotas: dict[int, int] | None = None,
        pipeline_depth: int = 2,
        return_outputs: bool = True,
        start_timeout_s: float = 120.0,
        events: EventLog = NULL_EVENT_LOG,
        slo: SloPolicy | None = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError(f"need at least one replica, got {n_workers}")
        if pipeline_depth <= 0:
            raise ValueError(
                f"pipeline_depth must be positive: {pipeline_depth}")
        super().__init__(policy, max_batch, max_wait_us, max_depth, events,
                         slo)
        self.engine = engine  # parent-side: weights, name, cost pricing
        self.n_workers = n_workers
        self.pipeline_depth = pipeline_depth
        self.return_outputs = return_outputs
        self.start_timeout_s = start_timeout_s
        self.worker_deaths = 0
        self.shm_bytes = 0
        self._segment_name: str | None = None
        #: Latest cumulative per-replica counters shipped over IPC.
        self._replica_counters: dict[int, dict[str, float]] = {}
        self._admission = AdmissionController(
            max_inflight_per_tenant=max_inflight_per_tenant,
            quotas=tenant_quotas)
        self._ctx = get_context("spawn")  # safe beside parent threads
        self._price_lock = threading.Lock()
        self._prices: dict[int, float] = {}
        self._router: Router | None = None
        self._store: SharedWeightStore | None = None
        self._task_qs: dict[int, object] = {}
        self._result_q: object | None = None
        self._procs: dict[int, object] = {}
        #: batch_id -> (replica, batch, dispatch stamp) for in-pipe batches
        self._sent: dict[int, tuple[int, Batch, float]] = {}
        self._inpipe: dict[int, int] = {}
        self._collecting = False
        self._stopping = False  # replicas exiting on purpose, not crashing
        self._dispatcher: threading.Thread | None = None
        self._collector: threading.Thread | None = None

    # ---- pricing ----------------------------------------------------------

    def _price(self, seq_len: int) -> float:
        """Cost-model service us for one request of ``seq_len`` (cached)."""
        cached = self._prices.get(seq_len)
        if cached is not None:
            return cached
        t = self.engine.latency_us(seq_len=seq_len)
        with self._price_lock:
            self._prices[seq_len] = t
        return t

    # ---- lifecycle --------------------------------------------------------

    def _launch(self) -> None:
        """Create the weight segment, spawn the replicas, start serving."""
        with self._work:
            self._collecting = True
            self._stopping = False
            self._store = SharedWeightStore.create(self.engine.weights)
            self.shm_bytes = self._store.nbytes
            self._segment_name = self._store.manifest.segment
            self._router = Router(list(range(self.n_workers)), self._price,
                                  on_steal=self._on_steal)
            self._result_q = self._ctx.Queue()
            self._task_qs = {}
            self._procs = {}
            for rid in range(self.n_workers):
                tq = self._ctx.Queue()
                self._task_qs[rid] = tq
                self._procs[rid] = self._ctx.Process(
                    target=replica_main,
                    args=(rid, self._store.manifest, self.engine.name, tq,
                          self._result_q),
                    name=f"pool-replica-{rid}", daemon=True)
            procs = list(self._procs.values())
        pinned = pin_blas_threads()  # the replicas inherit the environment
        try:
            for p in procs:
                p.start()
            self._await_hellos()
        except BaseException:
            self._teardown_processes()
            self._destroy_store()
            with self._work:
                self._collecting = False
            raise
        finally:
            for var in pinned:
                del os.environ[var]
        with self._work:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="pool-dispatch", daemon=True)
            self._collector = threading.Thread(
                target=self._collect_loop, name="pool-collect", daemon=True)
            threads = [self._dispatcher, self._collector]
        for t in threads:
            t.start()

    def _await_hellos(self) -> None:
        """Block until every replica announced itself (or fail loudly).

        Waits in short slices, so a replica that exits before its hello
        fails ``start`` at once, naming the replica and its exit code.
        """
        deadline = time.monotonic() + self.start_timeout_s  # etlint: disable=ET301 timing boundary
        greeted: set[int] = set()
        while len(greeted) < self.n_workers:
            remaining = deadline - time.monotonic()  # etlint: disable=ET301 timing boundary
            if remaining <= 0:
                raise RuntimeError(
                    f"only {len(greeted)}/{self.n_workers} replicas came up "
                    f"within {self.start_timeout_s:g}s")
            try:
                msg = self._result_q.get(timeout=min(remaining, 0.2))  # type: ignore[union-attr]
            except std_queue.Empty:
                for rid, proc in self._procs.items():
                    code = proc.exitcode  # type: ignore[attr-defined]
                    if rid not in greeted and code is not None:
                        raise RuntimeError(
                            f"replica {rid} exited with code {code} "
                            f"before it came up") from None
                continue
            if isinstance(msg, WorkerHello):
                greeted.add(msg.worker_id)

    def stop(self, drain: bool = True) -> None:
        """Stop the pool; with ``drain`` every queued request is served.

        Always joins the replicas and unlinks the weight segment — after
        ``stop`` returns, no shared-memory segment remains linked.
        """
        with self._work:
            if not self._running and not self._collecting:
                return
            self._running = False
            self._work.notify_all()
            dispatcher = self._dispatcher
            self._dispatcher = None
        if dispatcher is not None:
            dispatcher.join()  # flushes the queue into router backlogs
        if not drain:
            self._reject_unsent()
        with self._work:  # in-pipe batches always finish (they're running)
            while self._sent or self._backlog_total() > 0:
                self._work.wait(0.1)
        self._teardown_processes()
        with self._work:
            self._collecting = False
            self._work.notify_all()
            collector = self._collector
            self._collector = None
        if collector is not None:
            collector.join()
        self._drain_stray_messages()
        with self._work:
            self._core.queue.close()
        self._destroy_store()
        # Drain contract: the weight segment must be gone. A leak here is a
        # lifecycle bug (crashed owner, double attach) that would otherwise
        # only surface as a stale /dev/shm file.
        assert self._live_segments() == 0, \
            f"leaked shared-memory segment {self._segment_name!r} after stop"

    def _reject_unsent(self) -> None:
        """No-drain stop: turn away everything not already on a replica."""
        victims: list[Request] = []
        if self._router is not None:
            for batch in self._router.drain():
                victims.extend(batch.requests)
        with self._work:
            victims.extend(self._core.queue.drain())
        self._reject(victims, "shed")

    def _backlog_total(self) -> int:
        if self._router is None:
            return 0
        return sum(self._router.backlog_depth(rid)
                   for rid in self._router.replica_ids)

    def _teardown_processes(self) -> None:
        """Order every live replica out, then join (terminate stragglers)."""
        with self._work:
            self._stopping = True  # exits below are ordered, not deaths
            tqs = dict(self._task_qs)
            procs = dict(self._procs)
        for rid, tq in tqs.items():
            if procs[rid].is_alive():
                try:
                    tq.put(STOP)  # type: ignore[attr-defined]
                except (ValueError, OSError):
                    pass
        for p in procs.values():
            if p.pid is None:  # start() never ran (or failed): no process
                continue
            p.join(timeout=10)
            if p.is_alive():  # wedged replica: the pool must still come down
                p.terminate()
                p.join(timeout=5)
        # Tasks a dead replica never read must not hold this process's
        # exit on a full pipe.
        for tq in tqs.values():
            tq.cancel_join_thread()  # type: ignore[attr-defined]

    def _drain_stray_messages(self) -> None:
        """Collect goodbyes (and drop stragglers) after the collector exits."""
        if self._result_q is None:
            return
        while True:
            try:
                msg = self._result_q.get_nowait()  # type: ignore[attr-defined]
            except (std_queue.Empty, OSError, ValueError):
                return
            if isinstance(msg, WorkerGoodbye):
                self._record_goodbye(msg)

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

    def _on_steal(self, thief: int, victim: int, batch: Batch) -> None:
        """Router steal observer: record the migration in the recorder."""
        with self._work:  # re-entrant: _feed steals while holding it
            self._core.emit("steal", self._now_us(), batch_id=batch.batch_id,
                            bucket=batch.bucket, size=batch.size,
                            replica=thief, src=victim)

    # ---- client API -------------------------------------------------------

    def submit(self, x: np.ndarray, priority: int = 0,
               client: int = 0) -> "Future[Response]":
        """Enqueue one sequence; raises :class:`QueueFullError` when the
        shared queue is at depth and :class:`QuotaExceededError` when the
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
            return super().submit(x, priority, client)
        except BaseException:
            self._admission.release(client)
            raise

    def pool_snapshot(self) -> dict[str, object]:
        """Pool-level state for metrics: per-replica load, steals, shm."""
        router_snap = self._router.snapshot() if self._router else {}
        with self._work:
            replicas = {
                rid: {
                    "backlog": snap["backlog"],
                    "outstanding_us": snap["outstanding_us"],
                    "inpipe": float(self._inpipe.get(rid, 0)),
                    "alive": bool(self._procs[rid].is_alive())
                    if rid in self._procs else False,
                    "counters": dict(self._replica_counters.get(rid, {})),
                }
                for rid, snap in router_snap.items()
            }
            shm_bytes = self.shm_bytes
        return {
            "replicas": replicas,
            "steals": float(self._router.steals) if self._router else 0.0,
            "batches_dispatched": float(self._router.dispatched)
            if self._router else 0.0,
            "shm_bytes": float(shm_bytes),
            "shm_segments": float(self._live_segments()),
            "worker_deaths": float(self.worker_deaths),
            "tenants_inflight": self._admission.snapshot(),
        }

    def metrics_text(self) -> str:
        """Serving metrics + pool series as one Prometheus exposition page."""
        snapshot = self.pool_snapshot()
        with self._work:
            base = prometheus_text(self._core.metrics)
        return base + pool_prometheus_text(snapshot)

    # ---- dispatcher -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while (batch := self._next_batch()) is not None:
            # Booking may price unseen lengths through the parent engine —
            # never hold the condition across it.
            self._router.assign(batch)  # type: ignore[union-attr]
            self._feed()

    def _feed(self) -> None:
        """Move booked batches into replica pipes, bounded per replica."""
        router = self._router
        if router is None:
            return
        sends: list[tuple[int, BatchTask]] = []
        with self._work:
            for rid in router.replica_ids:
                while self._inpipe.get(rid, 0) < self.pipeline_depth:
                    batch = router.acquire(rid)
                    if batch is None:
                        break
                    start = self._now_us()
                    self._sent[batch.batch_id] = (rid, batch, start)
                    self._inpipe[rid] = self._inpipe.get(rid, 0) + 1
                    self._core.dispatched(batch, rid, start)
                    sends.append((rid, BatchTask(
                        batch_id=batch.batch_id,
                        payloads=[r.x for r in batch.requests],
                        return_outputs=self.return_outputs)))
        for rid, task in sends:
            try:
                self._task_qs[rid].put(task)  # type: ignore[attr-defined]
            except (ValueError, OSError):
                pass  # pipe died with its replica; the reaper re-books it

    # ---- collector --------------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            with self._work:
                if not self._collecting and not self._sent:
                    return
            try:
                msg = self._result_q.get(timeout=0.1)  # type: ignore[union-attr]
            except std_queue.Empty:
                self._reap_dead()
                continue
            except (OSError, ValueError):
                return  # result queue torn down under us: shutting down
            if isinstance(msg, BatchResult):
                self._on_result(msg)
            elif isinstance(msg, WorkerGoodbye):
                self._record_goodbye(msg)

    def _record_goodbye(self, msg: WorkerGoodbye) -> None:
        with self._work:
            self._replica_counters[msg.worker_id] = {
                "busy_us": msg.busy_us, "batches": float(msg.batches_run)}
            self._work.notify_all()

    def _on_result(self, result: BatchResult) -> None:
        with self._work:
            entry = self._sent.pop(result.batch_id, None)
            if entry is not None:
                rid, batch, start = entry
                self._inpipe[rid] = max(0, self._inpipe.get(rid, 1) - 1)
                if result.counters:
                    self._replica_counters[result.worker_id] = \
                        dict(result.counters)
                self._core.emit(
                    "exec", start + result.service_us,
                    batch_id=result.batch_id, bucket=batch.bucket,
                    size=batch.size, replica=result.worker_id,
                    detail=result.error and "error")
        if entry is None:
            return  # batch was re-booked after a presumed death; drop dup
        self._router.complete(result.batch_id)  # type: ignore[union-attr]
        if result.error is not None:
            self._reject(batch.requests, "shed")
        else:
            self._resolve_batch(rid, batch, start, result)
        with self._work:
            self._work.notify_all()
        self._feed()

    def _resolve_batch(self, rid: int, batch: Batch, start: float,
                       result: BatchResult) -> None:
        outputs = result.outputs if result.outputs is not None \
            else [None] * batch.size
        with self._work:  # the core is not thread-safe
            responses = self._core.complete(batch, rid, start,
                                            result.service_us, outputs)
        self._resolve(responses)

    def _resolve(self, responses: list[Response]) -> None:
        for resp in responses:  # every terminal frees its tenant slot
            self._admission.release(resp.client)
        super()._resolve(responses)

    # ---- replica death ----------------------------------------------------

    def _reap_dead(self) -> None:
        """Retire dead replicas; re-book their unfinished batches."""
        router = self._router
        if router is None:
            return
        live = set(router.replica_ids)
        with self._work:
            if self._stopping:
                return  # ordered shutdown: exits are expected
            dead = [rid for rid, p in self._procs.items()
                    if rid in live and not p.is_alive()]
        if not dead:
            return
        todo: list[Batch] = []
        for rid in dead:
            todo.extend(router.retire(rid))
            with self._work:
                self._core.emit("worker_death", self._now_us(), replica=rid)
                self.worker_deaths += 1
                retained = [(bid, b) for bid, (r, b, _s)
                            in self._sent.items() if r == rid]
                for bid, _b in retained:
                    del self._sent[bid]
                self._inpipe.pop(rid, None)
            for bid, b in retained:
                router.forget(bid)
                todo.append(b)
        survivors = router.replica_ids
        if survivors:
            for b in todo:
                new_rid = router.assign(b)
                with self._work:
                    self._core.emit("rebook", self._now_us(),
                                    batch_id=b.batch_id, bucket=b.bucket,
                                    size=b.size, replica=new_rid)
        else:
            self._reject([r for b in todo for r in b.requests], "shed")
        with self._work:
            self._work.notify_all()
        self._feed()


def build_pool_server(
    spec: LoadgenSpec,
    n_workers: int,
    return_outputs: bool = True,
    max_inflight_per_tenant: int | None = None,
    events: EventLog = NULL_EVENT_LOG,
) -> tuple[PoolServer, dict[int, np.ndarray], BucketPolicy, int]:
    """A pool configured like the loadgen scheduler for ``spec``.

    Same engine, payloads, bucket and SLO policy as
    :func:`~repro.serving.loadgen.run_loadgen`, so
    :func:`~repro.serving.loadgen.drive_server` serves it the same seeded
    work as the thread-backed server, and like it runs every request.
    Returns ``(server, payloads, policy, crossover)``; the server is not
    started.
    """
    cfg = spec.model_config()
    engine = build_engine(spec)
    payloads = build_payloads(spec)
    crossover = model_crossover(cfg.num_heads, cfg.d_head, max(payloads),
                                device=engine.device)
    policy = make_policy(spec.policy, crossover, max(payloads))
    server = PoolServer(
        engine, policy, n_workers=n_workers, max_batch=spec.max_batch,
        max_wait_us=spec.max_wait_us, max_depth=spec.max_depth,
        return_outputs=return_outputs,
        max_inflight_per_tenant=max_inflight_per_tenant,
        events=events, slo=make_slo_policy(spec, engine, policy),
    )
    return server, payloads, policy, crossover
