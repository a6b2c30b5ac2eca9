"""Replica worker process: attach shared weights, serve batches over queues.

One :func:`replica_main` runs per pool replica (spawned process). It maps
the parent's :class:`~repro.runtime.shm.WeightManifest` into zero-copy
read-only weight views and builds its *own* engine on them, then loops:
take a :class:`BatchTask` off its task queue, run it through an
:class:`~repro.serving.scheduler.EngineWorker`, and send the
:class:`BatchResult` back on the result queue of the slot the task
names. Every request runs on the engine, as on the thread-backed
server.

Determinism: a batch's outputs and cost-model latencies are a pure
function of its inputs (each member runs on its own, independent of
batch composition), so results do not depend on which
replica ran the batch, how batches interleaved, or how many workers the
pool has — the property the pool determinism tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.shm import SharedWeightStore, WeightManifest
from repro.serving.batcher import Batch
from repro.serving.request import Request
from repro.serving.scheduler import EngineWorker

if TYPE_CHECKING:
    from multiprocessing.queues import Queue as MpQueue

#: Task-queue sentinel ordering a replica to exit its serve loop.
STOP = None


@dataclass(frozen=True)
class WorkerHello:
    """First message each replica sends: it is attached and serving."""

    worker_id: int


@dataclass(frozen=True)
class BatchTask:
    """One batch of work shipped to a replica.

    ``payloads`` holds each request's ``(s, d_model)`` array. Requests
    are identified positionally — the parent slot keeps the real
    :class:`~repro.serving.batcher.Batch` and matches outputs by index,
    so rids never cross the pipe. ``slot`` picks the result queue.
    """

    batch_id: int
    payloads: list
    slot: int


@dataclass(frozen=True)
class BatchResult:
    """A completed (or failed) batch, positionally matching its task."""

    worker_id: int
    batch_id: int
    service_us: float
    outputs: list[np.ndarray] | None
    #: Cumulative replica counters after this batch (``busy_us``,
    #: ``batches``), which the pool's Prometheus series report —
    #: cumulative, so a lost message never corrupts the totals.
    counters: dict[str, float] = field(default_factory=dict)
    error: str | None = None


def worker_counters(worker: EngineWorker) -> dict[str, float]:
    """The cumulative per-replica counters shipped with every result."""
    return {"busy_us": worker.busy_us, "batches": float(worker.batches_run)}


def run_task(task: BatchTask, worker: EngineWorker,
             worker_id: int) -> BatchResult:
    """Execute one task; always returns a result (errors are reported)."""
    try:
        reqs = [Request(rid=i, x=np.asarray(p))
                for i, p in enumerate(task.payloads)]
        batch = Batch(batch_id=task.batch_id, bucket=-1, requests=reqs)
        results, service_us = worker.process(batch)
    except Exception as exc:  # report, don't kill the replica
        return BatchResult(
            worker_id=worker_id, batch_id=task.batch_id, service_us=0.0,
            outputs=None,
            counters=worker_counters(worker),
            error=f"{type(exc).__name__}: {exc}")
    return BatchResult(
        worker_id=worker_id, batch_id=task.batch_id, service_us=service_us,
        outputs=[res.output for res in results],
        counters=worker_counters(worker),
    )


def replica_main(worker_id: int, manifest: WeightManifest, engine_name: str,
                 task_q: "MpQueue", results: "list[MpQueue]") -> None:
    """Entry point of one replica process (spawn target).

    Attaches the shared weight segment, builds the engine over read-only
    views, announces itself with a :class:`WorkerHello` on the first
    result queue, then serves :class:`BatchTask` messages until the
    :data:`STOP` sentinel (or a closed pipe, if the parent died) ends the
    loop. The store is attached, never owned: the replica closes its
    mapping on exit but only the pool parent unlinks the segment.
    """
    # Deferred: ENGINE_CLASSES lives in loadgen, which must not be imported
    # before spawn re-executes the module graph in the child.
    from repro.serving.loadgen import ENGINE_CLASSES

    store = SharedWeightStore.attach(manifest)
    try:
        worker = EngineWorker(ENGINE_CLASSES[engine_name](store.weights()))
        results[0].put(WorkerHello(worker_id=worker_id))
        while True:
            try:
                task = task_q.get()
            except (EOFError, OSError):  # parent died; nothing to serve
                return
            if task is STOP:
                return
            results[task.slot].put(run_task(task, worker, worker_id))
    finally:
        store.close()
