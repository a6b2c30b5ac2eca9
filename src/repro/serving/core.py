"""The serving core: one owner for every request and batch transition.

:class:`ServingCore` holds the dynamic batcher (the one pending store,
bounded by its ``max_depth``), the metrics registry and the event log of
one serving run, and is the only place that records a state change:

    admit ──> enqueue ──> batch_formed ──> dispatch ──> complete
      └─> reject (queue_full)                       └─> reject (shed, ...)

Every backend drives it — the virtual-time
:class:`~repro.serving.scheduler.Scheduler`, the thread-backed
:class:`~repro.serving.server.AsyncServer` and the process-pool
:class:`~repro.serving.pool.server.PoolServer` — so a change to what a
transition records lands once. The core is clock-agnostic (callers pass
every timestamp, and requests arrive with their SLO deadline already
stamped) and not thread-safe: the live servers call it under their
condition, which etlint's ET402 checks.

Each transition makes one recording call, :meth:`ServingCore.emit`: the
event log keeps the event and the metrics registry folds it. Everything
else is derived from the stream — the registry live, the Chrome trace
after the run (:func:`repro.obs.trace.build_trace`), and the same
metrics again from a recorded log
(:meth:`~repro.serving.metrics.MetricsRegistry.from_events`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs.events import EventLog
from repro.serving.batcher import Batch, DynamicBatcher, QueueFullError
from repro.serving.metrics import MetricsRegistry
from repro.serving.request import Request, Response, ResponseStatus


def _reject_fields(req: Request, detail: str) -> dict[str, object]:
    """A ``reject`` event's fields: a rejection with a deadline misses it."""
    return {"rid": req.rid, "seq_len": req.seq_len, "tenant": req.client,
            "deadline_us": req.deadline_us,
            "slo_met": None if req.deadline_us is None else False,
            "detail": detail}


class ServingCore:
    """Batcher and recorders of one run, and every transition."""

    def __init__(self, batcher: DynamicBatcher, metrics: MetricsRegistry,
                 events: EventLog) -> None:
        self.batcher = batcher
        self.metrics = metrics
        self.events = events

    def emit(self, kind: str, ts_us: float, **fields: object) -> None:
        """Record one event: the log keeps it, the registry folds it."""
        self.events.emit(kind, ts_us, **fields)
        self.metrics.fold(kind, ts_us, fields)

    # ---- request transitions ----------------------------------------------

    def admit(self, req: Request) -> None:
        """Enqueue a stamped arrival at ``req.arrival_us``.

        Emits ``admit`` then ``enqueue``. On a full queue it emits
        ``reject`` (``queue_full``) instead and re-raises
        :class:`QueueFullError`: a live server hands it to the caller, the
        scheduler answers with a rejected response. Either way the refusal
        is already recorded.
        """
        self.emit("admit", req.arrival_us, rid=req.rid, seq_len=req.seq_len,
                  tenant=req.client, deadline_us=req.deadline_us)
        try:
            self.batcher.put(req)
        except QueueFullError:
            self.emit("reject", req.arrival_us,
                      **_reject_fields(req, "queue_full"))
            raise
        self.emit("enqueue", req.arrival_us, rid=req.rid, seq_len=req.seq_len)

    def reject(self, req: Request, now_us: float, detail: str) -> Response:
        """Terminally reject a queued request that will never run."""
        self.emit("reject", now_us, **_reject_fields(req, detail))
        return Response.rejected(req, now_us)

    # ---- batch transitions ------------------------------------------------

    def batch_formed(self, batch: Batch, now_us: float) -> None:
        """The batcher closed a bucket into ``batch``."""
        self.emit("batch_formed", now_us, batch_id=batch.batch_id,
                  bucket=batch.bucket, size=batch.size)

    def dispatched(self, batch: Batch, replica: int, now_us: float) -> None:
        """``batch`` started on worker/replica ``replica`` at ``now_us``."""
        self.emit("dispatch", now_us, batch_id=batch.batch_id,
                  bucket=batch.bucket, size=batch.size, replica=replica)

    def complete(self, batch: Batch, replica: int, start_us: float,
                 service_us: float, outputs: Sequence[np.ndarray | None],
                 ) -> list[Response]:
        """Every member's served response; the batch ends at
        ``start_us + service_us``."""
        finish = start_us + service_us
        responses = []
        for req, output in zip(batch.requests, outputs):
            resp = Response(
                rid=req.rid, status=ResponseStatus.OK,
                arrival_us=req.arrival_us, start_us=start_us,
                finish_us=finish, service_us=service_us,
                batch_id=batch.batch_id, batch_size=batch.size,
                bucket=batch.bucket, seq_len=req.seq_len, client=req.client,
                replica=replica, deadline_us=req.deadline_us, output=output)
            self.emit("complete", finish, rid=req.rid,
                      batch_id=batch.batch_id, bucket=batch.bucket,
                      seq_len=req.seq_len, tenant=req.client, replica=replica,
                      deadline_us=req.deadline_us, slo_met=resp.slo_met)
            responses.append(resp)
        return responses
