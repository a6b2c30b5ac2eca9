"""Request/response model for the serving layer.

A :class:`Request` carries one ``(s, d_model)`` sequence through the system:
admission and staging (the batcher's per-bucket FIFO), dispatch
(scheduler/worker) and completion. All timestamps are microseconds on whichever clock the driver
uses — the deterministic scheduler runs a virtual cost-model clock, the
thread-backed server stamps wall-clock arrivals but keeps service time in
cost-model microseconds (see :mod:`repro.serving.server`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class ResponseStatus(enum.Enum):
    """Terminal state of a request."""

    OK = "ok"
    REJECTED = "rejected"  # admission control turned it away (queue full)


@dataclass
class Request:
    """One inference request: a single sequence plus scheduling metadata.

    Serving requests carry no attention mask: every kernel cost then
    depends on ``seq_len`` alone, which is what lets
    :func:`repro.obs.trace.build_trace` rebuild a request's kernel tree
    from the event log.
    """

    rid: int
    x: np.ndarray  # (seq_len, d_model)
    arrival_us: float = 0.0
    client: int = 0  # issuing client (closed-loop bookkeeping)
    deadline_us: float | None = None  # absolute SLO deadline (driver clock)

    @property
    def seq_len(self) -> int:
        """Sequence length of the payload."""
        return int(self.x.shape[0])


@dataclass
class Response:
    """Outcome of one request, with the serving-time breakdown."""

    rid: int
    status: ResponseStatus
    arrival_us: float
    start_us: float = 0.0  # dispatch time (batch formed, worker starts)
    finish_us: float = 0.0  # batch completion time
    service_us: float = 0.0  # whole batch's engine time (cost model)
    batch_id: int = -1
    batch_size: int = 0
    bucket: int = -1
    seq_len: int = 0
    client: int = 0
    replica: int = -1  # worker/replica index that executed the batch
    deadline_us: float | None = None  # absolute SLO deadline (driver clock)
    output: np.ndarray | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the request was served (vs rejected)."""
        return self.status is ResponseStatus.OK

    @property
    def queue_us(self) -> float:
        """Time spent waiting between arrival and dispatch."""
        return self.start_us - self.arrival_us

    @property
    def latency_us(self) -> float:
        """End-to-end latency: arrival to batch completion."""
        return self.finish_us - self.arrival_us

    @property
    def slo_met(self) -> bool | None:
        """Whether the deadline was met (None when no SLO was set).

        A rejection with a deadline counts as a miss: the client asked for
        an answer by ``deadline_us`` and got none.
        """
        if self.deadline_us is None:
            return None
        return self.ok and self.finish_us <= self.deadline_us

    @classmethod
    def rejected(cls, req: Request, now_us: float) -> "Response":
        """A backpressure rejection recorded at admission time."""
        return cls(rid=req.rid, status=ResponseStatus.REJECTED,
                   arrival_us=req.arrival_us, start_us=now_us,
                   finish_us=now_us, seq_len=req.seq_len, client=req.client,
                   deadline_us=req.deadline_us)
