"""Serving metrics: one fold over a run's lifecycle events.

The serving core hands every event it emits to :meth:`MetricsRegistry.
fold`, the registry's only input; :meth:`MetricsRegistry.from_events`
replays a recorded log through the same fold, so ``metrics.prom``
rebuilds from ``events.jsonl`` alone. The fold feeds the SLO tracker
and the rolling window that the Prometheus page renders. Times are
microseconds on the driver's clock; percentiles go through
:func:`repro.eval.metrics.percentile`, as in the CLI tables and benches.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping

from repro.obs.events import Event, EventLog, admission_order, depth_change
from repro.obs.slo import SloTracker
from repro.obs.windowed import WindowedMetrics, row_stats


class MetricsRegistry:
    """Whole-run serving aggregates, folded from lifecycle events.

    In flight, the fold holds one arrival per request and one ``(start,
    members left, replica)`` entry per dispatched batch; each is dropped
    once its requests terminate.
    """

    def __init__(self, window: WindowedMetrics | None = None) -> None:
        self.completed = self.rejected = self.served_seq_tokens = 0
        self.max_queue_depth = 0
        self.window = window or WindowedMetrics()
        self.slo = SloTracker()
        self._depth = 0
        self._batches = self._batched = 0
        self._arrival_us: dict[int, float] = {}
        self._started: dict[int, tuple[float, int, int]] = {}
        self._first_arrival_us: float | None = None
        self._last_finish_us = 0.0

    @classmethod
    def from_events(cls, events: EventLog | Iterable[Event]
                    ) -> "MetricsRegistry":
        """The registry a live fold of a recorded run ended with."""
        metrics = cls()
        for e in admission_order(events):
            metrics.fold(e.kind, e.ts_us, e.fields)
        return metrics

    # ---- the fold ---------------------------------------------------------

    def fold(self, kind: str, ts_us: float,
             fields: Mapping[str, Any]) -> None:
        """Fold one event (fields as in :class:`~repro.obs.events.Event`)."""
        if kind == "admit":
            self.max_queue_depth = max(self.max_queue_depth, self._depth)
            self._arrival_us[fields["rid"]] = ts_us
        elif kind == "dispatch":
            size, bucket = fields["size"], fields["bucket"]
            self._started[fields["batch_id"]] = (ts_us, size,
                                                 fields["replica"])
            self._batches += 1
            self._batched += size
            self.window.now_us = max(self.window.now_us, ts_us)
            self.window.batch_hist.setdefault(bucket, Counter())[size] += 1
        elif kind in ("complete", "reject"):
            self._terminal(kind, ts_us, fields)
        elif kind == "worker_death":  # its batches are re-dispatched or shed
            for bid, (_, _, replica) in list(self._started.items()):
                if replica == fields["replica"]:
                    del self._started[bid]
        elif kind == "exec" and fields.get("detail") == "error":
            self._started.pop(fields["batch_id"], None)  # members are shed
        self._depth += depth_change(kind, fields)

    def _terminal(self, kind: str, ts_us: float,
                  fields: Mapping[str, Any]) -> None:
        arrival = self._arrival_us.pop(fields["rid"])
        if self._first_arrival_us is None or \
                arrival < self._first_arrival_us:
            self._first_arrival_us = arrival
        # Rejections are terminal events too: a run ending in a rejection
        # burst must extend the makespan, or throughput_seq_s is skewed.
        self._last_finish_us = max(self._last_finish_us, ts_us)
        slo_met = self.slo.observe(fields)  # rejections count as misses
        if kind == "reject":
            self.rejected += 1
            return
        bid = fields["batch_id"]
        start, left, replica = self._started[bid]
        if left > 1:
            self._started[bid] = (start, left - 1, replica)
        else:
            del self._started[bid]
        self.completed += 1
        self.served_seq_tokens += fields["seq_len"]
        self.window.now_us = max(self.window.now_us, ts_us)
        self.window.done.append((ts_us, fields["rid"], ts_us - arrival,
                                 start - arrival, slo_met))

    @property
    def in_flight(self) -> int:
        """Requests and batches the fold still holds state for."""
        return len(self._arrival_us) + len(self._started)

    # ---- aggregates -------------------------------------------------------

    @property
    def latencies_us(self) -> list[float]:
        """End-to-end latency of every served request, in finish order."""
        return [d[2] for d in sorted(self.window.done)]

    @property
    def mean_batch_size(self) -> float:
        """Mean dispatched batch size."""
        return self._batched / self._batches if self._batches else 0.0

    @property
    def makespan_us(self) -> float:
        """First arrival to last terminal event on the driver's clock."""
        if self._first_arrival_us is None:
            return 0.0
        return self._last_finish_us - self._first_arrival_us

    def _per_s(self, count: int) -> float:
        span = self.makespan_us
        return count / (span / 1e6) if span > 0.0 else 0.0

    @property
    def throughput_seq_s(self) -> float:
        """Served sequences per second of driver-clock makespan."""
        return self._per_s(self.completed)

    @property
    def goodput_seq_s(self) -> float:
        """Deadline-meeting sequences per second of driver-clock makespan."""
        return self._per_s(self.slo.met)

    def snapshot(self) -> dict[str, float]:
        """The report counters as one flat dict (tests and benches).

        The key set is stable regardless of traffic: percentile and queue
        keys are present with 0.0 defaults even when nothing completed, so
        JSON consumers and run-to-run diffs always see the same schema.
        """
        return {
            "completed": float(self.completed),
            "rejected": float(self.rejected),
            "mean_batch_size": self.mean_batch_size,
            "max_queue_depth": float(self.max_queue_depth),
            "makespan_us": self.makespan_us,
            "throughput_seq_s": self.throughput_seq_s,
            **row_stats(sorted(self.window.done)),
            "slo_total": float(self.slo.total),
            "slo_met": float(self.slo.met),
            "slo_attainment": self.slo.attainment,
            "goodput_seq_s": self.goodput_seq_s,
        }
