"""Serving metrics registry: latency percentiles, queue depth, batch sizes.

All times are microseconds on the driver's clock (virtual cost-model time in
the deterministic scheduler). Percentile math is delegated to
:func:`repro.eval.metrics.percentile` so the registry, the CLI tables and
the benches agree bit-for-bit.

Every observation is also forwarded incrementally into a
:class:`~repro.obs.windowed.WindowedMetrics` layer (rolling-window
percentiles, EWMA throughput, per-bucket batch-size histograms), which is
what the Prometheus exposition renders for live scraping — the registry's
own aggregates remain whole-run.
"""

from __future__ import annotations

from collections import Counter

from repro.eval.metrics import percentile
from repro.obs.slo import SloTracker
from repro.obs.windowed import WindowedMetrics
from repro.serving.request import Response


class MetricsRegistry:
    """Accumulates per-request and per-batch observations for one run."""

    def __init__(self, window: WindowedMetrics | None = None) -> None:
        self.latencies_us: list[float] = []
        self.queue_us: list[float] = []
        self.service_us: list[float] = []
        self.batch_sizes: list[int] = []
        self.batch_hist: Counter[int] = Counter()
        self.queue_depths: list[int] = []
        self.completed = 0
        self.rejected = 0
        self.served_seq_tokens = 0
        self.window = window or WindowedMetrics()
        self.slo = SloTracker()
        self._first_arrival_us: float | None = None
        self._last_finish_us = 0.0

    # ---- observation ------------------------------------------------------

    def observe_response(self, resp: Response) -> None:
        """Record one terminal response (served or rejected)."""
        if self._first_arrival_us is None or \
                resp.arrival_us < self._first_arrival_us:
            self._first_arrival_us = resp.arrival_us
        # Rejections are terminal events too: a run ending in a rejection
        # burst must extend the makespan, or throughput_seq_s is skewed.
        self._last_finish_us = max(self._last_finish_us, resp.finish_us)
        slo_met = self.slo.observe(resp)  # rejections count as misses
        if not resp.ok:
            self.rejected += 1
            return
        self.completed += 1
        self.served_seq_tokens += resp.seq_len
        self.latencies_us.append(resp.latency_us)
        self.queue_us.append(resp.queue_us)
        self.service_us.append(resp.service_us)
        self.window.observe_request(resp.finish_us, resp.latency_us,
                                    resp.queue_us, slo_met=slo_met)

    def observe_batch(self, size: int, bucket: int = -1,
                      ts_us: float = 0.0) -> None:
        """Record one dispatched batch's size (and bucket, for the window)."""
        self.batch_sizes.append(size)
        self.batch_hist[size] += 1
        self.window.observe_batch(ts_us, size, bucket)

    def observe_queue_depth(self, depth: int) -> None:
        """Sample the queue depth (taken at each admission)."""
        self.queue_depths.append(depth)

    # ---- aggregates -------------------------------------------------------

    def latency_percentile_us(self, p: float) -> float:
        """End-to-end latency percentile (cost-model microseconds)."""
        return percentile(self.latencies_us, p)

    @property
    def mean_batch_size(self) -> float:
        """Mean dispatched batch size."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    @property
    def max_queue_depth(self) -> int:
        """Deepest queue observed at an admission."""
        return max(self.queue_depths, default=0)

    @property
    def makespan_us(self) -> float:
        """First arrival to last terminal event on the driver's clock."""
        if self._first_arrival_us is None:
            return 0.0
        return self._last_finish_us - self._first_arrival_us

    @property
    def throughput_seq_s(self) -> float:
        """Served sequences per second of cost-model timeline."""
        span = self.makespan_us
        if span <= 0.0:
            return 0.0
        return self.completed / (span / 1e6)

    @property
    def goodput_seq_s(self) -> float:
        """Deadline-meeting sequences per second of driver-clock makespan."""
        span = self.makespan_us
        if span <= 0.0:
            return 0.0
        return self.slo.met / (span / 1e6)

    def snapshot(self) -> dict[str, float]:
        """The report counters as one flat dict (tests and benches).

        The key set is stable regardless of traffic: percentile and queue
        keys are present with 0.0 defaults even when nothing completed, so
        JSON consumers and run-to-run diffs always see the same schema.
        """
        out: dict[str, float] = {
            "completed": float(self.completed),
            "rejected": float(self.rejected),
            "mean_batch_size": self.mean_batch_size,
            "max_queue_depth": float(self.max_queue_depth),
            "makespan_us": self.makespan_us,
            "throughput_seq_s": self.throughput_seq_s,
        }
        for p in (50.0, 95.0, 99.0):
            out[f"p{p:g}_latency_us"] = (
                self.latency_percentile_us(p) if self.latencies_us else 0.0)
        out["mean_queue_us"] = (
            sum(self.queue_us) / len(self.queue_us) if self.queue_us else 0.0)
        out["slo_total"] = float(self.slo.total)
        out["slo_met"] = float(self.slo.met)
        out["slo_attainment"] = self.slo.attainment
        out["goodput_seq_s"] = self.goodput_seq_s
        return out
