"""Rolling-window serving metrics: live percentiles, EWMA throughput.

The live-scrape view of the registry's fold (:mod:`repro.serving.
metrics`): one row per completed request in :attr:`WindowedMetrics.done`
and dispatched batch sizes per bucket in :attr:`WindowedMetrics.
batch_hist`. Every gauge is computed when read, over the rows in finish
order (rid breaks ties), so none depends on the order events were folded
in: a live server's page and a replay of its canonical log agree.
"""

from __future__ import annotations

from collections import Counter

from repro.eval.metrics import percentile

#: Cumulative batch-size histogram edges (``le`` labels, Prometheus-style).
BATCH_SIZE_LES = (1, 2, 4, 8, 16)

#: One completed request: ``(finish_us, rid, latency_us, queue_us, slo_met)``.
Done = tuple[float, int, float, float, "bool | None"]


class WindowedMetrics:
    """Sliding-window latency/queue/SLO stats and an EWMA throughput gauge."""

    def __init__(self, window_us: float = 1_000_000.0,
                 ewma_alpha: float = 0.2) -> None:
        if window_us <= 0:
            raise ValueError(f"window_us must be positive: {window_us}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1]: {ewma_alpha}")
        self.window_us = window_us
        self.ewma_alpha = ewma_alpha
        #: Every completion folded so far, in fold order.
        self.done: list[Done] = []
        #: The latest completion or dispatch folded: the window ends here.
        self.now_us = 0.0
        #: Dispatched batch sizes per bucket (cumulative, whole run).
        self.batch_hist: dict[int, Counter[int]] = {}

    def _window(self) -> list[Done]:
        """The completions inside the window, in finish-time order."""
        horizon = self.now_us - self.window_us
        return [d for d in sorted(self.done) if d[0] >= horizon]

    @property
    def window_count(self) -> int:
        """Completions currently inside the window."""
        return len(self._window())

    def latency_percentile_us(self, p: float) -> float:
        """Latency percentile over the window (0.0 when empty)."""
        return row_stats(self._window(), (p,))[f"p{p:g}_latency_us"]

    @property
    def window_slo_attainment(self) -> float:
        """Fraction of windowed SLO-carrying completions that met deadline."""
        return _attainment(self._window())

    @property
    def ewma_throughput_seq_s(self) -> float:
        """EWMA of the instantaneous completion rate, in finish order."""
        ewma, last = 0.0, None
        for finish, *_ in sorted(self.done):
            if last is not None:
                gap = finish - last
                inst = 1e6 / gap if gap > 0 else ewma
                ewma = inst if ewma == 0.0 else (
                    self.ewma_alpha * inst + (1.0 - self.ewma_alpha) * ewma)
            last = finish
        return ewma

    @property
    def batch_sum(self) -> dict[int, int]:
        """Summed dispatched batch sizes per bucket."""
        return {b: sum(s * c for s, c in h.items())
                for b, h in self.batch_hist.items()}

    @property
    def batch_count(self) -> dict[int, int]:
        """Dispatched batches per bucket."""
        return {b: sum(h.values()) for b, h in self.batch_hist.items()}

    def hist_cumulative(self, bucket: int) -> list[tuple[str, int]]:
        """Prometheus-style cumulative ``(le, count)`` rows for one bucket."""
        counts = self.batch_hist.get(bucket, Counter())
        rows = [(str(le), sum(c for s, c in counts.items() if s <= le))
                for le in BATCH_SIZE_LES]
        rows.append(("+Inf", sum(counts.values())))
        return rows

    def snapshot(self) -> dict[str, float]:
        """The window's gauges as one flat dict (stable key set)."""
        window = self._window()
        out = {f"window_{k}": v for k, v in row_stats(window).items()}
        out.update(window_count=float(len(window)),
                   window_slo_attainment=_attainment(window),
                   ewma_throughput_seq_s=self.ewma_throughput_seq_s)
        return out


def row_stats(rows: list[Done], ps: tuple[float, ...] = (50.0, 95.0, 99.0)
              ) -> dict[str, float]:
    """Latency percentiles and mean queue wait of completion rows (0.0
    when there are none)."""
    out = {f"p{p:g}_latency_us": percentile([d[2] for d in rows], p)
           if rows else 0.0 for p in ps}
    out["mean_queue_us"] = sum(d[3] for d in rows) / len(rows) if rows else 0.0
    return out


def _attainment(rows: list[Done]) -> float:
    marks = [met for *_, met in rows if met is not None]
    return sum(marks) / len(marks) if marks else 0.0
