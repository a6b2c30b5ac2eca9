"""Prometheus text-exposition rendering of the serving metrics.

One function, :func:`prometheus_text`, renders a
:class:`~repro.serving.metrics.MetricsRegistry` (and the
:class:`~repro.obs.windowed.WindowedMetrics` it feeds) in the Prometheus
text exposition format (version 0.0.4): ``# HELP`` / ``# TYPE`` headers,
``name{labels} value`` samples, stable series names and label order — so
scrapes diff cleanly run to run and ``tools/check_trace.py`` can validate
the output structurally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.metrics import MetricsRegistry


def _fmt(value: float) -> str:
    """Deterministic sample formatting (integers stay integral)."""
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.10g}"


class _Writer:
    def __init__(self, namespace: str) -> None:
        self.ns = namespace
        self.lines: list[str] = []

    def series(self, name: str, kind: str, help_text: str,
               samples: list[tuple[str, float]]) -> None:
        full = f"{self.ns}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        for labels, value in samples:
            self.lines.append(f"{full}{labels} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def prometheus_text(metrics: "MetricsRegistry",
                    namespace: str = "repro") -> str:
    """Render the registry + its window as a Prometheus exposition page."""
    w = _Writer(namespace)
    snap = metrics.snapshot()
    w.series("requests_completed_total", "counter",
             "Requests served to completion.",
             [("", snap["completed"])])
    w.series("requests_rejected_total", "counter",
             "Requests shed by admission control.",
             [("", snap["rejected"])])
    w.series("served_tokens_total", "counter",
             "Sum of served sequence lengths.",
             [("", float(metrics.served_seq_tokens))])
    w.series("latency_us", "summary",
             "End-to-end request latency percentiles (whole run).",
             [('{quantile="0.5"}', snap["p50_latency_us"]),
              ('{quantile="0.95"}', snap["p95_latency_us"]),
              ('{quantile="0.99"}', snap["p99_latency_us"])])
    w.series("queue_wait_us_mean", "gauge",
             "Mean time between arrival and dispatch (whole run).",
             [("", snap["mean_queue_us"])])
    w.series("batch_size_mean", "gauge",
             "Mean dispatched batch size.",
             [("", snap["mean_batch_size"])])
    w.series("queue_depth_max", "gauge",
             "Deepest queue observed at an admission.",
             [("", snap["max_queue_depth"])])
    w.series("makespan_us", "gauge",
             "First arrival to last terminal event on the driver clock.",
             [("", snap["makespan_us"])])
    w.series("throughput_seq_s", "gauge",
             "Served sequences per second of driver-clock time.",
             [("", snap["throughput_seq_s"])])

    # SLO attainment: overall plus per-bucket / per-tenant / per-replica
    # breakdowns. Series are present (zero-valued, no labeled samples)
    # even when no request carried a deadline, keeping scrapes diffable.
    w.series("slo_requests_total", "counter",
             "Terminal requests that carried a deadline.",
             [("", snap["slo_total"])])
    w.series("slo_met_total", "counter",
             "Deadline-carrying requests that met their deadline.",
             [("", snap["slo_met"])])
    w.series("slo_attainment", "gauge",
             "Fraction of deadline-carrying requests that met the deadline.",
             [("", snap["slo_attainment"])])
    w.series("goodput_seq_s", "gauge",
             "Deadline-meeting sequences per second of driver-clock time.",
             [("", snap["goodput_seq_s"])])
    for group, label in (("bucket", "bucket"), ("tenant", "tenant"),
                         ("replica", "replica")):
        rates = metrics.slo.attainment_by(group)
        w.series(f"slo_attainment_by_{group}", "gauge",
                 f"SLO attainment per {group}.",
                 [(f'{{{label}="{k}"}}', v) for k, v in rates.items()])

    win = metrics.window
    wsnap = win.snapshot()
    w.series("window_latency_us", "summary",
             "Request latency percentiles over the rolling window.",
             [('{quantile="0.5"}', wsnap["window_p50_latency_us"]),
              ('{quantile="0.95"}', wsnap["window_p95_latency_us"]),
              ('{quantile="0.99"}', wsnap["window_p99_latency_us"])])
    w.series("window_requests", "gauge",
             "Completions inside the rolling window.",
             [("", wsnap["window_count"])])
    w.series("window_queue_wait_us_mean", "gauge",
             "Mean queue wait over the rolling window.",
             [("", wsnap["window_mean_queue_us"])])
    w.series("throughput_ewma_seq_s", "gauge",
             "EWMA of the instantaneous completion rate.",
             [("", wsnap["ewma_throughput_seq_s"])])
    w.series("window_slo_attainment", "gauge",
             "SLO attainment over the rolling window.",
             [("", wsnap["window_slo_attainment"])])

    # Histogram series follow the _bucket/_sum/_count naming convention.
    full = f"{namespace}_batch_size"
    w.lines.append(f"# HELP {full} "
                   "Dispatched batch sizes per sequence-length bucket.")
    w.lines.append(f"# TYPE {full} histogram")
    for bucket in sorted(win.batch_hist):
        for le, count in win.hist_cumulative(bucket):
            w.lines.append(
                f'{full}_bucket{{bucket="{bucket}",le="{le}"}} {count}')
        w.lines.append(f'{full}_sum{{bucket="{bucket}"}} '
                       f"{_fmt(win.batch_sum.get(bucket, 0))}")
        w.lines.append(f'{full}_count{{bucket="{bucket}"}} '
                       f"{_fmt(win.batch_count.get(bucket, 0))}")
    return w.text()


def pool_prometheus_text(pool: dict, namespace: str = "repro") -> str:
    """Render one pool snapshot's replica-level series.

    ``pool`` is :meth:`repro.serving.pool.server.PoolServer.pool_snapshot`
    output: per-replica load (``inpipe``/``alive``), the dispatch total,
    shared-memory footprint, and per-tenant in-flight counts. Returned
    text appends cleanly after :func:`prometheus_text` — series names
    never collide.
    """
    w = _Writer(namespace)
    replicas: dict = pool.get("replicas", {})  # type: ignore[assignment]
    rows = sorted(replicas.items())
    w.series("pool_replicas_alive", "gauge",
             "Replica processes currently alive.",
             [("", float(sum(1 for _, r in rows if r.get("alive"))))])
    w.series("pool_replica_inpipe", "gauge",
             "Batches sent to a replica and not yet answered.",
             [(f'{{replica="{rid}"}}', float(r.get("inpipe", 0)))
              for rid, r in rows])
    w.series("pool_batches_dispatched_total", "counter",
             "Batches handed to replica processes.",
             [("", float(pool.get("batches_dispatched", 0.0)))])
    w.series("pool_shm_bytes", "gauge",
             "Bytes of the shared read-only weight segment.",
             [("", float(pool.get("shm_bytes", 0.0)))])
    w.series("pool_shm_segments", "gauge",
             "Live (linked) shared-memory weight segments; 0 after drain.",
             [("", float(pool.get("shm_segments", 0.0)))])
    w.series("pool_worker_deaths_total", "counter",
             "Replica processes that died and were retired.",
             [("", float(pool.get("worker_deaths", 0.0)))])
    # Replica-shipped cumulative counters (ride the BatchResult IPC
    # channel): engine busy time and batches executed per replica.
    w.series("pool_replica_busy_us_total", "counter",
             "Cost-model microseconds a replica spent executing batches.",
             [(f'{{replica="{rid}"}}',
               float(r.get("counters", {}).get("busy_us", 0.0)))
              for rid, r in rows])
    w.series("pool_replica_batches_total", "counter",
             "Batches a replica has executed.",
             [(f'{{replica="{rid}"}}',
               float(r.get("counters", {}).get("batches", 0.0)))
              for rid, r in rows])
    tenants: dict = pool.get("tenants_inflight", {})  # type: ignore[assignment]
    w.series("pool_tenant_inflight", "gauge",
             "In-flight requests per admitted tenant.",
             [(f'{{tenant="{c}"}}', float(v))
              for c, v in sorted(tenants.items())])
    return w.text()
