"""Observability: one flight recorder, and the exports derived from it.

While a run serves, the serving layer records one thing: the stream of
flight-recorder events, one per request or batch transition. The
:class:`~repro.serving.metrics.MetricsRegistry` folds it live, an
:class:`EventLog` keeps it when asked, and the rest is built from that
log afterwards:

- **Chrome ``trace_event`` JSON** (:func:`build_trace`, then
  :func:`write_chrome_trace`) — request ── queue_wait / service ── layer
  ── step ── kernel, with the Fig. 11/12 counters on every kernel span
  and counter tracks for queue depth and achieved GB/s. Every kernel
  cost is a pure function of shapes, so one engine run at a request's
  ``seq_len`` rebuilds its kernel tree exactly.
- **Waterfalls, trace diffs and roofline attribution**
  (:mod:`~repro.obs.critical_path`, :mod:`~repro.obs.diff`,
  :mod:`~repro.obs.attribution`).
- **Prometheus text exposition** (:func:`prometheus_text`) — whole-run
  registry aggregates plus the rolling-window gauges of
  :class:`WindowedMetrics` (live p50/p95/p99, EWMA throughput, per-bucket
  batch-size histograms). ``MetricsRegistry.from_events`` replays a
  recorded log through the live fold, so the page rebuilds from the log
  alone.

Keeping the log is opt-in: every driver defaults to
:data:`NULL_EVENT_LOG`, which keeps nothing, and the cost model's
reported numbers are identical either way.
"""

from repro.obs.attribution import attribute, report_json, write_report
from repro.obs.chrome import chrome_trace, chrome_trace_json, write_chrome_trace
from repro.obs.critical_path import (
    EXPLAIN_VERSION,
    STAGES,
    Waterfall,
    build_waterfalls,
    critical_path,
    explain_report,
    littles_law,
    slowest_requests,
    stage_shares,
    stage_totals,
)
from repro.obs.diff import DIFF_VERSION, diff_events, diff_is_empty, render_diff
from repro.obs.events import (
    EVENT_KINDS,
    NULL_EVENT_LOG,
    Event,
    EventLog,
    NullEventLog,
    read_events,
    write_events,
)
from repro.obs.history import (
    GATED_METRICS,
    Regression,
    append_history,
    attribute_regression,
    check_regressions,
    load_history,
)
from repro.obs.prometheus import pool_prometheus_text, prometheus_text
from repro.obs.slo import SloPolicy, SloTracker
from repro.obs.trace import Span, build_trace, engine_spans, render_span_tree
from repro.obs.windowed import WindowedMetrics

__all__ = [
    "DIFF_VERSION",
    "EVENT_KINDS",
    "EXPLAIN_VERSION",
    "Event",
    "EventLog",
    "GATED_METRICS",
    "NULL_EVENT_LOG",
    "NullEventLog",
    "Regression",
    "STAGES",
    "SloPolicy",
    "SloTracker",
    "Span",
    "Waterfall",
    "WindowedMetrics",
    "append_history",
    "attribute",
    "attribute_regression",
    "build_trace",
    "build_waterfalls",
    "check_regressions",
    "chrome_trace",
    "chrome_trace_json",
    "critical_path",
    "diff_events",
    "diff_is_empty",
    "engine_spans",
    "explain_report",
    "littles_law",
    "load_history",
    "pool_prometheus_text",
    "prometheus_text",
    "read_events",
    "render_diff",
    "render_span_tree",
    "report_json",
    "slowest_requests",
    "stage_shares",
    "stage_totals",
    "write_chrome_trace",
    "write_events",
    "write_report",
]
