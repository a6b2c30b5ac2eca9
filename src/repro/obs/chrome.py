"""Chrome ``trace_event`` JSON export (chrome://tracing / Perfetto).

Layout:

- ``pid`` "requests" (1): one ``tid`` per request id carrying the request's
  lifetime span with its ``queue_wait`` / ``service`` phase children and the
  engine's layer/step/kernel tree — perfectly nested, so Perfetto renders
  the whole chain on one track.
- ``pid`` "workers" (2): one ``tid`` per worker with its ``batch`` spans.
- ``pid`` "counters" (3): counter tracks (``ph: "C"``) — queue depth
  sampled at every admission and each kernel's achieved GB/s.

The export is a pure function of the span roots and counter tracks it
is given (:func:`~repro.obs.trace.build_trace` derives both from a run's
event log): a seeded loadgen run produces a byte-identical file on every
invocation (sorted keys, fixed separators, no wall-clock anywhere).
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.obs.trace import Counters, Span

_PID_REQUESTS = 1
_PID_WORKERS = 2
_PID_COUNTERS = 3


def _meta(pid: int, name: str) -> dict:
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name}}


def _x_event(span: Span, pid: int, tid: int) -> dict:
    return {
        "name": span.name,
        "cat": span.kind,
        "ph": "X",
        "ts": span.start_us,
        "dur": span.duration_us,
        "pid": pid,
        "tid": tid,
        "args": span.attrs,
    }


def _emit_tree(span: Span, pid: int, tid: int, events: list[dict]) -> None:
    events.append(_x_event(span, pid, tid))
    for c in span.children:
        _emit_tree(c, pid, tid, events)


def chrome_trace(roots: Sequence[Span], counters: Counters) -> dict:
    """Span roots and counter tracks as a ``trace_event`` JSON object."""
    events: list[dict] = [
        _meta(_PID_REQUESTS, "requests"),
        _meta(_PID_WORKERS, "workers"),
        _meta(_PID_COUNTERS, "counters"),
    ]
    for root in roots:
        if root.kind == "request":
            _emit_tree(root, _PID_REQUESTS, int(root.attrs.get("rid", 0)),
                       events)
        elif root.kind == "batch":
            _emit_tree(root, _PID_WORKERS, int(root.attrs.get("worker", 0)),
                       events)
        else:
            _emit_tree(root, _PID_WORKERS, 0, events)
    # kernel-bandwidth counter track, derived from the kernel spans
    for root in roots:
        for sp in root.walk():
            if sp.kind == "kernel":
                events.append({
                    "name": "achieved_gbs", "ph": "C", "ts": sp.start_us,
                    "pid": _PID_COUNTERS, "tid": 0,
                    "args": {"GB/s": sp.attrs.get("achieved_gbs", 0.0)},
                })
    for track, samples in sorted(counters.items()):
        for ts, value in samples:
            events.append({
                "name": track, "ph": "C", "ts": ts,
                "pid": _PID_COUNTERS, "tid": 0,
                "args": {track: value},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(roots: Sequence[Span], counters: Counters) -> str:
    """Deterministic serialization of :func:`chrome_trace`."""
    return json.dumps(chrome_trace(roots, counters), sort_keys=True,
                      separators=(",", ":"))


def write_chrome_trace(path: str, roots: Sequence[Span],
                       counters: Counters) -> None:
    """Write the trace to ``path`` (open in chrome://tracing or Perfetto)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(chrome_trace_json(roots, counters))
        f.write("\n")
