#!/usr/bin/env python
"""Validate a Chrome trace + Prometheus exposition produced by the CLI.

Usage::

    python tools/check_trace.py trace.json metrics.prom [events.jsonl]

Checks (the CI trace-smoke step runs this against a ``loadgen`` run):

- the trace is valid ``trace_event`` JSON: a ``traceEvents`` list whose
  events carry ``name``/``ph``/``pid``/``tid`` (and ``ts``/``dur`` for
  complete events), i.e. it loads in chrome://tracing and Perfetto;
- every completed request has the full span chain
  request → queue_wait/service → layer → kernel, each span nested inside
  its parent's time window, and a matching ``batch`` span exists;
- kernel spans carry the Fig. 11/12 profiling counters
  (``gld_transactions``, ``gst_transactions``, ``sm_efficiency``,
  ``achieved_gbs``);
- counter tracks exist for queue depth and achieved GB/s;
- the metrics file parses as Prometheus text exposition (0.0.4) and
  contains every required series;
- the (optional) flight-recorder event log parses as JSONL, every
  object's keys are known schema fields, every kind is a known kind,
  lines are in canonical virtual-time order (globally sorted, per-rid
  nondecreasing timestamps), and every admitted rid reaches exactly one
  terminal event (complete / reject / quota_reject);
- waterfall invariants: every completed rid reconstructs to a stage
  waterfall whose stages are contiguous, non-negative, and partition the
  measured latency (complete − admit) exactly, and the Little's-law
  cross-check (time-integrated queue depth vs λ·W) has ~zero residual;
- the metrics file is the fold of the event log: the registry rebuilt
  from the log alone (``MetricsRegistry.from_events``) renders the
  file's serving series byte for byte (a pool page appends its replica
  series after them).

Exit codes identify which contract broke (CI log triage):

- ``0`` — every artifact passes every check;
- ``2`` — usage error (argparse);
- ``3`` — the Chrome trace failed structural validation;
- ``4`` — the Prometheus exposition failed validation;
- ``5`` — more than one artifact failed;
- ``6`` — the event log failed validation;
- ``7`` — the metrics file is not the fold of the event log.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs.critical_path import (  # noqa: E402
    STAGES,
    build_waterfalls,
    littles_law,
)
from repro.obs.events import (  # noqa: E402
    EVENT_FIELDS,
    EVENT_KINDS,
    TERMINAL_KINDS,
    Event,
    read_events,
)
from repro.obs.prometheus import prometheus_text  # noqa: E402
from repro.serving.metrics import MetricsRegistry  # noqa: E402

EXIT_OK = 0
EXIT_TRACE = 3
EXIT_METRICS = 4
EXIT_BOTH = 5
EXIT_EVENTS = 6
EXIT_FOLD = 7

REQUIRED_KERNEL_ARGS = ("gld_transactions", "gst_transactions",
                        "sm_efficiency", "achieved_gbs")
REQUIRED_METRICS = (
    "repro_requests_completed_total",
    "repro_requests_rejected_total",
    "repro_latency_us",
    "repro_throughput_seq_s",
    "repro_window_latency_us",
    "repro_throughput_ewma_seq_s",
    "repro_batch_size_bucket",
)

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"               # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""    # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"  # more labels
    r" -?[0-9.eE+-]+(e[+-][0-9]+)?$")
_HEADER_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def _inside(child: dict, parent: dict, tol: float = 1e-6) -> bool:
    """Whether a complete event's window nests inside another's."""
    c0, c1 = child["ts"], child["ts"] + child.get("dur", 0.0)
    p0, p1 = parent["ts"], parent["ts"] + parent.get("dur", 0.0)
    return c0 >= p0 - tol and c1 <= p1 + tol


def check_trace(path: str, errors: list[str]) -> None:
    """Structural checks on one Chrome ``trace_event`` JSON file."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"trace: cannot load {path}: {e}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append("trace: traceEvents missing or empty")
        return
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                errors.append(f"trace: event {i} lacks {key!r}")
                return
        if ev["ph"] == "X" and ("ts" not in ev or "dur" not in ev):
            errors.append(f"trace: complete event {i} lacks ts/dur")
            return

    xs = [e for e in events if e["ph"] == "X"]
    requests = [e for e in xs if e.get("cat") == "request"]
    batches = {e["args"].get("batch_id"): e for e in xs
               if e.get("cat") == "batch"}
    counters = {e["name"] for e in events if e["ph"] == "C"}
    if not requests:
        errors.append("trace: no request spans")
        return
    served = [e for e in requests if e["args"].get("status") == "ok"]
    if not served:
        errors.append("trace: no served request spans")
        return
    by_track: dict[tuple, list[dict]] = {}
    for e in xs:
        by_track.setdefault((e["pid"], e["tid"]), []).append(e)
    for req in served:
        rid = req["args"].get("rid")
        track = by_track[(req["pid"], req["tid"])]
        kinds = {e.get("cat") for e in track if _inside(e, req)}
        missing = {"phase", "layer", "kernel"} - kinds
        if missing:
            errors.append(f"trace: request {rid} chain lacks {missing}")
            continue
        names = {e["name"] for e in track if e.get("cat") == "phase"
                 and _inside(e, req)}
        if not {"queue_wait", "service"} <= names:
            errors.append(f"trace: request {rid} lacks queue_wait/service "
                          f"phases (got {sorted(names)})")
        bid = req["args"].get("batch_id")
        if bid not in batches:
            errors.append(f"trace: request {rid} references missing "
                          f"batch {bid}")
        for kern in (e for e in track if e.get("cat") == "kernel"
                     and _inside(e, req)):
            lacking = [a for a in REQUIRED_KERNEL_ARGS
                       if a not in kern.get("args", {})]
            if lacking:
                errors.append(f"trace: kernel {kern['name']} of request "
                              f"{rid} lacks counters {lacking}")
                break
    for track_name in ("queue_depth", "achieved_gbs"):
        if track_name not in counters:
            errors.append(f"trace: no {track_name!r} counter track")
    print(f"trace: {len(requests)} request spans ({len(served)} served), "
          f"{len(batches)} batches, counter tracks: {sorted(counters)}")


def check_metrics(path: str, errors: list[str]) -> None:
    """Line-level validation of one Prometheus text-exposition file."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        errors.append(f"metrics: cannot read {path}: {e}")
        return
    names = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            if not _HEADER_RE.match(line):
                errors.append(f"metrics: bad header line {lineno}: {line!r}")
            continue
        if not _SAMPLE_RE.match(line):
            errors.append(f"metrics: bad sample line {lineno}: {line!r}")
            continue
        names.add(re.split(r"[{ ]", line, maxsplit=1)[0])
    for required in REQUIRED_METRICS:
        if required not in names:
            errors.append(f"metrics: series {required!r} missing")
    print(f"metrics: {len(names)} series validated")


def check_events(path: str, errors: list[str]) -> None:
    """Schema + lifecycle validation of one flight-recorder JSONL log."""
    n_prior_errors = len(errors)
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        errors.append(f"events: cannot read {path}: {e}")
        return
    known_fields = set(EVENT_FIELDS)
    events: list[dict] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            errors.append(f"events: blank line {lineno} (canonical JSONL "
                          "has no blank lines)")
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"events: line {lineno} is not JSON: {e}")
            return
        if not isinstance(obj, dict):
            errors.append(f"events: line {lineno} is not an object")
            return
        unknown = set(obj) - known_fields
        if unknown:
            errors.append(f"events: line {lineno} has unknown fields "
                          f"{sorted(unknown)}")
        if "ts_us" not in obj or "kind" not in obj:
            errors.append(f"events: line {lineno} lacks ts_us/kind")
            return
        if obj["kind"] not in EVENT_KINDS:
            errors.append(f"events: line {lineno} has unknown kind "
                          f"{obj['kind']!r}")
            return
        events.append(obj)
    if not events:
        errors.append("events: no events")
        return

    # Canonical order: the file must be globally sorted by the schema's
    # virtual-time key, which implies per-rid nondecreasing timestamps.
    def key(obj: dict) -> tuple:
        return Event(ts_us=obj["ts_us"], kind=obj["kind"],
                     rid=obj.get("rid"),
                     batch_id=obj.get("batch_id")).sort_key()

    keys = [key(obj) for obj in events]
    for i in range(1, len(keys)):
        if keys[i] < keys[i - 1]:
            errors.append(f"events: line {i + 1} out of canonical order "
                          f"({keys[i]} after {keys[i - 1]})")
            break
    last_ts: dict[int, float] = {}
    for lineno, obj in enumerate(events, 1):
        rid = obj.get("rid")
        if rid is None:
            continue
        if obj["ts_us"] < last_ts.get(rid, float("-inf")):
            errors.append(f"events: line {lineno} rid {rid} timestamp "
                          "went backwards")
            break
        last_ts[rid] = obj["ts_us"]

    # Lifecycle: every admitted rid reaches exactly one terminal event.
    admitted = {obj["rid"] for obj in events
                if obj["kind"] == "admit" and "rid" in obj}
    terminals: dict[int, int] = {}
    for obj in events:
        if obj["kind"] in TERMINAL_KINDS and "rid" in obj:
            terminals[obj["rid"]] = terminals.get(obj["rid"], 0) + 1
    unterminated = sorted(admitted - set(terminals))
    if unterminated:
        errors.append(f"events: admitted rids never terminated: "
                      f"{unterminated[:10]}"
                      + (" ..." if len(unterminated) > 10 else ""))
    multi = sorted(r for r, n in terminals.items() if n > 1)
    if multi:
        errors.append(f"events: rids with multiple terminal events: "
                      f"{multi[:10]}")
    unadmitted = sorted(set(terminals) - admitted)
    if unadmitted:
        errors.append(f"events: terminal events for never-admitted rids: "
                      f"{unadmitted[:10]}")

    # Waterfall invariants: the per-request stages reconstructed by the
    # attribution layer must be non-negative and partition each completed
    # rid's measured latency exactly, and Little's law must reconcile.
    # Only meaningful over a structurally valid log — skip if the schema
    # or lifecycle checks above already failed.
    if len(errors) > n_prior_errors:
        return
    typed = [Event(ts_us=float(obj["ts_us"]), kind=obj["kind"],
                   **{k: v for k, v in obj.items()
                      if k not in ("ts_us", "kind")})
             for obj in events]
    completed = {obj["rid"] for obj in events
                 if obj["kind"] == "complete" and "rid" in obj}
    waterfalls = build_waterfalls(typed)
    if len(waterfalls) != len(completed):
        missing = sorted(completed - {w.rid for w in waterfalls})
        errors.append(f"events: completed rids with no reconstructable "
                      f"waterfall: {missing[:10]}")
    for w in waterfalls:
        partition = sum(w.stages[s] for s in STAGES)
        if abs(partition - w.latency_us) > 1e-6:
            errors.append(
                f"events: rid {w.rid} stages sum to {partition} but "
                f"latency is {w.latency_us} (waterfall must partition "
                "measured latency exactly)")
            break
        negative = [s for s in STAGES if w.stages[s] < -1e-9]
        if negative:
            errors.append(f"events: rid {w.rid} has negative stage "
                          f"durations {negative}")
            break
    law = littles_law(typed)
    if abs(law["residual"]) > 1e-6 * max(1.0, law["mean_queue_depth"]):
        errors.append(f"events: Little's-law residual {law['residual']} "
                      f"(L={law['mean_queue_depth']} vs "
                      f"λW={law['product_depth']})")
    kinds = sorted({obj["kind"] for obj in events})
    print(f"events: {len(events)} events, {len(admitted)} admitted rids, "
          f"{len(waterfalls)} waterfalls partition latency exactly, "
          f"Little's-law residual {law['residual']:g}, kinds: {kinds}")


def check_fold(events_path: str, metrics_path: str,
               errors: list[str]) -> None:
    """The metrics page must equal the fold of the event log."""
    try:
        folded = prometheus_text(
            MetricsRegistry.from_events(read_events(events_path)))
        with open(metrics_path, encoding="utf-8") as f:
            page = f.read()
    except (OSError, ValueError, KeyError) as e:
        errors.append(f"fold: cannot fold {events_path}: {e!r}")
        return
    if not page.startswith(folded):
        for lineno, (want, got) in enumerate(
                zip(folded.splitlines(), page.splitlines()), 1):
            if want != got:
                errors.append(f"fold: {metrics_path} line {lineno} reads "
                              f"{got!r}; the fold of the log gives {want!r}")
                return
        errors.append(f"fold: {metrics_path} ends before the folded page")
        return
    print(f"fold: the {len(folded.splitlines())}-line serving page "
          "rebuilds from the event log exactly")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python tools/check_trace.py",
        description="Validate a Chrome trace_event JSON file and a "
                    "Prometheus text-exposition file produced by "
                    "'python -m repro loadgen/serve'.",
        epilog="Exit codes: 0 ok, 2 usage, 3 trace invalid, "
               "4 metrics invalid, 5 several invalid, 6 events invalid, "
               "7 metrics not the fold of the events.",
    )
    parser.add_argument(
        "trace",
        help="Chrome trace_event JSON (from --trace-out); checked for "
             "span-chain completeness and Fig. 11/12 kernel counters")
    parser.add_argument(
        "metrics",
        help="Prometheus 0.0.4 text exposition (from --metrics-out); "
             "checked line-by-line and for required series")
    parser.add_argument(
        "events", nargs="?", default=None,
        help="flight-recorder JSONL event log (from --events-out); "
             "checked for schema, canonical ordering, terminal "
             "reachability of every admitted rid, and that the metrics "
             "file is its fold")
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    trace_errors: list[str] = []
    metrics_errors: list[str] = []
    events_errors: list[str] = []
    fold_errors: list[str] = []
    check_trace(args.trace, trace_errors)
    check_metrics(args.metrics, metrics_errors)
    if args.events is not None:
        check_events(args.events, events_errors)
        check_fold(args.events, args.metrics, fold_errors)
    for err in trace_errors + metrics_errors + events_errors + fold_errors:
        print(f"FAIL: {err}", file=sys.stderr)
    failed = [bool(trace_errors), bool(metrics_errors), bool(events_errors),
              bool(fold_errors)]
    if sum(failed) > 1:
        return EXIT_BOTH
    if trace_errors:
        return EXIT_TRACE
    if metrics_errors:
        return EXIT_METRICS
    if events_errors:
        return EXIT_EVENTS
    if fold_errors:
        return EXIT_FOLD
    print("OK: all artifacts pass every check")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
