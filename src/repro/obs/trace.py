"""Span trees linking serving requests to engine kernels, built after the run.

The span hierarchy mirrors the path one request takes through the system::

    request ── queue_wait / service          (driver clock: event timestamps)
                  └─ layer{i}                (engine clock: Timeline regions)
                        └─ step (kernel tag group)
                              └─ kernel      (one KernelRecord + its counters)

plus one ``batch`` span per dispatch on the owning worker's track. Every
kernel span carries the Fig. 11/12 profiling counters of its
:class:`~repro.gpu.counters.KernelRecord` as attributes (gld/gst
transactions, sm_efficiency, achieved GB/s), so a slow p99 request can be
traced down to the exact kernels and their memory behaviour.

There is no live span recorder. :func:`build_trace` derives a serving
run's whole trace from its flight-recorder
:class:`~repro.obs.events.EventLog`: the events hold every request and
batch timestamp, and every kernel cost in the cost model is a pure
function of shapes (serving requests carry no mask), so a request's
kernel tree is fixed by its ``seq_len`` and is taken from one zeros-input
run of the engine at that length. The derived trace is therefore
exactly the one a live recorder would have seen, and the serving hot
path records each transition once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.gpu.counters import KernelRecord, Timeline
from repro.obs.critical_path import EventsLike, _BatchInfo, _index, _RunIndex
from repro.obs.events import admission_order, depth_change

if TYPE_CHECKING:
    from repro.runtime.engine import Engine, EngineResult

#: Counter tracks: track name -> ``(ts_us, value)`` samples in time order.
Counters = dict[str, list[tuple[float, float]]]


@dataclass
class Span:
    """One named interval with attributes and child spans."""

    name: str
    kind: str  # "request" | "phase" | "batch" | "layer" | "step" | "kernel"
    start_us: float
    end_us: float
    attrs: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        """The span's wall time on its driver's clock."""
        return self.end_us - self.start_us

    def child(self, name: str, kind: str, start_us: float, end_us: float,
              attrs: dict[str, object] | None = None) -> "Span":
        """Create and attach one child span."""
        sp = Span(name=name, kind=kind, start_us=start_us, end_us=end_us,
                  attrs=attrs or {})
        self.children.append(sp)
        return sp

    def walk(self):
        """Yield this span then every descendant, depth-first."""
        yield self
        for c in self.children:
            yield from c.walk()

    def rollup(self) -> dict[str, float]:
        """Aggregate kernel counters over this subtree.

        Returns kernel count, summed kernel wall time and gld/gst
        transactions, and the time-weighted mean sm_efficiency / aggregate
        achieved bandwidth of the covered kernels.
        """
        kernels = [s for s in self.walk() if s.kind == "kernel"]
        time_us = sum(k.duration_us for k in kernels)
        out = {
            "kernels": float(len(kernels)),
            "kernel_time_us": time_us,
            "gld_transactions": float(
                sum(k.attrs.get("gld_transactions", 0) for k in kernels)),
            "gst_transactions": float(
                sum(k.attrs.get("gst_transactions", 0) for k in kernels)),
        }
        bytes_total = sum(k.attrs.get("bytes", 0.0) for k in kernels)
        exec_us = sum(k.attrs.get("exec_time_us", 0.0) for k in kernels)
        out["achieved_gbs"] = bytes_total / exec_us / 1e3 if exec_us else 0.0
        out["sm_efficiency"] = (
            sum(k.attrs.get("sm_efficiency", 0.0) * k.duration_us
                for k in kernels) / time_us if time_us else 0.0)
        return out


def _kernel_attrs(rec: KernelRecord, device) -> dict[str, object]:
    """The Fig. 11/12 counters of one kernel record, as span attributes."""
    return {
        "tag": rec.tag,
        "gld_transactions": rec.cost.gld_transactions(device),
        "gst_transactions": rec.cost.gst_transactions(device),
        "sm_efficiency": rec.sm_efficiency(device),
        "achieved_gbs": rec.cost.achieved_bw_gbs(device),
        "bytes": rec.cost.bytes_total,
        "flops": rec.cost.flops,
        "exec_time_us": rec.exec_time_us,
        "memory_bound": rec.cost.is_memory_bound(device),
    }


def engine_spans(timeline: Timeline, parent: Span,
                 choices: dict[str, str] | None = None,
                 t0_us: float = 0.0,
                 kernel_attrs: list[dict[str, object]] | None = None
                 ) -> float:
    """Attach one engine run's kernel tree under ``parent``.

    The cost model's stream is serial, so kernels are laid end to end from
    ``t0_us``; the timeline's nested region labels (``layer{i}``, and
    ``request{i}/layer{j}`` after :meth:`Engine.run_batch` merging) become
    nested spans, with one extra ``step`` level grouping consecutive
    same-tag kernels (the paper's attention steps ①–⑦). ``kernel_attrs``
    (one per record) saves recomputing counters for a reused timeline.
    Returns the cursor after the last kernel.
    """
    choices = choices or {}
    if kernel_attrs is None:
        kernel_attrs = [_kernel_attrs(rec, timeline.device)
                        for rec in timeline.records]
    cursor = t0_us
    stack: list[tuple[str, Span]] = []  # (region segment, open span)
    step: Span | None = None
    for rec, counters in zip(timeline.records, kernel_attrs):
        path = [p for p in rec.region.split("/") if p] if rec.region else []
        # close region spans that the new record is no longer inside
        keep = 0
        while keep < len(stack) and keep < len(path) \
                and stack[keep][0] == path[keep]:
            keep += 1
        for _, sp in reversed(stack[keep:]):
            sp.end_us = cursor
        if len(stack) > keep:
            step = None
        del stack[keep:]
        # open the new record's region spans
        for seg in path[len(stack):]:
            owner = stack[-1][1] if stack else parent
            kind = "layer" if seg.startswith("layer") else "region"
            attrs: dict[str, object] = {}
            impl = choices.get(f"{seg}.attention")
            if impl is not None:
                attrs["attention"] = impl
            sp = owner.child(seg, kind, cursor, cursor, attrs)
            stack.append((seg, sp))
            step = None
        owner = stack[-1][1] if stack else parent
        tag = rec.tag or rec.name
        if step is None or step.name != tag:
            step = owner.child(tag, "step", cursor, cursor)
        step.child(rec.name, "kernel", cursor, cursor + rec.time_us,
                   counters)
        cursor += rec.time_us
        step.end_us = cursor
    for _, sp in reversed(stack):
        sp.end_us = cursor
    return cursor


def _batch_spans(idx: _RunIndex, batch: _BatchInfo, engine: "Engine",
                 runs: dict[int, "EngineResult"],
                 kernel_attrs: dict[int, list[dict[str, object]]]
                 ) -> list[Span]:
    """One executed batch: its ``batch`` span, then one ``request`` span
    per member with its ``queue_wait``/``service`` phases.

    Members are laid in queue order (admission time, then rid — the
    order of the batcher's per-bucket FIFO) and their kernel
    trees serially inside the batch window, exactly how the
    single-stream cost model spends the service time.
    """
    start = batch.dispatch_us
    spans = [Span(f"batch{batch.batch_id}", "batch", start, batch.end_us, {
        "batch_id": batch.batch_id, "bucket": batch.bucket,
        "size": batch.size, "worker": batch.replica, "engine": engine.name,
    })]
    cursor = start
    for rid in sorted(batch.members, key=lambda r: (idx.admit_us[r], r)):
        done, arrival = idx.complete[rid], idx.admit_us[rid]
        run = runs[done.seq_len]  # type: ignore[index]
        sp = Span(f"request{rid}", "request", arrival, done.ts_us, {
            "rid": rid, "seq_len": done.seq_len, "bucket": batch.bucket,
            "batch_id": batch.batch_id, "batch_size": batch.size,
            "engine": engine.name, "client": done.tenant,
            "otf_regime": "/".join(sorted(set(run.choices.values()))),
            "status": "ok",
        })
        sp.child("queue_wait", "phase", arrival, start)
        service = sp.child("service", "phase", start, done.ts_us,
                           {"batch_id": batch.batch_id})
        cursor = engine_spans(run.timeline, service, run.choices, cursor,
                              kernel_attrs[done.seq_len])  # type: ignore[index]
        spans.append(sp)
    return spans


def build_trace(events: EventsLike, engine: "Engine"
                ) -> tuple[list[Span], Counters]:
    """A serving run's span roots and counter tracks, from its event log.

    ``engine`` is the engine the run served with. Roots come in
    canonical event order: a ``rejected`` request span at each
    ``queue_full`` rejection, and each completed batch's spans at the
    dispatch it finished on (checkpoints, members and replicas from the
    critical-path index). The ``queue_depth`` track samples the depth
    before each admission (:func:`~repro.obs.events.depth_change`, as the
    metrics registry counts it). Each distinct ``seq_len`` runs
    the engine once on a zeros input for its kernel records and attention
    choices, and its kernels' counters are computed once.
    """
    idx = _index(events)
    d_model = engine.weights.config.d_model
    runs = {s: engine.run(np.zeros((s, d_model)))
            for s in sorted({e.seq_len for e in idx.complete.values()})}
    kernel_attrs = {s: [_kernel_attrs(rec, run.timeline.device)
                        for rec in run.timeline.records]
                    for s, run in runs.items()}
    roots: list[Span] = []
    depth_samples: list[tuple[float, float]] = []
    depth = 0
    laid: set[int] = set()
    for e in admission_order(idx.events):
        if e.kind == "admit":
            depth_samples.append((e.ts_us, float(depth)))
        depth += depth_change(e.kind, e.fields)
        if e.kind == "reject" and e.detail == "queue_full":
            roots.append(Span(f"request{e.rid}", "request", e.ts_us,
                              e.ts_us, {"rid": e.rid, "seq_len": e.seq_len,
                                        "client": e.tenant,
                                        "status": "rejected"}))
        elif e.kind == "dispatch" and e.batch_id not in laid:
            batch = idx.batches.get(e.batch_id)  # type: ignore[arg-type]
            if batch is not None and batch.members \
                    and e.ts_us == batch.dispatch_us:
                laid.add(batch.batch_id)
                roots.extend(_batch_spans(idx, batch, engine, runs,
                                          kernel_attrs))
    return roots, {"queue_depth": depth_samples}


def render_span_tree(span: Span, indent: str = "") -> str:
    """Pretty-print one span subtree with per-span counter rollups.

    Kernel leaves print their own counters; interior spans print the rollup
    of the kernels they cover. Used by ``python -m repro trace``.
    """
    lines = []
    if span.kind == "kernel":
        a = span.attrs
        lines.append(
            f"{indent}{span.name:<24} {span.duration_us:9.2f} us  "
            f"gld={a['gld_transactions']:<8} gst={a['gst_transactions']:<7} "
            f"sm_eff={a['sm_efficiency']:.2f} bw={a['achieved_gbs']:.1f} GB/s")
    else:
        r = span.rollup()
        extra = "".join(
            f" {k}={v}" for k, v in span.attrs.items()
            if k in ("attention", "rid", "seq_len", "bucket", "engine"))
        lines.append(
            f"{indent}{span.name} [{span.kind}] {span.duration_us:.2f} us  "
            f"({int(r['kernels'])} kernels, gld={int(r['gld_transactions'])},"
            f" gst={int(r['gst_transactions'])},"
            f" sm_eff={r['sm_efficiency']:.2f},"
            f" bw={r['achieved_gbs']:.1f} GB/s){extra}")
        for c in span.children:
            lines.append(render_span_tree(c, indent + "  "))
    return "\n".join(lines)
