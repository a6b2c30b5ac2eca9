"""Critical-path latency attribution over the flight recorder.

Reconstructs, purely from one :class:`~repro.obs.events.EventLog`, the
two views every Fig. 7/8-style comparison reduces to:

**Per-request waterfall.** Each completed rid's end-to-end latency is
partitioned *exactly* into contiguous stages::

    admission | bucket_fill | replica_wait | hol_blocking |
    dispatch_wait | execution | collection

``admission`` is admit → enqueue; the queue wait (enqueue →
batch_formed) is split three ways — *bucket_fill* (waiting for the last
batchmate to arrive), *replica_wait* (the portion of the remaining wait
during which every replica was busy), and *hol_blocking* (a replica was
free but older work went first, or the batcher held the bucket open);
``dispatch_wait`` is batch_formed → dispatch (a batch handed back after
a replica death waits here), ``execution`` is dispatch → the batch's
end (its ``exec`` event, else its members' completion), and
``collection`` is that end → complete. Stage durations are differences of monotonically clamped
checkpoints, so they are non-negative and telescope to
``complete.ts - admit.ts`` to the last bit — :mod:`tools.check_trace`
and the property tests enforce this for every backend.

**Makespan critical path.** Walking back from the last-finishing batch,
each link's start is classified: ``resource`` (the replica freed exactly
then — the predecessor batch bounds it), ``arrival`` (the last batchmate
arrived exactly then — the arrival process bounds it), or ``batching``
(the batcher's deadline or a wall-clock gap bounds it). The chain of
``resource`` edges is the pool's binding sequence of batches.

A Little's-law consistency check computes the time-averaged queue depth
two independent ways — sweep-integrating the reconstructed depth step
function, and ``λ·W`` from per-request waits — and reports the residual,
which is ~0 for any well-paired log (mis-paired enqueue/leave events
show up here immediately).

Everything is a pure function of the event log (etlint ET301: no wall
clock, no RNG), so a seeded run explains to a byte-identical report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from repro.eval.metrics import percentile
from repro.obs.events import Event, EventLog

#: Schema version of the ``explain`` report (bump on breaking changes).
EXPLAIN_VERSION = 1

#: Per-request stages in lifecycle order; durations partition latency.
STAGES = ("admission", "bucket_fill", "replica_wait", "hol_blocking",
          "dispatch_wait", "execution", "collection")

#: Timestamp-match tolerance (us) when classifying critical-path edges.
#: Virtual-time runs match exactly; wall-clock runs rarely match and fall
#: through to the ``batching`` catch-all edge.
EDGE_EPS_US = 1e-3

EventsLike = Union[EventLog, Sequence[Event]]

_Interval = tuple[float, float]


def _round(x: float, nd: int = 6) -> float:
    return round(float(x), nd)


def _events_of(src: EventsLike) -> list[Event]:
    """Normalize to a canonically sorted event list."""
    if isinstance(src, EventLog):
        return src.sorted_events()
    return sorted(src, key=Event.sort_key)


# --------------------------------------------------------------------------
# per-request waterfalls
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Waterfall:
    """One completed request's latency, partitioned into stages."""

    rid: int
    batch_id: int
    bucket: int | None
    seq_len: int | None
    tenant: int | None
    replica: int | None
    admit_us: float
    complete_us: float
    stages: Mapping[str, float]

    @property
    def latency_us(self) -> float:
        """End-to-end latency (what the stages sum to)."""
        return self.complete_us - self.admit_us

    @property
    def blame(self) -> str:
        """The stage that contributed the most latency (earliest on ties)."""
        return max(STAGES, key=lambda s: (self.stages[s], -STAGES.index(s)))

    def to_dict(self) -> dict[str, object]:
        """Stable JSON form (rounded, fixed key set)."""
        return {
            "rid": self.rid,
            "batch_id": self.batch_id,
            "bucket": self.bucket,
            "seq_len": self.seq_len,
            "tenant": self.tenant,
            "replica": self.replica,
            "latency_us": _round(self.latency_us),
            "blame": self.blame,
            "stages_us": {s: _round(self.stages[s]) for s in STAGES},
        }


@dataclass(frozen=True)
class _BatchInfo:
    """One batch's reconstructed lifecycle checkpoints."""

    batch_id: int
    formed_us: float
    dispatch_us: float
    end_us: float
    replica: int | None
    bucket: int | None
    size: int | None
    members: tuple[int, ...]
    last_enqueue_us: float


@dataclass(frozen=True)
class _RunIndex:
    """Everything the attribution passes need, indexed once."""

    events: list[Event]
    admit_us: dict[int, float]
    enqueue_us: dict[int, float]
    complete: dict[int, Event]
    rejects: dict[int, Event]
    batches: dict[int, _BatchInfo]
    num_replicas: int
    all_busy: list[_Interval]


def _merge(intervals: list[_Interval]) -> list[_Interval]:
    """Union of intervals as a sorted disjoint list."""
    out: list[_Interval] = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return out


def _all_busy_intervals(per_replica: dict[int, list[_Interval]],
                        num_replicas: int) -> list[_Interval]:
    """Times when every one of ``num_replicas`` replicas was executing."""
    if num_replicas <= 0 or len(per_replica) < num_replicas:
        return []
    points: list[tuple[float, int]] = []
    for ivs in per_replica.values():
        for s, e in _merge(ivs):
            points.append((s, 1))
            points.append((e, -1))
    points.sort()
    out: list[_Interval] = []
    count = 0
    start = 0.0
    for t, d in points:
        prev = count
        count += d
        if prev < num_replicas <= count:
            start = t
        elif count < num_replicas <= prev and t > start:
            out.append((start, t))
    return out


def _overlap_us(a: float, b: float, intervals: list[_Interval]) -> float:
    """Measure of ``[a, b] ∩ intervals`` (intervals sorted, disjoint)."""
    total = 0.0
    for s, e in intervals:
        lo, hi = max(a, s), min(b, e)
        if hi > lo:
            total += hi - lo
    return min(total, max(0.0, b - a))


def _index(events: EventsLike, num_replicas: int | None = None) -> _RunIndex:
    evs = _events_of(events)
    admit_us: dict[int, float] = {}
    enqueue_us: dict[int, float] = {}
    complete: dict[int, Event] = {}
    rejects: dict[int, Event] = {}
    formed_us: dict[int, float] = {}
    dispatches: dict[int, list[Event]] = {}
    exec_us: dict[int, Event] = {}
    members: dict[int, list[int]] = {}
    meta: dict[int, Event] = {}  # bucket/size source: first batch event
    for e in evs:
        if e.kind == "admit" and e.rid is not None:
            admit_us.setdefault(e.rid, e.ts_us)
        elif e.kind == "enqueue" and e.rid is not None:
            enqueue_us.setdefault(e.rid, e.ts_us)
        elif e.kind == "complete" and e.rid is not None:
            complete.setdefault(e.rid, e)
        elif e.kind in ("reject", "quota_reject") and e.rid is not None:
            rejects.setdefault(e.rid, e)
        elif e.kind == "batch_formed" and e.batch_id is not None:
            formed_us.setdefault(e.batch_id, e.ts_us)
            meta.setdefault(e.batch_id, e)
        elif e.kind == "dispatch" and e.batch_id is not None:
            dispatches.setdefault(e.batch_id, []).append(e)
            meta.setdefault(e.batch_id, e)
        elif e.kind == "exec" and e.batch_id is not None:
            exec_us.setdefault(e.batch_id, e)
    for rid, ev in complete.items():
        if ev.batch_id is not None:
            members.setdefault(ev.batch_id, []).append(rid)

    batches: dict[int, _BatchInfo] = {}
    for bid in sorted(set(formed_us) | set(dispatches) | set(members)):
        rids = tuple(sorted(members.get(bid, ())))
        ends = [complete[r].ts_us for r in rids]
        exec_ev = exec_us.get(bid)
        end = exec_ev.ts_us if exec_ev is not None else (
            max(ends) if ends else None)
        if end is None:
            continue  # batch never finished (death without rebook): skip
        disp_evs = dispatches.get(bid, [])
        live = [d for d in disp_evs if d.ts_us <= end + EDGE_EPS_US]
        disp = max(live, key=lambda d: d.ts_us) if live else (
            max(disp_evs, key=lambda d: d.ts_us) if disp_evs else None)
        replica = (exec_ev.replica if exec_ev is not None and
                   exec_ev.replica is not None
                   else disp.replica if disp is not None else None)
        info_src = meta.get(bid)
        last_enq = max((enqueue_us[r] for r in rids if r in enqueue_us),
                       default=formed_us.get(bid, end))
        batches[bid] = _BatchInfo(
            batch_id=bid,
            formed_us=formed_us.get(bid, disp.ts_us if disp else end),
            dispatch_us=disp.ts_us if disp is not None else
            formed_us.get(bid, end),
            end_us=end,
            replica=replica,
            bucket=info_src.bucket if info_src is not None else None,
            size=info_src.size if info_src is not None else len(rids),
            members=rids,
            last_enqueue_us=last_enq,
        )

    seen = sorted({b.replica for b in batches.values()
                   if b.replica is not None})
    n_rep = num_replicas if num_replicas is not None else len(seen)
    per_replica: dict[int, list[_Interval]] = {}
    for b in batches.values():
        if b.replica is not None and b.end_us > b.dispatch_us:
            per_replica.setdefault(b.replica, []).append(
                (b.dispatch_us, b.end_us))
    return _RunIndex(
        events=evs, admit_us=admit_us, enqueue_us=enqueue_us,
        complete=complete, rejects=rejects, batches=batches,
        num_replicas=n_rep,
        all_busy=_all_busy_intervals(per_replica, n_rep),
    )


def _waterfall_of(idx: _RunIndex, rid: int) -> Waterfall | None:
    done = idx.complete.get(rid)
    if done is None or done.batch_id is None:
        return None
    batch = idx.batches.get(done.batch_id)
    if batch is None:
        return None
    t_admit = idx.admit_us.get(rid, done.ts_us)
    t_complete = done.ts_us
    # Checkpoints, clamped monotone and capped at completion so the stage
    # durations are non-negative and telescope exactly to the latency.
    raw = [t_admit,
           idx.enqueue_us.get(rid, t_admit),
           batch.last_enqueue_us,
           batch.formed_us,
           batch.dispatch_us,
           batch.end_us,
           t_complete]
    pts = [raw[0]]
    for value in raw[1:]:
        pts.append(max(pts[-1], value))
    pts = [min(p, t_complete) for p in pts]
    replica_wait = _overlap_us(pts[2], pts[3], idx.all_busy)
    stages = {
        "admission": pts[1] - pts[0],
        "bucket_fill": pts[2] - pts[1],
        "replica_wait": replica_wait,
        "hol_blocking": (pts[3] - pts[2]) - replica_wait,
        "dispatch_wait": pts[4] - pts[3],
        "execution": pts[5] - pts[4],
        "collection": pts[6] - pts[5],
    }
    return Waterfall(
        rid=rid, batch_id=batch.batch_id, bucket=done.bucket,
        seq_len=done.seq_len, tenant=done.tenant,
        replica=done.replica if done.replica is not None else batch.replica,
        admit_us=pts[0], complete_us=t_complete, stages=stages,
    )


def build_waterfalls(events: EventsLike,
                     num_replicas: int | None = None) -> list[Waterfall]:
    """Per-request stage waterfalls for every completed rid, by rid."""
    idx = _index(events, num_replicas)
    out = []
    for rid in sorted(idx.complete):
        w = _waterfall_of(idx, rid)
        if w is not None:
            out.append(w)
    return out


def stage_totals(waterfalls: Sequence[Waterfall]) -> dict[str, float]:
    """Summed per-stage time across requests (us), every stage present."""
    totals = {s: 0.0 for s in STAGES}
    for w in waterfalls:
        for s in STAGES:
            totals[s] += w.stages[s]
    return totals


def stage_shares(waterfalls: Sequence[Waterfall]) -> dict[str, float]:
    """Each stage's share of the summed request latency (sums to 1)."""
    totals = stage_totals(waterfalls)
    denom = sum(totals.values())
    if denom <= 0.0:
        return {s: 0.0 for s in STAGES}
    return {s: totals[s] / denom for s in STAGES}


# --------------------------------------------------------------------------
# makespan critical path
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CPLink:
    """One batch on the makespan-bounding chain."""

    batch_id: int
    replica: int | None
    bucket: int | None
    size: int | None
    start_us: float
    end_us: float
    #: Why this link started when it did: ``resource`` (predecessor batch
    #: on the same replica freed it), ``arrival`` (last member arrived),
    #: ``batching`` (batcher deadline / untracked gap).
    edge: str

    def to_dict(self) -> dict[str, object]:
        return {
            "batch_id": self.batch_id,
            "replica": self.replica,
            "bucket": self.bucket,
            "size": self.size,
            "start_us": _round(self.start_us),
            "end_us": _round(self.end_us),
            "edge": self.edge,
        }


def critical_path(events: EventsLike,
                  num_replicas: int | None = None) -> dict[str, object]:
    """The chain of batches bounding end-to-end time, first to last.

    Returns a stable dict: ``makespan_us`` (first admit → last
    completion), the ``links`` (each with its binding ``edge``), and
    ``coverage`` — the share of the makespan the chain's execution
    windows account for.
    """
    idx = _index(events, num_replicas)
    batches = idx.batches
    base: dict[str, object] = {
        "makespan_us": 0.0, "links": [], "coverage": 0.0}
    if not batches:
        return base
    t0 = min(idx.admit_us.values()) if idx.admit_us else min(
        b.formed_us for b in batches.values())
    t1 = max(b.end_us for b in batches.values())
    if idx.complete:
        t1 = max(t1, max(e.ts_us for e in idx.complete.values()))
    makespan = max(0.0, t1 - t0)

    by_replica: dict[int, list[_BatchInfo]] = {}
    for b in batches.values():
        if b.replica is not None:
            by_replica.setdefault(b.replica, []).append(b)
    for seq in by_replica.values():
        seq.sort(key=lambda b: (b.end_us, b.batch_id))

    cur = max(batches.values(), key=lambda b: (b.end_us, -b.batch_id))
    links: list[CPLink] = []
    for _ in range(len(batches)):
        pred: _BatchInfo | None = None
        if cur.replica is not None:
            prior = [b for b in by_replica[cur.replica]
                     if b.batch_id != cur.batch_id
                     and b.end_us <= cur.dispatch_us + EDGE_EPS_US]
            if prior and abs(prior[-1].end_us - cur.dispatch_us) \
                    <= EDGE_EPS_US:
                pred = prior[-1]
        if pred is not None:
            edge = "resource"
        elif abs(cur.dispatch_us - cur.last_enqueue_us) <= EDGE_EPS_US:
            edge = "arrival"
        else:
            edge = "batching"
        links.append(CPLink(
            batch_id=cur.batch_id, replica=cur.replica, bucket=cur.bucket,
            size=cur.size, start_us=cur.dispatch_us, end_us=cur.end_us,
            edge=edge))
        if pred is None:
            break
        cur = pred
    links.reverse()
    on_path = sum(link.end_us - link.start_us for link in links)
    return {
        "makespan_us": _round(makespan),
        "links": [link.to_dict() for link in links],
        "coverage": _round(on_path / makespan if makespan > 0 else 0.0),
    }


# --------------------------------------------------------------------------
# Little's-law consistency
# --------------------------------------------------------------------------


def littles_law(events: EventsLike) -> dict[str, float]:
    """L = λW cross-check over the reconstructed queue episodes.

    The time-averaged queue depth is computed two independent ways —
    sweep-integrating the depth step function, and multiplying the
    arrival rate by the mean wait — and the ``residual`` between them is
    reported. Any mis-paired enqueue/leave events make it non-zero.
    """
    idx = _index(events)
    episodes: list[_Interval] = []
    for rid, t_enq in idx.enqueue_us.items():
        done = idx.complete.get(rid)
        if done is not None and done.batch_id is not None \
                and done.batch_id in idx.batches:
            leave = idx.batches[done.batch_id].formed_us
        elif rid in idx.rejects:
            leave = idx.rejects[rid].ts_us
        else:
            continue  # unterminated: excluded from both sides
        episodes.append((t_enq, max(t_enq, leave)))
    if not idx.events or not episodes:
        return {"horizon_us": 0.0, "mean_queue_depth": 0.0,
                "arrival_rate_per_s": 0.0, "mean_queue_wait_us": 0.0,
                "product_depth": 0.0, "residual": 0.0}
    t0 = min(e.ts_us for e in idx.events)
    t1 = max(e.ts_us for e in idx.events)
    horizon = max(t1 - t0, 1e-9)
    points: list[tuple[float, int]] = []
    for enter, leave in episodes:
        points.append((enter, 1))
        points.append((leave, -1))
    points.sort()
    integral = 0.0
    depth = 0
    last = points[0][0]
    for t, d in points:
        integral += depth * (t - last)
        depth += d
        last = t
    mean_depth = integral / horizon
    lam_us = len(episodes) / horizon
    mean_wait = sum(leave - enter for enter, leave in episodes) \
        / len(episodes)
    product = lam_us * mean_wait
    return {
        "horizon_us": _round(horizon),
        "mean_queue_depth": _round(mean_depth),
        "arrival_rate_per_s": _round(lam_us * 1e6),
        "mean_queue_wait_us": _round(mean_wait),
        "product_depth": _round(product),
        "residual": _round(mean_depth - product, 9),
    }


# --------------------------------------------------------------------------
# the explain report
# --------------------------------------------------------------------------


def slowest_requests(waterfalls: Sequence[Waterfall],
                     top_k: int = 5) -> list[dict[str, object]]:
    """Top-K waterfalls by latency (stable: ties break on rid)."""
    ranked = sorted(waterfalls, key=lambda w: (-w.latency_us, w.rid))
    return [w.to_dict() for w in ranked[:max(0, top_k)]]


def explain_report(events: EventsLike, top_k: int = 5,
                   num_replicas: int | None = None) -> dict[str, object]:
    """The full attribution report for one run, as a stable dict.

    A pure function of the event log: same log, byte-identical JSON.
    """
    idx = _index(events, num_replicas)
    waterfalls = [w for rid in sorted(idx.complete)
                  for w in (_waterfall_of(idx, rid),) if w is not None]
    latencies = [w.latency_us for w in waterfalls]
    totals = stage_totals(waterfalls)
    shares = stage_shares(waterfalls)
    slo_flags = [e.slo_met for e in idx.events
                 if e.terminal and e.slo_met is not None]
    cp = critical_path(idx.events, num_replicas)
    makespan = float(cp["makespan_us"])  # type: ignore[arg-type]

    bucket_rows: list[dict[str, object]] = []
    by_bucket: dict[int, list[Waterfall]] = {}
    for w in waterfalls:
        if w.bucket is not None:
            by_bucket.setdefault(w.bucket, []).append(w)
    for bucket in sorted(by_bucket):
        ws = by_bucket[bucket]
        bucket_rows.append({
            "bucket": bucket,
            "requests": len(ws),
            "mean_latency_us": _round(
                sum(w.latency_us for w in ws) / len(ws)),
            "stage_totals_us": {s: _round(v) for s, v in
                                stage_totals(ws).items()},
        })

    replica_rows: list[dict[str, object]] = []
    by_replica: dict[int, list[_BatchInfo]] = {}
    for b in idx.batches.values():
        if b.replica is not None:
            by_replica.setdefault(b.replica, []).append(b)
    for replica in sorted(by_replica):
        bs = by_replica[replica]
        replica_rows.append({
            "replica": replica,
            "batches": len(bs),
            "requests": sum(len(b.members) for b in bs),
            "busy_us": _round(sum(b.end_us - b.dispatch_us for b in bs)),
        })

    return {
        "version": EXPLAIN_VERSION,
        "requests": {
            "completed": len(waterfalls),
            "rejected": len(idx.rejects),
            "admitted": len(idx.admit_us),
        },
        "makespan_us": _round(makespan),
        "throughput_seq_s": _round(
            len(waterfalls) / makespan * 1e6 if makespan > 0 else 0.0),
        "latency_us": {
            "mean": _round(sum(latencies) / len(latencies)
                           if latencies else 0.0),
            "p50": _round(percentile(latencies, 50.0)
                          if latencies else 0.0),
            "p95": _round(percentile(latencies, 95.0)
                          if latencies else 0.0),
            "p99": _round(percentile(latencies, 99.0)
                          if latencies else 0.0),
            "max": _round(max(latencies) if latencies else 0.0),
        },
        "slo": {
            "total": len(slo_flags),
            "met": sum(1 for f in slo_flags if f),
            "attainment": _round(
                sum(1 for f in slo_flags if f) / len(slo_flags)
                if slo_flags else 0.0),
        },
        "stage_totals_us": {s: _round(v) for s, v in totals.items()},
        "stage_shares": {s: _round(v) for s, v in shares.items()},
        "buckets": bucket_rows,
        "replicas": replica_rows,
        "slowest_requests": slowest_requests(waterfalls, top_k),
        "critical_path": cp,
        "littles_law": littles_law(idx.events),
    }
