"""Flight recorder: typed, deterministic lifecycle events for the pool.

Every serving driver (the virtual-time :class:`~repro.serving.scheduler.
Scheduler`, the thread-backed :class:`~repro.serving.server.AsyncServer`,
the multi-process :class:`~repro.serving.pool.server.PoolServer`) emits
one :class:`Event` per lifecycle transition of a request or batch::

    admit ──> enqueue ──> batch_formed ──> dispatch ──> complete
      └─> reject / quota_reject    └─> exec (error) / worker_death / rebook

Events carry only virtual/driver-clock timestamps — never a wall-clock
read of their own (etlint ET301 enforces this for the whole ``obs``
package) — so a seeded run on the deterministic scheduler serializes to a
byte-identical JSONL file on every invocation. Serialization sorts events
by ``(ts_us, kind rank, rid, batch_id)``: the canonical order is *virtual
time*, not emission order, which makes logs comparable across worker
counts (the per-rid lifecycle is invariant; only batch composition and
replica placement may differ).

This stream is the serving layer's only recorder. The metrics registry
folds it live (:meth:`repro.serving.metrics.MetricsRegistry.fold`), and
the Chrome trace is derived from the log after the run
(:func:`repro.obs.trace.build_trace`), as its timestamps are every span
boundary and every kernel cost depends only on shapes. Replaying a log
through :func:`admission_order` rebuilds the live metrics exactly.

The default recorder everywhere is :data:`NULL_EVENT_LOG`, which keeps
nothing: a run that records no log still folds its metrics, and reported
numbers are identical either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

#: Every legal event kind, in canonical rank order: at equal virtual time
#: a request is admitted before it is enqueued, a batch is formed before
#: it is dispatched, and completion sorts last.
EVENT_KINDS = (
    "admit",         # request arrived at admission control (rid)
    "enqueue",       # request entered the shared queue (rid)
    "reject",        # backpressure rejection at admission (rid)
    "quota_reject",  # per-tenant quota rejection (rid, tenant)
    "batch_formed",  # batcher closed a bucket into a batch (batch_id)
    "dispatch",      # batch ran on a worker/replica (batch_id, replica)
    "exec",          # replica failed a batch, members shed (batch_id, replica)
    "worker_death",  # replica process died and was retired (replica)
    "rebook",        # batch handed back after a death (batch_id, src)
    "complete",      # request reached a served terminal state (rid)
)

#: Kinds that end a request's lifecycle; every admitted rid must reach one.
TERMINAL_KINDS = frozenset({"complete", "reject", "quota_reject"})

_KIND_RANK = {kind: i for i, kind in enumerate(EVENT_KINDS)}

#: Fields serialized per event, in schema order. ``None`` values are
#: omitted from the JSON object; consumers treat them as "not applicable".
EVENT_FIELDS = ("ts_us", "kind", "rid", "batch_id", "bucket", "seq_len",
                "tenant", "replica", "src", "size", "deadline_us",
                "slo_met", "detail")


@dataclass(frozen=True)
class Event:
    """One lifecycle transition at one virtual timestamp."""

    ts_us: float
    kind: str
    rid: int | None = None
    batch_id: int | None = None
    bucket: int | None = None
    seq_len: int | None = None
    tenant: int | None = None
    replica: int | None = None
    src: int | None = None  # rebook: the replica that died holding it
    size: int | None = None  # batch size for batch-scoped events
    deadline_us: float | None = None
    slo_met: bool | None = None
    detail: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown event kind {self.kind!r}; "
                             f"know {EVENT_KINDS}")

    @property
    def terminal(self) -> bool:
        """Whether this event ends a request's lifecycle."""
        return self.kind in TERMINAL_KINDS

    def sort_key(self) -> tuple:
        """Canonical virtual-time ordering key."""
        return (self.ts_us, _KIND_RANK[self.kind],
                -1 if self.rid is None else self.rid,
                -1 if self.batch_id is None else self.batch_id)

    def to_dict(self) -> dict[str, object]:
        """The event as a plain dict, ``None`` fields omitted."""
        out: dict[str, object] = {}
        for name in EVENT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @property
    def fields(self) -> dict[str, object]:
        """The keyword fields :meth:`EventLog.emit` was given."""
        return {name: getattr(self, name) for name in EVENT_FIELDS[2:]
                if getattr(self, name) is not None}


class EventLog:
    """Collects events for one run; serializes them as canonical JSONL.

    ``enabled`` says whether the log keeps what it is given.

    The hot path (``emit``) appends one raw ``(ts_us, kind, fields)``
    triple; :class:`Event` objects materialize lazily at inspection /
    serialization time, keeping per-emit cost to a dict and a list append
    (the recorder's ≤ 2% overhead budget).
    """

    enabled = True

    def __init__(self) -> None:
        self._raw: list[tuple[float, str, dict]] = []

    # ---- emission ---------------------------------------------------------

    def emit(self, kind: str, ts_us: float, **fields: object) -> None:
        """Record one event (fields as in :class:`Event`)."""
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown event kind {kind!r}; "
                             f"know {EVENT_KINDS}")
        self._raw.append((ts_us, kind, fields))

    def extend(self, events: list[Event]) -> None:
        """Fold in events recorded elsewhere (e.g. shipped by a replica)."""
        for e in events:
            self._raw.append((e.ts_us, e.kind, e.fields))

    # ---- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._raw)

    @property
    def events(self) -> list[Event]:
        """The recorded events, materialized in emission order.

        Timestamps coerce to float here (not in ``emit``) so integer
        driver clocks still serialize canonically.
        """
        return [Event(ts_us=float(ts), kind=kind, **fields)
                for ts, kind, fields in self._raw]

    def sorted_events(self) -> list[Event]:
        """Events in canonical virtual-time order (stable)."""
        return sorted(self.events, key=Event.sort_key)

    def rids(self) -> list[int]:
        """Every rid that was admitted, ascending."""
        return sorted({fields["rid"] for _, kind, fields in self._raw
                       if kind == "admit" and fields.get("rid") is not None})

    def lifecycle(self, rid: int) -> list[str]:
        """One rid's event kinds in canonical order."""
        return [e.kind for e in self.sorted_events() if e.rid == rid]

    def unterminated(self) -> list[int]:
        """Admitted rids that never reached a terminal event."""
        ended = {fields.get("rid") for _, kind, fields in self._raw
                 if kind in TERMINAL_KINDS}
        return [rid for rid in self.rids() if rid not in ended]

    def counts(self) -> dict[str, int]:
        """Events per kind (only kinds that occurred)."""
        out: dict[str, int] = {}
        for _, kind, _fields in self._raw:
            out[kind] = out.get(kind, 0) + 1
        return out

    # ---- serialization ----------------------------------------------------

    def to_jsonl(self) -> str:
        """Canonical JSONL: one event per line, virtual-time order.

        Pure function of the recorded events — a seeded deterministic run
        produces a byte-identical string on every invocation.
        """
        lines = [json.dumps(e.to_dict(), sort_keys=True,
                            separators=(",", ":"))
                 for e in self.sorted_events()]
        return "\n".join(lines) + ("\n" if lines else "")


class NullEventLog(EventLog):
    """Default no-op recorder: records nothing, allocates nothing."""

    enabled = False
    _raw: tuple = ()  # shared empty storage; __init__ allocates nothing

    def __init__(self) -> None:  # noqa: D107 - no storage at all
        pass

    def emit(self, kind: str, ts_us: float, **fields: object) -> None:
        return None

    def extend(self, events: list[Event]) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def sorted_events(self) -> list[Event]:
        return []


#: Shared do-nothing recorder; the default for every instrumented driver.
NULL_EVENT_LOG = NullEventLog()


def admission_order(events: EventLog | Iterable[Event]) -> list[Event]:
    """Canonical events, each ``enqueue`` moved up behind its ``admit``.

    That is the order the serving core emits them in; the canonical sort
    puts every admit at one timestamp before every enqueue. Replay a
    recorded log in this order to count queue depth as it was live.
    """
    evs = events.sorted_events() if isinstance(events, EventLog) \
        else sorted(events, key=Event.sort_key)
    enqueued = {e.rid: e for e in evs if e.kind == "enqueue"}
    out: list[Event] = []
    for e in evs:
        if e.kind != "enqueue":
            out.append(e)
            if e.kind == "admit" and e.rid in enqueued:
                out.append(enqueued[e.rid])
    return out


def depth_change(kind: str, fields: Mapping[str, Any]) -> int:
    """How one event moves the queue depth; its only definition.

    A request counts from its ``enqueue`` and a batch's members leave at
    ``batch_formed``. Summed in emission (or :func:`admission_order`)
    order, the total before an ``admit`` is the depth that request found.
    """
    if kind == "enqueue":
        return 1
    return -fields["size"] if kind == "batch_formed" else 0


def write_events(path: str, events: EventLog) -> None:
    """Write one canonical JSONL event log to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(events.to_jsonl())


def read_events(path: str) -> EventLog:
    """Load a JSONL event log written by :func:`write_events`.

    Round-trips exactly: ``read_events(p).to_jsonl()`` is byte-identical
    to the file's content for any canonical log, which is what lets
    ``repro explain`` / ``repro tracediff`` consume ``--events-out``
    artifacts from a different process.
    """
    log = EventLog()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict) or "kind" not in obj \
                    or "ts_us" not in obj:
                raise ValueError(
                    f"{path}:{lineno}: not a flight-recorder event: "
                    f"{line[:80]!r}")
            unknown = set(obj) - set(EVENT_FIELDS)
            if unknown:
                raise ValueError(f"{path}:{lineno}: unknown event fields "
                                 f"{sorted(unknown)}")
            fields = {k: v for k, v in obj.items()
                      if k not in ("ts_us", "kind")}
            log.emit(obj["kind"], float(obj["ts_us"]), **fields)
    return log
