"""Load-aware batch routing and per-tenant admission for the replica pool.

Two collaborators of :class:`~repro.serving.pool.server.PoolServer`, both
thread-safe (the dispatcher and collector threads race on them):

- :class:`Router` — assigns formed batches to the replica with the least
  *outstanding cost* (cost-model microseconds of work dispatched but not
  yet completed — the same kernel cost model that prices every batch),
  holds per-replica backlogs, and lets an idle replica **steal** the
  freshest batch from the most-loaded backlog when seqLen-bucket skew
  would otherwise leave it idle.
- :class:`AdmissionController` — per-tenant QoS quotas layered on top of
  the bounded :class:`~repro.serving.queue.RequestQueue`: a tenant over
  its in-flight quota is rejected *before* it can occupy shared queue
  depth, so one chatty client cannot starve the rest.

Lock contract (etlint ET4xx): each class owns exactly one lock and every
mutation of its shared state happens under it; callers never need their
own lock to use these objects.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.serving.queue import QueueFullError

if TYPE_CHECKING:
    from repro.serving.batcher import Batch


class QuotaExceededError(QueueFullError):
    """A tenant hit its in-flight quota (admission control, not depth)."""


class ReplicaGoneError(RuntimeError):
    """An operation referenced a replica that has been retired."""


class AdmissionController:
    """Per-tenant in-flight quotas over the shared request queue."""

    def __init__(self, max_inflight_per_tenant: int | None = None,
                 quotas: dict[int, int] | None = None) -> None:
        if max_inflight_per_tenant is not None \
                and max_inflight_per_tenant <= 0:
            raise ValueError(
                f"quota must be positive: {max_inflight_per_tenant}")
        self.default_quota = max_inflight_per_tenant
        self._lock = threading.Lock()
        self._quotas = dict(quotas or {})
        self._inflight: dict[int, int] = {}

    def admit(self, client: int) -> None:
        """Count one request in; raises :class:`QuotaExceededError` at cap."""
        with self._lock:
            quota = self._quotas.get(client, self.default_quota)
            held = self._inflight.get(client, 0)
            if quota is not None and held >= quota:
                raise QuotaExceededError(
                    f"tenant {client} at quota {quota} "
                    f"({held} requests in flight)")
            self._inflight[client] = held + 1

    def release(self, client: int) -> None:
        """Count one request out (terminal response delivered)."""
        with self._lock:
            held = self._inflight.get(client, 0)
            if held <= 1:
                self._inflight.pop(client, None)
            else:
                self._inflight[client] = held - 1

    def inflight(self, client: int) -> int:
        """Requests currently in flight for one tenant."""
        with self._lock:
            return self._inflight.get(client, 0)

    def snapshot(self) -> dict[int, int]:
        """In-flight counts per tenant (only tenants with work)."""
        with self._lock:
            return dict(self._inflight)


class Router:
    """Outstanding-cost dispatch with backlog work stealing.

    The server *assigns* every formed batch immediately (so accounting is
    load-aware at formation time) but each replica only keeps a bounded
    number of batches in its OS pipe; the rest wait in the router's
    per-replica backlog, where they remain stealable until the moment
    they are handed to a process.
    """

    def __init__(self, replica_ids: list[int],
                 cost_fn: Callable[[int], float],
                 on_steal: "Callable[[int, int, Batch], None] | None" = None
                 ) -> None:
        if not replica_ids:
            raise ValueError("router needs at least one replica")
        self.cost_fn = cost_fn
        #: Observer called as ``(thief, victim, batch)`` after each steal,
        #: outside the router lock (the pool server wires this to the
        #: flight recorder; the router itself stays clock-free).
        self.on_steal = on_steal
        self._lock = threading.Lock()
        self._outstanding: dict[int, float] = {r: 0.0 for r in replica_ids}
        self._backlog: dict[int, deque["Batch"]] = {
            r: deque() for r in replica_ids}
        self._costs: dict[int, float] = {}  # batch_id -> priced cost
        self._owner: dict[int, int] = {}  # batch_id -> replica
        self.steals = 0
        self.dispatched = 0

    # ---- pricing ----------------------------------------------------------

    def batch_cost(self, batch: "Batch") -> float:
        """Cost-model price of one batch: summed per-request service us."""
        return sum(self.cost_fn(r.seq_len) for r in batch.requests)

    # ---- assignment -------------------------------------------------------

    def assign(self, batch: "Batch") -> int:
        """Book a batch onto the least-loaded replica; returns its id.

        Ties break toward the lowest replica id so assignment is a pure
        function of the (batch stream, completion order) history.
        """
        cost = self.batch_cost(batch)
        with self._lock:
            if not self._outstanding:
                raise ReplicaGoneError("no live replicas to assign to")
            rid = min(self._outstanding,
                      key=lambda r: (self._outstanding[r], r))
            self._outstanding[rid] += cost
            self._backlog[rid].append(batch)
            self._costs[batch.batch_id] = cost
            self._owner[batch.batch_id] = rid
            return rid

    def acquire(self, rid: int) -> "Batch | None":
        """Next batch for a replica: its own backlog, else a steal.

        Stealing takes the *freshest* batch from the replica with the most
        outstanding cost (the victim keeps its oldest work, preserving
        FIFO-ish latency for what it already started) and moves the cost
        accounting to the thief.
        """
        with self._lock:
            if rid not in self._backlog:
                raise ReplicaGoneError(f"replica {rid} was retired")
            own = self._backlog[rid]
            if own:
                batch = own.popleft()
                self.dispatched += 1
                return batch
            victim = max(
                (v for v in self._backlog if v != rid and self._backlog[v]),
                key=lambda v: (self._outstanding[v], v), default=None)
            if victim is None:
                return None
            batch = self._backlog[victim].pop()
            cost = self._costs[batch.batch_id]
            self._outstanding[victim] -= cost
            self._outstanding[rid] += cost
            self._owner[batch.batch_id] = rid
            self.steals += 1
            self.dispatched += 1
        if self.on_steal is not None:  # outside the lock: observer code
            self.on_steal(rid, victim, batch)
        return batch

    def complete(self, batch_id: int) -> int:
        """Settle a finished batch's cost; returns the replica that ran it."""
        with self._lock:
            rid = self._owner.pop(batch_id)
            cost = self._costs.pop(batch_id)
            if rid in self._outstanding:
                self._outstanding[rid] = max(
                    0.0, self._outstanding[rid] - cost)
            return rid

    # ---- replica lifecycle ------------------------------------------------

    def retire(self, rid: int) -> list["Batch"]:
        """Drop a dead replica; returns its backlog for re-assignment.

        Batches already *sent* to the dead process are the server's to
        recover (it retains them until completion); the router only holds
        the unsent backlog.
        """
        with self._lock:
            self._outstanding.pop(rid, None)
            orphans = list(self._backlog.pop(rid, ()))
            for batch in orphans:
                cost = self._costs.pop(batch.batch_id, 0.0)
                self._owner.pop(batch.batch_id, None)
                del cost
            return orphans

    def drain(self) -> list["Batch"]:
        """Pull every unsent batch and settle its accounting (no-drain stop)."""
        with self._lock:
            out: list["Batch"] = []
            for rid, dq in self._backlog.items():
                while dq:
                    batch = dq.popleft()
                    cost = self._costs.pop(batch.batch_id, 0.0)
                    self._owner.pop(batch.batch_id, None)
                    self._outstanding[rid] = max(
                        0.0, self._outstanding[rid] - cost)
                    out.append(batch)
            return out

    def forget(self, batch_id: int) -> None:
        """Drop accounting for a batch that will never complete."""
        with self._lock:
            rid = self._owner.pop(batch_id, None)
            cost = self._costs.pop(batch_id, 0.0)
            if rid is not None and rid in self._outstanding:
                self._outstanding[rid] = max(
                    0.0, self._outstanding[rid] - cost)

    # ---- inspection -------------------------------------------------------

    @property
    def replica_ids(self) -> list[int]:
        """Live replica ids, ascending."""
        with self._lock:
            return sorted(self._outstanding)

    def outstanding_us(self, rid: int) -> float:
        """Cost-model us booked on one replica (backlog + in process)."""
        with self._lock:
            return self._outstanding.get(rid, 0.0)

    def backlog_depth(self, rid: int) -> int:
        """Batches assigned to a replica but not yet handed to it."""
        with self._lock:
            return len(self._backlog.get(rid, ()))

    def snapshot(self) -> dict[int, dict[str, float]]:
        """Per-replica ``{outstanding_us, backlog}`` plus steal totals."""
        with self._lock:
            return {
                rid: {"outstanding_us": self._outstanding[rid],
                      "backlog": float(len(self._backlog[rid]))}
                for rid in sorted(self._outstanding)
            }
