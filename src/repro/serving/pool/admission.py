"""Per-tenant admission control for the replica pool.

:class:`AdmissionController` layers per-tenant QoS quotas on top of the
depth bound of :class:`~repro.serving.batcher.DynamicBatcher`: a tenant
over its in-flight quota is rejected *before* it can occupy shared depth,
so one chatty client cannot starve the rest.

Lock contract (etlint ET4xx): the controller owns one lock and every
mutation of its state happens under it; callers (the pool's submitters
and slot threads) need no lock of their own to use it.
"""

from __future__ import annotations

import threading

from repro.serving.batcher import QueueFullError


class QuotaExceededError(QueueFullError):
    """A tenant hit its in-flight quota (admission control, not depth)."""


class AdmissionController:
    """Per-tenant in-flight quotas over the shared pending store."""

    def __init__(self, max_inflight_per_tenant: int | None = None) -> None:
        if max_inflight_per_tenant is not None \
                and max_inflight_per_tenant <= 0:
            raise ValueError(
                f"quota must be positive: {max_inflight_per_tenant}")
        self.quota = max_inflight_per_tenant
        self._lock = threading.Lock()
        self._inflight: dict[int, int] = {}

    def admit(self, client: int) -> None:
        """Count one request in; raises :class:`QuotaExceededError` at cap."""
        with self._lock:
            held = self._inflight.get(client, 0)
            if self.quota is not None and held >= self.quota:
                raise QuotaExceededError(
                    f"tenant {client} at quota {self.quota} "
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
