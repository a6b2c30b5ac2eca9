"""SLO policy and attainment accounting for the serving layer.

Two collaborators:

- :class:`SloPolicy` — turns a request's sequence length and arrival time
  into a ``deadline_us``. Deadlines come either from one fixed budget
  (``loadgen --slo-us 15000``) or, with ``--slo-us 0``, from *per-bucket
  defaults priced by the cost model*: each bucket's budget is
  ``scale ×`` the modeled service latency of the bucket's upper-edge
  sequence length, so short-sequence buckets get proportionally tight
  deadlines (EET's dynamic-length serving argument: one global budget
  either starves long requests or makes short ones trivially attainable).
- :class:`SloTracker` — counts deadline hits and misses per seqLen
  bucket, per tenant, and per replica from terminal events' fields.
  Attainment is hits/total; *goodput* is hits per second of makespan
  (computed by the metrics registry, which owns the makespan).

Deadline checks run on the driver's clock (virtual time in the
deterministic scheduler), so attainment is as reproducible as every
other reported number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - break the obs <-> serving cycle
    from repro.serving.bucketing import BucketPolicy


@dataclass(frozen=True)
class SloPolicy:
    """Maps ``(seq_len, arrival_us)`` to a deadline on the driver clock."""

    policy: BucketPolicy
    #: Per-bucket latency budgets in microseconds (index-aligned).
    budgets_us: tuple[float, ...]
    #: When set, one fixed budget overrides the per-bucket defaults.
    fixed_us: float | None = None

    def __post_init__(self) -> None:
        if len(self.budgets_us) != self.policy.num_buckets:
            raise ValueError(
                f"need one budget per bucket: {len(self.budgets_us)} "
                f"budgets for {self.policy.num_buckets} buckets")
        if any(b <= 0 for b in self.budgets_us):
            raise ValueError(f"budgets must be positive: {self.budgets_us}")
        if self.fixed_us is not None and self.fixed_us <= 0:
            raise ValueError(f"fixed budget must be positive: {self.fixed_us}")

    @classmethod
    def from_cost_model(cls, policy: BucketPolicy,
                        price_us: Callable[[int], float],
                        scale: float = 4.0,
                        fixed_us: float | None = None) -> "SloPolicy":
        """Per-bucket budgets: ``scale ×`` the upper edge's modeled latency.

        ``price_us`` is the cost model's service-time estimate for one
        sequence of a given length (e.g. ``Engine.latency_us``). The
        budget must cover queueing and batchmates on top of own service,
        hence the default head-room multiple.
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive: {scale}")
        budgets = tuple(scale * float(price_us(edge))
                        for edge in policy.edges)
        return cls(policy=policy, budgets_us=budgets, fixed_us=fixed_us)

    def budget_us(self, seq_len: int) -> float:
        """The latency budget for one sequence length."""
        if self.fixed_us is not None:
            return self.fixed_us
        return self.budgets_us[self.policy.bucket_of(seq_len)]

    def deadline_us(self, seq_len: int, arrival_us: float) -> float:
        """The absolute deadline for a request arriving at ``arrival_us``."""
        return arrival_us + self.budget_us(seq_len)


@dataclass
class SloTracker:
    """Deadline attainment per bucket, per tenant, and per replica.

    Only requests that carry a deadline are counted; a run without SLOs
    reports zero totals and attainment 0.0 (the snapshot schema stays
    stable either way). Rejected requests with a deadline count as
    misses — shed load is failed load from the client's point of view;
    the core stamps that verdict as the terminal event's ``slo_met``.
    """

    total: int = 0
    met: int = 0
    #: ``(met, total)`` per group key.
    by_bucket: dict[int, list[int]] = field(default_factory=dict)
    by_tenant: dict[int, list[int]] = field(default_factory=dict)
    by_replica: dict[int, list[int]] = field(default_factory=dict)

    def observe(self, fields: Mapping[str, Any]) -> bool | None:
        """Count one terminal event's fields; returns its ``slo_met``
        (None = no SLO)."""
        met = fields.get("slo_met")
        if met is None:
            return None
        self.total += 1
        self.met += int(met)
        for group in ("bucket", "tenant", "replica"):
            key = fields.get(group)
            if key is not None and key >= 0:
                cell = getattr(self, f"by_{group}").setdefault(key, [0, 0])
                cell[0] += int(met)
                cell[1] += 1
        return met

    @property
    def attainment(self) -> float:
        """Overall fraction of SLO-carrying requests that met the deadline."""
        return self.met / self.total if self.total else 0.0

    def attainment_by(self, group: str) -> dict[int, float]:
        """Attainment per ``"bucket"`` / ``"tenant"`` / ``"replica"``."""
        table: dict[int, list[int]] = getattr(self, f"by_{group}")
        return {k: m / t for k, (m, t) in sorted(table.items())}
