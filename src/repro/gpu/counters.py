"""Kernel timeline and nvprof-style profiling counters.

A :class:`Timeline` is threaded through every operator call; each launched
:class:`~repro.gpu.kernel.KernelCost` appends a :class:`KernelRecord`. The
aggregate counters reproduce the measurements of Figs. 11–12:

- ``gld_transactions`` / ``gst_transactions`` — 32-byte global load/store
  sectors (Fig. 11(a)–(b)).
- ``sm_efficiency`` — fraction of wall time at least one warp is resident on
  an SM; launch gaps and grids smaller than the SM count lower it
  (Fig. 11(c)).
- ``ipc`` — retired instructions per cycle per SM (Fig. 11(d)).
- per-kernel achieved DRAM throughput (Fig. 12).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from repro.gpu.device import DeviceSpec, default_device
from repro.gpu.kernel import KernelCost, MemPattern

#: Warp-residency quality per access pattern: strided-batched kernels starve
#: the warp schedulers (scattered transactions drain the resident warps),
#: which is what nvprof's ``sm_efficiency`` sees — the counter behind
#: Fig. 11(c)'s ≈30 % gap between the OTF kernel and TensorRT's chain.
_PATTERN_OCCUPANCY = {
    MemPattern.STREAM: 0.95,
    MemPattern.TILED: 0.85,
    MemPattern.BATCHED: 0.68,
    MemPattern.STRIDED: 0.70,
    MemPattern.GATHER: 0.60,
}


@dataclass(frozen=True)
class KernelRecord:
    """One launched kernel with its resolved timings."""

    cost: KernelCost
    time_us: float
    exec_time_us: float
    region: str

    @property
    def name(self) -> str:
        """The kernel's name."""
        return self.cost.name

    @property
    def tag(self) -> str:
        """The kernel's phase tag."""
        return self.cost.tag

    def sm_efficiency(self, device: DeviceSpec) -> float:
        """This launch's SM busy fraction (launch gap counted as idle).

        The per-kernel counterpart of :attr:`Timeline.sm_efficiency`; the
        trace attaches it to kernel spans (Fig. 11(c) per launch).
        """
        if self.time_us == 0.0:
            return 0.0
        busy = self.exec_time_us * min(1.0, self.cost.ctas / device.num_sms) \
            * _PATTERN_OCCUPANCY[self.cost.mem_pattern]
        return busy / self.time_us


class Timeline:
    """Records kernel launches and derives aggregate profiling counters.

    Parameters
    ----------
    device:
        The simulated GPU; defaults to the V100S.

    Examples
    --------
    >>> from repro.gpu import Timeline, KernelCost
    >>> tl = Timeline()
    >>> tl.launch(KernelCost("gemm", flops=1e9, bytes_loaded=1e6))
    >>> tl.total_time_us > 0
    True
    """

    def __init__(self, device: DeviceSpec | None = None) -> None:
        self.device = device or default_device()
        self.records: list[KernelRecord] = []
        self._region_stack: list[str] = []

    # ---- recording -------------------------------------------------------

    def launch(self, cost: KernelCost) -> KernelRecord:
        """Validate, time and record one kernel launch."""
        cost.validate_launch(self.device)
        rec = KernelRecord(
            cost=cost,
            time_us=cost.time_us(self.device),
            exec_time_us=cost.exec_time_us(self.device),
            region="/".join(self._region_stack),
        )
        self.records.append(rec)
        return rec

    def region(self, label: str) -> "_Region":
        """Context manager labeling subsequent launches (nestable)."""
        return _Region(self, label)

    def reset(self) -> None:
        """Drop all recorded kernels."""
        self.records.clear()

    def fork(self) -> "Timeline":
        """An empty timeline on the same device (for what-if comparisons)."""
        return Timeline(self.device)

    def merge(self, other: "Timeline", prefix: str | None = None) -> None:
        """Append another timeline's records (serial concatenation).

        Used by :meth:`repro.runtime.engine.Engine.run_batch` to aggregate the
        per-sequence timelines of one batch into a single stream: the cost
        model is single-stream, so batch time is the sum of member times.

        ``prefix`` wraps the incoming records in an enclosing region label
        (e.g. ``"request0"``), so a merged batch timeline keeps per-member
        provenance: ``time_by_region`` and the trace can attribute each
        kernel to the request that launched it.
        """
        if other.device is not self.device and other.device != self.device:
            raise ValueError(
                f"cannot merge timelines across devices: "
                f"{self.device.name} vs {other.device.name}"
            )
        if prefix is None:
            self.records.extend(other.records)
            return
        self.records.extend(
            replace(r, region=f"{prefix}/{r.region}" if r.region else prefix)
            for r in other.records
        )

    # ---- aggregate counters ----------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_time_us(self) -> float:
        """End-to-end latency: sum of kernel wall times (serial stream)."""
        return sum(r.time_us for r in self.records)

    @property
    def exec_time_us(self) -> float:
        """Time spent executing (wall minus launch/sync gaps)."""
        return sum(r.exec_time_us for r in self.records)

    @property
    def num_kernels(self) -> int:
        """Number of launches recorded."""
        return len(self.records)

    @property
    def gld_transactions(self) -> int:
        """Total 32-byte global-load sectors (Fig. 11(a))."""
        return sum(r.cost.gld_transactions(self.device) for r in self.records)

    @property
    def gst_transactions(self) -> int:
        """Total 32-byte global-store sectors (Fig. 11(b))."""
        return sum(r.cost.gst_transactions(self.device) for r in self.records)

    @property
    def bytes_loaded(self) -> float:
        """Total global bytes read."""
        return sum(r.cost.bytes_loaded for r in self.records)

    @property
    def bytes_stored(self) -> float:
        """Total global bytes written."""
        return sum(r.cost.bytes_stored for r in self.records)

    @property
    def flops(self) -> float:
        """Total floating-point operations."""
        return sum(r.cost.flops for r in self.records)

    @property
    def sm_efficiency(self) -> float:
        """Time-weighted fraction of SMs busy, launch gaps counted as idle."""
        total = self.total_time_us
        if total == 0.0:
            return 0.0
        busy = sum(
            r.exec_time_us
            * min(1.0, r.cost.ctas / self.device.num_sms)
            * _PATTERN_OCCUPANCY[r.cost.mem_pattern]
            for r in self.records
        )
        return busy / total

    @property
    def ipc(self) -> float:
        """Average retired instructions per cycle per SM over the wall time."""
        total_us = self.total_time_us
        if total_us == 0.0:
            return 0.0
        cycles_per_sm = total_us * self.device.clock_ghz * 1e3
        instr_per_sm = sum(r.cost.instructions() for r in self.records) / (
            self.device.num_sms
        )
        return instr_per_sm / cycles_per_sm

    @property
    def achieved_bw_gbs(self) -> float:
        """Aggregate DRAM throughput over execution time."""
        t = self.exec_time_us
        if t == 0.0:
            return 0.0
        return (self.bytes_loaded + self.bytes_stored) / t / 1e3

    # ---- breakdowns --------------------------------------------------------

    def time_by_tag(self) -> dict[str, float]:
        """Wall time per kernel tag (Fig. 1 / Fig. 12 breakdowns)."""
        out: dict[str, float] = defaultdict(float)
        for r in self.records:
            out[r.tag or r.name] += r.time_us
        return dict(out)

    def time_by_region(self) -> dict[str, float]:
        """Wall time per nested region label."""
        out: dict[str, float] = defaultdict(float)
        for r in self.records:
            out[r.region] += r.time_us
        return dict(out)

    def per_kernel_bandwidth(self) -> list[tuple[str, float]]:
        """(name, achieved GB/s) per record — Fig. 12's per-step series."""
        return [
            (r.name, r.cost.achieved_bw_gbs(self.device)) for r in self.records
        ]

    def roofline_report(self) -> list[dict[str, object]]:
        """Per-kernel roofline classification (Section 5.2.6's analysis).

        Each row carries the kernel's arithmetic intensity (FLOP/B), the
        device ridge point it is judged against, whether the model classes
        it memory-bound, and its achieved bandwidth.
        """
        out = []
        for r in self.records:
            ridge = self.device.peak_flops(r.cost.uses_tensor_core) / (
                self.device.peak_bw_gbs * 1e9)
            out.append({
                "kernel": r.name,
                "arithmetic_intensity": r.cost.arithmetic_intensity,
                "ridge_point": ridge,
                "memory_bound": r.cost.is_memory_bound(self.device),
                "achieved_gbs": r.cost.achieved_bw_gbs(self.device),
                "time_us": r.time_us,
            })
        return out

    def summary(self) -> dict[str, float]:
        """Counter snapshot used by tests and the profiling benches."""
        return {
            "total_time_us": self.total_time_us,
            "num_kernels": float(self.num_kernels),
            "gld_transactions": float(self.gld_transactions),
            "gst_transactions": float(self.gst_transactions),
            "sm_efficiency": self.sm_efficiency,
            "ipc": self.ipc,
            "achieved_bw_gbs": self.achieved_bw_gbs,
            "flops": self.flops,
        }


@dataclass
class _Region:
    timeline: Timeline
    label: str
    _token: int = field(default=0, repr=False)

    def __enter__(self) -> Timeline:
        self.timeline._region_stack.append(self.label)
        return self.timeline

    def __exit__(self, *exc: object) -> None:
        self.timeline._region_stack.pop()
