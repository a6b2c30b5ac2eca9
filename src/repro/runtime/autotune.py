"""Algorithm autotuning: GEMM routines and attention variants.

"E.T. can automatically search through various linear transformation
implementations and choose the optimal one (similar to FasterTransformer)"
(Section 5.2.1). The search space for linear layers is the cuBLAS algorithm
table of :class:`~repro.ops.gemm.GemmAlgo`; candidates are evaluated with
the cost model exactly as the real system times candidate routines.

The same machinery now covers the attention operator itself: per
(device, head geometry, seq_len, dtype) the tuner prices full OTF, partial
OTF and flash with their **cost-only estimators** — no scratch numerics
pass per candidate, which is what the old two-way ``select_attention`` paid
(two throwaway attention computations per layer per request). Winners land
in a :class:`TuneCache` (an LRU with hit/miss counters) that can persist
to JSON, so a serving process starts with the previous run's table and the
first request of every bucket is already a cache hit.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

from repro.gpu.device import DeviceSpec, default_device, device_by_name
from repro.gpu.kernel import KernelCost, MemPattern
from repro.ops.gemm import GemmAlgo, gemm_efficiency

#: The attention algorithms the tuner arbitrates between, in report order
#: (also the deterministic tie-break order — simplest kernel wins a dead
#: heat).
ATTENTION_ALGOS: tuple[str, ...] = ("otf", "partial_otf", "flash")

#: Default on-disk location for the persisted attention tune table.
DEFAULT_TUNE_PATH = Path("results") / "tune_cache.json"


@lru_cache(maxsize=4096)
def autotune_gemm_algo(
    m: int,
    n: int,
    k: int,
    bytes_per_elem: int = 2,
    tensor_core: bool = True,
    device: DeviceSpec | None = None,
) -> GemmAlgo:
    """Pick the fastest algorithm for an ``m×k @ k×n`` GEMM on ``device``.

    On the V100S shapes of the paper this resolves to
    ``CUBLAS_GEMM_ALGO5_TENSOR_OP``, matching Section 5.2.1.
    """
    dev = device or default_device()
    best_algo, best_t = None, float("inf")
    for algo in GemmAlgo:
        cost = KernelCost(
            name="probe",
            flops=2.0 * m * n * k,
            bytes_loaded=(m * k + k * n) * bytes_per_elem,
            bytes_stored=m * n * bytes_per_elem,
            uses_tensor_core=tensor_core,
            compute_eff=gemm_efficiency(m, n, k, algo, tensor_core),
            mem_pattern=MemPattern.TILED,
        )
        t = cost.time_us(dev)
        if t < best_t:
            best_algo, best_t = algo, t
    assert best_algo is not None
    return best_algo


# -- attention-variant tuning -------------------------------------------------


@dataclass(frozen=True)
class AttentionKey:
    """Identity of one attention tuning decision.

    Everything any candidate's cost reads, nothing more: the device (flash
    tile shapes and grid occupancy are device-dependent), the head
    geometry, mask presence (mask bytes shift every crossover), and the
    dtype/core flags. Batch size is deliberately absent — every cost is
    per request, since batches run one member at a time.
    """

    device: str
    num_heads: int
    seq_len: int
    d_k: int
    v_width: int
    has_mask: bool
    bytes_per_elem: int = 2
    tensor_core: bool = True

    def to_str(self) -> str:
        """Stable string form used as the JSON persistence key."""
        return (
            f"{self.device}/h{self.num_heads}/s{self.seq_len}/dk{self.d_k}"
            f"/vw{self.v_width}/mask{int(self.has_mask)}"
            f"/b{self.bytes_per_elem}/tc{int(self.tensor_core)}"
        )

    @classmethod
    def from_str(cls, text: str) -> "AttentionKey":
        """Inverse of :meth:`to_str`; raises ``ValueError`` on bad input."""
        parts = text.split("/")
        if len(parts) != 8:
            raise ValueError(f"malformed attention key: {text!r}")
        dev, rest = parts[0], parts[1:]
        prefixes = ("h", "s", "dk", "vw", "mask", "b", "tc")
        vals = []
        for prefix, part in zip(prefixes, rest):
            if not part.startswith(prefix) or not part[len(prefix):].isdigit():
                raise ValueError(
                    f"malformed attention key field {part!r} in {text!r}")
            vals.append(int(part[len(prefix):]))
        h, s, dk, vw, mask, b, tc = vals
        return cls(dev, h, s, dk, vw, bool(mask), b, bool(tc))


def attention_algo_costs(key: AttentionKey) -> dict[str, list[KernelCost]]:
    """Every candidate's kernel-cost list for one tuning key.

    Built from the variants' cost-only estimators — pure shape functions,
    no numerics, no timeline. The attention modules are imported lazily:
    ``repro.attention.adaptive`` consumes this module, so a module-level
    import back into ``repro.attention`` would close an import cycle.
    """
    from repro.attention.flash import flash_attention_cost
    from repro.attention.onthefly import otf_attention_cost
    from repro.attention.partial import partial_otf_costs

    device = device_by_name(key.device)
    h, s, dk, vw = key.num_heads, key.seq_len, key.d_k, key.v_width
    costs = {
        "otf": [
            otf_attention_cost(h, s, dk, vw, key.has_mask,
                               key.bytes_per_elem, key.tensor_core)
        ],
        "partial_otf": partial_otf_costs(h, s, dk, vw, key.has_mask,
                                         key.bytes_per_elem, key.tensor_core),
    }
    try:
        costs["flash"] = [
            flash_attention_cost(h, s, dk, vw, key.has_mask, device,
                                 key.bytes_per_elem, key.tensor_core)
        ]
    except RuntimeError:
        # No Br×Bc tile fits the device's shared memory (very wide
        # effective V, e.g. folded/condensed heads) — flash is simply not
        # a feasible candidate for this key.
        pass
    return costs


def estimate_attention_us(key: AttentionKey, algo: str) -> float:
    """Modeled wall time of one candidate (launches + trailing syncs).

    Infeasible candidates (flash with no fitting tile) price at ``inf``
    so the arbitration below never selects them.
    """
    costs = attention_algo_costs(key).get(algo)
    if costs is None:
        return float("inf")
    device = device_by_name(key.device)
    return sum(c.time_us(device) for c in costs)


class TuneCache:
    """Thread-safe LRU of attention tuning decisions, JSON-persistable.

    In memory it is an ordered dict + lock + hit/miss/eviction counters;
    on top of that, :meth:`save`/:meth:`load` round-trip the table through
    a deterministically sorted JSON file so tuning survives process
    restarts — the trace-smoke CI job asserts the round trip is
    byte-stable.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1: {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[AttentionKey, str] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: AttentionKey) -> str | None:
        """Return the cached winner (refreshing recency) or count a miss."""
        with self._lock:
            algo = self._entries.get(key)
            if algo is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return algo

    def insert(self, key: AttentionKey, algo: str) -> None:
        """Store one decision, evicting the least recently used."""
        if algo not in ATTENTION_ALGOS:
            raise ValueError(f"unknown attention algorithm {algo!r}")
        with self._lock:
            self._entries[key] = algo
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters (tests)."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot: size, hits, misses, evictions."""
        with self._lock:
            return {"size": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "evictions": self.evictions}

    def save(self, path: str | Path) -> None:
        """Write the table as sorted-key JSON (byte-deterministic)."""
        with self._lock:
            table = {k.to_str(): v for k, v in self._entries.items()}
        payload = {"version": 1, "entries": dict(sorted(table.items()))}
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def load(self, path: str | Path) -> int:
        """Merge a saved table into this cache; returns entries loaded.

        Unknown algorithms or malformed keys raise — a corrupt tune file
        should fail loudly, not silently mistune the engine.
        """
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != 1:
            raise ValueError(
                f"unsupported tune-cache version: {payload.get('version')!r}")
        entries = payload["entries"]
        for text, algo in sorted(entries.items()):
            self.insert(AttentionKey.from_str(text), algo)
        return len(entries)


#: Process-wide attention tune cache, shared by every engine.
TUNE_CACHE = TuneCache()


def _rank(key: AttentionKey, algo: str) -> tuple[float, int]:
    """Sort key: modeled time, then :data:`ATTENTION_ALGOS` order."""
    return estimate_attention_us(key, algo), ATTENTION_ALGOS.index(algo)


def autotune_attention(key: AttentionKey,
                       cache: TuneCache | None = None) -> str:
    """The modeled-fastest attention algorithm for ``key``, cached.

    Cache hit: a dict lookup. Miss: price every candidate in
    :data:`ATTENTION_ALGOS` with its cost-only estimator, insert, return.
    """
    cache = TUNE_CACHE if cache is None else cache
    cached = cache.lookup(key)
    if cached is not None:
        return cached
    best = min(ATTENTION_ALGOS, key=lambda algo: _rank(key, algo))
    cache.insert(key, best)
    return best


def crossover_report(
    num_heads: int,
    d_k: int,
    devices: tuple[DeviceSpec, ...] | None = None,
    seq_lens: range = range(32, 513, 16),
    has_mask: bool = True,
    bytes_per_elem: int = 2,
    cache: TuneCache | None = None,
) -> dict[str, dict]:
    """Per-device three-way winner table and crossover sequence lengths.

    For each device: the winning algorithm at every probed seq_len, plus
    ``crossover[algo]`` = the first probed seq_len from which ``algo`` wins
    every remaining probe (``None`` if it never takes over). This is the
    table the Fig. 7/8 benches and the README quote. With a ``cache`` the
    sweep both reads from and warms it (the ``repro autotune`` CLI
    persists the warmed table).
    """
    from repro.gpu.device import all_devices

    devices = all_devices() if devices is None else devices
    report: dict[str, dict] = {}
    seq_list = list(seq_lens)
    for dev in devices:
        winners: dict[int, str] = {}
        for s in seq_list:
            key = AttentionKey(dev.name, num_heads, s, d_k, d_k, has_mask,
                               bytes_per_elem)
            if cache is not None:
                winners[s] = autotune_attention(key, cache)
            else:
                winners[s] = min(ATTENTION_ALGOS,
                                 key=lambda algo: _rank(key, algo))
        crossover: dict[str, int | None] = {}
        for algo in ATTENTION_ALGOS:
            takes_over = None
            for i, s in enumerate(seq_list):
                if all(winners[t] == algo for t in seq_list[i:]):
                    takes_over = s
                    break
            crossover[algo] = takes_over
        report[dev.name] = {
            "winners": winners,
            "crossover": crossover,
            "params": asdict(
                AttentionKey(dev.name, num_heads, seq_list[0], d_k, d_k,
                             has_mask, bytes_per_elem)),
        }
    return report
