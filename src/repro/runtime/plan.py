"""Compiled layer plans and the LRU plan cache for packed batch execution.

Every :class:`~repro.gpu.kernel.KernelCost` in this simulator is a pure
function of shapes and mask *presence* — no kernel cost reads activation
values. A :class:`LayerPlan` exploits that: it captures one serial run's
entire :class:`~repro.gpu.counters.KernelRecord` stream (for a given
engine, bucket sequence length and mask shape) as a frozen template. The
packed batch path then replays the template per request — record objects
are immutable and shared — so per-request latencies, ``time_by_region``
provenance and Chrome traces are byte-identical to the per-sequence path
*by construction*, while the numerics run once, batched over ``(B, s, d)``.

The serial run a plan freezes is, on the serving path, the first real
member of the batch group that missed the cache
(:meth:`~repro.runtime.engine.Engine.run_packed`): its output is that
member's answer, so capturing a plan costs no extra forward pass. Callers
that hold no input (:func:`repro.obs.trace.build_trace`, tests) compile
through :func:`compile_plan`'s all-zeros probe instead; both go through
:func:`capture_plan`.

Plans also reference the engine's pre-packed weight stacks
(:class:`PackedLayer`): head-major ``(H, d_model, d_k)`` projection stacks,
the stacked QKV operand assembled from those stacks, pre-transposed
contiguous copies of the dense projection/FFN weights, and — for the
pre-computed schedule — the offline-folded W_V·W_O product. Pre-transposed
contiguous copies feed BLAS the exact same values as the on-the-fly ``.T``
views, so results stay bitwise equal (the packed-equivalence tests pin
this down).

Plans are cached in a process-wide LRU keyed by a weights fingerprint, so
distinct engines (or re-built engines with identical weights) share
compiled plans, and serving workers stop re-deriving per-call costs and
crossover decisions for every request of a repeated bucket length.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.gpu.counters import KernelRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.runtime.engine import Engine, EngineResult
    from repro.runtime.weights import EncoderWeights, LayerWeights

#: Default LRU capacity: a serving deployment sees one plan per
#: (engine weights, bucket length, mask shape), so a few dozen is generous.
DEFAULT_PLAN_CACHE_SIZE = 64


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

_LAYER_ARRAYS = ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo",
                 "ln1_g", "ln1_b", "ln2_g", "ln2_b",
                 "fc1_w", "fc1_b", "fc2_w", "fc2_b")


def weights_fingerprint(weights: "EncoderWeights") -> str:
    """sha256 over the config, every parameter array and the pruning roles.

    Engines treat weights as frozen after construction (they compile sparse
    formats from them once), so the fingerprint is computed once per engine
    and reused as the plan-cache key component.
    """
    h = hashlib.sha256()
    cfg = weights.config
    h.update(repr((cfg.name, cfg.d_model, cfg.num_heads, cfg.d_ff,
                   len(weights.layers))).encode())
    for lw in weights.layers:
        for name in _LAYER_ARRAYS:
            a = np.ascontiguousarray(getattr(lw, name))
            h.update(name.encode())
            h.update(repr((a.shape, a.dtype.str)).encode())
            h.update(a.tobytes())
        for kind in sorted(lw.roles):
            h.update(f"{kind}:{lw.roles[kind].value}".encode())
    return h.hexdigest()


def engine_fingerprint(engine: "Engine") -> str:
    """Weights fingerprint extended with the engine's identity and knobs."""
    h = hashlib.sha256()
    h.update(repr((type(engine).__name__, engine.name, engine.device.name,
                   getattr(engine, "precompute", None),
                   getattr(engine, "sparsity_threshold", None))).encode())
    h.update(weights_fingerprint(engine.weights).encode())
    return h.hexdigest()


def mask_fingerprint(mask: np.ndarray | None) -> str | None:
    """Stable digest of an additive mask (``None`` stays ``None``).

    Used as the :meth:`Engine.latency_us` memoization key component: two
    probes with bytewise-equal masks share one cached latency.
    """
    if mask is None:
        return None
    m = np.ascontiguousarray(np.asarray(mask))
    h = hashlib.sha256(repr((m.shape, m.dtype.str)).encode())
    h.update(m.tobytes())
    return h.hexdigest()[:32]


# ---------------------------------------------------------------------------
# packed weight stacks
# ---------------------------------------------------------------------------


def head_stack(w: np.ndarray, num_heads: int) -> np.ndarray:
    """Split a ``(d_out, d_in)`` projection into head-major GEMM operands.

    Returns a contiguous ``(H, d_in, d_k)`` stack where slab ``h`` equals
    ``w[h*d_k:(h+1)*d_k, :].T`` — the operand batched per-head einsums
    consume when a schedule wants head-separated projections.
    """
    d_out, d_in = w.shape
    if d_out % num_heads:
        raise ValueError(f"d_out {d_out} not divisible by H={num_heads}")
    d_k = d_out // num_heads
    return np.ascontiguousarray(
        w.T.reshape(d_in, num_heads, d_k).transpose(1, 0, 2))


@dataclass
class PackedLayer:
    """One layer's pre-packed operands for the batched numerics.

    ``*_t`` members are transpose *views* with exactly the strides of the
    ``w.T`` operands the serial engines hand to the GEMMs. That is a
    correctness requirement, not a convenience: BLAS picks kernels by
    memory layout, and at small shapes a contiguous copy of ``w.T`` can
    produce bitwise-different products than the transposed view — the
    packed path must feed byte- and stride-identical operands to stay
    bitwise equal to serial execution. ``qkv_wt`` mirrors the serial
    engines' horizontally-fused ``concatenate([wq, wk, wv]).T`` view the
    same way. ``m_heads``/``b_fold`` carry the offline-folded W_V·W_O
    product when the owning engine runs the pre-computed schedule (they
    reference the engine's compiled fold — no recomputation).
    """

    q_heads: np.ndarray
    k_heads: np.ndarray
    v_heads: np.ndarray
    qkv_wt: np.ndarray
    qkv_b: np.ndarray
    wq_t: np.ndarray
    wk_t: np.ndarray
    wv_t: np.ndarray
    wo_t: np.ndarray
    fc1_t: np.ndarray
    fc2_t: np.ndarray
    m_heads: np.ndarray | None = None
    b_fold: np.ndarray | None = None


def pack_layer_weights(lw: "LayerWeights", num_heads: int) -> PackedLayer:
    """Build one layer's :class:`PackedLayer` from its dense weights."""
    return PackedLayer(
        q_heads=head_stack(lw.wq, num_heads),
        k_heads=head_stack(lw.wk, num_heads),
        v_heads=head_stack(lw.wv, num_heads),
        qkv_wt=np.concatenate([lw.wq, lw.wk, lw.wv], axis=0).T,
        qkv_b=np.concatenate([lw.bq, lw.bk, lw.bv]),
        wq_t=lw.wq.T,
        wk_t=lw.wk.T,
        wv_t=lw.wv.T,
        wo_t=lw.wo.T,
        fc1_t=lw.fc1_w.T,
        fc2_t=lw.fc2_w.T,
    )


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanKey:
    """Identity of one compiled plan.

    ``mask_shape`` is the raw (pre-broadcast) additive-mask shape, or
    ``None`` for unmasked runs — the only mask property any kernel cost
    reads. Batch size is deliberately absent: the template is one
    *per-request* record stream replayed per member, and the batched
    numerics broadcast over B, so one plan serves every batch size of its
    bucket.
    """

    fingerprint: str
    seq_len: int
    mask_shape: tuple[int, ...] | None


@dataclass
class LayerPlan:
    """One compiled execution plan: frozen cost template + packed weights."""

    key: PlanKey
    records: tuple[KernelRecord, ...]
    choices: dict[str, str]
    latency_us: float
    packed: list[PackedLayer]

    @property
    def num_kernels(self) -> int:
        """Kernel launches one request of this plan replays."""
        return len(self.records)

    def attention_choice(self, layer_idx: int) -> str:
        """The recorded full/partial-OTF decision for one layer."""
        return self.choices[f"layer{layer_idx}.attention"]


class PlanCache:
    """Thread-safe LRU of compiled plans with hit/miss/eviction counters."""

    def __init__(self, maxsize: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1: {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[PlanKey, LayerPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: PlanKey) -> LayerPlan | None:
        """Return the cached plan (refreshing recency) or count a miss."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def insert(self, key: PlanKey, plan: LayerPlan) -> None:
        """Store one compiled plan, evicting the least recently used."""
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        """Drop every plan and reset the counters (tests)."""
        with self._lock:
            self._plans.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot: size, hits, misses, evictions."""
        with self._lock:
            return {"size": len(self._plans), "hits": self.hits,
                    "misses": self.misses, "evictions": self.evictions}


#: Process-wide plan cache shared by every engine (thread-safe; the
#: thread-backed server's workers each own an engine but share plans).
PLAN_CACHE = PlanCache()


def plan_key(engine: "Engine", seq_len: int,
             mask_shape: tuple[int, ...] | None) -> PlanKey:
    """The cache key of ``engine``'s plan for one bucket shape."""
    return PlanKey(fingerprint=engine.plan_fingerprint(),
                   seq_len=int(seq_len), mask_shape=mask_shape)


def capture_plan(engine: "Engine", key: PlanKey,
                 ref: "EngineResult") -> LayerPlan:
    """Freeze one serial run of ``key``'s shape as a replay template.

    ``ref`` is the :class:`~repro.runtime.engine.EngineResult` of that run;
    its records, choices and total latency are what the packed path
    replays per request.
    """
    return LayerPlan(
        key=key,
        records=tuple(ref.timeline.records),
        choices=dict(ref.choices),
        latency_us=ref.timeline.total_time_us,
        packed=engine.packed_weights,
    )


def compile_plan(engine: "Engine", key: PlanKey) -> LayerPlan:
    """Capture an all-zeros serial run, for callers that have no input.

    Activation values influence no kernel cost, so a zeros run records
    exactly the stream any real input of the same shape would. The packed
    path does not use this probe: it captures its plan from the first
    member of the group that missed (see the module docstring).
    """
    d_model = engine.weights.config.d_model
    x = np.zeros((key.seq_len, d_model), dtype=np.float64)
    mask = (None if key.mask_shape is None
            else np.zeros(key.mask_shape, dtype=np.float64))
    return capture_plan(engine, key, engine._run_prepared(x, mask))


def get_plan(engine: "Engine", seq_len: int,
             mask_shape: tuple[int, ...] | None,
             cache: PlanCache | None = None) -> LayerPlan:
    """Fetch (or compile with the zeros probe and cache) one bucket's plan."""
    if cache is None:  # empty caches are falsy — test identity, not truth
        cache = PLAN_CACHE
    key = plan_key(engine, seq_len, mask_shape)
    plan = cache.lookup(key)
    if plan is None:
        plan = compile_plan(engine, key)
        cache.insert(key, plan)
    return plan


def replay_records(plan: LayerPlan, timeline: Any) -> None:
    """Append the plan's template records to ``timeline`` (shared objects).

    :class:`KernelRecord` is frozen, so replayed records are safely shared
    between every per-request timeline and the batch aggregate;
    :meth:`Timeline.merge` re-wraps them with ``request{i}`` prefixes via
    ``dataclasses.replace`` exactly as the serial batch path does.
    """
    timeline.records.extend(plan.records)
