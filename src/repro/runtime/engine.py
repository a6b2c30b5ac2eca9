"""Engine base class and result container.

Two execution paths drive the same per-layer kernel schedules:

- **serial** — :meth:`Engine.run` loops layers for one ``(s, d_model)``
  sequence, launching costed kernels into a fresh timeline;
- **packed** — :meth:`Engine.run_packed` groups a batch by
  ``(seq_len, mask shape)``, stacks each group into one ``(B, s, d_model)``
  tensor and drives the whole stack with batched numerics, while replaying
  a compiled :class:`~repro.runtime.plan.LayerPlan`'s record template for
  byte-identical per-request cost provenance. Groups vectorize only over
  equal lengths — zero-padding ragged members would change reduction
  lengths and therefore floating-point summation order, breaking the
  bitwise-equality contract the packed-equivalence tests enforce.

:meth:`Engine.run_batch` is the serving layer's single entry point; it
dispatches to the packed path automatically whenever the engine implements
it and the batch has more than one member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.gpu.counters import Timeline
from repro.gpu.device import DeviceSpec, default_device
from repro.ops.context import ExecContext
from repro.runtime.plan import (
    PLAN_CACHE,
    LayerPlan,
    PackedLayer,
    capture_plan,
    engine_fingerprint,
    mask_fingerprint,
    pack_layer_weights,
    plan_key,
    replay_records,
)
from repro.runtime.weights import EncoderWeights


@dataclass
class EngineResult:
    """Output of one engine invocation."""

    output: np.ndarray
    timeline: Timeline
    choices: dict[str, str] = field(default_factory=dict)

    @property
    def latency_us(self) -> float:
        """End-to-end model latency in cost-model microseconds."""
        return self.timeline.total_time_us


class Engine:
    """Base inference engine: runs an encoder stack over one sequence.

    Subclasses implement :meth:`make_ctx` (precision/pattern policy) and
    :meth:`run_layer` (kernel schedule); optionally
    :meth:`_run_layer_packed` (the batched numerics twin of the schedule,
    which unlocks :meth:`run_packed`). ``run`` drives the stack and
    collects the timeline.

    Weights are treated as frozen once the engine is constructed — sparse
    formats, packed stacks, the plan fingerprint and the latency-probe
    cache are all derived from them exactly once.
    """

    name = "base"

    def __init__(self, weights: EncoderWeights,
                 device: DeviceSpec | None = None) -> None:
        self.weights = weights
        self.device = device or default_device()
        self._plan_fingerprint: str | None = None
        self._packed_weights: list[PackedLayer] | None = None
        self._latency_cache: dict[tuple, float] = {}
        self._compile()

    # -- hooks ----------------------------------------------------------------

    def _compile(self) -> None:
        """One-time preparation (sparse format construction, folding)."""

    def make_ctx(self, tl: Timeline) -> ExecContext:  # pragma: no cover
        """Build the engine's precision/pattern execution policy."""
        raise NotImplementedError

    def run_layer(self, ctx: ExecContext, x: np.ndarray, layer_idx: int,
                  mask: np.ndarray | None, choices: dict[str, str]) -> np.ndarray:
        """Execute one encoder layer, recording its kernels into ``ctx``."""
        raise NotImplementedError  # pragma: no cover

    def _run_layer_packed(self, xb: np.ndarray, layer_idx: int,
                          mask_b: np.ndarray | None,
                          plan: LayerPlan) -> np.ndarray:
        """Batched numerics twin of :meth:`run_layer` over ``(B, s, d)``.

        Launches nothing: cost provenance comes from the plan's replayed
        record template. Must mirror the serial schedule's floating-point
        op order exactly — outputs are required to be bitwise equal.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no packed layer schedule"
        )

    # -- derived, cached state -----------------------------------------------

    @property
    def supports_packed(self) -> bool:
        """Whether this engine implements the packed batch path."""
        return type(self)._run_layer_packed is not Engine._run_layer_packed

    def plan_fingerprint(self) -> str:
        """The engine's plan-cache identity (weights + knobs), computed once."""
        if self._plan_fingerprint is None:
            self._plan_fingerprint = engine_fingerprint(self)
        return self._plan_fingerprint

    @property
    def packed_weights(self) -> list[PackedLayer]:
        """Per-layer packed weight stacks, built lazily once per engine."""
        if self._packed_weights is None:
            self._packed_weights = [
                self._pack_layer(i) for i in range(len(self.weights.layers))
            ]
        return self._packed_weights

    def _pack_layer(self, layer_idx: int) -> PackedLayer:
        """Build one layer's packed stacks (subclasses may extend)."""
        return pack_layer_weights(self.weights.layers[layer_idx],
                                  self.weights.config.num_heads)

    def clear_caches(self) -> None:
        """Forget derived state (fingerprint, packed stacks, latency memo).

        Only needed if weights are mutated after construction, which also
        requires re-running :meth:`_compile`; normal use never calls this.
        """
        self._plan_fingerprint = None
        self._packed_weights = None
        self._latency_cache.clear()

    # -- validation ------------------------------------------------------------

    def _coerce(self, x: np.ndarray, item: int | None = None) -> np.ndarray:
        """Validate and convert one input to float64 ``(s, d_model)``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.weights.config.d_model:
            where = f"batch item {item}: " if item is not None else ""
            raise ValueError(
                f"{where}expected (s, {self.weights.config.d_model}) input, "
                f"got {x.shape}"
            )
        return x

    def _coerce_batch(
        self,
        xs: Sequence[np.ndarray],
        masks: Sequence[np.ndarray | None] | None,
    ) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
        """Validate and convert a whole batch exactly once.

        Both batch entry points share this, so inputs are converted here
        and *threaded through* — :meth:`_run_prepared` never re-converts
        (the double ``asarray`` the old ``run_batch``→``run`` pair paid).
        """
        if masks is not None and len(masks) != len(xs):
            raise ValueError(f"got {len(xs)} inputs but {len(masks)} masks")
        coerced = [self._coerce(x, item=i) for i, x in enumerate(xs)]
        mask_list = list(masks) if masks is not None else [None] * len(coerced)
        return coerced, mask_list

    # -- driving -----------------------------------------------------------------

    def run(self, x: np.ndarray, mask: np.ndarray | None = None) -> EngineResult:
        """Run the full encoder stack on ``x`` of shape ``(s, d_model)``."""
        return self._run_prepared(self._coerce(x), mask)

    def _run_prepared(self, x: np.ndarray,
                      mask: np.ndarray | None) -> EngineResult:
        """Serial path over an already-validated float64 input."""
        tl = Timeline(self.device)
        ctx = self.make_ctx(tl)
        choices: dict[str, str] = {}
        y = x
        for i in range(len(self.weights.layers)):
            with tl.region(f"layer{i}"):
                y = self.run_layer(ctx, y, i, mask, choices)
        return EngineResult(output=y, timeline=tl, choices=choices)

    def run_batch(
        self,
        xs: Sequence[np.ndarray],
        masks: Sequence[np.ndarray | None] | None = None,
        packed: bool | None = None,
    ) -> tuple[list[EngineResult], Timeline]:
        """Run a batch of sequences; the serving batcher's only engine API.

        Validates every input shape up front (so a malformed request cannot
        fail the batch half-way through) and returns the per-request results
        plus one aggregated :class:`Timeline` whose total time is the
        batch's service time on the cost model's serial stream. Each
        member's records are wrapped in a ``request{i}`` region on merge, so
        the aggregate keeps per-request provenance (``time_by_region``
        yields ``request0/layer1`` labels and batch traces attribute kernels
        to requests).

        ``packed`` selects the execution path: ``None`` (default) uses the
        packed path whenever the engine supports it and the batch has more
        than one member, ``True``/``False`` force one side. Both paths
        produce bitwise-identical results.
        """
        coerced, mask_list = self._coerce_batch(xs, masks)
        if packed is None:
            packed = self.supports_packed and len(coerced) > 1
        if packed:
            return self._run_packed_prepared(coerced, mask_list)
        agg = Timeline(self.device)
        results = []
        for i, x in enumerate(coerced):
            res = self._run_prepared(x, mask_list[i])
            results.append(res)
            agg.merge(res.timeline, prefix=f"request{i}")
        return results, agg

    # -- packed path ------------------------------------------------------------

    def run_packed(
        self,
        xs: Sequence[np.ndarray],
        masks: Sequence[np.ndarray | None] | None = None,
    ) -> tuple[list[EngineResult], Timeline]:
        """Packed batch execution: identical results, batched numerics.

        Members are grouped by ``(seq_len, mask shape)``; each group is
        stacked into one ``(B, s, d_model)`` tensor and driven through the
        batched layer schedules in a single pass, with attention vectorized
        over batch *and* heads. Per-request timelines replay the group's
        compiled :class:`~repro.runtime.plan.LayerPlan` template, so
        outputs, latencies and traces are byte-identical to
        ``run_batch(..., packed=False)``. A group whose plan is not cached
        runs its first member serially and freezes that run as the plan;
        the rest of the group then runs packed.
        """
        coerced, mask_list = self._coerce_batch(xs, masks)
        return self._run_packed_prepared(coerced, mask_list)

    def _run_packed_prepared(
        self,
        xs: list[np.ndarray],
        masks: list[np.ndarray | None],
    ) -> tuple[list[EngineResult], Timeline]:
        groups: dict[tuple[int, tuple[int, ...] | None], list[int]] = {}
        for i, (x, m) in enumerate(zip(xs, masks)):
            shape = None if m is None else tuple(np.asarray(m).shape)
            groups.setdefault((x.shape[0], shape), []).append(i)

        results: list[EngineResult | None] = [None] * len(xs)
        for (seq_len, mask_shape), members in groups.items():
            if seq_len == 1:
                # A one-row product goes to BLAS gemv; stacked, the same
                # rows would go to gemm, which rounds differently.
                for i in members:
                    results[i] = self._run_prepared(xs[i], masks[i])
                continue
            key = plan_key(self, seq_len, mask_shape)
            plan = PLAN_CACHE.lookup(key)
            if plan is None:
                # The first member's own serial run is the template: its
                # records are what any input of this shape launches.
                first, *members = members
                ref = self._run_prepared(xs[first], masks[first])
                results[first] = ref
                plan = capture_plan(self, key, ref)
                PLAN_CACHE.insert(key, plan)
                if not members:
                    continue
            xb = np.stack([xs[i] for i in members])
            mask_b = None
            if mask_shape is not None:
                stacked = np.stack([np.asarray(masks[i]) for i in members])
                # (B, 1, *mask_shape): broadcasts against (B, H, s, s)
                # scores exactly as the serial (s, s) mask broadcasts
                # against (H, s, s).
                mask_b = stacked.reshape(len(members), 1, *mask_shape)
            yb = self._forward_packed(xb, mask_b, plan)
            for j, i in enumerate(members):
                tl = Timeline(self.device)
                replay_records(plan, tl)
                results[i] = EngineResult(
                    output=yb[j], timeline=tl, choices=dict(plan.choices)
                )

        agg = Timeline(self.device)
        done = [res for res in results if res is not None]
        for i, res in enumerate(done):
            agg.merge(res.timeline, prefix=f"request{i}")
        return done, agg

    def _forward_packed(self, xb: np.ndarray, mask_b: np.ndarray | None,
                        plan: LayerPlan) -> np.ndarray:
        """Drive all layers of one packed group through the batched schedule."""
        y = xb
        for i in range(len(self.weights.layers)):
            y = self._run_layer_packed(y, i, mask_b, plan)
        return y

    # -- probing ----------------------------------------------------------------

    def latency_us(self, seq_len: int | None = None,
                   mask: np.ndarray | None = None, seed: int = 0,
                   x: np.ndarray | None = None) -> float:
        """Model latency for one input of the given sequence length.

        Pass a pre-built ``x`` to avoid re-drawing RNG inputs per call — the
        serving load generator builds one input per sequence length and
        reuses it so repeated latency probes are deterministic and cheap.
        Without ``x``, a random ``(seq_len, d_model)`` input is drawn.

        Results are memoized per engine, keyed by
        ``(seq_len, mask fingerprint, seed)`` (plus the input digest when a
        pre-built ``x`` is supplied), so bucket-policy construction and the
        load generator stop re-running the full stack for repeated probe
        lengths.
        """
        if x is None:
            if seq_len is None:
                raise ValueError("need either seq_len or a pre-built x")
            key = (int(seq_len), mask_fingerprint(mask), int(seed), None)
        else:
            x = self._coerce(x)
            if seq_len is not None and x.shape[0] != seq_len:
                raise ValueError(
                    f"pre-built x has seq_len {x.shape[0]}, expected {seq_len}"
                )
            digest = mask_fingerprint(x)  # same stable array digest
            key = (x.shape[0], mask_fingerprint(mask), None, digest)
        cached = self._latency_cache.get(key)
        if cached is not None:
            return cached
        if x is None:
            rng = np.random.default_rng(seed)
            x = self._coerce(
                rng.standard_normal((seq_len, self.weights.config.d_model))
            )
        t = self._run_prepared(x, mask).latency_us
        self._latency_cache[key] = t
        return t
