"""Engine base class and result container.

:meth:`Engine.run` loops the layers of one ``(s, d_model)`` sequence,
launching costed kernels into a fresh timeline. :meth:`Engine.run_batch`,
the serving layer's single entry point, validates a whole batch and then
runs its members through that same path concurrently, on one
process-wide thread pool with a thread per CPU the process may use. A
member's run owns its timeline and execution context, and the weights
and sparse formats it reads are never written, so members share nothing
mutable; NumPy's BLAS calls release the interpreter lock, which is where
two members overlap.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.gpu.counters import Timeline
from repro.gpu.device import DeviceSpec, default_device
from repro.ops.context import ExecContext
from repro.runtime.weights import EncoderWeights


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
#: ``active`` is set on the pool's own threads: a ``run_batch`` called from
#: a member runs inline instead of waiting on a pool it may be saturating.
_member_thread = threading.local()


def _mark_member_thread() -> None:
    _member_thread.active = True


def _member_pool() -> ThreadPoolExecutor:
    """The thread pool batch members run on, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=len(os.sched_getaffinity(0)),
                thread_name_prefix="batch-member",
                initializer=_mark_member_thread)
        return _pool


def _forget_pool() -> None:
    """A forked child has none of the parent's threads: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


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
    :meth:`run_layer` (kernel schedule); ``run`` drives the stack and
    collects the timeline.

    Weights are treated as frozen once the engine is constructed — sparse
    formats and the latency-probe cache are derived from them exactly once.
    """

    name = "base"

    def __init__(self, weights: EncoderWeights,
                 device: DeviceSpec | None = None) -> None:
        self.weights = weights
        self.device = device or default_device()
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

    def attention_regimes(self, max_seq_len: int) -> list[tuple[int, str]]:
        """Where this engine's attention operator changes with length.

        Runs ``(last_len, choice)`` in ascending order that cover every
        length from 1 to ``max_seq_len``: lengths up to the first
        ``last_len`` run its ``choice``, and so on. The serving layer
        makes every run's end a bucket edge, so no batch mixes attention
        operators. A baseline engine has one attention path, so one run.
        """
        if max_seq_len < 1:
            raise ValueError(f"max_seq_len must be >= 1: {max_seq_len}")
        return [(max_seq_len, self.name)]

    # -- derived, cached state -----------------------------------------------

    def clear_caches(self) -> None:
        """Forget derived state (the latency memo).

        Only needed if weights are mutated after construction, which also
        requires re-running :meth:`_compile`; normal use never calls this.
        """
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

        Inputs are converted here and *threaded through* —
        :meth:`_run_prepared` never re-converts. Each mask must broadcast
        against its own member's ``(H, s, s)`` attention scores.
        """
        if masks is not None and len(masks) != len(xs):
            raise ValueError(f"got {len(xs)} inputs but {len(masks)} masks")
        coerced = [self._coerce(x, item=i) for i, x in enumerate(xs)]
        mask_list = list(masks) if masks is not None else [None] * len(coerced)
        h = self.weights.config.num_heads
        for i, (x, m) in enumerate(zip(coerced, mask_list)):
            if m is None:
                continue
            scores = (h, x.shape[0], x.shape[0])
            shape = np.shape(m)
            try:
                ok = np.broadcast_shapes(shape, scores) == scores
            except ValueError:
                ok = False
            if not ok:
                raise ValueError(
                    f"batch item {i}: mask of shape {shape} does not "
                    f"broadcast to the {scores} attention scores"
                )
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
    ) -> tuple[list[EngineResult], Timeline]:
        """Run a batch of sequences; the serving batcher's only engine API.

        Validates every input and mask up front (so a malformed request
        cannot fail the batch half-way through), then runs the members
        through the same path as :meth:`run`: a batch of two or more
        concurrently on the process-wide member pool, a batch of one (or
        any batch reached from a member's own thread) inline. If members
        raise, every member still finishes first, and the lowest-index
        failure propagates. Returns the per-request results in member
        order plus one aggregated :class:`Timeline` whose total time is
        the batch's service time on the cost model's serial stream. Each
        member's records are wrapped in a ``request{i}`` region on merge,
        in member order, so the aggregate keeps per-request provenance
        (``time_by_region`` yields ``request0/layer1`` labels and batch
        traces attribute kernels to requests).
        """
        coerced, mask_list = self._coerce_batch(xs, masks)
        members = list(zip(coerced, mask_list))
        if len(members) < 2 or getattr(_member_thread, "active", False):
            results = [self._run_prepared(x, m) for x, m in members]
        else:
            pool = _member_pool()
            futures = [pool.submit(self._run_prepared, x, m)
                       for x, m in members]
            wait(futures)
            results = [f.result() for f in futures]
        agg = Timeline(self.device)
        for i, res in enumerate(results):
            agg.merge(res.timeline, prefix=f"request{i}")
        return results, agg

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
