"""The benchmark's workloads: what runs, how it is driven, what is measured.

Three workloads, chosen so each stresses different layers:

- ``batch`` — the paper's operating point (BERT_BASE shapes, seqLen 128,
  attention-aware pruning at 80 %, as in Fig. 1/7), driven straight
  through ``Engine.run_batch`` in batches of 2. No serving layer: time
  goes to the engine's numerics (``tensor``, ``ops``, ``attention``) and
  its cost model (``gpu``).
- ``open`` — open loop at 2.5 requests/s, about a fifth of the 11.3
  sequences/s the ``closed`` workload reaches on a 2-vCPU host, into the
  thread-backed ``AsyncServer``. The lengths are those of ``repro
  loadgen``, seqLen 32–320 in steps of 32, so lengths from 224 up run
  flash attention. Arrivals are evenly spaced, one every 0.4 s, not
  loadgen's Poisson gaps: within a 20 s window, random gaps made the p95
  a property of the seed's draw. Latency is timed from when each request
  was due, so a stalled generator counts; a request that arrives while
  a long one runs shares the CPUs with it.
- ``closed`` — four closed-loop clients (each waits for its reply) on
  the same server and mix: the server's throughput, where batching
  decisions and engine time interact.

All three run paper shapes. The small serving model (d_model 64) would
put the serving loop itself in front, but on a 2-CPU host its latency is
set by interpreter-lock hand-offs between threads and varied by 25–40 %
between runs, too much to bound a regression.

Every request gets a fresh input drawn from ``(seed, request id)``, so no
cache keyed by payload content can answer it; the model weights are fixed
(seed 0), as a deployed model would be.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from reference import encoder_forward

#: Seed of the model weights (the "deployed model"); ``--seed`` varies traffic.
WEIGHT_SEED = 0
#: One BERT_BASE encoder layer keeps a paper-shape request near 0.1 s.
NUM_LAYERS = 1
SPARSITY = 0.8
MAX_BATCH = 8
MAX_WAIT_US = 2_000.0
#: Deep enough that no request of any workload is ever turned away.
MAX_DEPTH = 4096
WORKERS = 2
RESULT_TIMEOUT_S = 60.0
#: Every CHECK_EVERY-th request id's output, up to MAX_CHECKS of them, is
#: compared with the reference after the window.
CHECK_EVERY = 10
MAX_CHECKS = 12


@dataclass(frozen=True)
class Workload:
    name: str  # also picks the traffic loop: "batch" | "open" | "closed"
    lengths: tuple[int, ...]
    batch: int = 0  # batch: sequences per run_batch call
    rate_per_s: float = 0.0  # open loop: arrivals per second
    clients: int = 0  # closed loop: concurrent clients


#: The serving mix of ``repro loadgen``: seqLen 32..320 in steps of 32,
#: each length equally often. Lengths from 224 up run past the attention
#: crossover, where the engine selects flash attention instead of OTF.
SERVING_LENGTHS = tuple(range(32, 321, 32))

WORKLOADS = {
    "batch": Workload("batch", (128,), batch=2),
    "open": Workload("open", SERVING_LENGTHS, rate_per_s=2.5),
    "closed": Workload("closed", SERVING_LENGTHS, clients=4),
}


class Harness:
    """One ready-to-measure instance of a workload: model, engines, server."""

    def __init__(self, wl: Workload, seed: int) -> None:
        from repro.config import BERT_BASE
        from repro.pruning import PruneMethod
        from repro.runtime import EncoderWeights, ETEngine

        self.wl, self.seed, self.cfg = wl, seed, BERT_BASE
        rng = np.random.default_rng(WEIGHT_SEED)
        self.weights = EncoderWeights.random(self.cfg, rng, NUM_LAYERS)
        _randomize_affine(self.weights.layers, rng)
        # Pruning then zeroes the biases of the output rows it removes.
        self.weights.prune(PruneMethod.ATTENTION_AWARE, SPARSITY)
        self.server = None
        if wl.name == "batch":
            self.engine = ETEngine(self.weights)
            self.engine.run_batch([np.zeros((s, self.cfg.d_model))
                                   for s in wl.lengths for _ in range(wl.batch)])
            return
        from repro.serving import AsyncServer, make_policy, model_crossover

        engines = [ETEngine(self.weights) for _ in range(WORKERS)]
        max_len = max(wl.lengths)
        crossover = model_crossover(self.cfg.num_heads, self.cfg.d_head,
                                    max_len, device=engines[0].device)
        policy = make_policy("fine64", crossover, max_len)
        self.server = AsyncServer(engines, policy, max_batch=MAX_BATCH,
                                  max_wait_us=MAX_WAIT_US,
                                  max_depth=MAX_DEPTH).start()
        # A batch of two per length compiles its packed plan up front.
        for s in wl.lengths:
            futs = [self.server.submit(np.zeros((s, self.cfg.d_model)))
                    for _ in range(2)]
            for f in futs:
                f.result(timeout=RESULT_TIMEOUT_S)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def input(self, rid: int) -> np.ndarray:
        """Request ``rid``'s payload, a function of ``(seed, rid)`` only.

        Every block of ``len(lengths)`` consecutive ids holds each length
        once, in a seeded order: all seeds offer the same mix of work, so
        a latency percentile does not move with how many long requests a
        seed happened to draw.
        """
        k = len(self.wl.lengths)
        order = np.random.default_rng([self.seed, rid // k, k]).permutation(k)
        s = self.wl.lengths[order[rid % k]]
        rng = np.random.default_rng([self.seed, rid])
        return rng.standard_normal((s, self.cfg.d_model))


class Run:
    """What one measurement window observed."""

    def __init__(self) -> None:
        #: ``(rid, start_s, end_s)`` per timed request, ``perf_counter`` clock.
        self.requests: list[tuple[int, float, float]] = []
        self.attempted = 0
        #: valid outputs; every other attempt counts as failed
        self.completed = 0
        # throughput = counted / elapsed_s
        self.counted = 0
        self.elapsed_s = 0.0
        self.modeled_us = 0.0
        self.queue_wait_ms: list[float] = []
        self.lag_ms: list[float] = []
        self.kept: dict[int, np.ndarray] = {}
        self.lock = threading.Lock()

    @property
    def latencies_ms(self) -> list[float]:
        return [(t1 - t0) * 1e3 for _, t0, t1 in self.requests]

    def keep(self, rid: int, out: np.ndarray) -> None:
        if rid % CHECK_EVERY == 0 and len(self.kept) < MAX_CHECKS:
            self.kept[rid] = out

    def record(self, rid: int, x: np.ndarray, resp, t0: float,
               t1: float) -> bool:
        """Account one server response (``None`` if the request raised);
        returns whether it completed with a valid output."""
        if resp is None or not resp.ok or not _valid(resp.output, x):
            return False
        with self.lock:
            self.completed += 1
            self.requests.append((rid, t0, t1))
            self.queue_wait_ms.append(resp.queue_us / 1e3)
            self.modeled_us += resp.service_us / resp.batch_size
            self.keep(rid, resp.output)
        return True

    def check(self, h: Harness) -> int:
        """Compare kept outputs with the reference; returns mismatches."""
        bad = 0
        for rid, out in self.kept.items():
            ref = encoder_forward(h.weights.layers, h.cfg.num_heads,
                                  h.input(rid))
            # Flash attention (the engine's pick past the crossover) keeps
            # an FP32 accumulator, so its outputs differ from fp64 by up to
            # about 2.5e-8; a 3e-4 relative change to the GELU constant
            # moves them by about 1e-6. 2e-7 separates the two.
            if out.shape != ref.shape or not np.allclose(out, ref, rtol=0.0,
                                                        atol=2e-7):
                bad += 1
        return bad


def _randomize_affine(layers, rng: np.random.Generator) -> None:
    """Seeded biases and LayerNorm scales/shifts in place of the zeros and
    ones ``EncoderWeights.random`` leaves there, so the reference check
    sees a dropped bias or a swapped gamma/beta."""
    for lw in layers:
        for name in ("bq", "bk", "bv", "bo", "fc1_b", "fc2_b"):
            setattr(lw, name, rng.normal(0.0, 0.1, getattr(lw, name).shape))
        for name in ("ln1_g", "ln2_g"):
            setattr(lw, name, rng.uniform(0.5, 1.5, getattr(lw, name).shape))
        for name in ("ln1_b", "ln2_b"):
            setattr(lw, name, rng.normal(0.0, 0.1, getattr(lw, name).shape))


def _valid(out, x: np.ndarray) -> bool:
    return (out is not None and out.shape == x.shape
            and bool(np.isfinite(out).all()))


def drive(h: Harness, seconds: float) -> Run:
    return {"batch": _drive_batch, "open": _drive_open,
            "closed": _drive_closed}[h.wl.name](h, seconds)


def _drive_batch(h: Harness, seconds: float) -> Run:
    """Back-to-back ``run_batch`` calls; one call is one timed request."""
    run, wl = Run(), h.wl
    rid = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        xs = [h.input(rid + i) for i in range(wl.batch)]
        t0 = time.perf_counter()
        results, agg = h.engine.run_batch(xs)
        t1 = time.perf_counter()
        run.requests.append((rid, t0, t1))
        run.elapsed_s += t1 - t0
        run.modeled_us += agg.total_time_us
        run.attempted += wl.batch
        for i, (x, res) in enumerate(zip(xs, results)):
            if _valid(res.output, x):
                run.completed += 1
                run.keep(rid + i, res.output)
        rid += wl.batch
    run.counted = run.completed
    return run


def _drive_open(h: Harness, seconds: float) -> Run:
    """Arrivals on a seeded schedule, independent of completions; each
    request is timed from when it was due, so lateness of the generator
    counts against it."""
    run, wl = Run(), h.wl
    # Evenly spaced arrivals. With Poisson gaps, or one arrival at a
    # random instant per slot, whether two long requests collided was
    # down to the seed's draw, and the p95 of a 20 s window moved by
    # 30-40 % from seed to seed; here the seed sets only the order of
    # lengths and the payloads.
    slot = 1.0 / wl.rate_per_s
    n = max(1, round(seconds * wl.rate_per_s))
    dues = (np.arange(n) + 0.5) * slot
    # A future wakes its waiters before it runs its callbacks, so the
    # window ends when the last done() has run, not when a future resolves.
    pending = [n]
    all_done = threading.Event()
    t_start = time.perf_counter()
    for rid, due in enumerate(dues.tolist()):
        x = h.input(rid)
        due_abs = t_start + due
        delay = due_abs - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        run.lag_ms.append((time.perf_counter() - due_abs) * 1e3)
        run.attempted += 1

        def done(f, rid=rid, x=x, due_abs=due_abs):
            t = time.perf_counter()
            run.record(rid, x, None if f.exception() else f.result(),
                       due_abs, t)
            with run.lock:
                pending[0] -= 1
                if pending[0] == 0:
                    all_done.set()

        h.server.submit(x).add_done_callback(done)
    if not all_done.wait(timeout=RESULT_TIMEOUT_S):
        raise RuntimeError("open-loop requests did not finish")
    run.counted = run.completed
    run.elapsed_s = max((t1 for _, _, t1 in run.requests),
                        default=t_start + seconds) - t_start
    return run


def _drive_closed(h: Harness, seconds: float) -> Run:
    """``clients`` threads, each sending its next request on the reply."""
    run, wl = Run(), h.wl
    rids = itertools.count()
    end = time.perf_counter() + seconds

    def client() -> None:
        while time.perf_counter() < end:
            rid = next(rids)
            x = h.input(rid)
            with run.lock:
                run.attempted += 1
            t0 = time.perf_counter()
            fut = h.server.submit(x)
            error = fut.exception(timeout=RESULT_TIMEOUT_S)
            t1 = time.perf_counter()
            ok = run.record(rid, x, None if error else fut.result(), t0, t1)
            if ok and t1 <= end:
                with run.lock:
                    run.counted += 1

    threads = [threading.Thread(target=client, name=f"client-{c}")
               for c in range(wl.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 2 * RESULT_TIMEOUT_S)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a closed-loop client did not finish")
    run.elapsed_s = seconds
    return run
