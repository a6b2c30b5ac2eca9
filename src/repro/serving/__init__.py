"""Serving layer: bucketed dynamic batching, load gen.

The pipeline (the ROADMAP's traffic-scaling track)::

    Request --> DynamicBatcher ----------------------> EngineWorker pool
    (admit /    (one FIFO per length bucket;           (Engine.run_batch,
     reject)     engine's attention switches as edges) cost-model service)

:class:`~repro.serving.core.ServingCore` owns the batcher (the one
pending store) and the recorders (metrics, event log) and records every
transition; the Chrome trace is derived from the event log after the run.
Three backends drive it, each keeping only its dispatch model:

- :class:`~repro.serving.scheduler.Scheduler` — deterministic virtual-time
  simulation (the ``loadgen`` CLI and the serving benches).
- :class:`~repro.serving.server.AsyncServer` — engine threads behind a
  futures API (the ``serve`` CLI).
- :class:`~repro.serving.pool.PoolServer` — replica processes behind the
  same futures API (``serve``/``loadgen --workers N``): shared-memory
  weights, the thread server's worker loop sending each batch to the
  lowest free replica slot, per-tenant quotas.
"""

from repro.serving.batcher import Batch, DynamicBatcher, QueueFullError
from repro.serving.bucketing import BucketPolicy, make_policy, model_crossover
from repro.serving.loadgen import (
    LoadgenResult,
    LoadgenSpec,
    build_engine,
    make_slo_policy,
    run_loadgen,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.pool import (
    AdmissionController,
    PoolServer,
    QuotaExceededError,
)
from repro.serving.request import Request, Response, ResponseStatus
from repro.serving.scheduler import EngineWorker, Scheduler
from repro.serving.server import AsyncServer

__all__ = [
    "AdmissionController",
    "AsyncServer",
    "Batch",
    "BucketPolicy",
    "DynamicBatcher",
    "EngineWorker",
    "LoadgenResult",
    "LoadgenSpec",
    "MetricsRegistry",
    "PoolServer",
    "QueueFullError",
    "QuotaExceededError",
    "Request",
    "Response",
    "ResponseStatus",
    "Scheduler",
    "build_engine",
    "make_policy",
    "make_slo_policy",
    "model_crossover",
    "run_loadgen",
]
