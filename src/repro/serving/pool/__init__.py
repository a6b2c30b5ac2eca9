"""Multi-process replica pool: shared weights, load-aware routing.

The pool is the serving stack's horizontal scale-out backend: N replica
processes attach one read-only shared-memory weight segment
(:mod:`repro.runtime.shm`), each builds a private engine, and a
load-aware :class:`Router` spreads length-bucketed batches across them
with outstanding-cost accounting, work stealing, and per-tenant
admission quotas. :class:`PoolServer` exposes the whole thing behind the
:class:`~repro.serving.server.AsyncServer` interface, so every driver
(CLI ``serve``/``loadgen``, benches, tests) picks a backend with one
flag. The replica side of the IPC protocol is :mod:`.worker`.
"""

# drive_server lives with the load generator (it drives any live server);
# it is re-exported here for callers that build and drive a pool.
from repro.serving.loadgen import drive_server
from repro.serving.pool.router import (
    AdmissionController,
    QuotaExceededError,
    ReplicaGoneError,
    Router,
)
from repro.serving.pool.server import PoolServer, build_pool_server

__all__ = [
    "AdmissionController",
    "PoolServer",
    "QuotaExceededError",
    "ReplicaGoneError",
    "Router",
    "build_pool_server",
    "drive_server",
]
