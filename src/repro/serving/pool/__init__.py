"""Multi-process replica pool: shared weights, pull dispatch.

The pool is the serving stack's horizontal scale-out backend: N replica
processes attach one read-only shared-memory weight segment
(:mod:`repro.runtime.shm`) and each builds a private engine.
:class:`PoolServer` runs the thread server's worker loop over them — a
free thread takes the next length-bucketed batch straight from the
batcher and sends it to the lowest free replica slot — with per-tenant
admission quotas in front, behind the
:class:`~repro.serving.server.AsyncServer` interface, so every driver
(CLI ``serve``/``loadgen``, benches, tests) picks a backend with one
flag. The replica side of the IPC protocol is :mod:`.worker`.
"""

# drive_server lives with the load generator (it drives any live server);
# it is re-exported here for callers that build and drive a pool.
from repro.serving.loadgen import drive_server
from repro.serving.pool.admission import (
    AdmissionController,
    QuotaExceededError,
)
from repro.serving.pool.server import PoolServer, build_pool_server

__all__ = [
    "AdmissionController",
    "PoolServer",
    "QuotaExceededError",
    "build_pool_server",
    "drive_server",
]
