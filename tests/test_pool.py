"""Replica pool: shm weight store, router, admission, PoolServer e2e.

The process-spawning tests keep worker counts and request counts small —
each spawned replica pays a full interpreter + package import on start.
Everything determinism-critical is asserted bitwise: engine outputs are a
pure function of the input sequence, so every backend and worker count
must produce identical bytes for the same seeded mix.
"""

from __future__ import annotations

import time
from collections import Counter
from multiprocessing.context import SpawnProcess

import numpy as np
import pytest

from repro.config import small_config
from repro.obs.events import TERMINAL_KINDS, EventLog, read_events, \
    write_events
from repro.obs.prometheus import prometheus_text
from repro.pruning import PruneMethod
from repro.runtime import EncoderWeights, ETEngine
from repro.runtime.shm import SharedWeightStore, segment_exists
from repro.serving import AsyncServer, MetricsRegistry, make_policy, \
    model_crossover
from repro.serving.batcher import Batch
from repro.serving.loadgen import (
    LoadgenSpec,
    build_engine,
    build_payloads,
    drive_server,
    request_mix,
    run_loadgen,
)
from repro.serving.pool import (
    AdmissionController,
    QuotaExceededError,
    Router,
    build_pool_server,
)
from repro.serving.request import Request, ResponseStatus


@pytest.fixture
def pool_cfg():
    return small_config(name="pool", num_layers=2, d_model=32, num_heads=4,
                        max_seq_len=64)


@pytest.fixture
def pruned_weights(pool_cfg, rng):
    w = EncoderWeights.random(pool_cfg, rng)
    w.prune(PruneMethod.ATTENTION_AWARE, 0.5)
    return w


def _spec(**kw) -> LoadgenSpec:
    base = dict(engine="et", model="small", rate_per_s=1000.0,
                num_requests=24, seed=0, max_seq_len=64, seq_step=16,
                policy="fine64", workers=2, max_batch=8,
                max_wait_us=2_000.0, max_depth=64)
    base.update(kw)
    return LoadgenSpec(**base)


# ---- shared-memory weight store --------------------------------------------


class TestSharedWeightStore:
    def test_attach_round_trip_is_bitwise(self, pruned_weights):
        store = SharedWeightStore.create(pruned_weights)
        try:
            att = SharedWeightStore.attach(store.manifest)
            rebuilt = att.weights()
            assert rebuilt.config == pruned_weights.config
            for orig, view in zip(pruned_weights.layers, rebuilt.layers):
                for f in EncoderWeights._ARRAY_FIELDS:
                    assert np.array_equal(getattr(orig, f), getattr(view, f))
                assert sorted(orig.masks) == sorted(view.masks)
                for kind in orig.masks:
                    assert np.array_equal(orig.masks[kind], view.masks[kind])
                assert orig.roles == view.roles
            att.close()
        finally:
            store.unlink()

    def test_views_are_zero_copy_and_read_only(self, pruned_weights):
        store = SharedWeightStore.create(pruned_weights)
        try:
            att = SharedWeightStore.attach(store.manifest)
            view = att.view("layer0.wq")
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 1.0
            assert not view.flags.owndata  # buffer belongs to the segment
            att.close()
        finally:
            store.unlink()

    def test_engine_runs_on_shared_views(self, pruned_weights, rng):
        x = rng.standard_normal((16, pruned_weights.config.d_model))
        expected = ETEngine(pruned_weights).run(x).output
        store = SharedWeightStore.create(pruned_weights)
        try:
            att = SharedWeightStore.attach(store.manifest)
            got = ETEngine(att.weights()).run(x).output
            assert np.array_equal(got, expected)
            att.close()
        finally:
            store.unlink()

    def test_double_unlink_is_safe(self, pruned_weights):
        store = SharedWeightStore.create(pruned_weights)
        name = store.manifest.segment
        store.unlink()
        assert not segment_exists(name)
        store.unlink()  # idempotent
        assert not segment_exists(name)

    def test_unlink_after_close_still_frees_segment(self, pruned_weights):
        store = SharedWeightStore.create(pruned_weights)
        name = store.manifest.segment
        store.close()
        store.unlink()  # re-attaches briefly just to unlink
        assert not segment_exists(name)

    def test_attach_after_unlink_raises(self, pruned_weights):
        store = SharedWeightStore.create(pruned_weights)
        manifest = store.manifest
        store.unlink()
        with pytest.raises(FileNotFoundError):
            SharedWeightStore.attach(manifest)


# ---- router and admission (no processes) -----------------------------------


def _batch(batch_id: int, seq_lens: list[int], d_model: int = 8) -> Batch:
    reqs = [Request(rid=batch_id * 100 + i, x=np.zeros((s, d_model)),
                    arrival_us=0.0) for i, s in enumerate(seq_lens)]
    return Batch(batch_id=batch_id, bucket=seq_lens[0], requests=reqs)


class TestRouter:
    def _router(self, n=2):
        return Router(list(range(n)), cost_fn=lambda s: float(s))

    def test_assign_least_loaded_ties_to_lowest_id(self):
        r = self._router()
        assert r.assign(_batch(0, [16])) == 0  # tie -> lowest id
        assert r.assign(_batch(1, [16])) == 1  # 0 now carries 16
        assert r.assign(_batch(2, [8])) == 0  # tie again -> lowest id
        assert r.assign(_batch(3, [8])) == 1  # 1 lighter (16 < 24)
        assert r.outstanding_us(0) == 24.0
        assert r.outstanding_us(1) == 24.0

    def test_complete_settles_cost(self):
        r = self._router()
        rid = r.assign(_batch(0, [32, 32]))
        assert r.outstanding_us(rid) == 64.0
        assert r.acquire(rid).batch_id == 0
        assert r.complete(0) == rid
        assert r.outstanding_us(rid) == 0.0

    def test_idle_replica_steals_freshest_from_most_loaded(self):
        r = self._router()
        # both land on different replicas first, then pile two more on 0
        r.assign(_batch(0, [16]))  # -> 0
        r.assign(_batch(1, [64]))  # -> 1 (heavier)
        r.assign(_batch(2, [16]))  # -> 0 (16 < 64)
        r.assign(_batch(3, [16]))  # -> 0 (48 < 64)
        # replica 1 finishes its own work, then steals
        assert r.acquire(1).batch_id == 1
        r.complete(1)
        stolen = r.acquire(1)
        assert stolen.batch_id == 3  # freshest from the loaded victim
        assert r.steals == 1
        assert r.outstanding_us(1) == 16.0  # cost moved to the thief
        assert r.complete(3) == 1

    def test_acquire_empty_returns_none(self):
        r = self._router()
        assert r.acquire(0) is None

    def test_retire_returns_orphans_and_drops_accounting(self):
        r = self._router()
        r.assign(_batch(0, [16]))
        r.assign(_batch(1, [16]))
        orphans = r.retire(0)
        assert [b.batch_id for b in orphans] == [0]
        assert r.replica_ids == [1]
        # orphans can be re-booked on the survivor
        assert r.assign(orphans[0]) == 1

    def test_drain_empties_every_backlog(self):
        r = self._router()
        for i in range(4):
            r.assign(_batch(i, [16]))
        drained = r.drain()
        assert sorted(b.batch_id for b in drained) == [0, 1, 2, 3]
        assert r.outstanding_us(0) == r.outstanding_us(1) == 0.0


class TestAdmissionController:
    def test_quota_enforced_and_released(self):
        adm = AdmissionController(max_inflight_per_tenant=2)
        adm.admit(7)
        adm.admit(7)
        with pytest.raises(QuotaExceededError):
            adm.admit(7)
        adm.release(7)
        adm.admit(7)  # capacity freed
        assert adm.inflight(7) == 2

    def test_per_tenant_override_beats_default(self):
        adm = AdmissionController(max_inflight_per_tenant=1,
                                  quotas={3: 2})
        adm.admit(3)
        adm.admit(3)  # tenant 3 runs at its own quota of 2
        with pytest.raises(QuotaExceededError):
            adm.admit(3)
        adm.admit(0)  # default quota of 1 applies to everyone else
        with pytest.raises(QuotaExceededError):
            adm.admit(0)

    def test_unlimited_by_default(self):
        adm = AdmissionController()
        for _ in range(100):
            adm.admit(0)
        assert adm.snapshot() == {0: 100}


# ---- PoolServer end to end --------------------------------------------------


class TestPoolServer:
    def test_pool_matches_thread_backend_bitwise(self):
        """Same seeded mix through both live backends: identical bytes.

        Also the leak check: the shared segment must be gone after stop.
        """
        spec = _spec(num_requests=24)
        payloads = build_payloads(spec)
        engines = [build_engine(spec) for _ in range(2)]
        cfg = spec.model_config()
        crossover = model_crossover(cfg.num_heads, cfg.d_head, max(payloads),
                                    device=engines[0].device)
        policy = make_policy(spec.policy, crossover, max(payloads))
        thread_server = AsyncServer(engines, policy,
                                    max_batch=spec.max_batch,
                                    max_wait_us=spec.max_wait_us,
                                    max_depth=spec.max_depth)
        with thread_server:
            thread_resp = drive_server(thread_server, spec, payloads)

        server, pool_payloads, _, _ = build_pool_server(spec, 2)
        with server:
            segment = server._store.manifest.segment
            assert segment_exists(segment)
            pool_resp = drive_server(server, spec, pool_payloads)
            snapshot = server.pool_snapshot()
        assert not segment_exists(segment)  # drained stop unlinks

        assert len(pool_resp) == spec.num_requests
        assert snapshot["worker_deaths"] == 0.0
        for a, b in zip(thread_resp, pool_resp):
            assert a.status is ResponseStatus.OK
            assert b.status is ResponseStatus.OK
            assert np.array_equal(a.output, b.output)

    def test_worker_count_invariance(self):
        """--workers 1 and --workers 4: identical bytes, identical
        per-request service latencies (submit-then-wait pins batch size)."""
        spec = _spec(num_requests=8)
        by_workers = {}
        for n in (1, 4):
            server, payloads, _, _ = build_pool_server(spec, n)
            with server:
                responses = []
                for x in request_mix(spec, payloads):
                    responses.append(server.submit(x).result(timeout=120.0))
            by_workers[n] = responses
        lat1 = [r.service_us for r in by_workers[1]]
        lat4 = [r.service_us for r in by_workers[4]]
        assert lat1 == lat4  # cost-model service time, not wall clock
        for a, b in zip(by_workers[1], by_workers[4]):
            assert np.array_equal(a.output, b.output)

    def test_worker_death_recovery_and_no_leak(self):
        """Kill a replica mid-stream: survivors absorb its work, every
        future resolves, and the segment still unlinks cleanly."""
        spec = _spec(num_requests=32, max_wait_us=50_000.0)
        server, payloads, _, _ = build_pool_server(spec, 2)
        with server:
            segment = server._store.manifest.segment
            futures = [server.submit(x)
                       for x in request_mix(spec, payloads)]
            victim = server._procs[0]
            victim.kill()  # crash, not an ordered STOP
            responses = [f.result(timeout=120.0) for f in futures]
            snapshot = server.pool_snapshot()
        assert not segment_exists(segment)
        assert snapshot["worker_deaths"] >= 1.0
        # every request terminated (served by a survivor or shed on crash)
        assert len(responses) == spec.num_requests
        served = [r for r in responses if r.status is ResponseStatus.OK]
        assert served, "survivor replica served no traffic after the crash"
        assert server.metrics.in_flight == 0

    def test_spawn_failure_reraised_and_segment_unlinked(self, monkeypatch):
        """Replica 1's ``start()`` fails: ``start`` re-raises that error,
        not one from joining the never-started process, and the weight
        segment is unlinked."""
        server, _, _, _ = build_pool_server(_spec(), 2)
        real_start = SpawnProcess.start

        def start(proc):
            if proc.name == "pool-replica-1":
                raise OSError("injected spawn failure")
            real_start(proc)

        monkeypatch.setattr(SpawnProcess, "start", start)
        with pytest.raises(OSError, match="injected spawn failure"):
            server.start()
        assert server._segment_name is not None
        assert not segment_exists(server._segment_name)
        assert not server._procs[0].is_alive()

    def test_replica_dying_in_bootstrap_fails_start_fast(self):
        """Replicas that cannot build their engine exit before saying
        hello; ``start`` fails within seconds, not ``start_timeout_s``."""
        server, _, _, _ = build_pool_server(_spec(), 2)
        assert server.start_timeout_s == 120.0
        server.engine.name = "no-such-engine"  # replicas look engines up by name
        t0 = time.monotonic()
        with pytest.raises(RuntimeError,
                           match=r"replica \d exited with code 1"):
            server.start()
        assert time.monotonic() - t0 < 10.0
        assert not segment_exists(server._segment_name)

    def test_tenant_quota_rejects_live_submit(self):
        # A long batching window keeps request 1 in flight while the
        # second submit arrives, so the quota check is deterministic.
        spec = _spec(num_requests=4, max_wait_us=500_000.0, max_batch=8)
        server, payloads, _, _ = build_pool_server(
            spec, 1, max_inflight_per_tenant=1)
        x = payloads[16]
        with server:
            fut = server.submit(x, client=5)
            with pytest.raises(QuotaExceededError):
                server.submit(x, client=5)
            resp = fut.result(timeout=120.0)
            assert resp.status is ResponseStatus.OK
            server.submit(x, client=5).result(timeout=120.0)  # slot freed

    def test_metrics_text_has_pool_series(self):
        spec = _spec(num_requests=8)
        server, payloads, _, _ = build_pool_server(spec, 2)
        with server:
            drive_server(server, spec, payloads)
        text = server.metrics_text()
        assert "repro_pool_shm_bytes" in text
        assert 'repro_pool_replica_backlog{replica="0"}' in text
        assert "repro_pool_steals_total" in text
        assert "repro_pool_worker_deaths_total 0" in text


def test_pool_server_rejects_oversize_submit():
    spec = _spec()
    server, payloads, policy, _ = build_pool_server(spec, 1)
    too_long = np.zeros((spec.max_seq_len + 16,
                         spec.model_config().d_model))
    with pytest.raises(ValueError):
        # oversize is rejected before any process work, server not started
        server.submit(too_long)


def test_drive_server_backpressure_retries():
    # max_depth 2 forces QueueFullError retries inside drive_server
    spec = _spec(num_requests=12, max_depth=2)
    server, payloads, _, _ = build_pool_server(spec, 1)
    with server:
        responses = drive_server(server, spec, payloads)
    assert len(responses) == spec.num_requests
    done = {ResponseStatus.OK, ResponseStatus.REJECTED}
    assert all(r.status in done for r in responses)


# ---- batch lifecycle, every backend ----------------------------------------


def _thread_server(spec: LoadgenSpec, events: EventLog) -> AsyncServer:
    engines = [build_engine(spec) for _ in range(2)]
    cfg = spec.model_config()
    lens = build_payloads(spec)
    crossover = model_crossover(cfg.num_heads, cfg.d_head, max(lens),
                                device=engines[0].device)
    policy = make_policy(spec.policy, crossover, max(lens))
    return AsyncServer(engines, policy, max_batch=spec.max_batch,
                       max_wait_us=spec.max_wait_us,
                       max_depth=spec.max_depth, events=events)


@pytest.mark.parametrize("backend", ["loadgen", "threads", "pool"])
def test_batch_lifecycle_holds_on_every_backend(backend):
    """Each batch is formed once and dispatched once (never before it was
    formed), completes exactly its members, and each rid ends once."""
    spec = _spec(num_requests=24)
    events = EventLog()
    if backend == "loadgen":
        run_loadgen(spec, events=events)
    elif backend == "threads":
        with _thread_server(spec, events) as server:
            drive_server(server, spec, build_payloads(spec))
    else:
        server, payloads, _, _ = build_pool_server(spec, 2, events=events)
        with server:
            drive_server(server, spec, payloads)

    evs = events.sorted_events()
    formed = [e for e in evs if e.kind == "batch_formed"]
    dispatched = {e.batch_id: e for e in evs if e.kind == "dispatch"}
    completes = Counter(e.batch_id for e in evs if e.kind == "complete")
    assert formed and len(dispatched) == len(formed)
    assert len({e.batch_id for e in formed}) == len(formed)
    assert sum(e.kind == "dispatch" for e in evs) == len(formed)
    for f in formed:
        d = dispatched[f.batch_id]
        assert d.ts_us >= f.ts_us
        assert completes[f.batch_id] == f.size == d.size
    assert sum(completes.values()) == sum(f.size for f in formed)
    assert events.unterminated() == []
    for rid in events.rids():
        assert sum(k in TERMINAL_KINDS for k in events.lifecycle(rid)) == 1


# ---- metrics: a fold over the event stream ---------------------------------


@pytest.mark.parametrize("backend", ["threads", "pool"])
def test_live_metrics_equal_the_fold_of_their_log(tmp_path, backend):
    """The live registry's page equals the fold of the written log, every
    series alike: the window and EWMA gauges are read in finish order,
    so live emission order (not timestamp order here) does not show."""
    spec = _spec(num_requests=24, slo_us=0.0)
    events = EventLog()
    if backend == "threads":
        with _thread_server(spec, events) as server:
            drive_server(server, spec, build_payloads(spec))
    else:
        server, payloads, _, _ = build_pool_server(spec, 2, events=events)
        with server:
            drive_server(server, spec, payloads)
    path = tmp_path / "events.jsonl"
    write_events(str(path), events)
    folded = MetricsRegistry.from_events(read_events(str(path)))
    assert server.metrics.completed == spec.num_requests
    assert prometheus_text(folded) == prometheus_text(server.metrics)
    assert folded.in_flight == server.metrics.in_flight == 0


def test_no_drain_stop_leaves_no_fold_state():
    """A no-drain stop sheds what no replica holds yet; every request
    still ends once and the fold keeps no per-request or per-batch
    entry."""
    spec = _spec(num_requests=32, max_wait_us=50_000.0)
    server, payloads, _, _ = build_pool_server(spec, 1)
    server.start()
    futures = [server.submit(x) for x in request_mix(spec, payloads)]
    server.stop(drain=False)
    responses = [f.result(timeout=120.0) for f in futures]
    m = server.metrics
    assert len(responses) == m.completed + m.rejected == spec.num_requests
    assert m.in_flight == 0


def test_no_drain_stop_sheds_the_thread_servers_queue():
    """A no-drain stop of the thread server rejects what is still queued
    as shed, instead of flushing it into the workers; the page still
    equals the fold of its log."""
    spec = _spec(num_requests=5, max_wait_us=10_000_000.0)
    events = EventLog()
    server = _thread_server(spec, events)
    server.start()
    futures = [server.submit(x)
               for x in request_mix(spec, build_payloads(spec))]
    server.stop(drain=False)
    responses = [f.result(timeout=60.0) for f in futures]
    assert [r.status for r in responses] == [ResponseStatus.REJECTED] * 5
    m = server.metrics
    assert (m.rejected, m.completed, m.in_flight) == (5, 0, 0)
    assert [e.detail for e in events.sorted_events()
            if e.kind == "reject"] == ["shed"] * 5
    folded = MetricsRegistry.from_events(events)
    assert prometheus_text(folded) == prometheus_text(m)
