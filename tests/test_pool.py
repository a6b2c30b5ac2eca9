"""Replica pool: shm weight store, admission, PoolServer e2e.

The process-spawning tests keep worker counts and request counts small —
each spawned replica pays a full interpreter + package import on start.
Everything determinism-critical is asserted bitwise: engine outputs are a
pure function of the input sequence, so every backend and worker count
must produce identical bytes for the same seeded mix.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
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
import repro.runtime.shm as shm_mod
from repro.runtime.shm import SharedWeightStore, segment_exists
from repro.serving import AsyncServer, MetricsRegistry
from repro.serving.batcher import Batch
from repro.serving.loadgen import (
    LoadgenSpec,
    build_engine,
    build_payloads,
    build_policy,
    drive_server,
    request_mix,
    run_loadgen,
)
from repro.serving.pool import (
    AdmissionController,
    QuotaExceededError,
    build_pool_server,
)
from repro.serving.pool.server import REPLICA_SLOTS
from repro.serving.request import Request, ResponseStatus
from repro.serving.server import SlotRetired


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

    def test_fill_failure_closes_and_unlinks_the_segment(
            self, pruned_weights, monkeypatch):
        mapped = []

        class Recording(shm_mod.shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                mapped.append(self)

        real_layout = shm_mod._layout

        def misfit_layout(weights):
            arrays, entries, total = real_layout(weights)
            key, a = arrays[-1]
            arrays[-1] = (key, np.ones(a.size + 1))  # cannot fill its slot
            return arrays, entries, total

        monkeypatch.setattr(shm_mod.shared_memory, "SharedMemory", Recording)
        monkeypatch.setattr(shm_mod, "_layout", misfit_layout)
        name = f"repro_fill_fail_{os.getpid()}"
        with pytest.raises(ValueError):
            SharedWeightStore.create(pruned_weights, name=name)
        segment = mapped[0]
        assert segment.buf is None  # the creator's mapping is closed
        assert not segment_exists(name)

    def test_unlink_closes_its_probe_when_the_segment_vanished(
            self, pruned_weights, monkeypatch):
        store = SharedWeightStore.create(pruned_weights)
        name = store.manifest.segment
        store.close()
        probes = []
        real_attach = shm_mod._attach_untracked

        def attach_then_vanish(segment):
            probe = real_attach(segment)
            probe.unlink()  # an external cleanup wins the race
            probes.append(probe)
            return probe

        monkeypatch.setattr(shm_mod, "_attach_untracked", attach_then_vanish)
        store.unlink()  # the probe's own unlink raises FileNotFoundError
        assert probes[0].buf is None  # ...and the probe is closed anyway
        assert not segment_exists(name)


# ---- admission (no processes) ----------------------------------------------


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
        policy = build_policy(spec, engines[0], max(payloads))
        thread_server = AsyncServer(engines, policy,
                                    max_batch=spec.max_batch,
                                    max_wait_us=spec.max_wait_us,
                                    max_depth=spec.max_depth)
        with thread_server:
            thread_resp = drive_server(thread_server, spec, payloads)

        server, pool_payloads, _ = build_pool_server(spec, 2)
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
            server, payloads, _ = build_pool_server(spec, n)
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
        server, payloads, _ = build_pool_server(spec, 2)
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

    def test_death_rebooks_each_unrun_batch_once_onto_a_survivor(self):
        """Replica 0 is frozen, so it runs none of the batches it is
        sent; once it is killed, each of them gets exactly one ``rebook``
        (``src`` = 0) and then exactly one dispatch, on replica 1, and
        every member still ends once."""
        spec = _spec(num_requests=32)
        events = EventLog()
        server, payloads, _ = build_pool_server(spec, 2, events=events)
        with server:
            victim = server._procs[0]
            os.kill(victim.pid, signal.SIGSTOP)  # alive, but runs nothing
            recorder = _SentRecorder(server._task_qs[0])
            server._task_qs[0] = recorder
            futures = [server.submit(x) for x in request_mix(spec, payloads)]
            _wait_for(lambda: len(recorder.sent) == REPLICA_SLOTS)
            victim.kill()
            responses = [f.result(timeout=120.0) for f in futures]
            server._task_qs[0] = recorder.task_q
        sent = recorder.sent
        assert sent, "the frozen replica was never sent a batch"
        assert all(r.status is ResponseStatus.OK for r in responses)

        evs = events.sorted_events()
        assert [e.replica for e in evs if e.kind == "worker_death"] == [0]
        rebooks = {e.batch_id: e for e in evs if e.kind == "rebook"}
        assert sorted(e.batch_id for e in evs if e.kind == "rebook") == \
            sorted(sent)
        for bid in sent:
            assert rebooks[bid].src == 0
            dispatches = [e for e in evs
                          if e.kind == "dispatch" and e.batch_id == bid]
            assert [d.replica for d in dispatches] == [1]
            assert dispatches[0].ts_us >= rebooks[bid].ts_us
        assert events.unterminated() == []
        for rid in events.rids():
            assert sum(k in TERMINAL_KINDS
                       for k in events.lifecycle(rid)) == 1

    def test_spawn_failure_reraised_and_segment_unlinked(self, monkeypatch):
        """Replica 1's ``start()`` fails: ``start`` re-raises that error,
        not one from joining the never-started process, and the weight
        segment is unlinked."""
        server, _, _ = build_pool_server(_spec(), 2)
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
        server, _, _ = build_pool_server(_spec(), 2)
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
        server, payloads, _ = build_pool_server(
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
        server, payloads, _ = build_pool_server(spec, 2)
        with server:
            drive_server(server, spec, payloads)
        text = server.metrics_text()
        assert "repro_pool_shm_bytes" in text
        assert 'repro_pool_replica_inpipe{replica="0"} 0' in text
        assert 'repro_pool_replica_batches_total{replica="1"}' in text
        assert "repro_pool_worker_deaths_total 0" in text
        for gone in ("backlog", "outstanding_us", "steals"):
            assert f"repro_pool_{gone}" not in text
            assert f"repro_pool_replica_{gone}" not in text


def test_slot_bookkeeping_survives_thread_switch_stress():
    """Eight slot threads over four replicas (more than the cores) with
    a short switch interval: every batch sent is counted once, answered
    once, and leaves no held count behind."""
    spec = _spec(num_requests=48, max_batch=4)
    events = EventLog()
    server, payloads, _ = build_pool_server(spec, 4, events=events)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with server:
            responses = drive_server(server, spec, payloads, timeout_s=120.0)
            snapshot = server.pool_snapshot()
    finally:
        sys.setswitchinterval(interval)
    assert all(r.status is ResponseStatus.OK for r in responses)
    replicas = snapshot["replicas"].values()
    dispatches = sum(e.kind == "dispatch" for e in events.sorted_events())
    assert snapshot["batches_dispatched"] == dispatches
    assert sum(r["counters"]["batches"] for r in replicas) == dispatches
    assert [r["inpipe"] for r in replicas] == [0.0] * 4
    assert events.unterminated() == []


def test_thread_without_a_free_replica_slot_hands_its_batch_back_unsent():
    """Deaths can leave more slot threads than live replica slots. A
    thread that finds none free sends nothing: its batch goes back to the
    front with no ``rebook`` (it never left) and the thread retires."""
    events = EventLog()
    server, payloads, _ = build_pool_server(_spec(), 2, events=events)
    server._free = set()
    batch = Batch(batch_id=7, bucket=16,
                  requests=[Request(rid=0, x=payloads[16])])
    with pytest.raises(SlotRetired):
        server._execute(0, batch, 0.0)
    assert list(server._requeued) == [batch]
    assert events.sorted_events() == []


class _SentRecorder:
    """Stands in for a replica's task queue and records what it is sent."""

    def __init__(self, task_q) -> None:
        self.task_q = task_q
        self.sent: list[int] = []

    def put(self, task) -> None:
        if task is not None:  # not the STOP sentinel
            self.sent.append(task.batch_id)
        self.task_q.put(task)

    def __getattr__(self, name: str):
        return getattr(self.task_q, name)


def _wait_for(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_burst_fills_replica_zeros_pipeline_first():
    """Two batches formed at once both go to replica 0, one per slot,
    while replica 1 gets none: the lowest free replica slot takes each
    batch, so a burst pairs its first two batches on one replica."""
    # A long batching window: only full batches form, never a partial one.
    server, payloads, _ = build_pool_server(
        _spec(max_wait_us=500_000.0), 2)
    x = payloads[16]
    with server:
        os.kill(server._procs[0].pid, signal.SIGSTOP)
        try:
            recorders = [_SentRecorder(q) for q in server._task_qs]
            server._task_qs = list(recorders)
            futures = [server.submit(x) for _ in range(2 * 8)]  # 2 batches
            _wait_for(lambda: sum(len(r.sent) for r in recorders) >= 2)
            placed = [len(r.sent) for r in recorders]
        finally:
            os.kill(server._procs[0].pid, signal.SIGCONT)
        responses = [f.result(timeout=120.0) for f in futures]
    assert placed == [2, 0]
    assert all(r.status is ResponseStatus.OK for r in responses)


@pytest.mark.parametrize("drain", [True, False])
def test_replica_death_during_stop_resolves_every_future(drain):
    """Replica 0 is frozen with batches in hand when ``stop`` begins and
    is killed only once the survivor has finished the rest. Its batches
    are handed back after every other batch settled; a slot must still
    be up to take them, so every future resolves and nothing is left
    unterminated."""
    spec = _spec(num_requests=32)
    events = EventLog()
    server, payloads, _ = build_pool_server(spec, 2, events=events)
    server.start()
    victim = server._procs[0]
    os.kill(victim.pid, signal.SIGSTOP)
    try:
        recorder = _SentRecorder(server._task_qs[0])
        server._task_qs[0] = recorder
        futures = [server.submit(x) for x in request_mix(spec, payloads)]
        _wait_for(lambda: len(recorder.sent) == REPLICA_SLOTS)
        stopper = threading.Thread(target=server.stop,
                                   kwargs={"drain": drain}, daemon=True)
        stopper.start()
        # Everything but the frozen replica's batches settles first.
        _wait_for(lambda: server._executing == REPLICA_SLOTS
                  and server.depth == 0)
        time.sleep(0.2)
    finally:
        victim.kill()
    stopper.join(timeout=120.0)
    assert not stopper.is_alive(), "stop() hung on the dead replica"
    assert all(f.done() for f in futures)
    statuses = {f.result().status for f in futures}
    assert statuses <= {ResponseStatus.OK, ResponseStatus.REJECTED}
    assert server.metrics.in_flight == 0
    assert events.unterminated() == []
    rebooked = sorted(e.batch_id for e in events.sorted_events()
                      if e.kind == "rebook")
    assert rebooked == sorted(recorder.sent)


def test_pool_server_rejects_oversize_submit():
    spec = _spec()
    server, payloads, policy = build_pool_server(spec, 1)
    too_long = np.zeros((spec.max_seq_len + 16,
                         spec.model_config().d_model))
    with pytest.raises(ValueError):
        # oversize is rejected before any process work, server not started
        server.submit(too_long)


def test_drive_server_backpressure_retries():
    # max_depth 2 forces QueueFullError retries inside drive_server
    spec = _spec(num_requests=12, max_depth=2)
    server, payloads, _ = build_pool_server(spec, 1)
    with server:
        responses = drive_server(server, spec, payloads)
    assert len(responses) == spec.num_requests
    done = {ResponseStatus.OK, ResponseStatus.REJECTED}
    assert all(r.status in done for r in responses)


# ---- batch lifecycle, every backend ----------------------------------------


def _thread_server(spec: LoadgenSpec, events: EventLog) -> AsyncServer:
    engines = [build_engine(spec) for _ in range(2)]
    policy = build_policy(spec, engines[0], max(build_payloads(spec)))
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
        server, payloads, _ = build_pool_server(spec, 2, events=events)
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
        server, payloads, _ = build_pool_server(spec, 2, events=events)
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
    server, payloads, _ = build_pool_server(spec, 1)
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


@pytest.mark.parametrize("backend", ["threads", "pool"])
def test_submit_after_stop_raises_and_records_nothing(backend):
    """``stop`` closes admission: a later ``submit`` raises
    ``RuntimeError`` before the core sees the request."""
    spec = _spec(num_requests=4)
    events = EventLog()
    payloads = build_payloads(spec)
    if backend == "threads":
        server = _thread_server(spec, events)
    else:
        server, payloads, _ = build_pool_server(spec, 1, events=events)
    with server:
        futures = [server.submit(x) for x in request_mix(spec, payloads)]
    assert all(f.result(timeout=60.0).ok for f in futures)
    logged = len(events)
    with pytest.raises(RuntimeError, match="not running"):
        server.submit(payloads[min(payloads)])
    assert len(events) == logged
    assert server.metrics.in_flight == 0
    if backend == "pool":  # the refused request holds no tenant slot
        assert server.pool_snapshot()["tenants_inflight"] == {}
