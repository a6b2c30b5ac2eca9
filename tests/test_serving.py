"""Serving layer: queue ordering, bucketing, batching, scheduling, metrics."""

import functools
import os
import subprocess
import sys
import threading
from collections import defaultdict

import numpy as np
import pytest

from repro.config import small_config
from repro.eval.format import percentile_rows
from repro.eval.metrics import percentile
from repro.gpu.device import V100S
from repro.obs.events import EventLog
from repro.runtime import EncoderWeights, ETEngine, TensorRTLikeEngine
from repro.serving import (
    AsyncServer,
    BucketPolicy,
    DynamicBatcher,
    EngineWorker,
    LoadgenSpec,
    QueueFullError,
    Request,
    ResponseStatus,
    Scheduler,
    make_policy,
    model_crossover,
    run_loadgen,
)
from repro.serving.loadgen import build_engine, build_payloads, build_policy


def _req(rid, seq_len=16, arrival=0.0, d_model=8):
    return Request(rid=rid, x=np.zeros((seq_len, d_model)),
                   arrival_us=arrival)


def _batcher(max_batch=2, max_wait_us=100.0, max_depth=None):
    pol = BucketPolicy(name="t", edges=(32, 64))
    return DynamicBatcher(pol, max_batch=max_batch, max_wait_us=max_wait_us,
                          max_depth=max_depth)


@pytest.fixture
def serve_cfg():
    return small_config(name="serve", num_layers=1, d_model=32, num_heads=4,
                        max_seq_len=64)


@pytest.fixture
def engine(serve_cfg, rng):
    return TensorRTLikeEngine(EncoderWeights.random(serve_cfg, rng))


class TestRequestQueue:
    """The batcher as the pending store: admission, FIFO order, depth."""

    def test_fifo_within_bucket(self):
        b = _batcher(max_batch=8)
        for i in range(5):
            b.put(_req(i, arrival=float(i)))
        assert [r.rid for r in b.pop_batch(now_us=1e3).requests] == \
            [0, 1, 2, 3, 4]

    def test_equal_arrivals_pop_in_admission_order(self):
        b = _batcher(max_batch=8)
        for rid in (3, 1, 4, 0, 2):
            b.put(_req(rid, arrival=5.0))
        batch = b.pop_batch(now_us=5.0, flush=True)
        assert [r.rid for r in batch.requests] == [3, 1, 4, 0, 2]

    def test_backpressure_rejects_at_max_depth(self):
        b = _batcher(max_batch=1, max_depth=2)
        b.put(_req(0))
        b.put(_req(1))
        with pytest.raises(QueueFullError):
            b.put(_req(2))
        assert b.depth == 2  # the refused request left no trace
        b.pop_batch(now_us=0.0)
        b.put(_req(2))  # depth freed -> admitted again
        assert b.depth == 2

    def test_pop_batch_respects_order_and_limit(self):
        b = _batcher()
        for i, s in enumerate([16, 48, 16, 48, 16]):
            b.put(_req(i, seq_len=s, arrival=float(i)))
        short = b.pop_batch(now_us=10.0)
        assert [r.rid for r in short.requests] == [0, 2]
        assert b.depth == 3

    def test_drain_returns_admission_order_across_buckets(self):
        b = _batcher()
        for rid, s, t in [(0, 48, 0.0), (1, 16, 0.0), (2, 48, 1.0),
                          (3, 16, 1.0), (4, 16, 1.0)]:
            b.put(_req(rid, seq_len=s, arrival=t))
        assert [r.rid for r in b.drain()] == [0, 1, 2, 3, 4]
        assert b.depth == 0
        assert b.pop_batch(now_us=10.0, flush=True) is None
        assert b.next_deadline_us() is None


class TestBucketPolicy:
    def test_crossover_is_always_an_edge(self):
        pol = make_policy("fine64", 224, 320)
        assert 224 in pol.edges
        # no bucket straddles: each bucket lies entirely on one side
        for b in range(pol.num_buckets):
            lo = 0 if b == 0 else pol.edges[b - 1]
            hi = pol.edges[b]
            assert hi <= 224 or lo >= 224

    def test_lengths_across_crossover_never_share_bucket(self):
        pol = make_policy("fine64", 224, 512)
        assert pol.bucket_of(224) != pol.bucket_of(225)
        assert pol.bucket_of(200) == pol.bucket_of(224)

    def test_every_switch_is_an_edge(self):
        assert make_policy("single", [160, 209, 320], 320).edges \
            == (160, 209, 320)
        assert make_policy("fine64", (100, 400), 320).edges \
            == (64, 100, 128, 192, 256, 320)

    def test_out_of_range_length_rejected(self):
        pol = make_policy("single", 224, 320)
        with pytest.raises(ValueError):
            pol.bucket_of(321)
        with pytest.raises(ValueError):
            pol.bucket_of(0)

    def test_crossover_beyond_max_is_trivially_aligned(self):
        pol = make_policy("fine32", 224, 64)
        assert pol.edges == (32, 64)

    def test_benchmark_fine64_edges_pinned(self):
        # perfbench builds its server's policy exactly this way; its
        # buckets must not move without an edit there.
        xo = model_crossover(12, 64, 320, device=V100S)
        assert make_policy("fine64", xo, 320).edges \
            == (64, 128, 192, 240, 256, 320)

    @pytest.mark.parametrize("model,expected", [
        ("BERT_BASE", (224, 240, 240)),
        ("DistilBERT", (224, 240, 240)),
        ("Transformer", (224, 224, 224)),
        ("small", (224, 224, 224)),
    ])
    def test_model_crossover_recorded_values(self, model, expected):
        # Recorded from the numerics-probe implementation of the sweep;
        # 224 at max length 64 is the paper fallback (no switch in range).
        cfg = LoadgenSpec(model=model).model_config()
        got = tuple(model_crossover(cfg.num_heads, cfg.d_head, max_len)
                    for max_len in (64, 320, 512))
        assert got == expected


@functools.lru_cache(maxsize=None)
def _regime_engine(model, sparsity):
    """A one-layer serving engine (as the drivers build it) and its max."""
    spec = LoadgenSpec(model=model, sparsity=sparsity, num_layers=1)
    return build_engine(spec), min(320, spec.model_config().max_seq_len)


class TestAttentionRegimes:
    @pytest.mark.parametrize("policy", ["single", "fine32", "fine64"])
    @pytest.mark.parametrize("sparsity", [0.0, 0.8])
    @pytest.mark.parametrize("model",
                             ["BERT_BASE", "DistilBERT", "Transformer",
                              "small"])
    def test_each_bucket_runs_one_attention_choice(self, model, sparsity,
                                                   policy):
        engine, max_len = _regime_engine(model, sparsity)
        regimes = engine.attention_regimes(max_len)
        assert regimes[-1][0] == max_len
        choice_at = [None]  # index = length; lengths start at 1
        for last, choice in regimes:
            choice_at += [choice] * (last - len(choice_at) + 1)
        assert len(choice_at) == max_len + 1
        pol = build_policy(LoadgenSpec(policy=policy), engine, max_len)
        for b in range(pol.num_buckets):
            lo = 0 if b == 0 else pol.edges[b - 1]
            assert len(set(choice_at[lo + 1:pol.edges[b] + 1])) == 1, \
                pol.label(b)

    @pytest.mark.parametrize("model,sparsity,expected", [
        ("BERT_BASE", 0.8, [(192, "otf"), (320, "flash")]),
        ("Transformer", 0.0, [(208, "otf"), (320, "partial_otf")]),
    ])
    def test_regimes_match_run_choices(self, model, sparsity, expected):
        engine, max_len = _regime_engine(model, sparsity)
        regimes = engine.attention_regimes(max_len)
        assert regimes == expected
        d_model = engine.weights.config.d_model
        first = 1
        for last, choice in regimes:
            for s in (first, last):
                got = engine.run(np.zeros((s, d_model))).choices
                assert got == {"layer0.attention": choice}, s
            first = last + 1

    def test_baseline_engine_has_one_regime(self, serve_cfg):
        w = EncoderWeights.random(serve_cfg, np.random.default_rng(0), 1)
        assert TensorRTLikeEngine(w).attention_regimes(48) \
            == [(48, "tensorrt")]

    def test_precomputed_engine_refuses(self, serve_cfg):
        w = EncoderWeights.random(serve_cfg, np.random.default_rng(0), 1)
        with pytest.raises(ValueError, match="precomputed"):
            ETEngine(w, precompute=True).attention_regimes(48)


class TestDynamicBatcher:
    def test_full_bucket_dispatches_immediately(self):
        b = _batcher()
        b.put(_req(0, seq_len=16, arrival=0.0))
        b.put(_req(1, seq_len=16, arrival=1.0))
        b.put(_req(2, seq_len=48, arrival=2.0))
        assert b.next_deadline_us() == 0.0  # the full bucket's head
        batch = b.pop_batch(now_us=2.0)
        assert [r.rid for r in batch.requests] == [0, 1]
        assert batch.bucket == 0

    def test_partial_bucket_waits_until_deadline(self):
        b = _batcher(max_wait_us=100.0)
        b.put(_req(0, seq_len=48, arrival=0.0))
        assert b.pop_batch(now_us=50.0) is None
        assert b.next_deadline_us() == 100.0
        batch = b.pop_batch(now_us=100.0)
        assert batch is not None and batch.size == 1

    def test_batches_never_mix_buckets(self):
        b = _batcher(max_batch=8)
        for i, s in enumerate([16, 48, 20, 60, 30]):
            b.put(_req(i, seq_len=s, arrival=float(i)))
        batch = b.pop_batch(now_us=1e6)
        assert {b.policy.bucket_of(r.seq_len) for r in batch.requests} \
            == {batch.bucket}


class TestPercentileMath:
    def test_interpolation(self):
        xs = [10.0, 20.0, 30.0, 40.0]
        assert percentile(xs, 50) == pytest.approx(25.0)
        assert percentile(xs, 0) == 10.0
        assert percentile(xs, 100) == 40.0
        assert percentile(xs, 75) == pytest.approx(32.5)

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_rows_helper_shares_the_math(self):
        xs = list(range(1, 101))
        rows = percentile_rows(xs, ps=(50.0, 99.0))
        assert rows[0] == ["p50 (us)", percentile(xs, 50)]
        assert rows[1][1] == percentile(xs, 99)


class TestEngineBatchAPI:
    def test_run_batch_matches_run(self, engine, rng, serve_cfg):
        xs = [rng.standard_normal((s, serve_cfg.d_model)) for s in (8, 16)]
        results, agg = engine.run_batch(xs)
        assert len(results) == 2
        np.testing.assert_allclose(results[0].output,
                                   engine.run(xs[0]).output)
        assert agg.total_time_us == pytest.approx(
            sum(r.latency_us for r in results))

    def test_run_batch_validates_before_running(self, engine, rng, serve_cfg):
        good = rng.standard_normal((8, serve_cfg.d_model))
        bad = rng.standard_normal((8, serve_cfg.d_model + 1))
        with pytest.raises(ValueError, match="batch item 1"):
            engine.run_batch([good, bad])
        with pytest.raises(ValueError, match="masks"):
            engine.run_batch([good], masks=[])

    def test_latency_us_accepts_prebuilt_input(self, engine, rng, serve_cfg):
        x = rng.standard_normal((12, serve_cfg.d_model))
        assert engine.latency_us(x=x) == engine.run(x).latency_us
        with pytest.raises(ValueError):
            engine.latency_us()
        with pytest.raises(ValueError):
            engine.latency_us(seq_len=10, x=x)


def _small_loadgen_spec(**kw):
    base = dict(engine="et", model="small", rate_per_s=500.0,
                num_requests=40, seed=3, max_seq_len=64, seq_step=16,
                policy="fine32", workers=2, max_batch=4,
                max_wait_us=1_000.0, max_depth=64)
    base.update(kw)
    return LoadgenSpec(**base)


class TestSchedulerAndLoadgen:
    def test_deterministic_report(self):
        r1 = run_loadgen(_small_loadgen_spec())
        r2 = run_loadgen(_small_loadgen_spec())
        assert r1.report == r2.report
        assert r1.metrics.snapshot() == r2.metrics.snapshot()

    def test_all_requests_accounted_for(self):
        res = run_loadgen(_small_loadgen_spec())
        m = res.metrics
        assert m.completed + m.rejected == 40
        assert sorted(r.rid for r in res.responses) == list(range(40))

    def test_no_batch_mixes_attention_choices(self):
        # BERT_BASE at 80% sparsity runs OTF up to 192 and flash from 193:
        # the `single` policy must still split 32..192 from 224..256.
        spec = LoadgenSpec(model="BERT_BASE", num_layers=1, max_seq_len=256,
                           seq_step=32, policy="single", rate_per_s=4000.0,
                           num_requests=60, seed=0, max_batch=8)
        res = run_loadgen(spec)
        choice = {s: set(res.engine.run(x).choices.values())
                  for s, x in build_payloads(spec).items()}
        assert set().union(*choice.values()) == {"otf", "flash"}
        choices_by_batch = defaultdict(set)
        for resp in res.responses:
            if resp.ok:
                choices_by_batch[resp.batch_id] |= choice[resp.seq_len]
        assert max(r.batch_size for r in res.responses) > 1
        for choices in choices_by_batch.values():
            assert len(choices) == 1

    def test_backpressure_rejection_path(self):
        # a tiny queue under a burst must shed load, deterministically
        res = run_loadgen(_small_loadgen_spec(
            rate_per_s=200_000.0, num_requests=60, max_depth=4, workers=1,
            max_batch=2))
        m = res.metrics
        assert m.rejected > 0
        assert m.completed + m.rejected == 60
        rejected = [r for r in res.responses if not r.ok]
        assert all(r.status is ResponseStatus.REJECTED for r in rejected)

    def test_closed_loop_keeps_clients_outstanding(self):
        res = run_loadgen(_small_loadgen_spec(mode="closed", clients=3,
                                              num_requests=12))
        assert res.metrics.completed == 12
        # a client's next request never arrives before its previous finished
        by_client = defaultdict(list)
        for r in sorted(res.responses, key=lambda r: r.arrival_us):
            by_client[r.client].append(r)
        for chain in by_client.values():
            for prev, nxt in zip(chain, chain[1:]):
                assert nxt.arrival_us >= prev.finish_us

    def test_latency_decomposition(self):
        res = run_loadgen(_small_loadgen_spec())
        for r in res.responses:
            if r.ok:
                assert r.latency_us == pytest.approx(
                    r.queue_us + (r.finish_us - r.start_us))
                assert r.queue_us >= 0.0

    @pytest.mark.parametrize("kw,message", [
        (dict(rate_per_s=0.0), "rate must be positive"),
        (dict(num_requests=0), "requests must be >= 1"),
        (dict(mode="closed", clients=0), "clients must be >= 1"),
        (dict(mode="both"), "unknown mode"),
    ])
    def test_invalid_spec_fails_at_construction(self, kw, message):
        with pytest.raises(ValueError, match=message):
            _small_loadgen_spec(**kw)

    def test_rate_ignored_in_closed_mode_and_clients_in_open(self):
        _small_loadgen_spec(mode="closed", clients=2, rate_per_s=0.0)
        _small_loadgen_spec(mode="open", clients=0)

    def test_memoized_worker_matches_plain(self, serve_cfg, rng):
        eng = ETEngine(EncoderWeights.random(serve_cfg, rng))
        pol = BucketPolicy(name="t", edges=(64,))
        table = {16: rng.standard_normal((16, serve_cfg.d_model))}
        fresh = rng.standard_normal((16, serve_cfg.d_model))
        xs = [table[16], table[16], fresh, table[16]]
        reqs = [Request(rid=i, x=x, arrival_us=0.0) for i, x in enumerate(xs)]

        def serve(worker):
            batcher = DynamicBatcher(pol, max_batch=4, max_wait_us=0.0)
            return Scheduler([worker], batcher).run(reqs)

        plain = serve(EngineWorker(eng))
        memo = serve(EngineWorker(eng, payload_table=table))
        for a, b in zip(plain, memo):
            assert a.service_us == pytest.approx(b.service_us)
            np.testing.assert_allclose(a.output, b.output)
        # the fresh array of a memoized length is never served from the memo
        assert not np.allclose(memo[2].output, memo[0].output)


class TestAsyncServerSmoke:
    def test_serve_then_loadgen_end_to_end(self, serve_cfg, rng):
        """The e2e smoke test: live threaded serve, then the sim agrees."""
        engines = [
            TensorRTLikeEngine(EncoderWeights.random(serve_cfg, rng))
            for _ in range(2)
        ]
        pol = make_policy("fine32", switches=(), max_seq_len=64)
        with AsyncServer(engines, pol, max_batch=4, max_wait_us=500.0,
                         max_depth=32) as server:
            futs = [server.submit(rng.standard_normal((s, serve_cfg.d_model)))
                    for s in (16, 16, 48, 32, 64, 48)]
            responses = [f.result(timeout=30.0) for f in futs]
        assert all(r.ok for r in responses)
        assert all(r.output is not None for r in responses)
        assert server.metrics.completed == 6
        assert server.metrics.mean_batch_size >= 1.0
        # batches formed live also respect bucket boundaries
        by_batch = defaultdict(set)
        for r in responses:
            by_batch[r.batch_id].add(pol.bucket_of(r.seq_len))
        assert all(len(bs) == 1 for bs in by_batch.values())
        # and the deterministic path serves the same workload shape
        rep = run_loadgen(_small_loadgen_spec(num_requests=6))
        assert rep.metrics.completed + rep.metrics.rejected == 6

    def test_concurrent_submitters_lose_no_update(self, serve_cfg, rng):
        """More engine threads and submitters than cores, with a short
        switch interval: every request ends once, in every recorder."""
        engines = [TensorRTLikeEngine(EncoderWeights.random(serve_cfg, rng))
                   for _ in range(4)]
        pol = make_policy("fine32", switches=(), max_seq_len=64)
        xs = [rng.standard_normal((s, serve_cfg.d_model))
              for s in (16, 32, 48, 64)]
        events = EventLog()
        futures: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with AsyncServer(engines, pol, max_batch=4, max_wait_us=200.0,
                             max_depth=256, events=events) as server:
                def submit_all(k):
                    for i in range(10):
                        futures.append(server.submit(xs[(k + i) % 4]))

                clients = [threading.Thread(target=submit_all, args=(k,))
                           for k in range(4)]
                for t in clients:
                    t.start()
                for t in clients:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in clients)
                responses = [f.result(timeout=30.0) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(responses) == 40 and all(r.ok for r in responses)
        assert sorted(r.rid for r in responses) == list(range(40))
        m = server.metrics
        assert m.completed == len(m.latencies_us) == 40
        assert sum(m.window.batch_sum.values()) == 40
        assert events.unterminated() == []
        assert events.counts()["complete"] == 40

    def test_submit_oversize_rejected(self, serve_cfg, rng):
        engines = [TensorRTLikeEngine(EncoderWeights.random(serve_cfg, rng))]
        pol = make_policy("single", switches=(), max_seq_len=32)
        with AsyncServer(engines, pol) as server:
            with pytest.raises(ValueError):
                server.submit(rng.standard_normal((64, serve_cfg.d_model)))


def test_serving_import_graph_has_no_scipy():
    """scipy (``eval.metrics.spearman`` only) stays off the serving path:
    importing it costs about a second of every cold start and replica
    spawn."""
    code = ("import sys, repro.runtime, repro.serving, "
            "repro.serving.pool.worker; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


class TestCLIServing:
    def test_loadgen_cli(self, capsys):
        from repro.cli import main

        rc = main(["loadgen", "--model", "small", "--requests", "20",
                   "--rate", "500", "--seed", "1", "--max-len", "64",
                   "--seq-step", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50 (us)" in out and "throughput (seq/s)" in out
        assert "(0,64] otf" in out

    @pytest.mark.parametrize("backend", [[], ["--workers", "1"]],
                             ids=["threads", "pool"])
    def test_serve_cli_terminates_every_rid(self, backend, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.events import read_events

        path = tmp_path / "events.jsonl"
        rc = main(["serve", "--model", "small", "--requests", "24",
                   "--max-len", "64", "--seq-step", "16",
                   "--events-out", str(path), *backend])
        assert rc == 0
        out = capsys.readouterr().out
        completed = [line.split() for line in out.splitlines()
                     if line.startswith("completed")]
        assert completed == [["completed", "24"]]
        events = read_events(str(path))
        assert events.unterminated() == []
        for rid in events.rids():
            kinds = events.lifecycle(rid)
            assert sum(k in ("complete", "reject") for k in kinds) == 1
        assert events.counts()["complete"] == 24

    @pytest.mark.parametrize("command", ["loadgen", "serve"])
    @pytest.mark.parametrize("flags,message", [
        (["--rate", "0"], "rate must be positive"),
        (["--requests", "-3"], "requests must be >= 1"),
        (["--mode", "closed", "--clients", "0"], "clients must be >= 1"),
    ], ids=["rate0", "requests-3", "clients0"])
    def test_invalid_config_is_a_usage_error(self, command, flags, message,
                                             capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "small", "--max-len", "64", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"error: {message}" in err

    def test_list_mentions_serving(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out and "loadgen" in out
