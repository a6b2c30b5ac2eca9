"""Observability: derived traces, Chrome/Prometheus exports, windowed metrics.

Also covers the previously untested Timeline paths the trace is built on
(``time_by_region``, ``roofline_report``, nested regions under
``run_batch``) and the MetricsRegistry fold: its schema, terminal
times, and equality with a replay of the recorded event log.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.config import small_config
from repro.gpu import KernelCost
from repro.obs import (
    GATED_METRICS,
    NULL_EVENT_LOG,
    Event,
    EventLog,
    SloPolicy,
    SloTracker,
    Span,
    WindowedMetrics,
    attribute,
    build_trace,
    check_regressions,
    chrome_trace,
    chrome_trace_json,
    engine_spans,
    prometheus_text,
    read_events,
    render_span_tree,
    report_json,
    write_events,
)
from repro.obs.history import append_history, load_history
from repro.runtime import EncoderWeights, TensorRTLikeEngine
from repro.serving import (
    AsyncServer,
    LoadgenSpec,
    MetricsRegistry,
    make_policy,
    make_slo_policy,
    run_loadgen,
)
from repro.serving.loadgen import build_engine, build_payloads

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_trace", _TOOLS / "check_trace.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _small_spec(**kw):
    base = dict(engine="et", model="small", rate_per_s=500.0,
                num_requests=30, seed=3, max_seq_len=64, seq_step=16,
                policy="fine32", workers=2, max_batch=4,
                max_wait_us=1_000.0, max_depth=64)
    base.update(kw)
    return LoadgenSpec(**base)


def _traced(**kw):
    """A recorded loadgen run and the trace derived from its event log."""
    events = EventLog()
    res = run_loadgen(_small_spec(**kw), events=events)
    roots, counters = build_trace(events, res.engine)
    return res, roots, counters


# ---------------------------------------------------------------------------
# Timeline coverage the trace depends on (ISSUE 2 satellite)
# ---------------------------------------------------------------------------


class TestTimelineRegions:
    def test_time_by_region_nested_labels(self, tl):
        with tl.region("outer"):
            tl.launch(KernelCost("a", bytes_loaded=1e5))
            with tl.region("inner"):
                tl.launch(KernelCost("b", bytes_loaded=1e5))
        tl.launch(KernelCost("c", bytes_loaded=1e5))
        by_region = tl.time_by_region()
        assert set(by_region) == {"outer", "outer/inner", ""}
        assert by_region["outer"] == pytest.approx(tl.records[0].time_us)
        assert sum(by_region.values()) == pytest.approx(tl.total_time_us)

    def test_roofline_report_rows(self, tl):
        tl.launch(KernelCost("mem", bytes_loaded=1e6, flops=1e3))
        tl.launch(KernelCost("cmp", bytes_loaded=32.0, flops=1e10))
        rows = tl.roofline_report()
        assert [r["kernel"] for r in rows] == ["mem", "cmp"]
        for row in rows:
            assert {"arithmetic_intensity", "ridge_point", "memory_bound",
                    "achieved_gbs", "time_us"} <= set(row)
        assert rows[0]["memory_bound"] and not rows[1]["memory_bound"]
        assert rows[0]["arithmetic_intensity"] < rows[0]["ridge_point"]

    def test_merge_prefix_wraps_regions(self, tl):
        other = tl.fork()
        with other.region("layer0"):
            other.launch(KernelCost("k", bytes_loaded=1e5))
        tl.merge(other, prefix="request7")
        assert tl.records[0].region == "request7/layer0"

    def test_run_batch_provenance_regions(self, rng):
        cfg = small_config(name="prov", num_layers=2, d_model=32,
                           num_heads=4, max_seq_len=32)
        engine = TensorRTLikeEngine(EncoderWeights.random(cfg, rng))
        xs = [rng.standard_normal((8, cfg.d_model)) for _ in range(2)]
        results, agg = engine.run_batch(xs)
        regions = set(agg.time_by_region())
        assert {"request0/layer0", "request0/layer1",
                "request1/layer0", "request1/layer1"} == regions
        # provenance wrapping must not change the aggregate service time
        assert agg.total_time_us == pytest.approx(
            sum(r.latency_us for r in results))

    def test_per_record_sm_efficiency_matches_aggregate(self, tl):
        tl.launch(KernelCost("a", bytes_loaded=5e5, ctas=200))
        tl.launch(KernelCost("b", bytes_loaded=2e6, ctas=40))
        weighted = sum(r.sm_efficiency(tl.device) * r.time_us
                       for r in tl.records) / tl.total_time_us
        assert weighted == pytest.approx(tl.sm_efficiency)


# ---------------------------------------------------------------------------
# MetricsRegistry: the fold's schema, rejected terminal times, the window
# ---------------------------------------------------------------------------


def _served(m, rid, arrival, start, finish, slo_met=None):
    """Fold the events of one request served alone in batch ``rid``."""
    batch = {"batch_id": rid, "bucket": 0, "size": 1}
    m.fold("admit", arrival, {"rid": rid, "seq_len": 16, "tenant": 0})
    m.fold("enqueue", arrival, {"rid": rid, "seq_len": 16})
    m.fold("batch_formed", start, batch)
    m.fold("dispatch", start, {**batch, "replica": 0})
    m.fold("complete", finish, {**batch, "rid": rid, "seq_len": 16,
                                "tenant": 0, "replica": 0,
                                "slo_met": slo_met})


def _rejected(m, rid, arrival, finish):
    """Fold the events of one request shed at ``finish``."""
    m.fold("admit", arrival, {"rid": rid, "seq_len": 16, "tenant": 0})
    m.fold("enqueue", arrival, {"rid": rid, "seq_len": 16})
    m.fold("reject", finish, {"rid": rid, "seq_len": 16, "tenant": 0,
                              "detail": "shed"})


def _completed(m, rid, finish, latency, queue, slo_met=None):
    """One request completing at ``finish``, folded into ``m``."""
    arrival = finish - latency
    _served(m, rid, arrival, arrival + queue, finish, slo_met)


def _window(**kw):
    """A registry over a fresh window, and the window."""
    m = MetricsRegistry(WindowedMetrics(**kw))
    return m, m.window


def _dispatched(m, size, bucket):
    m.fold("dispatch", 0.0, {"batch_id": 0, "bucket": bucket, "size": size,
                             "replica": 0})


class TestMetricsRegistry:
    def test_snapshot_schema_is_stable(self):
        empty = MetricsRegistry()
        busy = MetricsRegistry()
        _served(busy, 0, 0.0, 10.0, 50.0)
        assert set(empty.snapshot()) == set(busy.snapshot())
        for p in (50, 95, 99):
            assert empty.snapshot()[f"p{p}_latency_us"] == 0.0
        assert empty.snapshot()["mean_queue_us"] == 0.0

    def test_rejections_extend_makespan(self):
        m = MetricsRegistry()
        _served(m, 0, 0.0, 10.0, 50.0)
        _rejected(m, 1, 90.0, 100.0)
        assert m.makespan_us == pytest.approx(100.0)
        assert m.throughput_seq_s == pytest.approx(1 / 100e-6)

    @pytest.mark.parametrize("kind, detail", [("exec", "error"),
                                              ("worker_death", None)])
    def test_shed_batch_leaves_no_fold_state(self, kind, detail):
        """A dispatched batch whose members are shed, after a failed
        execution or with its last replica, keeps no in-flight entry."""
        m = MetricsRegistry()
        batch = {"batch_id": 0, "bucket": 0, "size": 1}
        m.fold("admit", 0.0, {"rid": 0, "seq_len": 16, "tenant": 0})
        m.fold("enqueue", 0.0, {"rid": 0, "seq_len": 16})
        m.fold("batch_formed", 1.0, batch)
        m.fold("dispatch", 1.0, {**batch, "replica": 0})
        m.fold(kind, 2.0, {**batch, "replica": 0, "detail": detail})
        m.fold("reject", 2.0, {"rid": 0, "seq_len": 16, "tenant": 0,
                               "detail": "shed"})
        assert (m.rejected, m.in_flight) == (1, 0)

    def test_rejection_only_run_has_nonzero_makespan(self):
        m = MetricsRegistry()
        _rejected(m, 0, 5.0, 25.0)
        assert m.makespan_us == pytest.approx(20.0)
        assert m.throughput_seq_s == 0.0


class TestWindowedMetrics:
    def test_window_prunes_old_observations(self):
        m, w = _window(window_us=100.0)
        _completed(m, 0, 0.0, 10.0, 1.0)
        _completed(m, 1, 50.0, 20.0, 2.0)
        assert w.window_count == 2
        _completed(m, 2, 200.0, 30.0, 3.0)
        assert w.window_count == 1  # first two fell out of the window
        assert w.latency_percentile_us(50.0) == pytest.approx(30.0)

    def test_ewma_throughput_tracks_completion_rate(self):
        m, w = _window(ewma_alpha=0.5)
        for i in range(1, 11):
            _completed(m, i, i * 1000.0, 10.0, 0.0)  # 1 per ms
        assert w.ewma_throughput_seq_s == pytest.approx(1000.0, rel=1e-6)

    def test_batch_histogram_cumulative_rows(self):
        m, w = _window()
        for size in (1, 2, 2, 5):
            _dispatched(m, size, bucket=3)
        rows = dict(w.hist_cumulative(3))
        assert rows["1"] == 1 and rows["2"] == 3
        assert rows["8"] == 4 and rows["+Inf"] == 4
        assert w.batch_sum[3] == 10 and w.batch_count[3] == 4

    def test_empty_window_snapshot_defaults(self):
        snap = WindowedMetrics().snapshot()
        assert snap["window_count"] == 0.0
        assert snap["window_p99_latency_us"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedMetrics(window_us=0.0)
        with pytest.raises(ValueError):
            WindowedMetrics(ewma_alpha=0.0)


# ---------------------------------------------------------------------------
# Trace derived from the event log, and the span tree
# ---------------------------------------------------------------------------


class TestTracer:
    def test_loadgen_builds_full_span_chain(self):
        res, roots, counters = _traced()
        reqs = [s for s in roots if s.kind == "request"]
        assert len(reqs) == res.metrics.completed + res.metrics.rejected
        served = [s for s in reqs if s.attrs["status"] == "ok"]
        for sp in served:
            phases = {c.name for c in sp.children}
            assert phases == {"queue_wait", "service"}
            kinds = {d.kind for d in sp.walk()}
            assert {"request", "phase", "layer", "step", "kernel"} <= kinds
            for kern in (d for d in sp.walk() if d.kind == "kernel"):
                assert {"gld_transactions", "gst_transactions",
                        "sm_efficiency", "achieved_gbs"} <= set(kern.attrs)
        batches = [s for s in roots if s.kind == "batch"]
        batch_ids = {b.attrs["batch_id"] for b in batches}
        assert all(s.attrs["batch_id"] in batch_ids for s in served)
        assert "queue_depth" in counters

    def test_request_span_attrs_carry_regime_and_bucket(self):
        _, roots, _ = _traced()
        sp = next(s for s in roots
                  if s.kind == "request" and s.attrs["status"] == "ok")
        assert sp.attrs["engine"] == "et"
        assert sp.attrs["otf_regime"] in ("otf", "partial_otf",
                                          "otf/partial_otf")
        assert sp.attrs["bucket"] >= 0 and sp.attrs["seq_len"] > 0

    def test_rejections_become_rejected_spans(self):
        res, roots, _ = _traced(rate_per_s=200_000.0, num_requests=40,
                                max_depth=4, workers=1, max_batch=2)
        assert res.metrics.rejected > 0
        rej = [s for s in roots
               if s.kind == "request" and s.attrs["status"] == "rejected"]
        assert len(rej) == res.metrics.rejected
        assert all(not s.children for s in rej)

    def test_engine_spans_lays_kernels_serially(self, rng):
        cfg = small_config(name="lay", num_layers=2, d_model=32,
                           num_heads=4, max_seq_len=32)
        engine = TensorRTLikeEngine(EncoderWeights.random(cfg, rng))
        res = engine.run(rng.standard_normal((16, cfg.d_model)))
        root = Span("r", "request", 100.0, 100.0 + res.latency_us)
        end = engine_spans(res.timeline, root, res.choices, t0_us=100.0)
        assert end == pytest.approx(100.0 + res.latency_us)
        kernels = [s for s in root.walk() if s.kind == "kernel"]
        assert len(kernels) == res.timeline.num_kernels
        for prev, nxt in zip(kernels, kernels[1:]):
            assert nxt.start_us == pytest.approx(prev.end_us)
        layers = [s for s in root.walk() if s.kind == "layer"]
        assert [s.name for s in layers] == ["layer0", "layer1"]

    def test_render_span_tree_mentions_counters(self):
        _, roots, _ = _traced(num_requests=5)
        sp = next(s for s in roots if s.attrs.get("status") == "ok")
        text = render_span_tree(sp)
        assert "queue_wait" in text and "service" in text
        assert "gld=" in text and "GB/s" in text

    def test_closed_loop_queue_depth_counts_each_admit(self):
        """Four clients arrive together at t=0. The canonical event order
        puts all four admits before any enqueue, yet the samples read
        0, 1, 2, 3: an admitted request counts from its own admit."""
        res, _, counters = _traced(mode="closed", clients=4,
                                   num_requests=20)
        depth = counters["queue_depth"]
        assert depth[:4] == [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]
        assert len(depth) == 20
        assert max(v for _, v in depth) == res.metrics.max_queue_depth

    def test_trace_from_file_equals_in_memory(self, tmp_path):
        events = EventLog()
        res = run_loadgen(_small_spec(mode="closed", clients=4, slo_us=0.0),
                          events=events)
        path = tmp_path / "events.jsonl"
        write_events(str(path), events)
        from_file = build_trace(read_events(str(path)), res.engine)
        assert chrome_trace_json(*from_file) == \
            chrome_trace_json(*build_trace(events, res.engine))



# ---------------------------------------------------------------------------
# Metrics rebuilt from the event log alone
# ---------------------------------------------------------------------------


class TestMetricsFold:
    @pytest.mark.parametrize("kw", [
        {},  # open loop
        {"mode": "closed", "clients": 4},  # equal-timestamp admits at t=0
        {"rate_per_s": 200_000.0, "num_requests": 40, "max_depth": 4},
    ], ids=["open", "closed", "overload"])
    def test_fold_of_written_log_equals_live_page(self, tmp_path, kw):
        events = EventLog()
        res = run_loadgen(_small_spec(slo_us=0.0, **kw), events=events)
        path = tmp_path / "events.jsonl"
        write_events(str(path), events)
        folded = MetricsRegistry.from_events(read_events(str(path)))
        assert prometheus_text(folded) == prometheus_text(res.metrics)
        assert folded.in_flight == res.metrics.in_flight == 0
        if kw.get("max_depth") == 4:
            assert res.metrics.rejected > 0
            assert res.metrics.max_queue_depth == 4

    def test_checker_exits_7_when_the_page_is_not_the_fold(self, tmp_path):
        checker = _load_checker()
        events = EventLog()
        res = run_loadgen(_small_spec(slo_us=0.0), events=events)
        trace, prom, log = (tmp_path / n for n in ("t.json", "m.prom",
                                                   "e.jsonl"))
        trace.write_text(chrome_trace_json(*build_trace(events, res.engine))
                         + "\n")
        page = prometheus_text(res.metrics)
        prom.write_text(page)
        write_events(str(log), events)
        args = [str(trace), str(prom), str(log)]
        assert checker.main(args) == 0
        edited = page.replace("repro_requests_rejected_total 0",
                              "repro_requests_rejected_total 1")
        assert edited != page
        prom.write_text(edited)  # still valid exposition, not the fold
        assert checker.main(args) == checker.EXIT_FOLD == 7

    def test_closed_loop_depth_needs_the_core_order(self):
        """The CI closed-loop run: four clients arrive together at t=0.
        Replaying the canonical log as is reads depth 0; moving each
        enqueue up behind its admit reads the live 3."""
        events = EventLog()
        res = run_loadgen(LoadgenSpec(model="small", num_requests=60,
                                      mode="closed", clients=4,
                                      max_seq_len=64, seq_step=16),
                          events=events)
        naive = MetricsRegistry()
        for e in events.sorted_events():
            naive.fold(e.kind, e.ts_us, e.fields)
        assert res.metrics.max_queue_depth == 3
        assert MetricsRegistry.from_events(events).max_queue_depth == 3
        assert naive.max_queue_depth == 0


# ---------------------------------------------------------------------------
# Exports: determinism, structure, zero modeled overhead
# ---------------------------------------------------------------------------


class TestExports:
    def test_same_seed_byte_identical_trace(self):
        _, roots1, counters1 = _traced()
        _, roots2, counters2 = _traced()
        assert chrome_trace_json(roots1, counters1) == \
            chrome_trace_json(roots2, counters2)

    def test_tracing_is_free_on_the_cost_model(self):
        """Null recorder vs recorded and traced run: identical report — ≤2%
        is trivially met, the modeled overhead is exactly zero."""
        base = run_loadgen(_small_spec())
        traced, _, _ = _traced()
        assert base.report == traced.report
        assert base.metrics.snapshot() == traced.metrics.snapshot()
        b, t = base.metrics.snapshot(), traced.metrics.snapshot()
        assert t["throughput_seq_s"] >= 0.98 * b["throughput_seq_s"]

    def test_chrome_trace_passes_checker(self, tmp_path):
        checker = _load_checker()
        res, roots, counters = _traced()
        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        trace_path.write_text(chrome_trace_json(roots, counters) + "\n")
        prom_path.write_text(prometheus_text(res.metrics))
        errors: list[str] = []
        checker.check_trace(str(trace_path), errors)
        checker.check_metrics(str(prom_path), errors)
        assert errors == []

    def test_checker_flags_broken_inputs(self, tmp_path):
        checker = _load_checker()
        bad_trace = tmp_path / "bad.json"
        bad_trace.write_text(json.dumps({"traceEvents": [
            {"name": "r", "ph": "X", "pid": 1, "tid": 0, "ts": 0.0,
             "dur": 1.0, "cat": "request", "args": {"status": "ok"}}]}))
        bad_prom = tmp_path / "bad.prom"
        bad_prom.write_text("not a metric line at all!\n")
        errors: list[str] = []
        checker.check_trace(str(bad_trace), errors)
        checker.check_metrics(str(bad_prom), errors)
        assert any("chain" in e for e in errors)
        assert any("bad sample" in e or "missing" in e for e in errors)

    def test_chrome_counter_tracks_present(self):
        _, roots, counters = _traced()
        doc = chrome_trace(roots, counters)
        counters = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert {"queue_depth", "achieved_gbs"} <= counters

    def test_prometheus_has_stable_series_names(self):
        res = run_loadgen(_small_spec())
        text = prometheus_text(res.metrics)
        for name in ("repro_requests_completed_total",
                     "repro_latency_us", "repro_window_latency_us",
                     "repro_throughput_ewma_seq_s",
                     "repro_batch_size_bucket"):
            assert name in text
        # empty registry renders the same schema (0-valued, not absent)
        empty = prometheus_text(MetricsRegistry())
        assert "repro_latency_us" in empty
        assert 'quantile="0.99"' in empty


# ---------------------------------------------------------------------------
# AsyncServer + CLI surface
# ---------------------------------------------------------------------------


class TestServerAndCLI:
    def test_async_server_metrics_text_and_tracer(self, rng):
        cfg = small_config(name="obs-serve", num_layers=1, d_model=32,
                           num_heads=4, max_seq_len=64)
        engines = [TensorRTLikeEngine(EncoderWeights.random(cfg, rng))]
        pol = make_policy("single", switches=(), max_seq_len=64)
        events = EventLog()
        with AsyncServer(engines, pol, max_batch=4, max_wait_us=500.0,
                         events=events) as server:
            futs = [server.submit(rng.standard_normal((16, cfg.d_model)))
                    for _ in range(3)]
            for f in futs:
                assert f.result(timeout=30.0).ok
            text = server.metrics_text()
        assert "repro_requests_completed_total 3" in text
        roots, _ = build_trace(events, engines[0])
        served = [s for s in roots if s.kind == "request"]
        assert len(served) == 3
        assert all(any(d.kind == "kernel" for d in s.walk()) for s in served)

    def test_cli_trace_command(self, capsys):
        from repro.cli import main

        rc = main(["trace", "--model", "small", "--seq-len", "48"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[request]" in out and "[layer]" in out
        assert "gld=" in out and "GB/s" in out

    def test_cli_loadgen_trace_out(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        rc = main(["loadgen", "--model", "small", "--requests", "10",
                   "--rate", "500", "--max-len", "64", "--seq-step", "16",
                   "--trace-out", str(trace), "--metrics-out", str(prom)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert any(e.get("cat") == "kernel" for e in doc["traceEvents"])
        assert "repro_throughput_seq_s" in prom.read_text()
        assert "trace written" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", [[], ["--workers", "1"]],
                             ids=["threads", "pool"])
    def test_serve_cli_derived_trace_passes_checker(self, backend, tmp_path,
                                                   capsys):
        from repro.cli import main

        paths = [str(tmp_path / n)
                 for n in ("trace.json", "metrics.prom", "events.jsonl")]
        rc = main(["serve", "--model", "small", "--requests", "24",
                   "--max-len", "64", "--seq-step", "16", "--slo-us", "0",
                   "--trace-out", paths[0], "--metrics-out", paths[1],
                   "--events-out", paths[2], *backend])
        assert rc == 0
        capsys.readouterr()
        checker = _load_checker()
        errors: list[str] = []
        checker.check_trace(paths[0], errors)
        checker.check_metrics(paths[1], errors)
        checker.check_events(paths[2], errors)
        assert errors == []
        doc = json.loads(pathlib.Path(paths[0]).read_text())
        served = [e for e in doc["traceEvents"] if e.get("cat") == "request"
                  and e["args"]["status"] == "ok"]
        assert sorted(e["args"]["rid"] for e in served) == list(range(24))

    def test_cli_trace_out_without_events_out(self, tmp_path, capsys):
        """``--trace-out`` records an event log to derive the trace from,
        but writes no events file unless ``--events-out`` asks for one."""
        from repro.cli import main

        checker = _load_checker()
        trace = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        rc = main(["loadgen", "--model", "small", "--requests", "30",
                   "--mode", "closed", "--clients", "4", "--max-len", "64",
                   "--seq-step", "16", "--slo-us", "0",
                   "--trace-out", str(trace), "--metrics-out", str(prom)])
        assert rc == 0
        errors: list[str] = []
        checker.check_trace(str(trace), errors)
        checker.check_metrics(str(prom), errors)
        assert errors == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["m.prom", "t.json"]
        assert "events written" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Flight recorder (ISSUE 7 tentpole)
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_emit_and_canonical_sort(self):
        log = EventLog()
        log.emit("complete", 10.0, rid=1, batch_id=0)
        log.emit("admit", 5.0, rid=1)
        log.emit("enqueue", 5.0, rid=1)
        kinds = [e.kind for e in log.sorted_events()]
        assert kinds == ["admit", "enqueue", "complete"]  # ts, then rank

    def test_unknown_kind_rejected_at_emit_and_construction(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event kind"):
            log.emit("nonsense", 0.0)
        with pytest.raises(ValueError, match="unknown event kind"):
            Event(ts_us=0.0, kind="nonsense")

    def test_jsonl_omits_none_fields_and_ends_with_newline(self):
        log = EventLog()
        log.emit("admit", 1.0, rid=0, seq_len=32)
        text = log.to_jsonl()
        assert text.endswith("\n")
        (line,) = text.splitlines()
        obj = json.loads(line)
        assert obj == {"ts_us": 1.0, "kind": "admit", "rid": 0,
                       "seq_len": 32}

    def test_lifecycle_bookkeeping(self):
        log = EventLog()
        log.emit("admit", 1.0, rid=0)
        log.emit("admit", 2.0, rid=1)
        log.emit("complete", 3.0, rid=0)
        assert log.rids() == [0, 1]
        assert log.unterminated() == [1]
        assert log.counts() == {"admit": 2, "complete": 1}
        assert log.lifecycle(0) == ["admit", "complete"]

    def test_extend_folds_in_materialized_events(self):
        log = EventLog()
        log.extend([Event(ts_us=1.0, kind="exec", batch_id=3, replica=1)])
        (e,) = log.sorted_events()
        assert (e.kind, e.batch_id, e.replica) == ("exec", 3, 1)

    def test_null_log_records_nothing(self):
        assert not NULL_EVENT_LOG.enabled
        NULL_EVENT_LOG.emit("admit", 0.0, rid=0)
        NULL_EVENT_LOG.extend([Event(ts_us=0.0, kind="admit")])
        assert len(NULL_EVENT_LOG) == 0
        assert NULL_EVENT_LOG.sorted_events() == []
        assert NULL_EVENT_LOG.to_jsonl() == ""


class TestFlightRecorder:
    def _events_for(self, **kw) -> EventLog:
        events = EventLog()
        run_loadgen(_small_spec(**kw), events=events)
        return events

    def test_same_seed_byte_identical_jsonl(self):
        a = self._events_for().to_jsonl()
        b = self._events_for().to_jsonl()
        assert a == b and a  # byte-identical, non-empty

    def test_every_admitted_rid_reaches_one_terminal_event(self):
        events = self._events_for()
        assert events.rids() == list(range(30))
        assert events.unterminated() == []
        counts = events.counts()
        assert counts["admit"] == 30
        assert counts.get("complete", 0) + counts.get("reject", 0) == 30

    def test_lifecycle_invariant_across_worker_counts(self):
        # Worker count changes placement and finish times, never a
        # request's lifecycle: same admitted rids, same per-rid event
        # kinds, same terminal kind (the cross-worker log invariant the
        # canonical sort is designed around).
        logs = {w: self._events_for(workers=w) for w in (1, 2, 4)}
        rids = {w: log.rids() for w, log in logs.items()}
        assert rids[1] == rids[2] == rids[4]
        for rid in rids[1]:
            cycles = {w: log.lifecycle(rid) for w, log in logs.items()}
            assert cycles[1] == cycles[2] == cycles[4]

    def test_rejections_emit_reject_events(self):
        events = self._events_for(rate_per_s=200_000.0, num_requests=40,
                                  max_depth=4)
        counts = events.counts()
        assert counts.get("reject", 0) > 0
        rejects = [e for e in events.sorted_events() if e.kind == "reject"]
        assert all(e.detail == "queue_full" for e in rejects)
        assert events.unterminated() == []

    def test_written_log_passes_checker(self, tmp_path):
        checker = _load_checker()
        path = tmp_path / "events.jsonl"
        write_events(str(path), self._events_for())
        errors: list[str] = []
        checker.check_events(str(path), errors)
        assert errors == []

    def test_checker_flags_broken_logs(self, tmp_path):
        checker = _load_checker()
        cases = {
            "unknown_kind.jsonl":
                '{"kind":"warp","ts_us":1.0}\n',
            "unknown_field.jsonl":
                '{"kind":"admit","ts_us":1.0,"rid":0,"vibe":"ok"}\n',
            "out_of_order.jsonl":
                '{"kind":"admit","rid":0,"ts_us":2.0}\n'
                '{"kind":"admit","rid":1,"ts_us":1.0}\n',
            "unterminated.jsonl":
                '{"kind":"admit","rid":0,"ts_us":1.0}\n',
            "double_terminal.jsonl":
                '{"kind":"admit","rid":0,"ts_us":1.0}\n'
                '{"kind":"complete","rid":0,"ts_us":2.0}\n'
                '{"kind":"complete","rid":0,"ts_us":3.0}\n',
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            errors: list[str] = []
            checker.check_events(str(path), errors)
            assert errors, f"checker missed {name}"

    def test_recorder_never_changes_the_report(self):
        plain = run_loadgen(_small_spec()).report
        recorded = run_loadgen(_small_spec(), events=EventLog()).report
        assert plain == recorded


# ---------------------------------------------------------------------------
# SLO layer (ISSUE 7)
# ---------------------------------------------------------------------------


class TestSloPolicy:
    def _policy(self):
        return make_policy("fine32", switches=(), max_seq_len=64)

    def test_per_bucket_budgets_price_the_upper_edge(self):
        pol = self._policy()
        slo = SloPolicy.from_cost_model(pol, lambda s: 10.0 * s, scale=2.0)
        assert slo.budgets_us == tuple(2.0 * 10.0 * e for e in pol.edges)
        assert slo.budget_us(1) == slo.budgets_us[pol.bucket_of(1)]
        assert slo.deadline_us(1, 100.0) == 100.0 + slo.budget_us(1)

    def test_fixed_budget_overrides_buckets(self):
        slo = SloPolicy.from_cost_model(self._policy(), lambda s: 10.0 * s,
                                        fixed_us=5_000.0)
        assert slo.budget_us(1) == slo.budget_us(64) == 5_000.0

    def test_validation(self):
        pol = self._policy()
        with pytest.raises(ValueError, match="one budget per bucket"):
            SloPolicy(policy=pol, budgets_us=(1.0,) * 99)
        with pytest.raises(ValueError, match="positive"):
            SloPolicy(policy=pol,
                      budgets_us=(0.0,) * pol.num_buckets)
        with pytest.raises(ValueError, match="scale"):
            SloPolicy.from_cost_model(pol, lambda s: s, scale=0.0)

    def test_tracker_groups_and_misses(self):
        t = SloTracker()
        mk = lambda met, bucket, client, replica: {  # noqa: E731
            "rid": 0, "bucket": bucket, "tenant": client,
            "replica": replica, "deadline_us": 2.0, "slo_met": met}
        assert t.observe(mk(True, 0, 0, 1)) is True
        assert t.observe(mk(False, 1, 0, -1)) is False
        no_slo = {"rid": 2, "bucket": 0, "tenant": 0, "replica": 0}
        assert t.observe(no_slo) is None
        assert (t.total, t.met) == (2, 1)
        assert t.attainment == 0.5
        assert t.attainment_by("bucket") == {0: 1.0, 1: 0.0}
        assert t.attainment_by("tenant") == {0: 0.5}
        assert t.attainment_by("replica") == {1: 1.0}  # -1 not grouped


class TestSloInLoadgen:
    def test_generous_budget_attains_everything(self):
        res = run_loadgen(_small_spec(slo_us=1e9))
        m = res.metrics
        assert m.slo.total == 30 and m.slo.attainment == 1.0
        assert m.goodput_seq_s == pytest.approx(m.throughput_seq_s)
        snap = m.snapshot()
        assert snap["slo_attainment"] == 1.0
        assert snap["slo_total"] == 30.0

    def test_impossible_budget_misses_everything(self):
        m = run_loadgen(_small_spec(slo_us=1e-3)).metrics
        assert m.slo.total == 30 and m.slo.attainment == 0.0
        assert m.goodput_seq_s == 0.0

    def test_rejections_count_as_misses(self):
        m = run_loadgen(_small_spec(rate_per_s=200_000.0, num_requests=40,
                                    max_depth=4, slo_us=1e9)).metrics
        assert m.rejected > 0
        assert m.slo.total == 40  # served + shed all carried deadlines
        assert m.slo.met == m.completed  # generous budget: misses = sheds

    def test_no_slo_keeps_schema_and_zeroes(self):
        m = run_loadgen(_small_spec()).metrics
        snap = m.snapshot()
        assert snap["slo_total"] == 0.0
        assert snap["slo_attainment"] == 0.0
        assert m.goodput_seq_s == 0.0

    def test_auto_budgets_come_from_cost_model(self):
        spec = _small_spec(slo_us=0.0, slo_scale=3.0)
        res = run_loadgen(spec)
        engine = build_engine(spec)
        assert res.slo is not None and res.slo.fixed_us is None
        expect = tuple(3.0 * engine.latency_us(seq_len=e)
                       for e in res.policy.edges)
        assert res.slo.budgets_us == pytest.approx(expect)

    def test_make_slo_policy_none_without_budget(self):
        spec = _small_spec()
        engine = build_engine(spec)
        pol = make_policy("fine32", switches=(), max_seq_len=64)
        assert make_slo_policy(spec, engine, pol) is None

    def test_prometheus_slo_series(self):
        m = run_loadgen(_small_spec(slo_us=1e9)).metrics
        text = prometheus_text(m)
        assert "repro_slo_attainment 1" in text
        assert 'repro_slo_attainment_by_bucket{bucket="0"} 1' in text
        assert "repro_goodput_seq_s " in text
        assert "repro_window_slo_attainment 1" in text
        # schema is stable without deadlines, just zero-valued
        plain = prometheus_text(run_loadgen(_small_spec()).metrics)
        assert "repro_slo_attainment 0" in plain


# ---------------------------------------------------------------------------
# Roofline attribution (ISSUE 7)
# ---------------------------------------------------------------------------


class TestAttribution:
    def _timeline(self, seed: int = 0):
        spec = _small_spec()
        engine = build_engine(spec)
        payloads = build_payloads(spec)
        return engine.run(payloads[48]).timeline

    def test_regions_reconcile_with_time_by_region(self):
        tl = self._timeline()
        report = attribute(tl)
        by_region = tl.time_by_region()
        assert {r["key"] for r in report["regions"]} == set(by_region)
        for row in report["regions"]:
            assert row["time_us"] == pytest.approx(by_region[row["key"]],
                                                   abs=1e-5)

    def test_kernel_classes_reconcile_with_time_by_tag(self):
        tl = self._timeline()
        report = attribute(tl)
        by_tag = tl.time_by_tag()
        assert {r["key"] for r in report["kernel_classes"]} == set(by_tag)
        for row in report["kernel_classes"]:
            assert row["time_us"] == pytest.approx(by_tag[row["key"]],
                                                   abs=1e-5)

    def test_shares_partition_the_run(self):
        report = attribute(self._timeline())
        for section in ("kernel_classes", "regions"):
            rows = report[section]
            assert sum(r["time_share"] for r in rows) == \
                pytest.approx(1.0, abs=1e-3)
            assert sum(r["launches"] for r in rows) == \
                report["totals"]["num_kernels"]
            for r in rows:
                assert 0.0 <= r["sm_efficiency"] <= 1.0
                assert 0.0 <= r["bw_utilization"] <= 1.0

    def test_report_is_seed_deterministic(self):
        assert report_json(self._timeline()) == report_json(self._timeline())

    def test_cli_profile_writes_stable_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "profile.json"
        argv = ["profile", "--model", "small", "--seq-len", "48",
                "--profile-out", str(out)]
        assert main(argv) == 0
        first = out.read_text()
        assert main(argv) == 0
        assert out.read_text() == first
        report = json.loads(first)
        assert report["version"] == 2  # v2 added slowest_requests
        assert report["device"]["name"] == "V100S"
        assert report["slowest_requests"] == []  # no event log supplied
        assert "report written" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Perf history gating (ISSUE 7)
# ---------------------------------------------------------------------------


class TestHistory:
    BASE = {"loadgen": {"throughput_seq_s": 1000.0,
                        "p99_latency_us": 2000.0,
                        "slo_attainment": 0.9}}

    def test_identical_reports_pass(self):
        assert check_regressions(self.BASE, self.BASE) == []

    def test_each_gate_fires_past_tolerance(self):
        for path, direction, tol in GATED_METRICS:
            key = path.split(".", 1)[1]
            bad = json.loads(json.dumps(self.BASE))
            factor = (1 - 2 * tol) if direction == "higher" else (1 + 2 * tol)
            bad["loadgen"][key] *= factor
            failures = check_regressions(self.BASE, bad)
            assert [f.metric for f in failures] == [path]
            assert "want" in str(failures[0])

    def test_within_tolerance_passes(self):
        near = json.loads(json.dumps(self.BASE))
        near["loadgen"]["throughput_seq_s"] *= 0.99  # inside 2%
        assert check_regressions(self.BASE, near) == []

    def test_metric_lost_from_current_fails(self):
        bad = json.loads(json.dumps(self.BASE))
        del bad["loadgen"]["slo_attainment"]
        failures = check_regressions(self.BASE, bad)
        assert [f.metric for f in failures] == ["loadgen.slo_attainment"]

    def test_metric_absent_from_baseline_is_skipped(self):
        old = {"loadgen": {"throughput_seq_s": 1000.0}}
        assert check_regressions(old, self.BASE) == []

    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(str(path), self.BASE, label="a")
        append_history(str(path), self.BASE, label="b")
        entries = load_history(str(path))
        assert [e["label"] for e in entries] == ["a", "b"]
        assert entries[0]["metrics"]["loadgen.throughput_seq_s"] == 1000.0
        assert entries[0]["report"] == self.BASE

    def test_bench_history_tool_selftest(self, tmp_path):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_history", _TOOLS / "bench_history.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(self.BASE), encoding="utf-8")
        assert mod.main(["selftest", "--baseline", str(report)]) == 0
        degraded = tmp_path / "bad.json"
        degraded.write_text(json.dumps(mod._degrade(self.BASE)),
                            encoding="utf-8")
        assert mod.main(["check", "--baseline", str(report),
                         "--current", str(degraded)]) == 1
        assert mod.main(["check", "--baseline", str(report),
                         "--current", str(report)]) == 0


# ---------------------------------------------------------------------------
# Windowed metrics edge cases (ISSUE 7 satellite)
# ---------------------------------------------------------------------------


class TestWindowedEdgeCases:
    def test_single_sample_percentiles_collapse(self):
        m, w = _window()
        _completed(m, 0, 10.0, latency=123.0, queue=7.0)
        snap = w.snapshot()
        assert snap["window_p50_latency_us"] == 123.0
        assert snap["window_p95_latency_us"] == 123.0
        assert snap["window_p99_latency_us"] == 123.0
        assert snap["window_count"] == 1.0
        assert w.ewma_throughput_seq_s == 0.0  # one completion: no rate yet

    def test_ewma_decays_after_idle_gap(self):
        m, w = _window(ewma_alpha=0.5)
        for i in range(1, 6):  # steady 1 req / 1000 us = 1000 seq/s
            _completed(m, i, i * 1_000.0, latency=10.0, queue=0.0)
        steady = w.ewma_throughput_seq_s
        assert steady == pytest.approx(1000.0, rel=0.01)
        # a 1 s idle gap contributes an instantaneous rate of 1 seq/s
        _completed(m, 6, 5_000.0 + 1e6, latency=10.0, queue=0.0)
        assert w.ewma_throughput_seq_s == \
            pytest.approx(0.5 * steady + 0.5 * 1.0)

    def test_slo_window_prunes_like_latency(self):
        m, w = _window(window_us=1_000.0)
        _completed(m, 0, 0.0, 1.0, 0.0, slo_met=False)
        _completed(m, 1, 500.0, 1.0, 0.0, slo_met=True)
        assert w.window_slo_attainment == 0.5
        _completed(m, 2, 2_000.0, 1.0, 0.0, slo_met=True)
        assert w.window_slo_attainment == 1.0  # the miss aged out
        assert w.snapshot()["window_slo_attainment"] == 1.0

    def test_slo_free_requests_leave_attainment_zero(self):
        m, w = _window()
        _completed(m, 0, 1.0, 1.0, 0.0)  # slo_met=None not recorded
        assert w.window_slo_attainment == 0.0

    def test_batch_histograms_stable_across_worker_counts(self):
        # At a wait-bound operating point batch composition is decided by
        # arrivals, not worker availability, so the per-bucket histograms
        # are identical for any worker count.
        hists = {}
        for workers in (1, 2, 4):
            m = run_loadgen(_small_spec(workers=workers)).metrics
            hists[workers] = {b: dict(c)
                              for b, c in m.window.batch_hist.items()}
            for bucket in m.window.batch_hist:
                rows = m.window.hist_cumulative(bucket)
                assert rows[-1][0] == "+Inf"
                counts = [c for _, c in rows]
                assert counts == sorted(counts)  # cumulative: monotone
                assert rows[-1][1] == m.window.batch_count[bucket]
        assert hists[1] == hists[2] == hists[4]
