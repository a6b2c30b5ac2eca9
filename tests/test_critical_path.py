"""Critical-path attribution + differential trace profiling (ISSUE 9).

The load-bearing properties: per-request stage durations are non-negative
and partition end-to-end latency *exactly* (to the last bit, not within a
tolerance) on every backend — virtual-time scheduler at any worker
count, the thread :class:`AsyncServer`, and the multi-process
:class:`PoolServer` — and two same-seed runs diff to exactly empty, so
any nonzero tracediff is a real behavioural change.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.obs import (
    STAGES,
    EventLog,
    build_waterfalls,
    critical_path,
    diff_events,
    diff_is_empty,
    explain_report,
    littles_law,
    read_events,
    render_diff,
    slowest_requests,
    stage_shares,
    stage_totals,
    write_events,
)
from repro.obs.events import Event
from repro.serving import LoadgenSpec, run_loadgen
from repro.serving.pool import build_pool_server, drive_server

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _spec(**kw) -> LoadgenSpec:
    base = dict(engine="et", model="small", rate_per_s=1000.0,
                num_requests=40, seed=0, max_seq_len=64, seq_step=16,
                policy="fine64", workers=2, max_batch=8,
                max_wait_us=2_000.0, max_depth=64)
    base.update(kw)
    return LoadgenSpec(**base)


def _events_for(**kw) -> EventLog:
    events = EventLog()
    run_loadgen(_spec(**kw), events=events)
    return events


def _assert_exact_partition(waterfalls) -> None:
    assert waterfalls, "no waterfalls reconstructed"
    for w in waterfalls:
        assert set(w.stages) == set(STAGES)
        for stage in STAGES:
            assert w.stages[stage] >= 0.0, (w.rid, stage, w.stages[stage])
        # exact telescoping, not approximate: checkpoints are clamped
        # monotone so the float subtraction chain cancels to the last bit
        assert sum(w.stages[s] for s in STAGES) == pytest.approx(
            w.latency_us, abs=1e-6)
        assert w.latency_us >= 0.0


# ---------------------------------------------------------------------------
# per-request waterfalls: exact latency partition on every backend
# ---------------------------------------------------------------------------


class TestWaterfallPartition:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_virtual_scheduler_partitions_exactly(self, workers):
        events = _events_for(workers=workers)
        waterfalls = build_waterfalls(events)
        _assert_exact_partition(waterfalls)
        # every completed rid got a waterfall, in rid order
        completed = {e.rid for e in events.sorted_events()
                     if e.kind == "complete"}
        assert [w.rid for w in waterfalls] == sorted(completed)

    def test_saturated_run_partitions_exactly(self):
        # overload: rejects appear, queues are deep, HOL blocking is real
        events = _events_for(rate_per_s=200_000.0, num_requests=60,
                             max_depth=8)
        waterfalls = build_waterfalls(events)
        _assert_exact_partition(waterfalls)
        rejected = {e.rid for e in events.sorted_events()
                    if e.kind == "reject"}
        assert rejected, "overload run should shed load"
        assert rejected.isdisjoint({w.rid for w in waterfalls})

    def test_blame_names_the_largest_stage(self):
        for w in build_waterfalls(_events_for()):
            assert w.blame in STAGES
            assert w.stages[w.blame] == max(w.stages.values())

    def test_to_dict_shape_is_stable(self):
        w = build_waterfalls(_events_for())[0]
        d = w.to_dict()
        assert set(d) == {"rid", "batch_id", "bucket", "seq_len", "tenant",
                          "replica", "latency_us", "blame", "stages_us"}
        assert set(d["stages_us"]) == set(STAGES)

    def test_stage_totals_and_shares(self):
        waterfalls = build_waterfalls(_events_for())
        totals = stage_totals(waterfalls)
        shares = stage_shares(waterfalls)
        assert set(totals) == set(STAGES) == set(shares)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert sum(totals.values()) == pytest.approx(
            sum(w.latency_us for w in waterfalls))

    def test_thread_backend_partitions_exactly(self):
        from repro.serving import AsyncServer
        from repro.serving.loadgen import (build_engine, build_payloads,
                                           build_policy)

        spec = _spec(num_requests=24)
        payloads = build_payloads(spec)
        engines = [build_engine(spec) for _ in range(spec.workers)]
        policy = build_policy(spec, engines[0], max(payloads))
        events = EventLog()
        with AsyncServer(engines, policy, max_batch=spec.max_batch,
                         max_wait_us=spec.max_wait_us,
                         max_depth=spec.max_depth, events=events) as server:
            drive_server(server, spec, payloads)
        _assert_exact_partition(build_waterfalls(events))

    def test_pool_backend_partitions_exactly(self):
        spec = _spec(num_requests=24)
        events = EventLog()
        server, payloads, _ = build_pool_server(spec, 2, events=events)
        with server:
            drive_server(server, spec, payloads)
        waterfalls = build_waterfalls(events)
        _assert_exact_partition(waterfalls)
        # a batch handed back after a death is dispatched late, so
        # dispatch_wait must stay >= 0 on the pool's log
        assert all(w.stages["dispatch_wait"] >= 0.0 for w in waterfalls)


# ---------------------------------------------------------------------------
# makespan critical path + Little's law
# ---------------------------------------------------------------------------


class TestCriticalPath:
    def test_chain_is_time_ordered_and_covers(self):
        cp = critical_path(_events_for())
        assert cp["makespan_us"] > 0.0
        links = cp["links"]
        assert links, "no critical path reconstructed"
        for a, b in zip(links, links[1:]):
            assert a["end_us"] <= b["end_us"]
            assert b["edge"] in ("resource", "arrival", "batching")
        assert 0.0 < cp["coverage"] <= 1.0

    def test_saturated_run_is_resource_bound(self):
        # all requests arrive ~instantly: the chain must be back-to-back
        # batches on one replica, i.e. resource edges
        cp = critical_path(_events_for(rate_per_s=200_000.0,
                                       num_requests=60, max_depth=64))
        edges = [link["edge"] for link in cp["links"]]
        assert edges.count("resource") >= len(edges) - 1
        assert len(edges) > 1
        assert cp["coverage"] > 0.8

    def test_empty_log_degrades(self):
        cp = critical_path(EventLog())
        assert cp == {"makespan_us": 0.0, "links": [], "coverage": 0.0}

    def test_littles_law_residual_is_zero(self):
        for kw in ({}, {"workers": 4}, {"rate_per_s": 200_000.0,
                                        "num_requests": 60}):
            ll = littles_law(_events_for(**kw))
            assert ll["horizon_us"] > 0.0
            assert abs(ll["residual"]) <= 1e-6 * max(
                1.0, ll["mean_queue_depth"])


# ---------------------------------------------------------------------------
# explain report: stable, versioned, byte-deterministic
# ---------------------------------------------------------------------------


class TestExplainReport:
    def test_same_seed_reports_byte_identical(self):
        a = json.dumps(explain_report(_events_for()), sort_keys=True)
        b = json.dumps(explain_report(_events_for()), sort_keys=True)
        assert a == b

    def test_report_shape(self):
        report = explain_report(_events_for(), top_k=3)
        assert report["version"] == 1
        assert set(report["stage_totals_us"]) == set(STAGES)
        assert report["requests"]["completed"] > 0
        assert report["latency_us"]["p50"] <= report["latency_us"]["p99"]
        assert len(report["slowest_requests"]) == 3
        lats = [r["latency_us"] for r in report["slowest_requests"]]
        assert lats == sorted(lats, reverse=True)
        assert report["buckets"] and report["replicas"]

    def test_slowest_requests_tiebreak_on_rid(self):
        waterfalls = build_waterfalls(_events_for())
        top = slowest_requests(waterfalls, top_k=len(waterfalls))
        assert len(top) == len(waterfalls)
        pairs = [(-r["latency_us"], r["rid"]) for r in top]
        assert pairs == sorted(pairs)

    def test_events_round_trip_through_jsonl(self, tmp_path):
        events = _events_for()
        path = tmp_path / "events.jsonl"
        write_events(str(path), events)
        back = read_events(str(path))
        assert back.to_jsonl() == events.to_jsonl()
        assert json.dumps(explain_report(back), sort_keys=True) == \
            json.dumps(explain_report(events), sort_keys=True)


# ---------------------------------------------------------------------------
# differential trace profiling
# ---------------------------------------------------------------------------


def _perturb(events: EventLog, extra_us: float = 500.0) -> list[Event]:
    """The same log with one complete event's timestamp pushed out."""
    evs = events.sorted_events()
    victim = max(e.rid for e in evs if e.kind == "complete")
    out = []
    for e in evs:
        if e.kind == "complete" and e.rid == victim:
            e = Event(**{**e.to_dict(), "ts_us": e.ts_us + extra_us})
        out.append(e)
    return out


class TestTraceDiff:
    def test_same_seed_diff_is_exactly_empty(self):
        report = diff_events(_events_for(), _events_for())
        assert report["identical"] is True
        assert diff_is_empty(report)
        for row in report["summary"].values():
            assert row["delta"] == 0.0
        for row in report["stages"].values():
            assert row["delta_us"] == 0.0
        assert report["blame"] is None
        assert report["requests"]["changed"] == 0
        assert report["requests"]["only_in_a"] == []
        assert report["requests"]["only_in_b"] == []

    def test_perturbed_run_is_blamed(self):
        a = _events_for()
        report = diff_events(a, _perturb(a))
        assert report["identical"] is False
        assert not diff_is_empty(report)
        assert report["requests"]["changed"] >= 1
        top = report["requests"]["top_changed"][0]
        assert top["delta_us"] > 0.0
        assert top["blame"] in STAGES
        assert report["blame"] in STAGES

    def test_different_seeds_differ(self):
        report = diff_events(_events_for(seed=0), _events_for(seed=1))
        assert report["identical"] is False

    def test_render_diff_rows(self):
        report = diff_events(_events_for(), _events_for())
        rows = render_diff(report)
        names = [r[0] for r in rows]
        assert "throughput_seq_s" in names
        assert f"stage {STAGES[0]} (us)" in names
        assert all(len(r) == 4 for r in rows)


# ---------------------------------------------------------------------------
# CLI surface: repro explain / repro tracediff
# ---------------------------------------------------------------------------


class TestCLI:
    def _write_log(self, tmp_path, name="events.jsonl", **kw) -> str:
        path = tmp_path / name
        write_events(str(path), _events_for(**kw))
        return str(path)

    def test_explain_renders_and_writes_deterministic_json(
            self, tmp_path, capsys):
        from repro.cli import main

        log = self._write_log(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["explain", log, "--explain-out", str(out_a)]) == 0
        text = capsys.readouterr().out
        assert "stage execution" in text
        assert "critical path" in text
        assert main(["explain", log, "--explain-out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        report = json.loads(out_a.read_text())
        assert report["version"] == 1

    def test_tracediff_identical_logs_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        a = self._write_log(tmp_path, "a.jsonl")
        b = self._write_log(tmp_path, "b.jsonl")
        diff_out = tmp_path / "diff.json"
        assert main(["tracediff", a, b, "--fail-on-diff",
                     "--diff-out", str(diff_out)]) == 0
        assert "runs are identical" in capsys.readouterr().out
        assert json.loads(diff_out.read_text())["identical"] is True

    def test_tracediff_fail_on_diff_exits_one(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import EventLog as _EL

        a_log = _events_for()
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_events(str(a), a_log)
        perturbed = _EL()
        perturbed.extend(_perturb(a_log))
        write_events(str(b), perturbed)
        assert main(["tracediff", str(a), str(b)]) == 0  # report only
        assert main(["tracediff", str(a), str(b), "--fail-on-diff"]) == 1
        assert "runs differ" in capsys.readouterr().out

    def test_tracediff_needs_two_paths(self, tmp_path):
        from repro.cli import main

        log = self._write_log(tmp_path)
        with pytest.raises(SystemExit):
            main(["tracediff", log])

    def test_profile_events_in_adds_slowest_requests(self, tmp_path, capsys):
        from repro.cli import main

        log = self._write_log(tmp_path)
        out = tmp_path / "profile.json"
        assert main(["profile", "--model", "small", "--seq-len", "64",
                     "--events-in", log, "--profile-out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["version"] == 2
        assert report["slowest_requests"]
        assert report["slowest_requests"][0]["blame"] in STAGES


# ---------------------------------------------------------------------------
# perf-gate stage attribution (tools/bench_history.py)
# ---------------------------------------------------------------------------


class TestBenchHistoryAttribution:
    def _baseline(self) -> dict:
        return {"loadgen": {
            "throughput_seq_s": 1000.0, "p99_latency_us": 2000.0,
            "slo_attainment": 0.5,
            "stage_time_us": {s: 100.0 for s in STAGES},
            "stage_shares": {s: 1.0 / len(STAGES) for s in STAGES},
        }}

    def test_attribute_regression_blames_grown_stage(self):
        from repro.obs import attribute_regression

        base = self._baseline()
        cur = json.loads(json.dumps(base))
        cur["loadgen"]["stage_time_us"]["execution"] = 260.0
        cur["loadgen"]["throughput_seq_s"] = 700.0
        art = attribute_regression(base, cur, [])
        assert art["version"] == 1
        assert art["blame"] == "execution"
        assert art["stages"]["execution"]["delta_us"] == 160.0
        assert art["note"] is None

    def test_attribute_regression_degrades_without_stage_data(self):
        from repro.obs import attribute_regression

        art = attribute_regression({"loadgen": {}}, {"loadgen": {}}, [])
        assert art["blame"] is None
        assert "unavailable" in art["note"]

    def test_check_writes_attribution_artifact_on_failure(self, tmp_path):
        bh = _load_tool("bench_history")
        base = self._baseline()
        bad = bh._degrade(base)
        base_p, bad_p = tmp_path / "base.json", tmp_path / "bad.json"
        base_p.write_text(json.dumps(base))
        bad_p.write_text(json.dumps(bad))
        art_p = tmp_path / "attr.json"
        rc = bh.main(["check", "--baseline", str(base_p),
                      "--current", str(bad_p),
                      "--attribution-out", str(art_p)])
        assert rc == bh.EXIT_REGRESSION
        art = json.loads(art_p.read_text())
        assert art["blame"] == "execution"
        assert art["failures"]

    def test_selftest_verifies_stage_blame(self, tmp_path):
        bh = _load_tool("bench_history")
        base_p = tmp_path / "base.json"
        base_p.write_text(json.dumps(self._baseline()))
        art_p = tmp_path / "selftest_attr.json"
        rc = bh.main(["selftest", "--baseline", str(base_p),
                      "--attribution-out", str(art_p)])
        assert rc == bh.EXIT_OK
        assert json.loads(art_p.read_text())["blame"] == "execution"
