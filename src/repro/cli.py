"""Command-line experiment runner and serving entry points.

Regenerate any of the paper's tables/figures from the shell::

    python -m repro list                 # figures, their models and files
    python -m repro fig7                 # fig1 fig4 fig7..fig14 table1
    python -m repro fig8 --model Transformer
    python -m repro table1 --model DistilBERT --scale tiny
    python -m repro all                  # every figure that does not train

Each figure is one entry of :data:`repro.eval.figures.FIGURES` and prints
its result's ``render()`` — the text its benchmark writes to
``benchmarks/results/``. Training experiments (fig14, table1) accept
``--scale tiny|bench|small`` to trade fidelity for runtime.

Serving (ISSUE 1)::

    python -m repro loadgen --engine et --rate 50 --requests 200 --seed 0
    python -m repro loadgen --mode closed --clients 8
    python -m repro serve --requests 64 --serve-workers 2
    python -m repro serve --requests 64 --workers 2       # process pool
    python -m repro loadgen --requests 64 --workers 4     # process pool

``loadgen`` replays a seeded open-loop (Poisson) or closed-loop workload on
the deterministic virtual-time scheduler — same seed, same report.
``serve`` runs the same pipeline behind the thread-backed async server.
``--workers N`` (N > 0) swaps either command onto the multi-process
replica pool: worker processes share one read-only shared-memory weight
segment and a load-aware router spreads batches across them (outputs stay
bitwise-identical to the thread backend; ``--tenant-quota`` caps each
tenant's in-flight requests).

Observability (ISSUE 2)::

    python -m repro loadgen --trace-out trace.json --metrics-out metrics.prom
    python -m repro serve --trace-out trace.json --metrics-out metrics.prom
    python -m repro trace --engine et --seq-len 128

``--trace-out`` writes a Chrome ``trace_event`` JSON (open in
chrome://tracing or Perfetto) with the request → batch → layer → kernel
span chain; ``--metrics-out`` writes a Prometheus text exposition.
``trace`` runs one request and pretty-prints the span tree with per-span
profiling-counter rollups.

Attention autotuning (ISSUE 10)::

    python -m repro autotune                      # BERT_BASE, all devices
    python -m repro autotune --model Transformer
    python -m repro autotune --tune-out results/tune_cache.json

``autotune`` sweeps the per-(device, seqLen) attention-algorithm tuner
(full OTF vs partial OTF vs flash), prints the per-device winner ranges
with the crossover seqLens, and with ``--tune-out`` persists the warmed
selection cache as deterministic JSON.

SLO & profiling (ISSUE 7)::

    python -m repro loadgen --slo-us 0 --events-out events.jsonl
    python -m repro loadgen --slo-us 15000 --metrics-out metrics.prom
    python -m repro profile --engine et --seq-len 128 --profile-out p.json

``--slo-us`` stamps deadlines on every request (0 = per-bucket budgets
priced by the cost model, > 0 = one fixed budget in us) and the report /
Prometheus page gain attainment and goodput. ``--events-out`` writes the
flight recorder's structured lifecycle event log (JSONL, canonical order
— byte-identical across same-seed reruns; validate with
``tools/check_trace.py``). ``profile`` runs one request and emits the
roofline attribution report (per-region / per-kernel-class time share,
achieved GB/s vs device peak, SM efficiency); with ``--events-in`` it
folds a run's top-K per-request waterfalls into the same artifact.

Explain & trace diff (ISSUE 9)::

    python -m repro loadgen --events-out events.jsonl ...
    python -m repro explain events.jsonl --top 5 --explain-out explain.json
    python -m repro explain --rate 2000 --requests 100   # run + explain
    python -m repro tracediff events_a.jsonl events_b.jsonl \
        --diff-out diff.json --fail-on-diff

``explain`` reconstructs every completed request's latency waterfall
(admission / queue-wait splits / dispatch / execution / collection) from
the flight-recorder log, prints the stage shares, top-K slowest requests
with per-stage blame, the makespan critical path, and a Little's-law
consistency check. Without an events file it runs a seeded loadgen
first. ``tracediff`` aligns two logs by rid/bucket and attributes the
throughput/p50/p99/SLO deltas to stages, buckets, and replicas — two
same-seed runs diff to exactly zero (``--fail-on-diff`` exits 1
otherwise).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.eval.format import render_table

#: The keys of :data:`repro.eval.figures.FIGURES`, named here because the
#: registry stays off the serving import path.
FIGURE_CMDS = ("fig1", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11",
               "fig12", "fig13", "fig14", "table1")


def cmd_figures(args) -> str:
    """Render one figure, or with ``all`` every figure that does not train.

    Each figure prints what its benchmark writes to
    ``benchmarks/results/``; ``all`` follows each one with its run time.
    A ``--model`` the figure does not accept is a usage error.
    """
    from repro.eval.figures import FIGURES

    figs = ([f for f in FIGURES.values() if not f.trains]
            if args.experiment == "all" else [FIGURES[args.experiment]])
    for fig in figs:
        if fig.models is not None and args.model not in fig.models:
            raise argparse.ArgumentError(
                None, f"{fig.name} takes --model "
                      f"{' or '.join(fig.models)}, not {args.model}")
    out = []
    for fig in figs:
        t0 = time.time()
        out.append(fig.render(args.model, args.scale))
        if args.experiment == "all":
            out.append(f"[{fig.name}: {time.time() - t0:.1f}s]")
    return "\n".join(out)


def cmd_list() -> str:
    """Every command; each figure with its models and result files."""
    from repro.eval.figures import FIGURES

    lines = ["experiments ('all' runs those that do not train), each "
             "printing its benchmarks/results/ files:"]
    for fig in FIGURES.values():
        opts = [f"--model {'|'.join(fig.models)}"] if fig.models else []
        opts += ["--scale (trains)"] if fig.trains else []
        lines.append("  " + " ".join([f"{fig.name:<7}", *opts, "->",
                                      ", ".join(fig.stems)]))
    lines.append("serving: " + ", ".join(SERVING_CMDS))
    return "\n".join(lines)


def cmd_autotune(args) -> str:
    """Per-device attention-algorithm selection study + persisted cache.

    Sweeps the tuner over every modeled device for the chosen model's
    attention geometry (the serving model table, ``small`` included),
    prints the per-device winner-by-seqLen table with the crossover
    seqLens, and (with ``--tune-out``) persists the warmed selection cache
    as deterministic JSON so later runs start from a cache hit.
    """
    from repro.runtime.autotune import TuneCache, crossover_report
    from repro.serving import LoadgenSpec

    cfg = LoadgenSpec(model=args.model).model_config()
    cache = TuneCache()
    report = crossover_report(cfg.num_heads, cfg.d_head, cache=cache)
    rows = []
    for dev, entry in sorted(report.items()):
        winners = sorted(entry["winners"].items())
        run_start, run_algo = winners[0]
        for s, algo in winners[1:]:
            if algo != run_algo:
                rows.append([dev, f"{run_start}..{s - 1}", run_algo])
                run_start, run_algo = s, algo
        rows.append([dev, f"{run_start}..{winners[-1][0]}", run_algo])
        for name, val in sorted(entry["crossover"].items()):
            rows.append([dev, f"{name} takes over at",
                         "never" if val is None else val])
    out = [render_table(["device", "seqLen range", "winner"], rows,
                        f"autotune — {cfg.name} "
                        f"(H={cfg.num_heads}, d_head={cfg.d_head})")]
    stats = cache.stats()
    out.append(f"[tune cache: {stats['size']} entries, "
               f"{stats['hits']} hits / {stats['misses']} misses]")
    if args.tune_out:
        cache.save(args.tune_out)
        out.append(f"[cache written to {args.tune_out} — deterministic "
                   "JSON, byte-identical across same-seed runs]")
    return "\n".join(out)


# --------------------------------------------------------------------------
# serving commands
# --------------------------------------------------------------------------


def _loadgen_spec(args):
    """The serving flags as a :class:`LoadgenSpec`; an invalid combination
    raises ``argparse.ArgumentError``, which :func:`main` reports as a
    usage error."""
    from repro.serving import LoadgenSpec

    try:
        return LoadgenSpec(
            engine=args.engine, model=args.model, rate_per_s=args.rate,
            num_requests=args.requests, seed=args.seed, mode=args.mode,
            clients=args.clients, num_layers=args.layers,
            sparsity=args.sparsity, max_seq_len=args.max_len,
            seq_step=args.seq_step, policy=args.policy,
            workers=args.serve_workers, max_batch=args.max_batch,
            max_wait_us=args.max_wait_us, max_depth=args.max_depth,
            slo_us=args.slo_us, slo_scale=args.slo_scale,
        )
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from None


def _make_events(args):
    """A live event log when ``--events-out`` or ``--trace-out`` was given
    (the trace is derived from the log), else the null log."""
    from repro.obs import NULL_EVENT_LOG, EventLog

    wanted = getattr(args, "events_out", None) or getattr(args, "trace_out",
                                                          None)
    return EventLog() if wanted else NULL_EVENT_LOG


def _write_observability(args, engine, metrics, events,
                         pool=None) -> list[str]:
    """Write ``--trace-out`` / ``--metrics-out`` / ``--events-out`` files.

    The trace is built from the run's event log and ``engine`` (the
    engine it served with). With a ``pool`` snapshot the metrics page
    also carries the replica-level pool series (one endpoint for every
    replica). Returns human-readable notes for the report footer.
    """
    from repro.obs import (
        build_trace,
        pool_prometheus_text,
        prometheus_text,
        write_chrome_trace,
        write_events,
    )

    notes = []
    if getattr(args, "trace_out", None):
        write_chrome_trace(args.trace_out, *build_trace(events, engine))
        notes.append(f"[trace written to {args.trace_out} — "
                     "open in chrome://tracing or ui.perfetto.dev]")
    if getattr(args, "metrics_out", None):
        text = prometheus_text(metrics)
        if pool is not None:
            text += pool_prometheus_text(pool)
        with open(args.metrics_out, "w", encoding="utf-8") as f:
            f.write(text)
        notes.append(f"[metrics written to {args.metrics_out} — "
                     "Prometheus text exposition]")
    if getattr(args, "events_out", None):
        write_events(args.events_out, events)
        notes.append(f"[events written to {args.events_out} — "
                     f"{len(events)} lifecycle events, validate "
                     "with tools/check_trace.py]")
    return notes


def cmd_loadgen(args) -> str:
    """Deterministic load generation on the virtual-time scheduler.

    With ``--workers N`` (N > 0) the same seeded workload instead drives
    the live multi-process pool backend; outputs are bitwise-identical
    (engine results depend only on the input), while queueing times
    become wall clock.
    """
    from repro.serving import run_loadgen

    if args.workers > 0:
        return _run_pool(args)
    events = _make_events(args)
    result = run_loadgen(_loadgen_spec(args), events=events)
    return "\n".join([result.report] + _write_observability(
        args, result.engine, result.metrics, events))


def _run_pool(args) -> str:
    """``loadgen``/``serve --workers N``: the seeded workload on the
    replica pool, reported the way that command reports."""
    from repro.serving.loadgen import LoadgenResult, _render_report, drive_server
    from repro.serving.pool import build_pool_server

    spec = _loadgen_spec(args)
    events = _make_events(args)
    server, payloads, policy, crossover = build_pool_server(
        spec, args.workers, max_inflight_per_tenant=args.tenant_quota,
        events=events)
    with server:
        responses = drive_server(server, spec, payloads)
        snap = server.pool_snapshot()
    steals, mib = int(snap["steals"]), float(snap["shm_bytes"]) / 2**20
    if args.experiment == "loadgen":
        report = _render_report(LoadgenResult(
            spec=spec, policy=policy, crossover=crossover,
            responses=responses, metrics=server.metrics,
            engine=server.engine, slo=server.slo))
        report += (f"\n[pool backend: {args.workers} replica processes, "
                   f"{steals} steals, {mib:.2f} MiB shared weights]")
    else:
        report = _serve_table(
            args, spec, f"{args.workers} replica processes",
            ["replica processes", args.workers], policy, crossover,
            server.metrics, responses,
            [["batches stolen", steals], ["shared weights MiB", round(mib, 2)]])
    return "\n".join([report] + _write_observability(
        args, server.engine, server.metrics, events, pool=snap))


def cmd_serve(args) -> str:
    """Self-driving demo of the thread-backed async server.

    Builds one engine per worker thread over shared weights, pushes the
    seeded workload through ``submit`` (blocking briefly on backpressure)
    and prints the same metrics block as ``loadgen``. Queue times are wall
    clock here, so this command is a smoke/demo path, not a benchmark.
    With ``--workers N`` (N > 0) the multi-process pool backend serves
    the identical workload: replica processes sharing one read-only
    weight segment behind the same futures API.
    """
    from repro.serving import (
        AsyncServer,
        build_engine,
        make_policy,
        make_slo_policy,
        model_crossover,
    )
    from repro.serving.loadgen import build_payloads, drive_server

    if args.workers > 0:
        return _run_pool(args)
    spec = _loadgen_spec(args)
    cfg = spec.model_config()
    engines = [build_engine(spec) for _ in range(spec.workers)]
    payloads = build_payloads(spec)
    crossover = model_crossover(cfg.num_heads, cfg.d_head, max(payloads),
                                device=engines[0].device)
    policy = make_policy(spec.policy, crossover, max(payloads))
    events = _make_events(args)
    server = AsyncServer(engines, policy, max_batch=spec.max_batch,
                         max_wait_us=spec.max_wait_us,
                         max_depth=spec.max_depth, events=events,
                         slo=make_slo_policy(spec, engines[0], policy))
    with server:
        responses = drive_server(server, spec, payloads, timeout_s=60.0)
    report = _serve_table(args, spec, "live threads",
                          ["workers", spec.workers], policy, crossover,
                          server.metrics, responses)
    return "\n".join([report] + _write_observability(
        args, engines[0], server.metrics, events))


def _serve_table(args, spec, backend, workers_row, policy, crossover, m,
                 responses, extra_rows=()) -> str:
    """The ``serve`` report table, shared by the thread and pool paths."""
    from repro.eval.format import percentile_rows

    rows = [
        ["engine", spec.engine],
        workers_row,
        ["bucket policy", f"{policy.name} (crossover={crossover})"],
        ["completed", sum(r.ok for r in responses)],
        ["rejected", m.rejected],
        *extra_rows,
    ]
    rows += percentile_rows(m.latencies_us) if m.latencies_us else []
    rows += [["mean batch size", m.mean_batch_size],
             ["max queue depth", m.max_queue_depth]]
    if args.slo_us is not None:
        rows.append(["slo attainment", f"{m.slo.attainment:.4f} "
                                       f"({m.slo.met}/{m.slo.total})"])
    return render_table(["metric", "value"], rows,
                        f"serve — {spec.engine} / {spec.model} ({backend})")


def _one_request(args):
    """``trace``/``profile``'s request: one seeded ``--seq-len`` input
    (clamped to the model's longest) through the serving engine.

    Returns ``(spec, engine, seq_len, result)``.
    """
    import numpy as np

    from repro.serving import build_engine

    spec = _loadgen_spec(args)
    cfg = spec.model_config()
    seq_len = min(args.seq_len, cfg.max_seq_len)
    engine = build_engine(spec)
    x = np.random.default_rng(spec.seed).standard_normal((seq_len,
                                                          cfg.d_model))
    return spec, engine, seq_len, engine.run(x)


def cmd_trace(args) -> str:
    """Run one request and pretty-print its span tree with counter rollups.

    The span hierarchy (request → service → layer → step → kernel) is the
    same one ``--trace-out`` exports; each interior span shows the rollup of
    the Fig. 11/12 counters over the kernels it covers.
    """
    from repro.obs import Span, engine_spans, render_span_tree

    spec, engine, seq_len, res = _one_request(args)
    root = Span(name="request0", kind="request", start_us=0.0,
                end_us=res.latency_us,
                attrs={"rid": 0, "seq_len": seq_len, "engine": engine.name})
    service = root.child("service", "phase", 0.0, res.latency_us)
    engine_spans(res.timeline, service, res.choices)
    lines = [
        f"trace — {spec.engine} / {spec.model}, seq_len {seq_len}, "
        f"{res.timeline.num_kernels} kernels, {res.latency_us:.1f} us",
        "",
        render_span_tree(root),
    ]
    return "\n".join(lines)


def cmd_profile(args) -> str:
    """Run one request and emit the roofline attribution report.

    Per kernel class and per region: launches, time share, achieved DRAM
    GB/s against the device peak, and SM efficiency — the Fig. 11/12
    questions at serving granularity. ``--profile-out`` writes the full
    stable-JSON report (a pure function of the seed); ``--events-in``
    folds a serving run's top-K slowest-request waterfalls into the same
    artifact so roofline and waterfall views reconcile in one place.
    """
    from repro.obs import attribute, build_waterfalls, read_events, \
        write_report

    res = _one_request(args)[3]
    waterfalls = (build_waterfalls(read_events(args.events_in))
                  if args.events_in else None)
    if args.profile_out:
        report = write_report(args.profile_out, res.timeline,
                              waterfalls, args.top)
    else:
        report = attribute(res.timeline, waterfalls, args.top)
    tot = report["totals"]
    out = []
    for section in ("kernel_classes", "regions"):
        rows = [[r["key"], r["launches"], r["time_us"],
                 f"{r['time_share']:.1%}", r["achieved_gbs"],
                 f"{r['bw_utilization']:.1%}", f"{r['sm_efficiency']:.1%}"]
                for r in report[section]]
        out.append(render_table(
            ["key", "launches", "us", "share", "GB/s", "bw util", "sm eff"],
            rows, f"profile — {section.replace('_', ' ')}"))
    if report["slowest_requests"]:
        out.append(_slowest_table(report["slowest_requests"]))
    out.append(f"totals: {tot['time_us']} us, {tot['num_kernels']} kernels, "
               f"{tot['achieved_bw_gbs']} GB/s achieved "
               f"({tot['bw_utilization']:.1%} of {report['device']['name']} "
               f"peak), sm efficiency {tot['sm_efficiency']:.1%}")
    if args.profile_out:
        out.append(f"[report written to {args.profile_out} — "
                   "stable JSON, diffable across same-seed runs]")
    return "\n\n".join(out)


def _slowest_table(rows: list) -> str:
    """Render a ``slowest_requests`` section as one table."""
    from repro.obs import STAGES

    body = [[r["rid"], r["bucket"], r["latency_us"], r["blame"]]
            + [r["stages_us"][s] for s in STAGES] for r in rows]
    return render_table(["rid", "bucket", "latency us", "blame"] + list(STAGES),
                        body, "slowest requests — per-stage waterfall (us)")


def cmd_explain(args) -> str:
    """Waterfall attribution for one run: where did the latency go?

    With an events-JSONL path (from ``--events-out``) it explains that
    log; without one it runs the seeded loadgen described by the serving
    flags first. Prints stage totals/shares, the top-K slowest requests
    with per-stage blame, the makespan critical path, and the
    Little's-law consistency check; ``--explain-out`` writes the full
    stable JSON (byte-identical across same-seed runs).
    """
    import json

    from repro.obs import STAGES, EventLog, explain_report, read_events
    from repro.serving import run_loadgen

    if args.paths:
        events = read_events(args.paths[0])
        source = args.paths[0]
    else:
        events = EventLog()
        run_loadgen(_loadgen_spec(args), events=events)
        source = "loadgen (seed {})".format(args.seed)
    report = explain_report(events, top_k=args.top)

    rows: list[list[object]] = [
        ["completed / rejected / admitted",
         "{completed} / {rejected} / {admitted}".format(**report["requests"])],
        ["makespan (us)", report["makespan_us"]],
        ["throughput (seq/s)", report["throughput_seq_s"]],
        ["p50 / p99 latency (us)",
         f"{report['latency_us']['p50']} / {report['latency_us']['p99']}"],
    ]
    if report["slo"]["total"]:
        rows.append(["slo attainment",
                     f"{report['slo']['attainment']:.4f} "
                     f"({report['slo']['met']}/{report['slo']['total']})"])
    for s in STAGES:
        rows.append([f"stage {s}",
                     f"{report['stage_totals_us'][s]:.1f} us "
                     f"({report['stage_shares'][s]:.1%})"])
    ll = report["littles_law"]
    rows.append(["little's law L vs λW",
                 f"{ll['mean_queue_depth']} vs {ll['product_depth']} "
                 f"(residual {ll['residual']})"])
    out = [render_table(["metric", "value"], rows, f"explain — {source}")]

    out.append(_slowest_table(report["slowest_requests"]))

    cp = report["critical_path"]
    cp_rows = [[link["batch_id"], link["replica"], link["bucket"],
                link["size"], link["start_us"], link["end_us"],
                link["edge"]] for link in cp["links"]]
    out.append(render_table(
        ["batch", "replica", "bucket", "size", "start us", "end us",
         "bound by"],
        cp_rows, f"critical path — {len(cp['links'])} links, "
                 f"{cp['coverage']:.1%} of the {cp['makespan_us']:.0f} us "
                 "makespan"))
    if args.explain_out:
        with open(args.explain_out, "w", encoding="utf-8") as f:
            json.dump(report, f, sort_keys=True, indent=2)
            f.write("\n")
        out.append(f"[report written to {args.explain_out} — stable JSON, "
                   "byte-identical across same-seed runs]")
    return "\n\n".join(out)


def cmd_tracediff(args) -> "str | tuple[str, int]":
    """Differential trace profiling: attribute run B − run A by stage.

    Takes two flight-recorder JSONL logs, aligns them by rid/bucket and
    reports the per-stage / per-bucket / per-replica deltas behind the
    headline metric changes. Two same-seed runs diff to exactly zero;
    ``--fail-on-diff`` turns any nonzero delta into exit code 1 (the CI
    determinism gate).
    """
    import json

    from repro.obs import diff_events, diff_is_empty, read_events, render_diff

    if len(args.paths) != 2:
        raise SystemExit("tracediff needs exactly two events-JSONL paths: "
                         "python -m repro tracediff A.jsonl B.jsonl")
    path_a, path_b = args.paths
    report = diff_events(read_events(path_a), read_events(path_b),
                         label_a=path_a, label_b=path_b, top_k=args.top)
    out = [render_table(["metric", "A", "B", "delta"], render_diff(report),
                        f"tracediff — A={path_a} B={path_b}")]
    req = report["requests"]
    if diff_is_empty(report):
        out.append("runs are identical: every stage of every matched "
                   f"request diffs to zero ({req['matched']} requests)")
    else:
        out.append(f"runs differ: {req['changed']}/{req['matched']} matched "
                   f"requests changed, {len(req['only_in_a'])} only in A, "
                   f"{len(req['only_in_b'])} only in B; dominant stage: "
                   f"{report['blame']}")
        top_rows = [[r["rid"], r["bucket"], r["a_latency_us"],
                     r["b_latency_us"], r["delta_us"], r["blame"]]
                    for r in req["top_changed"]]
        if top_rows:
            out.append(render_table(
                ["rid", "bucket", "A us", "B us", "delta us", "blame"],
                top_rows, "most-changed requests"))
    if args.diff_out:
        with open(args.diff_out, "w", encoding="utf-8") as f:
            json.dump(report, f, sort_keys=True, indent=2)
            f.write("\n")
        out.append(f"[report written to {args.diff_out} — stable JSON]")
    text = "\n\n".join(out)
    if args.fail_on_diff and not diff_is_empty(report):
        return text, 1
    return text


SERVING_CMDS = {"serve": cmd_serve, "loadgen": cmd_loadgen,
                "trace": cmd_trace, "profile": cmd_profile,
                "explain": cmd_explain, "tracediff": cmd_tracediff,
                "autotune": cmd_autotune}


def build_parser() -> argparse.ArgumentParser:
    """Construct the experiment-runner argument parser."""
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the E.T. paper's tables and figures, "
                    "or serve traffic (serve / loadgen).",
    )
    p.add_argument("experiment",
                   choices=list(FIGURE_CMDS) + list(SERVING_CMDS)
                   + ["all", "list"],
                   help="which experiment or serving command to run")
    p.add_argument("paths", nargs="*", metavar="EVENTS",
                   help="flight-recorder JSONL logs: one (optional) for "
                        "'explain', exactly two for 'tracediff'")
    p.add_argument("--model", default="BERT_BASE",
                   choices=["BERT_BASE", "Transformer", "DistilBERT",
                            "small"],
                   help="model for fig8/table1/serve/loadgen "
                        "('small' is serving-only)")
    p.add_argument("--scale", default="bench",
                   choices=["tiny", "bench", "small"],
                   help="training scale for fig14/table1")

    s = p.add_argument_group("serving (serve/loadgen)")
    s.add_argument("--engine", default="et",
                   choices=["et", "tensorrt", "fastertransformer",
                            "pytorch"],
                   help="engine under load")
    s.add_argument("--rate", type=float, default=50.0,
                   help="open-loop arrival rate, requests per second")
    s.add_argument("--requests", type=int, default=200,
                   help="total requests to issue")
    s.add_argument("--seed", type=int, default=0,
                   help="workload and weights seed")
    s.add_argument("--mode", default="open", choices=["open", "closed"],
                   help="open loop (Poisson) or closed loop (clients)")
    s.add_argument("--clients", type=int, default=4,
                   help="closed-loop concurrent clients")
    s.add_argument("--layers", type=int, default=1,
                   help="encoder layers for the serving engine")
    s.add_argument("--sparsity", type=float, default=0.8,
                   help="attention-aware pruning ratio for --engine et")
    s.add_argument("--max-len", type=int, default=320, dest="max_len",
                   help="longest admissible sequence length")
    s.add_argument("--seq-step", type=int, default=32, dest="seq_step",
                   help="granularity of workload sequence lengths")
    s.add_argument("--bucket-policy", default="fine64", dest="policy",
                   choices=["single", "fine32", "fine64"],
                   help="crossover-aligned bucket policy")
    s.add_argument("--serve-workers", type=int, default=2,
                   dest="serve_workers",
                   help="engine worker threads (AsyncServer) or virtual "
                        "workers (loadgen scheduler)")
    s.add_argument("--workers", type=int, default=0, dest="workers",
                   help="replica processes for the pool backend; 0 (the "
                        "default) keeps the thread/virtual backends")
    s.add_argument("--tenant-quota", type=int, default=None,
                   dest="tenant_quota",
                   help="pool backend: max in-flight requests per tenant "
                        "(admission control QoS)")
    s.add_argument("--max-batch", type=int, default=8, dest="max_batch",
                   help="largest batch one dispatch may carry")
    s.add_argument("--max-wait-us", type=float, default=2000.0,
                   dest="max_wait_us",
                   help="longest a request may wait for batchmates (us)")
    s.add_argument("--max-depth", type=int, default=64, dest="max_depth",
                   help="queue depth before admission control rejects")

    o = p.add_argument_group("observability (serve/loadgen/trace/profile)")
    o.add_argument("--trace-out", default=None, dest="trace_out",
                   metavar="FILE",
                   help="write a Chrome trace_event JSON of the run "
                        "(chrome://tracing / Perfetto), derived from its "
                        "event log after the run")
    o.add_argument("--metrics-out", default=None, dest="metrics_out",
                   metavar="FILE",
                   help="write a Prometheus text exposition of the run's "
                        "metrics (pool runs include replica-level series)")
    o.add_argument("--events-out", default=None, dest="events_out",
                   metavar="FILE",
                   help="write the flight recorder's lifecycle event log "
                        "(JSONL; validate with tools/check_trace.py)")
    o.add_argument("--slo-us", type=float, default=None, dest="slo_us",
                   help="latency SLO budget in us (0 = per-bucket budgets "
                        "priced by the cost model; omit for no deadlines)")
    o.add_argument("--slo-scale", type=float, default=4.0, dest="slo_scale",
                   help="head-room multiple for --slo-us 0 per-bucket "
                        "budgets")
    o.add_argument("--seq-len", type=int, default=128, dest="seq_len",
                   help="sequence length for the 'trace'/'profile' commands")
    o.add_argument("--profile-out", default=None, dest="profile_out",
                   metavar="FILE",
                   help="write the 'profile' command's roofline "
                        "attribution report (stable JSON)")

    e = p.add_argument_group("attribution (explain/tracediff/profile)")
    e.add_argument("--top", type=int, default=5, dest="top",
                   help="top-K slowest/most-changed requests to show")
    e.add_argument("--explain-out", default=None, dest="explain_out",
                   metavar="FILE",
                   help="write the 'explain' command's waterfall report "
                        "(stable JSON, byte-identical across same-seed "
                        "runs)")
    e.add_argument("--diff-out", default=None, dest="diff_out",
                   metavar="FILE",
                   help="write the 'tracediff' command's stage-attribution "
                        "report (stable JSON)")
    e.add_argument("--fail-on-diff", action="store_true",
                   dest="fail_on_diff",
                   help="tracediff: exit 1 when the two runs are not "
                        "identical (CI determinism gate)")
    e.add_argument("--events-in", default=None, dest="events_in",
                   metavar="FILE",
                   help="profile: fold this flight-recorder log's top-K "
                        "request waterfalls into the roofline report")
    e.add_argument("--tune-out", default=None, dest="tune_out",
                   metavar="FILE",
                   help="autotune: persist the warmed attention tune cache "
                        "as deterministic JSON (TuneCache.load restores it)")
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.experiment == "list":
            out = cmd_list()
        elif args.experiment in SERVING_CMDS:
            out = SERVING_CMDS[args.experiment](args)
        else:
            out = cmd_figures(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))  # exits 2, like any other usage error
    if isinstance(out, tuple):  # (text, exit_code): tracediff --fail-on-diff
        print(out[0])
        return out[1]
    print(out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
