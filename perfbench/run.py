"""Host-clock benchmark of the E.T. reproduction: one workload, one seed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached;
``--trace 1`` repeats the same window with every ``repro`` function
wrapped by :mod:`hostclock` and reports per-layer metrics instead. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name → value and unit). Traced
runs also write their spans to ``.perfbench/trace-<workload>.json``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

#: This process's start, for its own cold-start sample of ``setup_s``.
_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the server's worker threads, not BLAS's, set how many
# CPUs a run uses, which keeps runs comparable on a small shared host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Cold starts per run, this process's own included; ``setup_s`` is their
#: median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120.0
#: Layers reported one by one; every other ``repro`` subpackage is "other".
LAYERS = ("serving", "runtime", "attention", "ops", "tensor", "gpu", "obs")


def _import_program() -> None:
    """Import ``repro`` from this checkout, or exit 2 if it is not here."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    # Everything the workloads touch, loaded before hostclock wraps it.
    import repro.config  # noqa: F401
    import repro.pruning  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.serving  # noqa: F401


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Cold start to ready, in fresh interpreters: import, build, warm."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--setup-only", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode})")
    return times


def end_to_end_metrics(run, setup_times: list[float]) -> dict:
    return {
        # Mean and p95, not p50 and p90: with ten lengths offered equally
        # often, the 50th and 90th percentiles fall on the gap between two
        # lengths' latencies and jump with any one request, while p95 sits
        # inside the longest length's group.
        "latency_mean_ms": (statistics.fmean(run.latencies_ms)
                            if run.latencies_ms else 0.0, "ms"),
        "latency_p95_ms": (_pct(run.latencies_ms, 95), "ms"),
        "throughput_seq_s": (run.counted / run.elapsed_s
                             if run.elapsed_s else 0.0, "seq/s"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer_metrics(run, snap: dict, process_cpu_ms: float,
                      plan_stats: tuple[int, int]) -> dict:
    n = max(1, run.completed)
    cpu, calls = snap["cpu_ms"], snap["calls"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}_cpu_us_per_seq"] = (cpu.get(layer, 0.0) * 1e3 / n,
                                          "us/seq")
        out[f"{layer}_calls_per_seq"] = (calls.get(layer, 0) / n, "1/seq")
    other = sum(v for k, v in cpu.items() if k not in LAYERS)
    out["other_cpu_us_per_seq"] = (other * 1e3 / n, "us/seq")
    out["outside_cpu_us_per_seq"] = (
        max(0.0, process_cpu_ms - sum(cpu.values())) * 1e3 / n, "us/seq")
    batches = snap["service_ms"]
    out["engine_service_ms_p50"] = (_pct(batches, 50), "ms")
    out["mean_batch_size"] = (run.completed / len(batches)
                              if batches else 0.0, "seq")
    out["queue_wait_ms_p50"] = (_pct(run.queue_wait_ms, 50), "ms")
    out["generator_lag_ms_p90"] = (_pct(run.lag_ms, 90), "ms")
    hits, lookups = plan_stats
    out["plan_cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["modeled_gpu_us_per_seq"] = (run.modeled_us / n, "us/seq")
    return out


def _plan_counts() -> tuple[int, int]:
    """(hits, hits + misses) of the process-wide plan cache, if it has one."""
    try:
        from repro.runtime.plan import PLAN_CACHE
    except ImportError:
        return 0, 0
    st = PLAN_CACHE.stats()
    return st["hits"], st["hits"] + st["misses"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    import hostclock
    import workloads

    import_s = time.perf_counter() - _T0

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        h = workloads.Harness(wl, args.seed)
        print("ready", flush=True)
        h.close()
        return 0

    setup_times = ([] if args.trace else
                   measure_setup(wl.name, args.seed, SETUP_REPEATS - 1))
    clock = None
    if args.trace:
        clock = hostclock.HostClock()
        clock.install()
    t_build = time.perf_counter()
    h = workloads.Harness(wl, args.seed)
    if not args.trace:
        # The children's cold starts ran between import and build here.
        setup_times.append(import_s + time.perf_counter() - t_build)
    try:
        if clock is not None:
            clock.reset()
            clock.recording = True
        cpu0 = time.process_time()
        run = workloads.drive(h, args.seconds)
        process_cpu_ms = (time.process_time() - cpu0) * 1e3
        if clock is not None:
            clock.recording = False
        # Over the process's life: set-up's warm-up compiles count as misses.
        plan_stats = _plan_counts()
    finally:
        h.close()
    mismatches = run.check(h)
    failed = run.attempted - run.completed + mismatches

    if clock is None:
        metrics = end_to_end_metrics(run, setup_times)
    else:
        metrics = per_layer_metrics(
            run, clock.snapshot(), process_cpu_ms, plan_stats)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{wl.name}.json").write_text(
            json.dumps(clock.chrome_trace(
                (rid, int(t0 * 1e9), int(t1 * 1e9))
                for rid, t0, t1 in run.requests)))
        clock.uninstall()

    print(f"# {wl.name} seed={args.seed}: {len(run.latencies_ms)} latency "
          f"samples, {run.completed} sequences, {len(run.kept)} checked "
          f"against the reference ({mismatches} mismatched)"
          + (f", set-up {['%.3f' % t for t in setup_times]} s"
             if setup_times else ""))
    for name, (value, unit) in metrics.items():
        print(f"#   {name:28s} {value:14.4f} {unit}")
    result = {
        "correct": failed == 0 and run.completed > 0,
        "attempted": int(run.attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
