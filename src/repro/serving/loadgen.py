"""Deterministic load generators and the ``loadgen`` experiment driver.

Two traffic shapes, both seeded:

- **open loop** — arrivals follow a Poisson process (exponential
  inter-arrival times at ``--rate`` requests/s of virtual time),
  independent of completions; the batcher absorbs bursts and admission
  control sheds load past ``max_depth``.
- **closed loop** — ``--clients`` concurrent clients each keep exactly one
  request outstanding, issuing the next upon completion (think time 0).

Live backends are *driven* instead (:func:`drive_server`): the closed-loop
length mix is pushed through ``submit`` as fast as backpressure allows.
Because engine outputs are a pure function of the input sequence, the
responses' outputs are bitwise identical across every backend and worker
count — only wall-clock queueing differs.

Payloads are pre-built once per sequence length with the run's seed and
shared by every request of that length, which (a) makes reports a pure
function of the seed and (b) lets the worker memoize the result of each
payload (:class:`~repro.serving.scheduler.EngineWorker` with the payload
table).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.config import BERT_BASE, DISTILBERT, TRANSFORMER_WT2, ModelConfig, \
    small_config
from repro.eval.format import percentile_rows, render_table
from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.slo import SloPolicy
from repro.pruning import PruneMethod
from repro.runtime import (
    EncoderWeights,
    ETEngine,
    FasterTransformerLikeEngine,
    PyTorchLikeEngine,
    TensorRTLikeEngine,
)
from repro.serving.batcher import DynamicBatcher, QueueFullError
from repro.serving.bucketing import BucketPolicy, make_policy
from repro.serving.metrics import MetricsRegistry
from repro.serving.request import Request, Response
from repro.serving.scheduler import EngineWorker, Scheduler

if TYPE_CHECKING:
    from repro.runtime.engine import Engine
    from repro.serving.server import LiveServer

ENGINE_CLASSES = {
    "et": ETEngine,
    "tensorrt": TensorRTLikeEngine,
    "fastertransformer": FasterTransformerLikeEngine,
    "pytorch": PyTorchLikeEngine,
}

MODEL_CONFIGS = {
    "BERT_BASE": BERT_BASE,
    "DistilBERT": DISTILBERT,
    "Transformer": TRANSFORMER_WT2,
}


@dataclass
class LoadgenSpec:
    """Everything one loadgen run depends on (all of it seedable)."""

    engine: str = "et"
    model: str = "BERT_BASE"
    rate_per_s: float = 50.0
    num_requests: int = 200
    seed: int = 0
    mode: str = "open"  # "open" | "closed"
    clients: int = 4  # closed-loop concurrency
    num_layers: int = 1
    sparsity: float = 0.8
    max_seq_len: int = 320
    seq_step: int = 32
    policy: str = "fine64"
    workers: int = 2
    max_batch: int = 8
    max_wait_us: float = 2_000.0
    max_depth: int = 64
    #: SLO budget: ``None`` = no deadlines, ``0`` = per-bucket defaults
    #: priced by the cost model, ``> 0`` = one fixed budget in us.
    slo_us: float | None = None
    #: Head-room multiple for the per-bucket default budgets.
    slo_scale: float = 4.0

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.num_requests < 1:
            raise ValueError(f"requests must be >= 1: {self.num_requests}")
        if self.mode == "open" and not self.rate_per_s > 0:
            raise ValueError(f"rate must be positive: {self.rate_per_s}")
        if self.mode == "closed" and self.clients < 1:
            raise ValueError(f"clients must be >= 1: {self.clients}")

    def model_config(self) -> ModelConfig:
        if self.model == "small":
            return small_config(name="serve-small", max_seq_len=64)
        return MODEL_CONFIGS[self.model]


@dataclass
class LoadgenResult:
    """One run's report: the metrics snapshot plus the rendered table.

    ``engine`` is the engine the run served with — what
    :func:`repro.obs.trace.build_trace` needs to derive the run's trace
    from its event log.
    """

    spec: LoadgenSpec
    policy: BucketPolicy
    responses: list[Response]
    metrics: MetricsRegistry
    engine: "Engine"
    slo: SloPolicy | None = None
    report: str = field(default="", repr=False)


def build_engine(spec: LoadgenSpec):
    """The engine under load, seeded weights, pruned when it can exploit it."""
    cfg = spec.model_config()
    weights = EncoderWeights.random(
        cfg, np.random.default_rng(spec.seed), spec.num_layers)
    cls = ENGINE_CLASSES[spec.engine]
    if spec.engine == "et" and spec.sparsity > 0.0:
        weights.prune(PruneMethod.ATTENTION_AWARE, spec.sparsity)
    return cls(weights)


def sequence_lengths(spec: LoadgenSpec) -> list[int]:
    """The admissible lengths: multiples of ``seq_step`` up to the max."""
    cfg = spec.model_config()
    hi = min(spec.max_seq_len, cfg.max_seq_len)
    lens = list(range(spec.seq_step, hi + 1, spec.seq_step))
    if not lens:
        raise ValueError(
            f"no admissible lengths below {hi} with step {spec.seq_step}")
    return lens


def build_policy(spec: LoadgenSpec, engine: "Engine",
                 max_seq_len: int) -> BucketPolicy:
    """``spec``'s bucket policy with every attention switch of ``engine``
    (:meth:`~repro.runtime.engine.Engine.attention_regimes`) as an edge."""
    regimes = engine.attention_regimes(max_seq_len)
    return make_policy(spec.policy, [last for last, _ in regimes],
                       max_seq_len)


def bucket_rows(policy: BucketPolicy, engine: "Engine") -> list[list[object]]:
    """Report rows naming the policy and each bucket's attention choice
    (that of the regime holding the bucket's upper edge)."""
    regimes = engine.attention_regimes(policy.max_seq_len)
    lasts = [last for last, _ in regimes]
    labels = (f"{policy.label(b)} {regimes[bisect_left(lasts, hi)][1]}"
              for b, hi in enumerate(policy.edges))
    return [["bucket policy", policy.name], ["buckets", ", ".join(labels)]]


def build_payloads(spec: LoadgenSpec) -> dict[int, np.ndarray]:
    """One shared ``(s, d_model)`` payload per admissible length."""
    cfg = spec.model_config()
    rng = np.random.default_rng(spec.seed)
    return {s: rng.standard_normal((s, cfg.d_model))
            for s in sequence_lengths(spec)}


def open_loop_arrivals(spec: LoadgenSpec,
                       payloads: dict[int, np.ndarray],
                       slo: SloPolicy | None = None) -> list[Request]:
    """Poisson arrivals: seeded exponential gaps at ``rate_per_s``."""
    rng = np.random.default_rng(spec.seed + 1)  # decoupled from payload draw
    lens = list(payloads)
    gaps_us = rng.exponential(1e6 / spec.rate_per_s, size=spec.num_requests)
    arrivals = np.cumsum(gaps_us)
    chosen = rng.choice(len(lens), size=spec.num_requests)
    out = []
    for i in range(spec.num_requests):
        s = lens[chosen[i]]
        arrival = float(arrivals[i])
        out.append(Request(
            rid=i, x=payloads[s], arrival_us=arrival,
            deadline_us=None if slo is None else slo.deadline_us(s, arrival)))
    return out


def request_mix(spec: LoadgenSpec,
                payloads: dict[int, np.ndarray]) -> list[np.ndarray]:
    """The seeded payload sequence of ``spec``, in submission order.

    Seeded identically to the arrival processes (``seed + 1`` draws the
    length mix), so live runs serve the same work the virtual-time
    scheduler replays in closed loop.
    """
    rng = np.random.default_rng(spec.seed + 1)
    lens = list(payloads)
    chosen = rng.choice(len(lens), size=spec.num_requests)
    return [payloads[lens[chosen[i]]] for i in range(spec.num_requests)]


def closed_loop_driver(spec: LoadgenSpec, payloads: dict[int, np.ndarray],
                       slo: SloPolicy | None = None):
    """Initial requests + follow-up callback for closed-loop load.

    Each of ``spec.clients`` clients issues its next request the instant
    the previous one terminates (served or rejected); the request budget
    is split round-robin across clients.
    """
    mix = request_mix(spec, payloads)
    n_clients = min(spec.clients, spec.num_requests)
    issued = [0] * n_clients  # per-client requests issued so far
    budget = [spec.num_requests // n_clients] * n_clients
    for c in range(spec.num_requests % n_clients):
        budget[c] += 1

    def make(client: int, rid: int, arrival_us: float) -> Request:
        issued[client] += 1
        x = mix[rid]
        return Request(rid=rid, x=x, arrival_us=arrival_us, client=client,
                       deadline_us=None if slo is None
                       else slo.deadline_us(x.shape[0], arrival_us))

    initial = [make(c, c, 0.0) for c in range(n_clients)]
    next_rid = [n_clients]

    def follow_up(resp: Response) -> Request | None:
        client = resp.client
        if issued[client] >= budget[client] or \
                next_rid[0] >= spec.num_requests:
            return None
        rid = next_rid[0]
        next_rid[0] += 1
        return make(client, rid, resp.finish_us)

    return initial, follow_up


def drive_server(server: "LiveServer", spec: LoadgenSpec,
                 payloads: dict[int, np.ndarray],
                 timeout_s: float = 300.0) -> list[Response]:
    """Push the seeded mix through a *started* live server.

    Blocks briefly and retries on queue-full backpressure; the returned
    list is ordered by rid, i.e. by submission order.
    """
    futures = []
    for x in request_mix(spec, payloads):
        while True:
            try:
                futures.append(server.submit(x))
                break
            except QueueFullError:
                time.sleep(0.001)  # backpressure: retry shortly
    responses = [f.result(timeout=timeout_s) for f in futures]
    return sorted(responses, key=lambda r: r.rid)


def make_slo_policy(spec: LoadgenSpec, engine,
                    policy: BucketPolicy) -> SloPolicy | None:
    """The spec's SLO policy: fixed budget, per-bucket defaults, or none.

    ``slo_us=0`` selects the cost-model defaults: each bucket's budget is
    ``slo_scale ×`` the engine's modeled latency at the bucket's upper
    edge. A positive ``slo_us`` is one fixed budget for every length.
    """
    if spec.slo_us is None:
        return None
    fixed = spec.slo_us if spec.slo_us > 0 else None
    return SloPolicy.from_cost_model(
        policy, lambda s: engine.latency_us(seq_len=s),
        scale=spec.slo_scale, fixed_us=fixed)


def run_loadgen(spec: LoadgenSpec,
                events: EventLog | None = None) -> LoadgenResult:
    """Execute one deterministic load-generation run and render its report.

    Pass an :class:`~repro.obs.events.EventLog` to record lifecycle
    events (the run's span tree, request → batch → layer → kernel, is
    derived from it afterwards with :func:`repro.obs.trace.build_trace`);
    with the default the scheduler keeps its zero-overhead null recorder
    and the report is byte-identical to an uninstrumented run —
    observation never changes a reported number.
    """
    engine = build_engine(spec)
    payloads = build_payloads(spec)
    policy = build_policy(spec, engine, max(payloads))
    slo = make_slo_policy(spec, engine, policy)
    batcher = DynamicBatcher(policy, max_batch=spec.max_batch,
                             max_wait_us=spec.max_wait_us,
                             max_depth=spec.max_depth)
    workers = [EngineWorker(engine, payload_table=payloads)
               for _ in range(spec.workers)]
    sched = Scheduler(
        workers=workers, batcher=batcher,
        events=events if events is not None else NULL_EVENT_LOG)
    if spec.mode == "closed":
        initial, follow_up = closed_loop_driver(spec, payloads, slo=slo)
        responses = sched.run(initial, next_request=follow_up)
    else:
        responses = sched.run(open_loop_arrivals(spec, payloads, slo=slo))

    result = LoadgenResult(spec=spec, policy=policy, responses=responses,
                           metrics=sched.metrics, engine=engine, slo=slo)
    result.report = _render_report(result)
    return result


def _render_report(result: LoadgenResult) -> str:
    """The loadgen report table (shared formatting with the benches)."""
    m, spec = result.metrics, result.spec
    rows: list[list[object]] = [
        ["engine", spec.engine],
        ["model", spec.model],
        ["mode", spec.mode],
        ["requests", spec.num_requests],
        ["rate (req/s)" if spec.mode == "open" else "clients",
         spec.rate_per_s if spec.mode == "open" else spec.clients],
        *bucket_rows(result.policy, result.engine),
    ]
    rows += percentile_rows(m.latencies_us) if m.latencies_us else []
    rows += [
        ["mean batch size", m.mean_batch_size],
        ["max queue depth", m.max_queue_depth],
        ["throughput (seq/s)", m.throughput_seq_s],
        ["completed", m.completed],
        ["rejected", m.rejected],
    ]
    if result.slo is not None:
        rows += [
            ["slo attainment", f"{m.slo.attainment:.4f} "
                               f"({m.slo.met}/{m.slo.total})"],
            ["goodput (seq/s)", m.goodput_seq_s],
        ]
        for b, rate in m.slo.attainment_by("bucket").items():
            budget = (result.slo.fixed_us if result.slo.fixed_us is not None
                      else result.slo.budgets_us[b])
            rows.append([f"slo bucket {result.policy.label(b)}",
                         f"{rate:.4f} (budget {budget:.0f} us)"])
        for t, rate in m.slo.attainment_by("tenant").items():
            rows.append([f"slo tenant {t}", f"{rate:.4f}"])
    return render_table(
        ["metric", "value"], rows,
        title=f"loadgen — {spec.engine} / {spec.model}, seed {spec.seed}")
