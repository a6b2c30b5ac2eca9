"""Perf history: BENCH_serving snapshots as a trajectory, not a point.

``tools/bench_history.py`` uses this module to append each
``bench_serving --json`` report to ``BENCH_history.jsonl`` (one JSON
object per line) and to gate CI on regressions against the committed
baseline report.

Only *deterministic* metrics are gated: the loadgen section runs on the
virtual-time scheduler, so its throughput / tail-latency / SLO-attainment
numbers are exact functions of the seed and tolerate tight thresholds.
Wall-clock sections (pool-vs-thread seconds) are noisy
on shared CI runners and are recorded in history but never gated here —
bench_serving itself applies its coarse ordering gates to those.

Like every ``obs`` module this one is wall-clock-free (etlint ET301):
history entries are labeled by the *caller* (git SHA, CI run id, an
explicit ``--label``), never by reading a clock here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Gated metrics: dotted path into the bench report, direction, and the
#: relative tolerance. ``"higher"`` means a drop beyond tol fails;
#: ``"lower"`` means a rise beyond tol fails. Tolerances are loose enough
#: for float jitter yet far tighter than any real regression.
GATED_METRICS: tuple[tuple[str, str, float], ...] = (
    ("loadgen.throughput_seq_s", "higher", 0.02),
    ("loadgen.p99_latency_us", "lower", 0.02),
    ("loadgen.slo_attainment", "higher", 0.02),
)


def lookup(report: dict, path: str) -> float | None:
    """Resolve a dotted path (``"loadgen.p99_latency_us"``) in a report."""
    node: object = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


@dataclass(frozen=True)
class Regression:
    """One gated metric that moved the wrong way beyond tolerance."""

    metric: str
    direction: str
    baseline: float
    current: float
    tolerance: float

    def __str__(self) -> str:
        change = ((self.current - self.baseline) / self.baseline
                  if self.baseline else float("inf"))
        return (f"{self.metric}: {self.baseline:g} -> {self.current:g} "
                f"({change:+.1%}, want {self.direction} within "
                f"{self.tolerance:.0%})")


def check_regressions(baseline: dict, current: dict,
                      gates: tuple[tuple[str, str, float], ...]
                      = GATED_METRICS) -> list[Regression]:
    """Compare two bench reports under the gates; returns the failures.

    A metric absent from the *baseline* is skipped (new metric, nothing
    to regress from); a metric present in the baseline but absent from
    the current report fails — losing a gated series is itself a
    regression.
    """
    failures = []
    for path, direction, tol in gates:
        base = lookup(baseline, path)
        if base is None:
            continue
        cur = lookup(current, path)
        if cur is None:
            failures.append(Regression(path, direction, base,
                                       float("nan"), tol))
            continue
        if direction == "higher":
            bad = cur < base * (1.0 - tol)
        else:
            bad = cur > base * (1.0 + tol)
        if bad:
            failures.append(Regression(path, direction, base, cur, tol))
    return failures


#: Where bench reports carry the per-stage waterfall totals/shares
#: (written by ``benchmarks/bench_serving.py`` from the flight recorder).
STAGE_TIME_PATH = ("loadgen", "stage_time_us")
STAGE_SHARE_PATH = ("loadgen", "stage_shares")


def _stage_section(report: dict, path: tuple[str, ...]) -> dict[str, float]:
    """The per-stage dict at ``path``, or empty when the report predates it."""
    node: object = report
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return {}
        node = node[part]
    if not isinstance(node, dict):
        return {}
    return {str(k): float(v) for k, v in node.items()
            if isinstance(v, (int, float))}


def history_entry(report: dict, label: str) -> dict:
    """One history line: caller-supplied label + the gated metric values.

    Also lifts the loadgen section's per-stage time shares to the top
    level, so the perf trajectory records *where* time goes, not just the
    headline numbers.
    """
    return {
        "label": label,
        "metrics": {path: lookup(report, path)
                    for path, _, _ in GATED_METRICS},
        "stage_shares": _stage_section(report, STAGE_SHARE_PATH),
        "stage_time_us": _stage_section(report, STAGE_TIME_PATH),
        "report": report,
    }


def attribute_regression(baseline: dict, current: dict,
                         failures: list[Regression]) -> dict:
    """Explain a gate failure: which stage's time moved, and by how much.

    Compares the two reports' per-stage waterfall totals and names the
    stage with the largest time increase (``blame``) — the artifact the
    CI perf gate ships instead of a bare threshold trip. Reports that
    predate stage recording yield ``blame: null`` with a note.
    """
    base_us = _stage_section(baseline, STAGE_TIME_PATH)
    cur_us = _stage_section(current, STAGE_TIME_PATH)
    base_sh = _stage_section(baseline, STAGE_SHARE_PATH)
    cur_sh = _stage_section(current, STAGE_SHARE_PATH)
    stages = {}
    for stage in sorted(set(base_us) | set(cur_us)):
        b, c = base_us.get(stage, 0.0), cur_us.get(stage, 0.0)
        stages[stage] = {
            "baseline_us": round(b, 6),
            "current_us": round(c, 6),
            "delta_us": round(c - b, 6),
            "baseline_share": round(base_sh.get(stage, 0.0), 6),
            "current_share": round(cur_sh.get(stage, 0.0), 6),
        }
    grew = {s: row["delta_us"] for s, row in stages.items()
            if row["delta_us"] > 0.0}
    blame = max(grew, key=lambda s: grew[s]) if grew else None
    return {
        "version": 1,
        "failures": [str(f) for f in failures],
        "stages": stages,
        "blame": blame,
        "note": None if stages else
        "stage attribution unavailable: reports carry no "
        "loadgen.stage_time_us section",
    }


def append_history(path: str, report: dict, label: str) -> dict:
    """Append one labeled snapshot to the JSONL history; returns the entry."""
    entry = history_entry(report, label)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True,
                           separators=(",", ":")) + "\n")
    return entry


def load_history(path: str) -> list[dict]:
    """All history entries, oldest first."""
    entries = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries
