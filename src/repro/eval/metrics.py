"""Evaluation metrics, following the GLUE conventions (Section 5.1):
accuracy for MNLI / SST-2 / QNLI / WNLI, F1 for QQP / MRPC, Spearman
correlation for STS-B."""

from __future__ import annotations

import numpy as np


def accuracy(pred: np.ndarray, target: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1]."""
    pred, target = np.asarray(pred), np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("empty prediction array")
    return float((pred == target).mean())


def f1_binary(pred: np.ndarray, target: np.ndarray, positive: int = 1) -> float:
    """F1 of the positive class; 0.0 when the class never appears."""
    pred, target = np.asarray(pred), np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    tp = float(np.sum((pred == positive) & (target == positive)))
    fp = float(np.sum((pred == positive) & (target != positive)))
    fn = float(np.sum((pred != positive) & (target == positive)))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def spearman(pred: np.ndarray, target: np.ndarray) -> float:
    """Spearman rank correlation; 0.0 for degenerate (constant) inputs."""
    pred, target = np.asarray(pred, float), np.asarray(target, float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if np.std(pred) == 0 or np.std(target) == 0:
        return 0.0
    # Local: importing scipy.stats costs ~1 s, and the serving stack
    # reaches this module for ``percentile`` alone.
    from scipy import stats

    rho = stats.spearmanr(pred, target).statistic
    return float(rho) if np.isfinite(rho) else 0.0


def percentile(samples, p: float) -> float:
    """Linear-interpolation percentile of a sample set (``0 <= p <= 100``).

    The serving layer's latency reporting (p50/p95/p99) goes through this
    one implementation so the CLI, the metrics registry and the benchmarks
    all agree on the math: sort the samples, place ``p`` on the continuous
    rank scale ``[0, n-1]``, and interpolate between the two nearest order
    statistics.
    """
    xs = np.asarray(list(samples), dtype=np.float64)
    if xs.size == 0:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    xs = np.sort(xs)
    rank = (p / 100.0) * (xs.size - 1)
    lo = int(np.floor(rank))
    hi = int(np.ceil(rank))
    if lo == hi:
        return float(xs[lo])
    frac = rank - lo
    return float(xs[lo] * (1.0 - frac) + xs[hi] * frac)


def glue_metric(metric: str, pred: np.ndarray, target: np.ndarray) -> float:
    """Dispatch on a task's metric name; returns a score in [0, 1]."""
    if metric == "accuracy":
        return accuracy(pred, target)
    if metric == "f1":
        return f1_binary(pred, target)
    if metric == "spearman":
        return spearman(pred, target)
    raise ValueError(f"unknown metric {metric!r}")
