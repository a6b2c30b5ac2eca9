"""Fig. 1 — single-encoder time: E.T. (80 % attention-aware pruning) vs the
TensorRT implementation, with the per-phase breakdown.

Paper claim: E.T. reduces one encoder's computation time by ~2.5× on the
WikiText-2 Transformer at sequence length 128.
"""

from repro.eval.latency import fig01_breakdown

from _util import emit, once


def test_fig01_breakdown(benchmark):
    res = once(benchmark, fig01_breakdown)
    emit("fig01_breakdown", res.render())
    assert 1.8 <= res.speedup <= 3.2
