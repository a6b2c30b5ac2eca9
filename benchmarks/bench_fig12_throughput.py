"""Fig. 12 — achieved DRAM throughput of TensorRT's encoder steps vs E.T.

Paper measurements: TensorRT's memory-bound attention-region operators
average 98 GB/s (8.6 % of the V100S's 1,134 GB/s peak) while the single E.T.
OTF kernel achieves 311 GB/s (27.5 %).
"""

from repro.eval.format import render_table
from repro.eval.latency import fig12_throughput

from _util import emit, once


def test_fig12_throughput(benchmark):
    res = once(benchmark, fig12_throughput)
    emit("fig12_throughput", res.render())

    assert 70 <= res.trt_avg_gbs <= 140
    assert 250 <= res.otf_gbs <= 430


def test_fig12_roofline_classification(benchmark):
    """Section 5.2.6's footing for Fig. 12: the attention-region operators
    are all memory bound (arithmetic intensity below the ridge point; the
    highest among steps ①–⑦ is step ① at ~128)."""
    import numpy as np

    from repro.config import BERT_BASE
    from repro.runtime import EncoderWeights, TensorRTLikeEngine

    def run():
        rng = np.random.default_rng(0)
        x = rng.standard_normal((128, BERT_BASE.d_model))
        w = EncoderWeights.random(BERT_BASE, rng, 1)
        res = TensorRTLikeEngine(w).run(x)
        return res.timeline.roofline_report()

    report = once(benchmark, run)
    rows = [[r["kernel"], r["arithmetic_intensity"], r["ridge_point"],
             "mem" if r["memory_bound"] else "compute", r["achieved_gbs"]]
            for r in report]
    emit("fig12_roofline",
         render_table(["kernel", "AI FLOP/B", "ridge", "bound", "GB/s"],
                      rows, title="§5.2.6 roofline classification"))
    attn = [r for r in report
            if r["kernel"] in ("qk_t", "masked_softmax", "sv")]
    assert attn and all(r["memory_bound"] for r in attn)
    assert max(r["arithmetic_intensity"] for r in report) < 138
