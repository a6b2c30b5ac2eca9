"""Fig. 14 — Transformer on WikiText-2: accuracy & latency vs pruning ratio.

Paper claims: all methods hold accuracy up to ~85 % pruning; the SVD
low-rank baseline underperforms every pruning method; irregular pruning is
~19× slower than the structured methods; attention-aware pruning averages
1.19× / 1.05× faster than column / tile pruning.

Accuracy comes from real training at reduced scale (see
repro.eval.accuracy_exp.Scale); latency from the V100S cost model at the
paper-scale Transformer (L=2, d_model=800, H=4).
"""

import numpy as np

from repro.eval.accuracy_exp import (
    FIG14_BENCH_SCALE as BENCH_SCALE,
    FIG14_RATIOS as RATIOS,
    fig14_transformer,
)

from _util import emit, once


def test_fig14_transformer_tradeoff(benchmark):
    res = once(benchmark, fig14_transformer, RATIOS, scale=BENCH_SCALE)
    emit("fig14_transformer_tradeoff", res.render())

    # (a) moderate pruning keeps most accuracy for structured methods
    for m in ("tile", "attention_aware"):
        assert res.accuracy[m][0] > 0.6 * res.baseline_accuracy
    # (b) irregular is drastically slower than the structured methods
    assert res.latency_us["irregular"][0] > 8 * res.latency_us["tile"][0]
    # attention-aware ~ tile on the Transformer (paper's avg gap is 1.05x;
    # at H=4 the row-pruned V's attention savings roughly offset tile's
    # fuller GEMM utilization), and both clearly beat column pruning.
    aa_avg = float(np.mean(res.latency_us["attention_aware"]))
    tile_avg = float(np.mean(res.latency_us["tile"]))
    assert aa_avg <= tile_avg * 1.08
    for i in range(len(RATIOS)):
        assert res.latency_us["attention_aware"][i] < \
            res.latency_us["column"][i]
