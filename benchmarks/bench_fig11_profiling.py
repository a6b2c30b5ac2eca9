"""Fig. 11 — nvprof-style counters: OTF attention vs the TensorRT chain.

Paper measurements at seqLen 128, BERT_BASE: the OTF kernel loads ~1.8× more
(gld_transactions) but stores ~5× less (gst_transactions), and gains ~30 %
sm_efficiency and ~22 % IPC — the reduced store traffic is on the critical
path, the extra loads are not.
"""

from repro.eval.latency import fig11_profiling

from _util import emit, once


def test_fig11_profiling(benchmark):
    res = once(benchmark, fig11_profiling)
    emit("fig11_profiling", res.render())

    assert 1.5 <= res.load_ratio <= 2.6
    assert 4.0 <= res.store_saving <= 6.0
    assert res.sm_efficiency_boost > 0.15
    assert res.ipc_boost > 0.05
