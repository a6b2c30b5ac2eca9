"""Fig. 9 — speedup of the pre-computed linear transformation.

Paper setting: DistilBERT-style encoder on MRPC, seqLen 128; 50 % pruning
without pre-compute vs 80 % with it. Mean speedups of 1.1× / 1.3× / 1.6× for
d_model = 768 / 1024 / 2048 — larger models benefit more because the saving
is proportional to model size.
"""

from repro.eval.latency import fig09_precompute

from _util import emit, once


def test_fig09_precompute(benchmark):
    res = once(benchmark, fig09_precompute)
    emit("fig09_precompute", res.render())

    means = [res.mean_speedup(d) for d in res.d_models]
    assert all(m > 1.0 for m in means)
    assert means[0] < means[-1]  # larger d_model -> larger speedup
