"""Fig. 4 — FP16 overflow heatmap of Q·Kᵀ and the scaling-reorder fix.

Paper setting: Transformer on WikiText-2, sequence length 16, word-embedding
dimension 256. The heatmap shows the *majority* of entries overflowing in
pure FP16 when scaling happens after the product; moving the ``1/√d_k``
scaling onto Q (step ② before step ③) eliminates overflow while producing
identical results.
"""

from repro.eval.latency import fig04_overflow

from _util import emit, once


def test_fig04_overflow(benchmark):
    study = once(benchmark, fig04_overflow)
    emit("fig04_overflow", study.render())
    assert study.post_scale_fp16 > 0.5
    assert study.pre_scale_fp16 == 0.0
    assert study.max_abs_error < 1e-9
