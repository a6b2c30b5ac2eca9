"""Fig. 7 — one BERT_BASE encoder layer's latency vs sparsity, four engines.

Paper claims: E.T. outperforms PyTorch / TensorRT / FasterTransformer across
all sparsity levels, with maximum speedups of 13.7× / 3.4× / 2.5× as the
pruning ratio grows; below 40 % sparsity E.T. uses the best dense cuBLAS
routine (CUBLAS_GEMM_ALGO5_TENSOR_OP).
"""

from repro.eval.latency import fig07_encoder_latency

from _util import emit, once


def test_fig07_encoder_latency(benchmark):
    res = once(benchmark, fig07_encoder_latency)
    emit("fig07_encoder_latency", res.render())

    assert 10 <= res.max_speedup_over("pytorch") <= 18
    assert 2.5 <= res.max_speedup_over("tensorrt") <= 4.5
    assert 1.8 <= res.max_speedup_over("fastertransformer") <= 3.5


def test_fig07_encoder_seqlen_sweep_per_device(benchmark):
    """Encoder-level view of the three-way attention crossover, per device.

    Runs one dense BERT_BASE encoder layer across sequence lengths on every
    modeled device and records which attention variant the engine's
    autotuned dispatch picked (``choices``), persisted as JSON next to the
    Fig. 8 crossover table.
    """
    import numpy as np

    from repro.config import BERT_BASE
    from repro.gpu.device import all_devices
    from repro.runtime import EncoderWeights, ETEngine

    from _util import emit_json

    seq_lens = (64, 128, 192, 256, 320, 384)

    def sweep():
        out = {}
        for dev in all_devices():
            rng = np.random.default_rng(0)
            w = EncoderWeights.random(BERT_BASE, rng, 1)
            eng = ETEngine(w, dev)
            rows = []
            for s in seq_lens:
                res = eng.run(rng.standard_normal((s, BERT_BASE.d_model)))
                rows.append({"seq_len": s,
                             "latency_us": res.latency_us,
                             "attention": res.choices["layer0.attention"]})
            out[dev.name] = rows
        return out

    per_dev = once(benchmark, sweep)
    emit_json("fig07_encoder_seqlen_sweep", per_dev)

    for name, rows in per_dev.items():
        assert rows[0]["attention"] == "otf", name
        assert rows[-1]["attention"] == "flash", name
