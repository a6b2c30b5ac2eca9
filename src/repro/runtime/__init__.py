"""Inference engines.

All four engines execute identical numerics over the same
:class:`EncoderWeights`; they differ only in kernel granularity (fusion),
GEMM algorithm selection, precision policy and sparsity exploitation — the
exact axes the paper's comparison isolates (Section 5.2.1):

- :class:`PyTorchLikeEngine` — eager FP32, one kernel per primitive, default
  cuBLAS algorithm.
- :class:`TensorRTLikeEngine` — FP16 tensor cores, vertical + horizontal
  fusion, heuristic GEMM selection; attention intermediates still round-trip
  global memory.
- :class:`FasterTransformerLikeEngine` — TensorRT-style fusion plus
  autotuned GEMM algorithms and fused residual/layernorm epilogues.
- :class:`ETEngine` — the paper's system: on-the-fly (or partial, chosen by
  cost) attention, optional pre-computed W_V·W_O, pruning-aware sparse GEMMs,
  autotuned algorithms, full epilogue fusion.
"""

from repro.runtime.weights import LayerWeights, EncoderWeights
from repro.runtime.engine import Engine, EngineResult, mask_fingerprint
from repro.runtime.autotune import autotune_gemm_algo
from repro.runtime.pytorch_like import PyTorchLikeEngine
from repro.runtime.tensorrt_like import TensorRTLikeEngine
from repro.runtime.fastertransformer_like import FasterTransformerLikeEngine
from repro.runtime.et import ETEngine

__all__ = [
    "LayerWeights",
    "EncoderWeights",
    "Engine",
    "EngineResult",
    "autotune_gemm_algo",
    "mask_fingerprint",
    "PyTorchLikeEngine",
    "TensorRTLikeEngine",
    "FasterTransformerLikeEngine",
    "ETEngine",
]
