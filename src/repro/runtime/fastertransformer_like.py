"""FasterTransformer-style engine.

Everything the TensorRT-like engine does, plus the two things NVIDIA's
FasterTransformer adds: autotuned cuBLAS GEMM algorithm selection and fused
bias + residual + layernorm epilogues on the projection and FC2 GEMMs.
7 kernels per layer. Still no on-the-fly attention and no sparsity support.
"""

from __future__ import annotations

import numpy as np

from repro.attention.fused import fused_attention
from repro.attention.reference import merge_heads, split_heads
from repro.gpu.counters import Timeline
from repro.gpu.kernel import MemPattern
from repro.ops.context import ExecContext
from repro.ops.gemm import gemm_bias_act
from repro.runtime.autotune import autotune_gemm_algo
from repro.runtime.engine import Engine


class FasterTransformerLikeEngine(Engine):
    """Fused + autotuned FP16 baseline (see module docs)."""

    name = "fastertransformer"

    def _compile(self) -> None:
        self._qkv_w = [
            np.concatenate([lw.wq, lw.wk, lw.wv], axis=0)
            for lw in self.weights.layers
        ]
        self._qkv_b = [
            np.concatenate([lw.bq, lw.bk, lw.bv]) for lw in self.weights.layers
        ]

    def make_ctx(self, tl: Timeline) -> ExecContext:
        """See :meth:`repro.runtime.engine.Engine.make_ctx`."""
        return ExecContext(tl=tl, bytes_per_elem=2, tensor_core=True,
                           elementwise_pattern=MemPattern.TILED)

    def _algo(self, m: int, n: int, k: int):
        return autotune_gemm_algo(m, n, k, device=self.device)

    def run_layer(self, ctx, x, layer_idx, mask, choices):
        """See :meth:`repro.runtime.engine.Engine.run_layer`."""
        lw = self.weights.layers[layer_idx]
        d = self.weights.config.d_model
        f = self.weights.config.d_ff
        h = self.weights.config.num_heads
        s = x.shape[0]

        qkv = gemm_bias_act(
            ctx, x, self._qkv_w[layer_idx].T, self._qkv_b[layer_idx],
            algo=self._algo(s, 3 * d, d), name="qkv_gemm", tag="step1_qkv",
        )
        qh = split_heads(qkv[:, :d], h)
        kh = split_heads(qkv[:, d : 2 * d], h)
        vh = split_heads(qkv[:, 2 * d :], h)
        z = merge_heads(
            fused_attention(ctx, qh, kh, vh, mask, algo=self._algo(s, s, d // h))
        )

        y = gemm_bias_act(
            ctx, z, lw.wo.T, lw.bo, residual=x,
            ln_gamma=lw.ln1_g, ln_beta=lw.ln1_b,
            algo=self._algo(s, d, d), name="o_proj_bias_ln", tag="step7_output",
        )
        hdn = gemm_bias_act(ctx, y, lw.fc1_w.T, lw.fc1_b, act="gelu",
                            algo=self._algo(s, f, d), name="fc1_gelu", tag="mlp")
        return gemm_bias_act(
            ctx, hdn, lw.fc2_w.T, lw.fc2_b, residual=y,
            ln_gamma=lw.ln2_g, ln_beta=lw.ln2_b,
            algo=self._algo(s, d, f), name="fc2_bias_ln", tag="mlp",
        )

