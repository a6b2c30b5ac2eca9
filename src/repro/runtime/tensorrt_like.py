"""TensorRT-style engine (Section 2.3's optimizations, no more).

Vertical fusion (GEMM + bias epilogues, fused scale+mask+softmax) and
horizontal fusion (one QKV GEMM), FP16 tensor cores, heuristic GEMM
selection. Crucially — Section 3.1's point — the attention intermediates
(Q·Kᵀ and S) still round-trip global memory because graph-level fusion
cannot change how each operator is implemented. 9 kernels per layer.
"""

from __future__ import annotations

import numpy as np

from repro.attention.fused import fused_attention
from repro.attention.reference import merge_heads, split_heads
from repro.gpu.counters import Timeline
from repro.gpu.kernel import MemPattern
from repro.ops.context import ExecContext
from repro.ops.gemm import GemmAlgo, gemm_bias_act
from repro.ops.layernorm import layer_norm_op
from repro.runtime.engine import Engine


class TensorRTLikeEngine(Engine):
    """Graph-fused FP16 baseline (see module docs)."""

    name = "tensorrt"

    #: GEMM algorithm the graph optimizer settles on (good, not autotuned).
    algo = GemmAlgo.HEURISTIC

    def _compile(self) -> None:
        # Horizontal fusion: stack Q/K/V weights into one (3d, d) matrix.
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

    def run_layer(self, ctx, x, layer_idx, mask, choices):
        """See :meth:`repro.runtime.engine.Engine.run_layer`."""
        lw = self.weights.layers[layer_idx]
        d = self.weights.config.d_model
        h = self.weights.config.num_heads

        qkv = gemm_bias_act(
            ctx, x, self._qkv_w[layer_idx].T, self._qkv_b[layer_idx],
            algo=self.algo, name="qkv_gemm", tag="step1_qkv",
        )
        # The BERT plugin's fused attention handles head layout internally;
        # no transpose kernels are charged.
        qh = split_heads(qkv[:, :d], h)
        kh = split_heads(qkv[:, d : 2 * d], h)
        vh = split_heads(qkv[:, 2 * d :], h)
        z = merge_heads(fused_attention(ctx, qh, kh, vh, mask, algo=self.algo))

        out = gemm_bias_act(ctx, z, lw.wo.T, lw.bo, algo=self.algo,
                            name="o_proj", tag="step7_output")
        y = layer_norm_op(ctx, out, lw.ln1_g, lw.ln1_b, residual=x, tag="add_ln")

        hdn = gemm_bias_act(ctx, y, lw.fc1_w.T, lw.fc1_b, act="gelu",
                            algo=self.algo, name="fc1_gelu", tag="mlp")
        out2 = gemm_bias_act(ctx, hdn, lw.fc2_w.T, lw.fc2_b, algo=self.algo,
                             name="fc2", tag="mlp")
        return layer_norm_op(ctx, out2, lw.ln2_g, lw.ln2_b, residual=y,
                             tag="add_ln")

