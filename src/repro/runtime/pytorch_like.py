"""Eager-framework baseline engine (the paper's "PyTorch" comparison).

The "modular system implementation" of the introduction: every primitive is
its own kernel, intermediates live in global memory, activations are FP32 on
the general cores (eager inference without AMP), GEMMs use the default cuBLAS
algorithm, and per-head layouts require explicit transpose kernels.
~22 kernel launches per encoder layer.
"""

from __future__ import annotations

import numpy as np

from repro.attention.unfused import unfused_attention
from repro.gpu.counters import Timeline
from repro.gpu.kernel import MemPattern
from repro.ops.context import ExecContext
from repro.ops.elementwise import add_bias, gelu_op, residual_add, untranspose_heads
from repro.ops.gemm import GemmAlgo, gemm
from repro.ops.layernorm import layer_norm_op
from repro.runtime.engine import Engine


class PyTorchLikeEngine(Engine):
    """Eager FP32 baseline: one kernel per primitive (see module docs)."""

    name = "pytorch"

    def make_ctx(self, tl: Timeline) -> ExecContext:
        """See :meth:`repro.runtime.engine.Engine.make_ctx`."""
        return ExecContext(tl=tl, bytes_per_elem=4, tensor_core=False,
                           elementwise_pattern=MemPattern.TILED)

    def _heads(self, ctx: ExecContext, x: np.ndarray) -> np.ndarray:
        from repro.ops.elementwise import transpose_heads

        return transpose_heads(ctx, x, self.weights.config.num_heads)

    def run_layer(self, ctx, x, layer_idx, mask, choices):
        """See :meth:`repro.runtime.engine.Engine.run_layer`."""
        lw = self.weights.layers[layer_idx]
        algo = GemmAlgo.DEFAULT

        # Separate Q/K/V projections, each GEMM + bias kernel.
        q = add_bias(ctx, gemm(ctx, x, lw.wq.T, algo, "q_proj", "step1_qkv"),
                     lw.bq, tag="step1_qkv")
        k = add_bias(ctx, gemm(ctx, x, lw.wk.T, algo, "k_proj", "step1_qkv"),
                     lw.bk, tag="step1_qkv")
        v = add_bias(ctx, gemm(ctx, x, lw.wv.T, algo, "v_proj", "step1_qkv"),
                     lw.bv, tag="step1_qkv")

        qh = self._heads(ctx, q)
        kh = self._heads(ctx, k)
        vh = self._heads(ctx, v)
        zh = unfused_attention(ctx, qh, kh, vh, mask, algo=algo)
        z = untranspose_heads(ctx, zh, tag="step6_sv")

        out = add_bias(
            ctx, gemm(ctx, z, lw.wo.T, algo, "o_proj", "step7_output"),
            lw.bo, tag="step7_output",
        )
        y = residual_add(ctx, out, x, tag="add_ln")
        y = layer_norm_op(ctx, y, lw.ln1_g, lw.ln1_b, tag="add_ln")

        h = add_bias(ctx, gemm(ctx, y, lw.fc1_w.T, algo, "fc1", "mlp"),
                     lw.fc1_b, tag="mlp")
        h = gelu_op(ctx, h, tag="mlp")
        h = add_bias(ctx, gemm(ctx, h, lw.fc2_w.T, algo, "fc2", "mlp"),
                     lw.fc2_b, tag="mlp")
        h = residual_add(ctx, h, y, tag="add_ln")
        return layer_norm_op(ctx, h, lw.ln2_g, lw.ln2_b, tag="add_ln")

