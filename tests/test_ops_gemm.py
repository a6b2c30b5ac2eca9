"""Dense GEMM operators and the efficiency model."""

import numpy as np
import pytest

from repro.gpu import Timeline
from repro.ops import GemmAlgo, batched_gemm, gemm, gemm_bias_act, gemm_efficiency
from repro.ops.context import fp16_ctx, fp32_ctx
from repro.ops.elementwise import gelu
from repro.ops.layernorm import layer_norm


class TestGemmEfficiency:
    def test_algo_ordering(self):
        effs = [gemm_efficiency(128, 768, 768, a) for a in GemmAlgo]
        assert effs == sorted(effs)
        assert max(effs) == gemm_efficiency(128, 768, 768,
                                            GemmAlgo.ALGO5_TENSOR_OP)

    def test_wider_output_is_more_efficient(self):
        a = GemmAlgo.ALGO5_TENSOR_OP
        assert gemm_efficiency(128, 3072, 768, a) > gemm_efficiency(
            128, 768, 768, a)

    def test_deeper_k_amortizes_ramp(self):
        a = GemmAlgo.ALGO5_TENSOR_OP
        assert gemm_efficiency(128, 768, 512, a) > gemm_efficiency(
            128, 768, 64, a)

    def test_bounded(self):
        for shape in ((1, 1, 1), (4096, 4096, 4096), (128, 38, 768)):
            e = gemm_efficiency(*shape, GemmAlgo.ALGO5_TENSOR_OP)
            assert 0.0 < e <= 1.0

    def test_fp32_saturates_faster(self):
        # Same small shape fills more of the (8x smaller) FP32 machine.
        a = GemmAlgo.DEFAULT
        assert gemm_efficiency(128, 256, 256, a, tensor_core=False) > \
            gemm_efficiency(128, 256, 256, a, tensor_core=True)

    def test_pruned_volume_scales_time_not_efficiency(self):
        """The Fig. 10 enabler: time tracks FLOPs at fixed output shape."""
        a = GemmAlgo.ALGO5_TENSOR_OP
        eff = gemm_efficiency(128, 768, 768, a)
        dense_t = 2 * 128 * 768 * 768 / (130e12 * eff)
        pruned_t = 0.05 * 2 * 128 * 768 * 768 / (130e12 * eff)
        assert dense_t / pruned_t == pytest.approx(20.0)


class TestGemmOp:
    def test_numerics(self, ctx, rng):
        a = rng.standard_normal((16, 32))
        b = rng.standard_normal((32, 24))
        np.testing.assert_allclose(gemm(ctx, a, b), a @ b)

    def test_records_one_kernel(self, ctx, rng):
        gemm(ctx, rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
        assert len(ctx.tl) == 1

    def test_shape_mismatch(self, ctx):
        with pytest.raises(ValueError, match="mismatch"):
            gemm(ctx, np.ones((2, 3)), np.ones((4, 4)))

    def test_better_algo_is_faster(self, rng):
        a = rng.standard_normal((128, 768))
        b = rng.standard_normal((768, 768))
        times = {}
        for algo in (GemmAlgo.DEFAULT, GemmAlgo.ALGO5_TENSOR_OP):
            tl = Timeline()
            gemm(fp16_ctx(tl), a, b, algo)
            times[algo] = tl.total_time_us
        assert times[GemmAlgo.ALGO5_TENSOR_OP] < times[GemmAlgo.DEFAULT]

    def test_fp32_engine_slower_than_fp16(self, rng):
        a = rng.standard_normal((128, 768))
        b = rng.standard_normal((768, 3072))
        tl16, tl32 = Timeline(), Timeline()
        gemm(fp16_ctx(tl16), a, b)
        gemm(fp32_ctx(tl32), a, b)
        assert tl32.total_time_us > tl16.total_time_us


class TestGemmBiasAct:
    def test_epilogue_numerics(self, ctx, rng):
        x = rng.standard_normal((8, 16))
        w_t = rng.standard_normal((16, 12))
        bias = rng.standard_normal(12)
        res = rng.standard_normal((8, 12))
        g = rng.standard_normal(12)
        b = rng.standard_normal(12)
        y = gemm_bias_act(ctx, x, w_t, bias, act="gelu", residual=res,
                          ln_gamma=g, ln_beta=b)
        ref = layer_norm(gelu(x @ w_t + bias) + res, g, b)
        np.testing.assert_allclose(y, ref, atol=1e-10)
        assert len(ctx.tl) == 1  # everything in one kernel

    def test_relu_epilogue(self, ctx, rng):
        x = rng.standard_normal((4, 8))
        w_t = rng.standard_normal((8, 8))
        y = gemm_bias_act(ctx, x, w_t, act="relu")
        np.testing.assert_allclose(y, np.maximum(x @ w_t, 0))

    def test_unknown_activation(self, ctx):
        with pytest.raises(ValueError, match="unknown activation: 'swish'"):
            gemm_bias_act(ctx, np.ones((2, 2)), np.ones((2, 2)), act="swish")
        assert len(ctx.tl) == 0  # rejected before the kernel is charged

    def test_epilogue_costs_extra(self, rng):
        x = rng.standard_normal((128, 768))
        w_t = rng.standard_normal((768, 768))
        tl1, tl2 = Timeline(), Timeline()
        gemm_bias_act(fp16_ctx(tl1), x, w_t)
        gemm_bias_act(fp16_ctx(tl2), x, w_t, bias=np.zeros(768), act="gelu",
                      residual=x, ln_gamma=np.ones(768), ln_beta=np.zeros(768))
        assert tl2.records[0].cost.flops > tl1.records[0].cost.flops
        # but the fused epilogue costs far less than separate kernels would
        assert tl2.total_time_us < tl1.total_time_us * 1.5


class TestBatchedGemm:
    def test_numerics(self, ctx, rng):
        a = rng.standard_normal((4, 8, 16))
        b = rng.standard_normal((4, 16, 8))
        np.testing.assert_allclose(batched_gemm(ctx, a, b), a @ b)

    def test_shape_validation(self, ctx):
        with pytest.raises(ValueError):
            batched_gemm(ctx, np.ones((2, 3, 4)), np.ones((3, 4, 2)))
        with pytest.raises(ValueError):
            batched_gemm(ctx, np.ones((3, 4)), np.ones((4, 3)))

    def test_batched_pattern_is_strided(self, ctx, rng):
        from repro.gpu.kernel import MemPattern

        batched_gemm(ctx, rng.standard_normal((2, 4, 4)),
                     rng.standard_normal((2, 4, 4)))
        assert ctx.tl.records[0].cost.mem_pattern is MemPattern.BATCHED
