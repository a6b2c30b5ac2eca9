"""Pointwise operators: bias, residual, activations, softmax, layernorm."""

import numpy as np
import pytest

from repro.gpu import Timeline
from repro.gpu.kernel import MemPattern
from repro.ops import (
    add_bias,
    apply_mask,
    causal_mask,
    gelu,
    gelu_op,
    layer_norm,
    layer_norm_op,
    masked_softmax,
    relu,
    relu_op,
    residual_add,
    scale,
    softmax_rows,
    transpose_heads,
)
from repro.ops.context import fp16_ctx
from repro.ops.elementwise import untranspose_heads
from repro.ops.epilogue import EPILOGUE_BLOCK_BYTES, epilogue, epilogue_cost
from repro.ops.softmax import MASK_NEG, softmax


class TestElementwise:
    def test_add_bias(self, ctx, rng):
        x = rng.standard_normal((4, 8))
        b = rng.standard_normal(8)
        np.testing.assert_allclose(add_bias(ctx, x, b), x + b)
        assert len(ctx.tl) == 1

    def test_residual_add(self, ctx, rng):
        x, r = rng.standard_normal((4, 8)), rng.standard_normal((4, 8))
        np.testing.assert_allclose(residual_add(ctx, x, r), x + r)

    def test_scale(self, ctx, rng):
        x = rng.standard_normal((4, 8))
        np.testing.assert_allclose(scale(ctx, x, 0.125), x * 0.125)

    def test_gelu_known_values(self, ctx):
        # GELU(0) = 0; GELU is odd-ish around 0: gelu(-x) = -x - gelu(x)...
        # use reference identities instead: gelu(x) + gelu(-x) == x - x = ...
        x = np.array([0.0, 1.0, -1.0, 5.0])
        y = gelu_op(ctx, x)
        assert y[0] == 0.0
        assert y[1] == pytest.approx(0.8412, abs=1e-3)
        assert y[3] == pytest.approx(5.0, abs=1e-3)  # saturates to identity

    def test_gelu_minus_gelu_neg_equals_x(self, rng):
        # tanh-GELU identity: gelu(x) - gelu(-x) = x (tanh is odd).
        x = rng.standard_normal(100)
        np.testing.assert_allclose(gelu(x) - gelu(-x), x, atol=1e-12)

    def test_relu(self, ctx):
        y = relu_op(ctx, np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(y, [0.0, 0.0, 2.0])

    def test_transpose_heads_roundtrip(self, ctx, rng):
        x = rng.standard_normal((10, 12))
        h = transpose_heads(ctx, x, 4)
        assert h.shape == (4, 10, 3)
        back = untranspose_heads(ctx, h)
        np.testing.assert_array_equal(back, x)

    def test_transpose_heads_divisibility(self, ctx, rng):
        with pytest.raises(ValueError):
            transpose_heads(ctx, rng.standard_normal((4, 10)), 3)

    def test_transpose_is_strided_kernel(self, ctx, rng):
        transpose_heads(ctx, rng.standard_normal((8, 8)), 2)
        assert ctx.tl.records[0].cost.mem_pattern is MemPattern.STRIDED


class TestSoftmax:
    def test_rows_sum_to_one(self, ctx, rng):
        p = softmax_rows(ctx, rng.standard_normal((3, 5, 7)))
        np.testing.assert_allclose(p.sum(axis=-1), 1.0)

    def test_invariant_to_shift(self, rng):
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)

    def test_large_values_stable(self):
        p = softmax(np.array([[1e4, 1e4 - 1.0]]))
        assert np.isfinite(p).all()

    def test_causal_mask_structure(self):
        m = causal_mask(4)
        assert (np.tril(m) == 0).all()
        assert (m[np.triu_indices(4, 1)] == MASK_NEG).all()

    def test_apply_mask_none_is_noop_kernel_free(self, ctx, rng):
        s = rng.standard_normal((2, 3, 3))
        out = apply_mask(ctx, s, None)
        assert out is s
        assert len(ctx.tl) == 0

    def test_masked_softmax_kills_future(self, ctx, rng):
        s = rng.standard_normal((2, 4, 4))
        p = masked_softmax(ctx, s, np.broadcast_to(causal_mask(4), s.shape))
        # upper-triangle probabilities ~ 0
        for h in range(2):
            assert p[h][np.triu_indices(4, 1)].max() < 1e-4

    def test_masked_softmax_equals_unfused_chain(self, rng):
        tl1, tl2 = Timeline(), Timeline()
        c1, c2 = fp16_ctx(tl1), fp16_ctx(tl2)
        s = rng.standard_normal((2, 4, 4))
        m = np.broadcast_to(causal_mask(4), s.shape)
        fused = masked_softmax(c1, s, m, scale_factor=0.5)
        unfused = softmax_rows(c2, apply_mask(c2, scale(c2, s, 0.5), m))
        np.testing.assert_allclose(fused, unfused, atol=1e-12)
        assert len(tl1) == 1 and len(tl2) == 3
        assert tl1.total_time_us < tl2.total_time_us


class TestLayerNorm:
    def test_zero_mean_unit_var(self, ctx, rng):
        x = rng.standard_normal((6, 32)) * 5 + 3
        y = layer_norm_op(ctx, x, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=-1), 1, atol=1e-3)

    def test_affine(self, ctx, rng):
        x = rng.standard_normal((4, 16))
        g, b = rng.standard_normal(16), rng.standard_normal(16)
        y = layer_norm_op(ctx, x, g, b)
        np.testing.assert_allclose(y, layer_norm(x, g, b), atol=1e-12)

    def test_fused_residual(self, ctx, rng):
        x, r = rng.standard_normal((4, 16)), rng.standard_normal((4, 16))
        g, b = np.ones(16), np.zeros(16)
        y = layer_norm_op(ctx, x, g, b, residual=r)
        np.testing.assert_allclose(y, layer_norm(x + r, g, b), atol=1e-12)
        assert len(ctx.tl) == 1


N = 96  # not a power of two, so dividing by N is not an exact scaling
BLOCK = EPILOGUE_BLOCK_BYTES // (N * 8)  # float64 rows per epilogue block
LEADING = [(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3 * BLOCK + 5,),
           (3, 7)]
ACTS = {None: lambda y: y, "gelu": gelu, "relu": relu}


def _chain(y, bias, act, residual, ln):
    """The unfused reference chain, one whole-array pass per step."""
    if bias is not None:
        y = y + bias
    y = ACTS[act](y)
    if residual is not None:
        y = y + residual
    return y if ln is None else layer_norm(y, *ln)


class TestEpilogue:
    """The blocked in-place epilogue has the unfused chain's bits."""

    @pytest.mark.parametrize("lead", LEADING, ids=str)
    @pytest.mark.parametrize("act", sorted(ACTS, key=str))
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("with_residual", [False, True])
    @pytest.mark.parametrize("with_ln", [False, True])
    def test_matches_unfused_chain(self, rng, lead, act, with_bias,
                                   with_residual, with_ln):
        y = rng.standard_normal((*lead, N))
        bias = rng.standard_normal(N) if with_bias else None
        res = rng.standard_normal((*lead, N)) if with_residual else None
        ln = ((rng.standard_normal(N), rng.standard_normal(N))
              if with_ln else None)
        ref = _chain(y, bias, act, res, ln)
        operands = [v for v in (bias, res, *(ln or ())) if v is not None]
        before = [v.copy() for v in operands]
        out = epilogue(y.copy(), bias, act, res, ln)
        np.testing.assert_array_equal(out, ref)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        for v, v0 in zip(operands, before):
            np.testing.assert_array_equal(v, v0)

    def test_runs_in_place(self, rng):
        y = rng.standard_normal((BLOCK + 1, N))
        assert np.shares_memory(epilogue(y, rng.standard_normal(N), "gelu"), y)

    def test_float32_with_float64_bias_promotes(self, rng):
        y = rng.standard_normal((2 * BLOCK + 3, N)).astype(np.float32)
        bias = rng.standard_normal(N)
        ln = (rng.standard_normal(N), rng.standard_normal(N))
        out = epilogue(y.copy(), bias, "gelu", None, ln)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, _chain(y, bias, "gelu", None, ln))

    def test_float32_promotes_at_the_step_that_widens(self, rng):
        """float32 through bias, GELU, residual and the LN reductions; the
        float64 LN gain widens only the final affine step."""
        f32 = np.float32
        y = rng.standard_normal((2 * BLOCK + 3, N)).astype(f32)
        bias, res = rng.standard_normal(N).astype(f32), y[::-1].copy()
        ln = (rng.standard_normal(N), rng.standard_normal(N).astype(f32))
        ref = _chain(y, bias, "gelu", res, ln)
        assert ref.dtype == np.float64
        np.testing.assert_array_equal(epilogue(y.copy(), bias, "gelu", res, ln),
                                      ref)
        ln32 = (ln[0].astype(f32), ln[1])
        out = epilogue(y.copy(), bias, "gelu", res, ln32)
        assert out.dtype == f32
        np.testing.assert_array_equal(out, _chain(y, bias, "gelu", res, ln32))

    def test_unknown_activation_one_message(self):
        for call in (lambda: epilogue(np.ones((2, 2)), act="swish"),
                     lambda: epilogue_cost(2, 2, 2, act="swish")):
            with pytest.raises(ValueError, match="unknown activation: 'swish'"):
                call()

    def test_layer_norm_op_leaves_inputs_alone(self, ctx, rng):
        x, r = rng.standard_normal((BLOCK + 2, N)), rng.standard_normal((BLOCK + 2, N))
        g, b = rng.standard_normal(N), rng.standard_normal(N)
        before = [v.copy() for v in (x, r, g, b)]
        np.testing.assert_array_equal(layer_norm_op(ctx, x, g, b),
                                      layer_norm(x, g, b))
        np.testing.assert_array_equal(layer_norm_op(ctx, x, g, b, residual=r),
                                      layer_norm(x + r, g, b))
        for v, v0 in zip((x, r, g, b), before):
            np.testing.assert_array_equal(v, v0)
