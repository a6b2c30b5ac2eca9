"""Pruned linear-transformation kernels (Section 4.1)."""

import numpy as np
import pytest

from repro.gpu import Timeline
from repro.ops import (
    GemmAlgo,
    col_pruned_gemm,
    gemm,
    gemm_bias_act,
    irregular_gemm,
    row_pruned_gemm,
    tile_gemm,
)
from repro.ops.context import fp16_ctx
from repro.ops.elementwise import gelu
from repro.ops.layernorm import layer_norm
from repro.pruning.masks import col_mask, irregular_mask, row_mask, tile_mask
from repro.tensor.sparse import CondensedColPruned, CondensedRowPruned, TileBCSR


@pytest.fixture
def x(rng):
    return rng.standard_normal((32, 64))


@pytest.fixture
def w(rng):
    return rng.standard_normal((64, 64)) * 0.1


class TestTileGemm:
    def test_matches_masked_dense(self, ctx, x, w, rng):
        wm = w * tile_mask(w, 0.5, (16, 16))
        y = tile_gemm(ctx, x, TileBCSR.from_dense(wm))
        np.testing.assert_allclose(y, x @ wm.T, atol=1e-10)
        assert len(ctx.tl) == 1

    def test_epilogue(self, ctx, x, w, rng):
        wm = w * tile_mask(w, 0.5, (16, 16))
        bias = rng.standard_normal(64)
        res = rng.standard_normal((32, 64))
        g, b = np.ones(64), np.zeros(64)
        y = tile_gemm(ctx, x, TileBCSR.from_dense(wm), bias=bias, act="gelu",
                      residual=res, ln=(g, b))
        ref = layer_norm(gelu(x @ wm.T + bias) + res, g, b)
        np.testing.assert_allclose(y, ref, atol=1e-10)

    def test_shape_mismatch(self, ctx, w):
        with pytest.raises(ValueError, match="mismatch"):
            tile_gemm(ctx, np.ones((4, 32)), TileBCSR.from_dense(w))

    def test_sparser_is_faster(self, x, rng):
        w = rng.standard_normal((768, 768))
        times = []
        for ratio in (0.5, 0.9):
            wm = w * tile_mask(w, ratio, (16, 16))
            tl = Timeline()
            tile_gemm(fp16_ctx(tl), np.ones((128, 768)), TileBCSR.from_dense(wm))
            times.append(tl.total_time_us)
        assert times[1] < times[0]

    def test_fig10_speedup_at_95(self, rng):
        """Paper: tile pruning at 95 % sparsity gives ~3.5x (d=768)."""
        x = rng.standard_normal((128, 768))
        w = rng.standard_normal((768, 768))
        tl = Timeline()
        gemm(fp16_ctx(tl), x, w.T, GemmAlgo.ALGO5_TENSOR_OP)
        dense = tl.total_time_us
        tl = Timeline()
        tile_gemm(fp16_ctx(tl), x,
                  TileBCSR.from_dense(w * tile_mask(w, 0.95, (16, 16))))
        speedup = dense / tl.total_time_us
        assert 2.5 <= speedup <= 4.5

    def test_active_input_cols_reduces_cost_only(self, ctx, x, w):
        wm = w * tile_mask(w, 0.5, (16, 16))
        fmt = TileBCSR.from_dense(wm)
        y_full = tile_gemm(ctx, x, fmt)
        tl2 = Timeline()
        y_sparse_in = tile_gemm(fp16_ctx(tl2), x, fmt, active_input_cols=16)
        np.testing.assert_allclose(y_full, y_sparse_in)
        assert tl2.records[0].cost.flops < ctx.tl.records[0].cost.flops

    def test_active_input_cols_validated(self, ctx, x, w):
        with pytest.raises(ValueError):
            tile_gemm(ctx, x, TileBCSR.from_dense(w), active_input_cols=100)


class TestColPrunedGemm:
    def test_matches_masked_dense(self, ctx, x, w):
        wm = w * col_mask(w, 0.5)
        fmt = CondensedColPruned.from_dense(wm, np.any(wm != 0, axis=0))
        np.testing.assert_allclose(col_pruned_gemm(ctx, x, fmt), x @ wm.T,
                                   atol=1e-10)

    def test_single_kernel(self, ctx, x, w):
        wm = w * col_mask(w, 0.5)
        fmt = CondensedColPruned.from_dense(wm, np.any(wm != 0, axis=0))
        col_pruned_gemm(ctx, x, fmt)
        assert len(ctx.tl) == 1

    def test_epilogue(self, ctx, x, w, rng):
        wm = w * col_mask(w, 0.25)
        fmt = CondensedColPruned.from_dense(wm, np.any(wm != 0, axis=0))
        bias = rng.standard_normal(64)
        y = col_pruned_gemm(ctx, x, fmt, bias=bias, act="relu")
        np.testing.assert_allclose(y, np.maximum(x @ wm.T + bias, 0),
                                   atol=1e-10)

    def test_gather_overhead_vs_tile(self, rng):
        """Same sparsity: tile pruning beats column pruning (Section 5.2.4)."""
        x = rng.standard_normal((128, 768))
        w = rng.standard_normal((768, 768))
        ratio = 0.7
        wc = w * col_mask(w, ratio)
        tl_c = Timeline()
        col_pruned_gemm(fp16_ctx(tl_c), x,
                        CondensedColPruned.from_dense(wc, np.any(wc != 0, 0)))
        wt = w * tile_mask(w, ratio, (16, 16))
        tl_t = Timeline()
        tile_gemm(fp16_ctx(tl_t), x, TileBCSR.from_dense(wt))
        assert tl_t.total_time_us < tl_c.total_time_us


class TestRowPrunedGemm:
    def test_scatter_matches_masked_dense(self, ctx, x, w):
        wm = w * row_mask(w, 0.5)
        fmt = CondensedRowPruned.from_dense(wm, np.any(wm != 0, axis=1))
        y = row_pruned_gemm(ctx, x, fmt, scatter=True)
        np.testing.assert_allclose(y, x @ wm.T, atol=1e-10)
        assert len(ctx.tl) == 2  # gemm + scatter kernels

    def test_condensed_output(self, ctx, x, w):
        wm = w * row_mask(w, 0.5)
        fmt = CondensedRowPruned.from_dense(wm, np.any(wm != 0, axis=1))
        y = row_pruned_gemm(ctx, x, fmt, scatter=False)
        assert y.shape == (32, fmt.kept_rows.size)
        assert len(ctx.tl) == 1  # no scatter kernel

    def test_masked_full_numerics_condensed_cost(self, ctx, x, w):
        wm = w * row_mask(w, 0.5)
        fmt = CondensedRowPruned.from_dense(wm, np.any(wm != 0, axis=1))
        y = row_pruned_gemm(ctx, x, fmt, scatter=False, masked_full=True)
        np.testing.assert_allclose(y, x @ wm.T, atol=1e-10)
        assert len(ctx.tl) == 1

    def test_bias_at_kept_positions(self, ctx, x, w, rng):
        wm = w * row_mask(w, 0.5)
        fmt = CondensedRowPruned.from_dense(wm, np.any(wm != 0, axis=1))
        bias = rng.standard_normal(64)
        y = row_pruned_gemm(ctx, x, fmt, scatter=False, masked_full=True,
                            bias=bias)
        ref = x @ wm.T
        ref[:, fmt.kept_rows] += bias[fmt.kept_rows]
        np.testing.assert_allclose(y, ref, atol=1e-10)


class TestIrregularGemm:
    def test_matches_masked_dense(self, ctx, x, w):
        wm = w * irregular_mask(w, 0.8)
        y = irregular_gemm(ctx, x, TileBCSR.from_dense(wm))
        np.testing.assert_allclose(y, x @ wm.T, atol=1e-10)

    def test_not_hardware_friendly(self, rng):
        """Irregular is dramatically slower than tile at equal sparsity."""
        x = rng.standard_normal((128, 768))
        w = rng.standard_normal((768, 768))
        ratio = 0.9
        tl_i = Timeline()
        irregular_gemm(fp16_ctx(tl_i), x,
                       TileBCSR.from_dense(w * irregular_mask(w, ratio)))
        tl_t = Timeline()
        tile_gemm(fp16_ctx(tl_t), x,
                  TileBCSR.from_dense(w * tile_mask(w, ratio, (16, 16))))
        assert tl_i.total_time_us > 10 * tl_t.total_time_us

    def test_no_tensor_core(self, ctx, x, w):
        irregular_gemm(ctx, x, TileBCSR.from_dense(w * irregular_mask(w, 0.5)))
        assert not ctx.tl.records[0].cost.uses_tensor_core

    def test_latency_flattens_with_sparsity(self, rng):
        """Table 1: irregular latency shrinks far slower than nnz (the
        bitmap scan is sparsity-independent)."""
        x = rng.standard_normal((128, 768))
        w = rng.standard_normal((768, 768))
        times = {}
        for ratio in (0.6, 0.9):
            tl = Timeline()
            irregular_gemm(fp16_ctx(tl), x,
                           TileBCSR.from_dense(w * irregular_mask(w, ratio)))
            times[ratio] = tl.total_time_us
        nnz_ratio = 0.4 / 0.1  # 4x fewer weights
        assert times[0.6] / times[0.9] < nnz_ratio * 0.75


@pytest.mark.parametrize("op", ["tile", "col", "row", "irregular", "dense"])
def test_ops_leave_inputs_unmodified(ctx, rng, op):
    """The epilogue overwrites only the op's own product: never ``x``, the
    residual, the bias, the LN parameters or the weights."""
    x = rng.standard_normal((40, 64))
    w = rng.standard_normal((64, 64)) * 0.1
    bias, res = rng.standard_normal(64), rng.standard_normal((40, 64))
    ln = (rng.standard_normal(64), rng.standard_normal(64))
    fused = dict(bias=bias, act="gelu", residual=res, ln=ln)
    call = {
        "tile": lambda: tile_gemm(ctx, x, TileBCSR.from_dense(
            w * tile_mask(w, 0.5, (16, 16))), **fused),
        "col": lambda: col_pruned_gemm(ctx, x, CondensedColPruned.from_dense(
            w, np.arange(64) % 2 == 0), **fused),
        "row": lambda: row_pruned_gemm(ctx, x, CondensedRowPruned.from_dense(
            w, np.arange(64) % 2 == 0), bias=bias, act="gelu"),
        "irregular": lambda: irregular_gemm(ctx, x, TileBCSR.from_dense(
            w * irregular_mask(w, 0.5)), bias=bias, act="gelu"),
        "dense": lambda: gemm_bias_act(ctx, x, w.T, bias, "gelu", res,
                                       ln[0], ln[1]),
    }[op]
    inputs = (x, w, bias, res, *ln)
    before = [v.copy() for v in inputs]
    call()
    for v, v0 in zip(inputs, before):
        np.testing.assert_array_equal(v, v0)
