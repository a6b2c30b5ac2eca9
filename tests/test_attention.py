"""Attention architectures: equivalence, costs, adaptivity (Section 3)."""

import numpy as np
import pytest

from repro.attention import (
    OverflowStudy,
    flash_attention,
    flash_tile_shape,
    fold_vo,
    fused_attention,
    merge_heads,
    otf_attention,
    otf_crossover_seqlen,
    otf_smem_bytes,
    otf_attention_precomputed,
    partial_otf_attention,
    precomputed_vside,
    reference_attention,
    select_attention,
    split_heads,
    unfused_attention,
)
from repro.attention.adaptive import _estimate_us
from repro.attention.precompute import condense_folded, precomputed_context
from repro.config import BERT_BASE, BERT_LARGE
from repro.gpu import Timeline, V100S
from repro.ops import causal_mask
from repro.ops.context import fp16_ctx, fp32_ctx
from repro.runtime.autotune import AttentionKey, estimate_attention_us


@pytest.fixture
def qkv(rng):
    h, s, dk = 4, 24, 16
    return tuple(rng.standard_normal((h, s, dk)) for _ in range(3))


class TestReference:
    def test_split_merge_roundtrip(self, rng):
        x = rng.standard_normal((10, 12))
        np.testing.assert_array_equal(merge_heads(split_heads(x, 3)), x)

    def test_rows_are_convex_combinations(self, qkv):
        q, k, v = qkv
        z = reference_attention(q, k, v)
        # every output row lies in the convex hull of V rows per head
        for h in range(q.shape[0]):
            assert z[h].min() >= v[h].min() - 1e-9
            assert z[h].max() <= v[h].max() + 1e-9

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            reference_attention(rng.standard_normal((2, 4, 8)),
                                rng.standard_normal((2, 4, 8)),
                                rng.standard_normal((2, 5, 8)))

    def test_causal_mask_blocks_future(self, qkv):
        q, k, v = qkv
        s = q.shape[1]
        z = reference_attention(q, k, v, causal_mask(s))
        # row 0 can only attend to position 0 -> equals v[:, 0]
        np.testing.assert_allclose(z[:, 0], v[:, 0], atol=1e-6)


class TestEquivalence:
    """All costed implementations must match the reference numerics."""

    @pytest.mark.parametrize("with_mask", [False, True])
    def test_all_implementations_agree(self, qkv, with_mask, ctx):
        q, k, v = qkv
        mask = causal_mask(q.shape[1]) if with_mask else None
        ref = merge_heads(reference_attention(q, k, v, mask))
        for fn in (unfused_attention, fused_attention):
            out = merge_heads(fn(ctx.fork(), q, k, v, mask))
            np.testing.assert_allclose(out, ref, atol=1e-8)
        for fn in (otf_attention, partial_otf_attention):
            out = fn(ctx.fork(), q, k, v, mask)
            np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_mixed_precision_same_numerics(self, qkv, ctx):
        q, k, v = qkv
        a = otf_attention(ctx.fork(), q, k, v, mixed_precision=False)
        b = otf_attention(ctx.fork(), q, k, v, mixed_precision=True)
        np.testing.assert_array_equal(a, b)

    def test_select_attention_matches(self, qkv, ctx):
        q, k, v = qkv
        ref = merge_heads(reference_attention(q, k, v))
        z, chosen = select_attention(ctx, q, k, v)
        np.testing.assert_allclose(z, ref, atol=1e-8)
        assert chosen in ("otf", "partial_otf")


class TestOtfCosts:
    def test_single_kernel_no_intermediate_stores(self, qkv, ctx):
        q, k, v = qkv
        otf_attention(ctx, q, k, v)
        assert len(ctx.tl) == 1
        cost = ctx.tl.records[0].cost
        h, s, dk = q.shape
        # Z only: no S written to global memory.
        assert cost.bytes_stored == h * s * dk * ctx.bytes_per_elem

    def test_fused_baseline_stores_intermediates(self, qkv, ctx):
        q, k, v = qkv
        fused_attention(ctx, q, k, v)
        h, s, dk = q.shape
        z_bytes = h * s * dk * ctx.bytes_per_elem
        assert ctx.tl.bytes_stored > 2 * z_bytes  # S written twice + Z

    def test_otf_loads_more_stores_less(self, rng):
        """Fig. 11: ~1.8-2x more loads, ~5x fewer stores at seqLen 128."""
        h, s, dk = 12, 128, 64
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        tl_f, tl_o = Timeline(), Timeline()
        fused_attention(fp16_ctx(tl_f), q, k, v)
        otf_attention(fp16_ctx(tl_o), q, k, v)
        load_ratio = tl_o.gld_transactions / tl_f.gld_transactions
        store_saving = tl_f.gst_transactions / tl_o.gst_transactions
        assert 1.5 <= load_ratio <= 3.0
        assert 4.0 <= store_saving <= 6.0

    def test_otf_faster_than_fused_at_128(self, rng):
        h, s, dk = 12, 128, 64
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        tl_f, tl_o = Timeline(), Timeline()
        fused_attention(fp16_ctx(tl_f), q, k, v, np.zeros((s, s)))
        otf_attention(fp16_ctx(tl_o), q, k, v, np.zeros((s, s)))
        assert tl_f.total_time_us / tl_o.total_time_us > 2.0

    def test_smem_budget_equation6(self):
        # BERT_LARGE example from Section 3.2: H=16, d_model=1024, seq 384
        # -> 16*64 + 16*384 = 7168 elements (the paper's "7KB"), i.e. ~14 KB
        # in FP16 — comfortably inside the V100S's 96 KB per SM.
        smem = otf_smem_bytes(seq_len=384, d_k=BERT_LARGE.d_head,
                              bytes_per_elem=2)
        assert smem == (16 * 64 + 16 * 384) * 2
        assert smem < V100S.smem_per_sm_bytes

    def test_mixed_precision_doubles_score_smem(self):
        pure = otf_smem_bytes(128, 64, 2, mixed_precision=False)
        mixed = otf_smem_bytes(128, 64, 2, mixed_precision=True)
        assert mixed - pure == 16 * 128 * 2  # score rows 2B -> 4B

    def test_smem_overflow_rejected(self, rng):
        # A pathological sequence length must exceed the V100S smem budget.
        s = 4096
        q = rng.standard_normal((1, s, 16))
        with pytest.raises(RuntimeError, match="shared memory"):
            otf_attention(fp16_ctx(Timeline()), q, q, q)

    def test_mixed_precision_slower(self, rng):
        h, s, dk = 12, 128, 64
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        tl_p, tl_m = Timeline(), Timeline()
        otf_attention(fp16_ctx(tl_p), q, k, v, mixed_precision=False)
        otf_attention(fp16_ctx(tl_m), q, k, v, mixed_precision=True)
        assert tl_m.total_time_us > tl_p.total_time_us

    def test_effective_v_width_cost_only(self, qkv, ctx):
        q, k, v = qkv
        a = otf_attention(ctx.fork(), q, k, v)
        tl2 = Timeline()
        b = otf_attention(fp16_ctx(tl2), q, k, v, effective_v_width=4)
        np.testing.assert_array_equal(a, b)
        assert tl2.total_time_us < ctx.tl.total_time_us or len(ctx.tl) == 0


class TestPartialOtf:
    def test_two_kernels_with_sync(self, qkv, ctx):
        q, k, v = qkv
        partial_otf_attention(ctx, q, k, v)
        assert len(ctx.tl) == 2
        assert ctx.tl.records[0].cost.sync_after

    def test_stores_s_once(self, qkv, ctx):
        q, k, v = qkv
        partial_otf_attention(ctx, q, k, v)
        h, s, dk = q.shape
        b = ctx.bytes_per_elem
        assert ctx.tl.records[0].cost.bytes_stored == h * s * s * b


class TestAdaptive:
    def test_crossover_near_paper_224(self, ctx):
        """Section 5.2.2: partial OTF wins beyond seqLen ~224 (BERT)."""
        co = otf_crossover_seqlen(ctx, BERT_BASE.num_heads, BERT_BASE.d_head,
                                  with_mask=True)
        assert co is not None
        assert 192 <= co <= 272

    def test_full_wins_short_flash_wins_long(self, rng, ctx):
        h, dk = 12, 64
        for s, expect in ((64, "otf"), (384, "flash")):
            q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
            _, chosen = select_attention(ctx.fork(), q, k, v,
                                         np.zeros((s, s)))
            assert chosen == expect

    def test_partial_still_beats_full_otf_long(self, rng, ctx):
        """The paper's own two-way ordering survives the three-way tuner:
        at 384 the partial split still beats full OTF, even though flash
        now beats both."""
        h, dk, s = 12, 64, 384
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        mask = np.zeros((s, s))
        t_full = _estimate_us(ctx, otf_attention, q, k, v, mask)
        t_partial = _estimate_us(ctx, partial_otf_attention, q, k, v, mask)
        assert t_partial < t_full

    def test_et_attention_beats_tensorrt_across_range(self, rng):
        """Fig. 8: 'either OTF or partial OTF would best TensorRT across
        all cases' (64..320)."""
        h, dk = 12, 64
        for s in (64, 128, 192, 256, 320):
            q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
            mask = np.zeros((s, s))
            tl_f = Timeline()
            fused_attention(fp16_ctx(tl_f), q, k, v, mask)
            tl_b = Timeline()
            select_attention(fp16_ctx(tl_b), q, k, v, mask)
            assert tl_b.total_time_us < tl_f.total_time_us, f"seqLen {s}"


class TestCrossoverOracle:
    """The cost-only crossover sweep prices each variant exactly as running
    its numerics and reading the timeline does."""

    SEQ_LENS = range(32, 321, 32)

    @pytest.mark.parametrize("make_ctx", [fp16_ctx, fp32_ctx],
                             ids=["fp16", "fp32"])
    @pytest.mark.parametrize("with_mask", [False, True],
                             ids=["nomask", "mask"])
    @pytest.mark.parametrize("h,dk", [(12, 64), (4, 16), (4, 200), (16, 128)])
    def test_cost_only_sweep_equals_numerics(self, make_ctx, with_mask, h,
                                             dk):
        ctx = make_ctx(Timeline())
        first = None
        for s in self.SEQ_LENS:
            rng = np.random.default_rng(s)
            q, k, v = (rng.standard_normal((h, s, dk)).astype(np.float32)
                       for _ in range(3))
            mask = np.zeros((s, s), dtype=np.float32) if with_mask else None
            numerics = {
                algo: _estimate_us(ctx, impl, q, k, v, mask)
                for algo, impl in (("otf", otf_attention),
                                   ("partial_otf", partial_otf_attention))}
            key = AttentionKey(ctx.device.name, h, s, dk, dk, with_mask,
                               ctx.bytes_per_elem, ctx.tensor_core)
            assert numerics == {algo: estimate_attention_us(key, algo)
                                for algo in numerics}, f"seqLen {s}"
            if first is None and numerics["partial_otf"] < numerics["otf"]:
                first = s
        assert otf_crossover_seqlen(ctx, h, dk, self.SEQ_LENS,
                                    with_mask) == first


class TestPrecompute:
    def test_fold_vo_equation5(self, rng):
        """Output == Z·W_Oᵀ == Σ_h S_h·X·M_h for random inputs."""
        d, h, s = 32, 4, 10
        x = rng.standard_normal((s, d))
        wq, wk, wv, wo = (rng.standard_normal((d, d)) * 0.2 for _ in range(4))
        q = split_heads(x @ wq.T, h)
        k = split_heads(x @ wk.T, h)
        v = split_heads(x @ wv.T, h)
        ref = merge_heads(reference_attention(q, k, v)) @ wo.T

        m = fold_vo(wv, wo, h)
        ctx = fp16_ctx(Timeline())
        xm = precomputed_vside(ctx, x, m)
        out = otf_attention_precomputed(ctx, q, k, xm, out_features=d)
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_fold_validation(self, rng):
        with pytest.raises(ValueError, match="square"):
            fold_vo(rng.standard_normal((4, 6)), rng.standard_normal((6, 6)), 2)
        with pytest.raises(ValueError, match="divisible"):
            fold_vo(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)), 4)

    def test_condensed_folded_with_row_pruned_wo(self, rng):
        d, h, s = 32, 4, 8
        x = rng.standard_normal((s, d))
        wv = rng.standard_normal((d, d)) * 0.2
        wo = rng.standard_normal((d, d)) * 0.2
        wo[::2] = 0.0  # row-prune half of W_O
        kept = np.flatnonzero(np.any(wo != 0, axis=1))
        q = split_heads(x, h)
        k = split_heads(x, h)
        ref_v = split_heads(x @ wv.T, h)
        ref = merge_heads(reference_attention(q, k, ref_v)) @ wo.T

        m, cols = precomputed_context(wv, wo, h, kept_cols=kept)
        ctx = fp16_ctx(Timeline())
        xm = precomputed_vside(ctx, x, m)
        out = otf_attention_precomputed(ctx, q, k, xm, out_features=d,
                                        kept_cols=cols)
        np.testing.assert_allclose(out, ref, atol=1e-8)
        # pruned columns are exactly zero
        pruned = np.setdiff1d(np.arange(d), kept)
        assert np.abs(out[:, pruned]).max() == 0.0

    def test_condensed_width_requires_kept_cols(self, rng):
        d, h = 16, 2
        m = condense_folded(fold_vo(rng.standard_normal((d, d)),
                                    rng.standard_normal((d, d)), h),
                            np.arange(4))
        ctx = fp16_ctx(Timeline())
        x = rng.standard_normal((4, d))
        xm = precomputed_vside(ctx, x, m)
        q = split_heads(x, h)
        with pytest.raises(ValueError, match="kept_cols"):
            otf_attention_precomputed(ctx, q, q, xm, out_features=d)

    def test_precomputed_is_one_attention_kernel(self, rng):
        d, h, s = 32, 4, 8
        x = rng.standard_normal((s, d))
        m = fold_vo(rng.standard_normal((d, d)), rng.standard_normal((d, d)), h)
        tl = Timeline()
        ctx = fp16_ctx(tl)
        xm = precomputed_vside(ctx, x, m)
        otf_attention_precomputed(ctx, split_heads(x, h), split_heads(x, h), xm,
                                  out_features=d)
        assert len(tl) == 2  # the X·M GEMM + one OTF kernel


class TestOverflowStudy:
    def test_fig4_story(self, rng):
        q = 18.0 + 5.0 * rng.standard_normal((2, 16, 256))
        k = 18.0 + 5.0 * rng.standard_normal((2, 16, 256))
        study = OverflowStudy.run(q, k)
        assert study.post_scale_fp16 > 0.5  # majority overflow
        assert study.pre_scale_fp16 == 0.0  # reorder fixes it
        assert study.post_scale_mixed < 0.05  # mixed precision also works
        assert study.max_abs_error < 1e-9  # same results either order


class TestPartialPrecompute:
    """The precomputed path's own sequence-length-aware split."""

    def _setup(self, rng, s):
        d, h = 32, 4
        x = rng.standard_normal((s, d))
        wv = rng.standard_normal((d, d)) * 0.2
        wo = rng.standard_normal((d, d)) * 0.2
        q = split_heads(x, h)
        k = split_heads(x, h)
        v = split_heads(x @ wv.T, h)
        ref = merge_heads(reference_attention(q, k, v)) @ wo.T
        m = fold_vo(wv, wo, h)
        return x, q, k, m, ref, d

    def test_partial_matches_full(self, rng, ctx):
        from repro.attention import partial_otf_attention_precomputed

        x, q, k, m, ref, d = self._setup(rng, 10)
        xm = precomputed_vside(ctx, x, m)
        out = partial_otf_attention_precomputed(ctx, q, k, xm, out_features=d)
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_partial_is_two_kernels_with_sync(self, rng):
        from repro.attention import partial_otf_attention_precomputed
        from repro.ops.context import fp16_ctx

        x, q, k, m, _, d = self._setup(rng, 10)
        tl = Timeline()
        ctx = fp16_ctx(tl)
        xm = precomputed_vside(ctx, x, m)
        partial_otf_attention_precomputed(ctx, q, k, xm, out_features=d)
        assert len(tl) == 3  # X·M GEMM + two attention kernels
        assert tl.records[1].cost.sync_after

    def test_adaptive_selection_matches_and_switches(self, rng):
        from repro.attention import select_attention_precomputed
        from repro.ops.context import fp16_ctx

        # short sequence -> full; BERT-geometry long sequence -> partial
        for s, expect in ((16, "otf_precomputed"),):
            x, q, k, m, ref, d = self._setup(rng, s)
            tl = Timeline()
            ctx = fp16_ctx(tl)
            xm = precomputed_vside(ctx, x, m)
            out, chosen = select_attention_precomputed(ctx, q, k, xm,
                                                       out_features=d)
            np.testing.assert_allclose(out, ref, atol=1e-8)
            assert chosen == expect

    def test_long_sequence_prefers_partial(self, rng):
        from repro.attention import select_attention_precomputed
        from repro.ops.context import fp16_ctx

        h, s, dk, w = 12, 384, 64, 64
        q = rng.standard_normal((h, s, dk))
        k = rng.standard_normal((h, s, dk))
        xm = rng.standard_normal((h, s, w))
        tl = Timeline()
        _, chosen = select_attention_precomputed(fp16_ctx(tl), q, k, xm,
                                                 out_features=w)
        assert chosen == "partial_otf_precomputed"


class TestFlash:
    """Flash attention: online-softmax tiling vs the exact reference."""

    @pytest.mark.parametrize("s", [8, 16, 24, 64, 128, 333, 1024])
    @pytest.mark.parametrize("with_mask", [False, True])
    def test_matches_reference_across_seqlen(self, rng, ctx, s, with_mask):
        h, dk = 4, 32
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        mask = causal_mask(s) if with_mask else None
        ref = merge_heads(reference_attention(q, k, v, mask))
        out = flash_attention(ctx.fork(), q, k, v, mask)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_single_tile_sequence(self, rng, ctx):
        """s smaller than any tile: one ragged (s, s) tile, still exact."""
        h, s, dk = 4, 8, 16
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        br, bc = flash_tile_shape(h, s, dk, device=V100S)
        assert br > s and bc > s
        ref = merge_heads(reference_attention(q, k, v))
        out = flash_attention(ctx, q, k, v)
        np.testing.assert_allclose(out, ref, atol=1e-7)

    def test_ragged_final_tiles_exact(self, rng, ctx):
        """Pinned tiles that don't divide s: last row/col blocks are ragged."""
        h, s, dk = 2, 100, 16
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        ref = merge_heads(reference_attention(q, k, v))
        out = flash_attention(ctx, q, k, v, br=48, bc=24)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_all_masked_row_stays_finite(self, rng, ctx):
        """A fully masked row (finite MASK_NEG) must not NaN the rescale."""
        from repro.ops.softmax import MASK_NEG

        h, s, dk = 2, 96, 16
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        mask = np.zeros((s, s))
        mask[5, :] = MASK_NEG  # row 5 attends to nothing
        out = flash_attention(ctx, q, k, v, mask)
        assert np.isfinite(out).all()
        ref = merge_heads(reference_attention(q, k, v, mask))
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_fp16_prescale_avoids_overflow(self, rng, ctx):
        """Fig. 4 regime: wide d_k, large-magnitude Q/K. Scaling Q before
        the matmul keeps the FP16 score tile representable; scaling after
        would overflow (sum of ~256 products of ~18-magnitude values)."""
        h, s, dk = 2, 64, 256
        q = (18.0 + 5.0 * rng.standard_normal((h, s, dk))).astype(np.float16)
        k = (18.0 + 5.0 * rng.standard_normal((h, s, dk))).astype(np.float16)
        v = rng.standard_normal((h, s, dk)).astype(np.float16)
        kt = k.swapaxes(-1, -2)
        scale = np.float16(1.0) / np.sqrt(np.float16(dk))
        with np.errstate(over="ignore"):
            assert not np.isfinite(q @ kt).all()   # post-scale overflows
        assert np.isfinite((q * scale) @ kt).all()  # pre-scale (flash) fits
        out = flash_attention(ctx, q, k, v)
        assert np.isfinite(out).all()
        # Softmax rows are convex combinations of V rows, so the output
        # must stay inside V's range even in this saturated-score regime.
        assert out.min() >= v.min() - 1e-3
        assert out.max() <= v.max() + 1e-3

    def test_single_kernel_no_score_stores(self, rng, ctx):
        h, s, dk = 12, 128, 64
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        flash_attention(ctx, q, k, v)
        assert len(ctx.tl) == 1
        # Z only reaches HBM; the s x s score matrix never does.
        assert ctx.tl.records[0].cost.bytes_stored == \
            h * s * dk * ctx.bytes_per_elem


class TestFlashTiles:
    def test_smem_formula(self):
        from repro.attention import flash_smem_bytes

        br, bc, dk = 64, 32, 16
        expect = ((br * dk + bc * dk + bc * dk + br * bc) * 2
                  + br * dk * 4 + 2 * br * 4)
        assert flash_smem_bytes(br, bc, dk) == expect

    def test_preferred_tiles_for_paper_geometry(self):
        br, _bc = flash_tile_shape(12, 384, 64, device=V100S)
        assert br >= 64  # chained-MMA row blocks, not the fallback tier

    def test_fallback_tier_for_wide_heads(self):
        # Transformer WT2 geometry: d_head 200 -> no Br>=64 tile fits 96KB.
        br, bc = flash_tile_shape(4, 384, 200, device=V100S)
        assert br < 64

    def test_no_tile_fits_raises(self):
        with pytest.raises(RuntimeError, match="no flash tile fits"):
            flash_tile_shape(4, 128, 4000, device=V100S)

    def test_grid_occupancy_bounds(self):
        from repro.gpu.kernel import grid_occupancy

        assert grid_occupancy(V100S.num_sms, V100S) == 1.0
        assert grid_occupancy(10 * V100S.num_sms, V100S) == 1.0
        assert grid_occupancy(8, V100S) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            grid_occupancy(0, V100S)
