"""FP16/BF16 emulation and overflow tracking (Section 3.3 numerics)."""

import numpy as np
import pytest

from repro.tensor.fp16 import (
    BF16_MAX,
    FP16_MAX,
    MatmulReport,
    attention_scores_overflow,
    fp16_matmul,
    fp16_overflow_mask,
    to_bf16,
    to_fp16,
)


class TestCasts:
    def test_fp16_max_value(self):
        assert to_fp16(np.array([FP16_MAX]))[0] == np.float16(65504.0)

    def test_fp16_overflow_to_inf(self):
        assert np.isinf(to_fp16(np.array([70000.0]))[0])

    def test_fp16_rounds(self):
        # 1 + 2^-11 is below FP16 resolution at 1.0
        assert to_fp16(np.array([1.0 + 2.0**-12]))[0] == np.float16(1.0)

    def test_bf16_preserves_fp32_range(self):
        x = np.array([1e38], dtype=np.float32)
        assert np.isfinite(to_bf16(x)[0])
        assert BF16_MAX > 1e38

    def test_bf16_truncates_mantissa(self):
        x = np.float32(1.0 + 2.0**-9)  # below BF16's 8-bit mantissa
        assert to_bf16(np.array([x]))[0] == np.float32(1.0)

    def test_bf16_exact_on_powers_of_two(self):
        x = np.array([0.5, 2.0, 1024.0], dtype=np.float32)
        np.testing.assert_array_equal(to_bf16(x), x)

    def test_overflow_mask(self):
        x = np.array([0.0, 65504.0, 65520.0, -1e6])
        np.testing.assert_array_equal(
            fp16_overflow_mask(x), [False, False, True, True]
        )


class TestFp16Matmul:
    def test_small_values_exact(self, rng):
        a = rng.integers(-4, 5, (6, 8)).astype(np.float64)
        b = rng.integers(-4, 5, (8, 5)).astype(np.float64)
        rep = fp16_matmul(a, b)
        np.testing.assert_allclose(rep.result, a @ b)
        assert not rep.overflow_mask.any()
        assert rep.overflow_fraction == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            fp16_matmul(np.ones((2, 3)), np.ones((4, 2)))

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            fp16_matmul(np.ones((2, 3, 4)), np.ones((4, 2)))

    def test_bad_accumulate_mode(self):
        with pytest.raises(ValueError, match="accumulate"):
            fp16_matmul(np.ones((2, 2)), np.ones((2, 2)), accumulate="fp64")

    def test_product_overflow_detected(self):
        # 1000 * 1000 = 1e6 > 65504 overflows in the product itself.
        a = np.full((2, 1), 1000.0)
        b = np.full((1, 2), 1000.0)
        rep = fp16_matmul(a, b, accumulate="fp16")
        assert rep.overflow_mask.all()
        assert rep.overflow_fraction == 1.0

    def test_accumulation_overflow_fp16_but_not_fp32(self):
        # Each product is 30000 (in range); the running FP16 sum of four
        # overflows, while FP32 accumulation holds 120000 and only flags
        # the conversion back.
        a = np.full((1, 4), np.sqrt(30000.0))
        b = np.full((4, 1), np.sqrt(30000.0))
        rep16 = fp16_matmul(a, b, accumulate="fp16")
        rep32 = fp16_matmul(a, b, accumulate="fp32")
        assert rep16.overflow_mask.all()
        # 120000 > FP16_MAX -> flagged on downconvert too
        assert rep32.overflow_mask.all()
        assert np.isfinite(rep32.result).all()

    def test_partial_sum_overflow_stays_flagged(self):
        # 60000 + 60000 leaves FP16 range before the -60000 term brings the
        # exact sum back to 60000: the pure-FP16 accumulator saturates on
        # the partial sum, which a check of the final sum alone would miss.
        a = np.array([[60000.0, 60000.0, -60000.0]])
        b = np.ones((3, 1))
        assert fp16_matmul(a, b, accumulate="fp16").overflow_mask.all()
        assert not fp16_matmul(a, b, accumulate="fp32").overflow_mask.any()

    def test_fp32_accumulate_matches_reference(self, rng):
        a = rng.standard_normal((4, 16))
        b = rng.standard_normal((16, 3))
        rep = fp16_matmul(a, b, accumulate="fp32")
        ref = to_fp16(a).astype(np.float32) @ to_fp16(b).astype(np.float32)
        np.testing.assert_allclose(rep.result, ref, rtol=1e-6)

    def test_input_inf_flags_whole_row_and_col(self):
        a = np.ones((2, 2))
        a[0, 0] = 1e6  # overflows on FP16 input rounding
        rep = fp16_matmul(a, np.ones((2, 2)))
        assert rep.overflow_mask[0].all()
        assert not rep.overflow_mask[1].any()

    def test_empty_overflow_fraction(self):
        rep = MatmulReport(result=np.zeros((0, 0)),
                           overflow_mask=np.zeros((0, 0), bool))
        assert rep.overflow_fraction == 0.0


class TestScalingReorder:
    """The Fig. 4 story: pre-scaling eliminates overflow, same results."""

    @pytest.fixture
    def qk(self, rng):
        # Trained Q/K activations accumulate *coherently* (non-zero mean),
        # which is what pushes the raw Q·Kᵀ sums past 65504 in Fig. 4.
        d_k = 256
        q = 18.0 + 5.0 * rng.standard_normal((16, d_k))
        k = 18.0 + 5.0 * rng.standard_normal((16, d_k))
        return q, k, d_k

    def test_post_scale_overflows(self, qk):
        q, k, d_k = qk
        rep = attention_scores_overflow(q, k, d_k, scale_first=False)
        assert rep.overflow_fraction > 0.5  # "majority of the entries"

    def test_pre_scale_does_not_overflow(self, qk):
        q, k, d_k = qk
        rep = attention_scores_overflow(q, k, d_k, scale_first=True)
        assert rep.overflow_fraction == 0.0

    def test_mixed_precision_also_avoids_overflow(self, qk):
        q, k, d_k = qk
        rep = attention_scores_overflow(q, k, d_k, scale_first=False,
                                        accumulate="fp32")
        # FP32 accumulation holds the sums; the scaled-back value fits.
        assert rep.overflow_fraction < 0.05

    def test_reorder_same_results_in_exact_arithmetic(self, rng):
        q = rng.standard_normal((8, 64))
        k = rng.standard_normal((8, 64))
        post = (q @ k.T) / np.sqrt(64.0)
        pre = (q / np.sqrt(64.0)) @ k.T
        np.testing.assert_allclose(pre, post, atol=1e-12)


class TestBf16Accumulation:
    """Section 2.2's A100/BF16 mode: range without reordering."""

    def test_rne_rounds_to_nearest(self):
        from repro.tensor.fp16 import to_bf16_rne

        # 1 + 2^-8 is exactly half an ulp at 1.0 -> rounds to even (1.0);
        # 1 + 3*2^-9 is past half -> rounds up to 1 + 2^-7.
        assert to_bf16_rne(np.array([1.0 + 2.0**-8], np.float32))[0] == 1.0
        assert to_bf16_rne(np.array([1.0 + 3 * 2.0**-9], np.float32))[0] == \
            np.float32(1.0 + 2.0**-7)

    def test_bf16_accumulate_never_overflows_fig4_regime(self, rng):
        q = 18.0 + 5.0 * rng.standard_normal((16, 256))
        k = 18.0 + 5.0 * rng.standard_normal((16, 256))
        rep = fp16_matmul(q, k.T, accumulate="bf16")
        assert not rep.overflow_mask.any()

    def test_bf16_loses_precision_vs_fp32(self, rng):
        a = rng.standard_normal((8, 64))
        b = rng.standard_normal((64, 8))
        exact = a @ b
        bf = fp16_matmul(a, b, accumulate="bf16").result
        err = np.abs(bf - exact).max()
        assert 0 < err < 0.5  # lossy but sane

    def test_overflow_study_includes_bf16(self, rng):
        from repro.attention import OverflowStudy

        q = 18.0 + 5.0 * rng.standard_normal((2, 16, 256))
        k = 18.0 + 5.0 * rng.standard_normal((2, 16, 256))
        st = OverflowStudy.run(q, k)
        assert st.post_scale_bf16 == 0.0
        assert 0.0 < st.bf16_rel_error < 0.15
