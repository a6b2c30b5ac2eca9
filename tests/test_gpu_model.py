"""GPU device spec, kernel cost model and timeline counters."""

from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from repro import config
from repro.attention.flash import TILE_CANDIDATES, TILE_FALLBACK
from repro.attention.onthefly import TILE_ROWS
from repro.gpu import (
    A100,
    V100S,
    KernelCost,
    MemPattern,
    Timeline,
    default_device,
    mem_efficiency,
    smem_fits,
)
from repro.gpu.device import all_devices
from repro.pruning import PruneMethod
from repro.runtime import (
    EncoderWeights,
    ETEngine,
    FasterTransformerLikeEngine,
    PyTorchLikeEngine,
    TensorRTLikeEngine,
)


class TestDeviceSpec:
    def test_v100s_datasheet(self):
        assert V100S.num_sms == 80
        assert V100S.smem_per_sm_bytes == 96 * 1024
        assert V100S.peak_bw_gbs == pytest.approx(1134.0)
        assert V100S.peak_tc_tflops == pytest.approx(130.0)

    def test_tensor_core_is_8x_general(self):
        # Section 2.2: "tensor core is 8x faster than the general cores".
        assert V100S.peak_tc_tflops / V100S.peak_fp32_tflops == pytest.approx(
            7.9, abs=0.2)

    def test_default_device_is_v100s(self):
        assert default_device() is V100S

    def test_a100_faster_everywhere(self):
        assert A100.peak_bw_gbs > V100S.peak_bw_gbs
        assert A100.peak_tc_tflops > V100S.peak_tc_tflops
        assert A100.smem_per_sm_bytes > V100S.smem_per_sm_bytes

    def test_peak_flops_selection(self):
        assert V100S.peak_flops(True) == pytest.approx(130e12)
        assert V100S.peak_flops(False) == pytest.approx(16.4e12)


class TestMemEfficiency:
    def test_zero_bytes(self):
        assert mem_efficiency(0, MemPattern.STREAM) == 1.0

    def test_monotone_in_size(self):
        small = mem_efficiency(1e5, MemPattern.TILED)
        big = mem_efficiency(1e8, MemPattern.TILED)
        assert big > small

    def test_pattern_ordering(self):
        b = 4e6
        effs = [mem_efficiency(b, p) for p in
                (MemPattern.STREAM, MemPattern.TILED, MemPattern.BATCHED,
                 MemPattern.STRIDED, MemPattern.GATHER)]
        assert effs == sorted(effs, reverse=True)

    def test_asymptote_below_pattern_ceiling(self):
        assert mem_efficiency(1e12, MemPattern.STREAM) <= MemPattern.STREAM.value


class TestKernelCost:
    def test_roofline_compute_bound(self):
        k = KernelCost("k", flops=1e9, bytes_loaded=1e3, compute_eff=0.5)
        assert k.exec_time_us(V100S) == pytest.approx(k.compute_time_us(V100S))

    def test_roofline_memory_bound(self):
        k = KernelCost("k", flops=1e3, bytes_loaded=1e8, compute_eff=0.5)
        assert k.exec_time_us(V100S) == pytest.approx(k.mem_time_us(V100S))

    def test_launch_overhead_added(self):
        k = KernelCost("k", flops=1e9, compute_eff=0.5)
        assert k.time_us(V100S) == pytest.approx(
            V100S.launch_overhead_us + k.exec_time_us(V100S))

    def test_sync_after(self):
        k = KernelCost("k", flops=1e9, compute_eff=0.5, sync_after=True)
        k2 = KernelCost("k", flops=1e9, compute_eff=0.5)
        assert k.time_us(V100S) - k2.time_us(V100S) == pytest.approx(
            V100S.sync_overhead_us)

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            KernelCost("k", compute_eff=0.0)
        with pytest.raises(ValueError):
            KernelCost("k", compute_eff=1.5)

    def test_invalid_mem_scale(self):
        with pytest.raises(ValueError):
            KernelCost("k", mem_eff_scale=0.0)

    def test_negative_resources(self):
        with pytest.raises(ValueError):
            KernelCost("k", flops=-1)

    def test_zero_cta_rejected(self):
        with pytest.raises(ValueError):
            KernelCost("k", ctas=0)

    def test_smem_validation(self):
        k = KernelCost("big", smem_per_cta_bytes=100 * 1024)
        assert not smem_fits(k.smem_per_cta_bytes, V100S)
        with pytest.raises(RuntimeError, match="shared memory"):
            k.validate_launch(V100S)
        assert smem_fits(k.smem_per_cta_bytes, A100)

    def test_transactions_are_32_byte_sectors(self):
        k = KernelCost("k", bytes_loaded=64, bytes_stored=33)
        assert k.gld_transactions(V100S) == 2
        assert k.gst_transactions(V100S) == 2  # ceil(33/32)

    def test_mem_eff_scale_slows_kernel(self):
        k1 = KernelCost("k", bytes_loaded=1e7)
        k2 = KernelCost("k", bytes_loaded=1e7, mem_eff_scale=0.5)
        assert k2.mem_time_us(V100S) == pytest.approx(2 * k1.mem_time_us(V100S))

    def test_achieved_bw_definition(self):
        k = KernelCost("k", bytes_loaded=1e7, bytes_stored=1e6)
        bw = k.achieved_bw_gbs(V100S)
        assert bw == pytest.approx(1.1e7 / k.exec_time_us(V100S) / 1e3)


class TestTimeline:
    def test_total_time_accumulates(self):
        tl = Timeline()
        tl.launch(KernelCost("a", flops=1e9, compute_eff=0.5))
        tl.launch(KernelCost("b", flops=1e9, compute_eff=0.5))
        assert len(tl) == 2
        assert tl.total_time_us == pytest.approx(
            sum(r.time_us for r in tl.records))

    def test_counters(self):
        tl = Timeline()
        tl.launch(KernelCost("a", bytes_loaded=3200, bytes_stored=640))
        assert tl.gld_transactions == 100
        assert tl.gst_transactions == 20

    def test_regions(self):
        tl = Timeline()
        with tl.region("layer0"):
            tl.launch(KernelCost("a", flops=1e6, compute_eff=0.5))
            with tl.region("attn"):
                tl.launch(KernelCost("b", flops=1e6, compute_eff=0.5))
        tl.launch(KernelCost("c", flops=1e6, compute_eff=0.5))
        by_region = tl.time_by_region()
        assert set(by_region) == {"layer0", "layer0/attn", ""}

    def test_time_by_tag(self):
        tl = Timeline()
        tl.launch(KernelCost("a", flops=1e6, compute_eff=0.5, tag="x"))
        tl.launch(KernelCost("b", flops=1e6, compute_eff=0.5, tag="x"))
        tl.launch(KernelCost("c", flops=1e6, compute_eff=0.5, tag="y"))
        tags = tl.time_by_tag()
        assert tags["x"] == pytest.approx(2 * tags["y"])

    def test_reset_and_fork(self):
        tl = Timeline()
        tl.launch(KernelCost("a", flops=1e6, compute_eff=0.5))
        fork = tl.fork()
        assert len(fork) == 0 and fork.device is tl.device
        tl.reset()
        assert len(tl) == 0 and tl.total_time_us == 0.0

    def test_sm_efficiency_bounds(self):
        tl = Timeline()
        tl.launch(KernelCost("a", flops=1e8, compute_eff=0.5, ctas=200))
        assert 0.0 < tl.sm_efficiency <= 1.0

    def test_sm_efficiency_penalizes_small_grids(self):
        big = Timeline()
        big.launch(KernelCost("a", flops=1e8, compute_eff=0.5, ctas=200))
        small = Timeline()
        small.launch(KernelCost("a", flops=1e8, compute_eff=0.5, ctas=8))
        assert small.sm_efficiency < big.sm_efficiency

    def test_sm_efficiency_penalizes_launch_gaps(self):
        one = Timeline()
        one.launch(KernelCost("a", flops=4e9, compute_eff=0.5, ctas=200))
        many = Timeline()
        for _ in range(4):
            many.launch(KernelCost("a", flops=1e9, compute_eff=0.5, ctas=200))
        assert many.sm_efficiency < one.sm_efficiency

    def test_ipc_positive(self):
        tl = Timeline()
        tl.launch(KernelCost("a", flops=1e9, bytes_loaded=1e6, compute_eff=0.3))
        assert tl.ipc > 0

    def test_empty_timeline(self):
        tl = Timeline()
        assert tl.total_time_us == 0.0
        assert tl.sm_efficiency == 0.0
        assert tl.ipc == 0.0
        assert tl.achieved_bw_gbs == 0.0

    def test_summary_keys(self):
        tl = Timeline()
        tl.launch(KernelCost("a", flops=1e6, compute_eff=0.5))
        s = tl.summary()
        for key in ("total_time_us", "num_kernels", "gld_transactions",
                    "gst_transactions", "sm_efficiency", "ipc",
                    "achieved_bw_gbs", "flops"):
            assert key in s

    def test_per_kernel_bandwidth(self):
        tl = Timeline()
        tl.launch(KernelCost("a", bytes_loaded=1e6))
        rows = tl.per_kernel_bandwidth()
        assert rows[0][0] == "a" and rows[0][1] > 0


class TestCostAccumulator:
    def test_fused_resources_add(self):
        from repro.gpu.kernel import CostAccumulator

        acc = CostAccumulator("fused", tag="t")
        acc.add(KernelCost("a", flops=1e6, bytes_loaded=100, compute_eff=0.2,
                           smem_per_cta_bytes=512, ctas=4))
        acc.add(KernelCost("b", flops=3e6, bytes_stored=200, compute_eff=0.6,
                           smem_per_cta_bytes=1024, ctas=8))
        fused = acc.fused()
        assert fused.flops == 4e6
        assert fused.bytes_loaded == 100 and fused.bytes_stored == 200
        assert fused.smem_per_cta_bytes == 1024  # max of parts
        assert fused.ctas == 8
        # FLOP-weighted efficiency: (0.2*1 + 0.6*3)/4 = 0.5
        assert fused.compute_eff == pytest.approx(0.5)
        assert fused.tag == "t"

    def test_fused_single_launch_cheaper_than_parts(self):
        from repro.gpu.kernel import CostAccumulator

        parts = [KernelCost("k", flops=1e8, compute_eff=0.5) for _ in range(3)]
        acc = CostAccumulator("fused")
        for p in parts:
            acc.add(p)
        t_parts = sum(p.time_us(V100S) for p in parts)
        t_fused = acc.fused().time_us(V100S)
        assert t_fused < t_parts  # saves two launches

    def test_empty_accumulator_rejected(self):
        from repro.gpu.kernel import CostAccumulator

        with pytest.raises(ValueError):
            CostAccumulator("empty").fused()

    def test_mem_pattern_from_biggest_part(self):
        from repro.gpu.kernel import CostAccumulator

        acc = CostAccumulator("fused")
        acc.add(KernelCost("small", bytes_loaded=10,
                           mem_pattern=MemPattern.GATHER))
        acc.add(KernelCost("big", bytes_loaded=1e6,
                           mem_pattern=MemPattern.STREAM))
        assert acc.fused().mem_pattern is MemPattern.STREAM


class TestLaunchContract:
    """The paper's launch contract, held at run time on every device.

    Equation 6 bounds one CTA's shared memory by the SM's, and §3.1 cuts
    heads into 16-row tensor-core tiles. Kernel sizes are runtime values
    (the flash tile is even chosen per device), so the contract is pinned
    by launching what the engines launch: every kernel goes through
    ``Timeline.launch`` → ``KernelCost.validate_launch``.
    """

    #: The paper's default seqLen and one past every 64-wide head's
    #: OTF→flash crossover (s = 144–208 on the V100S and A100).
    SEQ_LENS = (128, 384)

    def test_every_engine_launch_fits_every_device(self, monkeypatch):
        configs = [c for c in vars(config).values()
                   if isinstance(c, config.ModelConfig)]
        assert TILE_ROWS % 16 == 0
        for br, bc in TILE_CANDIDATES + TILE_FALLBACK:
            assert br % 16 == 0 and bc % 16 == 0, (br, bc)
        for cfg in configs:
            assert cfg.d_head % 8 == 0, cfg.name

        launched: list[tuple[str, str, int, int]] = []
        launch = Timeline.launch

        def recording_launch(tl, cost):
            record = launch(tl, cost)
            launched.append((tl.device.name, cost.name,
                             cost.smem_per_cta_bytes,
                             tl.device.smem_per_sm_bytes))
            return record

        monkeypatch.setattr(Timeline, "launch", recording_launch)
        # One layer of each distinct shape (DistilBERT's is BERT_BASE's).
        shapes = {(c.d_model, c.num_heads, c.d_ff): replace(c, num_layers=1)
                  for c in configs}
        for cfg in shapes.values():
            dense = EncoderWeights.random(cfg, np.random.default_rng(0))
            pruned = deepcopy(dense).prune(PruneMethod.ATTENTION_AWARE, 0.8)
            for device in all_devices():
                engines = (
                    PyTorchLikeEngine(dense, device),
                    TensorRTLikeEngine(dense, device),
                    FasterTransformerLikeEngine(dense, device),
                    ETEngine(dense, device),
                    ETEngine(pruned, device),
                    ETEngine(pruned, device, precompute=True),
                )
                for engine in engines:
                    for s in self.SEQ_LENS:
                        engine.latency_us(s)

        over = [r for r in launched if r[2] > r[3]]
        assert not over, over[:5]
        for device in all_devices():
            kernels = {name for dev, name, _, _ in launched
                       if dev == device.name}
            # Both sides of the crossover ran on this device.
            assert {"otf_attention", "flash_attention"} <= kernels
