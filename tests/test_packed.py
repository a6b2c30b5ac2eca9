"""Batch execution: ``run_batch`` observes exactly what per-member ``run()``
calls do.

The contract under test (DESIGN.md §10): for every engine, ``run_batch``
validates the whole batch before any member runs, then runs the members
concurrently through the same path as ``run(x, mask)``; outputs,
per-request latencies, region breakdowns, choices and kernel records are
bitwise identical to those single runs, the aggregate timeline merges
them under ``request{i}`` in member order, and a failing batch raises its
lowest-index failure once every member has finished. The file keeps its
historical name from when batches had a second, packed execution path.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.config import BERT_BASE, small_config
from repro.ops.epilogue import EPILOGUE_BLOCK_BYTES
from repro.ops.softmax import causal_mask
from repro.pruning import PruneMethod
from repro.runtime import (
    EncoderWeights,
    ETEngine,
    FasterTransformerLikeEngine,
    PyTorchLikeEngine,
    TensorRTLikeEngine,
    mask_fingerprint,
)
from repro.runtime.engine import _member_pool

CFG = small_config(name="packed-t", num_layers=2, d_model=64, num_heads=4,
                   max_seq_len=64)


def _weights(seed: int = 0) -> EncoderWeights:
    return EncoderWeights.random(CFG, np.random.default_rng(seed))


def _pruned(seed: int = 0) -> EncoderWeights:
    w = _weights(seed)
    w.prune(PruneMethod.ATTENTION_AWARE, 0.8, tile=(16, 16))
    return w


#: The six kernel schedules: three baselines, ET's dense, sparse and
#: pre-computed layers.
ENGINE_FACTORIES = {
    "pytorch": lambda: PyTorchLikeEngine(_weights()),
    "tensorrt": lambda: TensorRTLikeEngine(_weights()),
    "fastertransformer": lambda: FasterTransformerLikeEngine(_weights()),
    "et-dense": lambda: ETEngine(_weights()),
    "et-sparse": lambda: ETEngine(_pruned()),
    "et-precompute": lambda: ETEngine(_weights(), precompute=True),
}


@pytest.fixture(params=sorted(ENGINE_FACTORIES), scope="module")
def engine(request):
    return ENGINE_FACTORIES[request.param]()


def _batch(rng, lens, masked=()):
    xs = [rng.standard_normal((s, CFG.d_model)) for s in lens]
    masks = [causal_mask(s) if i in masked else None
             for i, s in enumerate(lens)]
    return xs, masks


def _records(tl):
    return [(r.name, r.tag, r.time_us) for r in tl.records]


def assert_matches_run(engine, xs, masks):
    """``run_batch`` observes exactly what per-member ``run()`` calls do."""
    results, agg = engine.run_batch(xs, masks)
    assert len(results) == len(xs)
    merged = {}
    for i, (x, m, res) in enumerate(zip(xs, masks, results)):
        ref = engine.run(x, m)
        assert np.array_equal(res.output, ref.output)
        assert res.latency_us == ref.latency_us
        assert res.choices == ref.choices
        assert res.timeline.time_by_region() == ref.timeline.time_by_region()
        assert _records(res.timeline) == _records(ref.timeline)
        merged.update({f"request{i}/{k}": v
                       for k, v in ref.timeline.time_by_region().items()})
    assert agg.total_time_us == pytest.approx(
        sum(r.latency_us for r in results), rel=1e-12)
    assert agg.time_by_region() == merged


class TestBitwiseEquivalence:
    def test_uniform_batch(self, engine):
        assert_matches_run(engine, *_batch(np.random.default_rng(1), [32] * 4))

    def test_ragged_lengths(self, engine):
        rng = np.random.default_rng(2)
        assert_matches_run(engine, *_batch(rng, [16, 48, 16, 32, 48, 16]))

    def test_causal_masks(self, engine):
        rng = np.random.default_rng(3)
        assert_matches_run(engine, *_batch(rng, [32] * 4, masked=(0, 2)))

    def test_mixed_masked_and_unmasked_same_length(self, engine):
        rng = np.random.default_rng(4)
        assert_matches_run(engine, *_batch(rng, [24] * 4, masked=(1, 3)))

    def test_batch_of_one(self, engine):
        assert_matches_run(engine, *_batch(np.random.default_rng(5), [40]))

    def test_seq_len_one(self, engine):
        assert_matches_run(engine, *_batch(np.random.default_rng(9), [1] * 3))

    def test_matches_single_request_run(self, engine):
        rng = np.random.default_rng(6)
        assert_matches_run(engine, *_batch(rng, [16, 32, 16], masked=(1,)))


def test_paper_shape_members_match_run():
    """BERT_BASE, attention-aware 80 %, two members of seqLen 320: fc1's
    320×3072 epilogue spans several row blocks and attention runs flash."""
    w = EncoderWeights.random(BERT_BASE, np.random.default_rng(0), 1)
    w.prune(PruneMethod.ATTENTION_AWARE, 0.8)
    eng = ETEngine(w)
    assert 320 * BERT_BASE.d_ff * 8 > 3 * EPILOGUE_BLOCK_BYTES
    rng = np.random.default_rng(11)
    xs = [rng.standard_normal((320, BERT_BASE.d_model)) for _ in range(2)]
    assert_matches_run(eng, xs, [None, None])
    assert eng.run(xs[0]).choices["layer0.attention"] == "flash"


class TestDispatch:
    def test_request_order_preserved_across_groups(self, engine):
        """Members of different lengths come back, and merge into the
        aggregate as ``request{i}/layer*``, in the order they were given."""
        lens = [48, 16, 32, 16, 48]
        xs, masks = _batch(np.random.default_rng(8), lens)
        results, agg = engine.run_batch(xs, masks)
        assert [r.output.shape for r in results] == \
            [(s, CFG.d_model) for s in lens]
        order = []
        for region in agg.time_by_region():
            req, layer = region.split("/")[:2]
            assert layer.startswith("layer")
            if not order or order[-1] != req:
                order.append(req)
        assert order == [f"request{i}" for i in range(len(lens))]

    def test_one_run_per_member_on_own_input(self, engine, monkeypatch):
        seen = []
        run_prepared = engine._run_prepared

        def spy(x, mask):
            seen.append(x)
            return run_prepared(x, mask)

        monkeypatch.setattr(engine, "_run_prepared", spy)
        xs, masks = _batch(np.random.default_rng(13), [40, 40, 24, 24, 24])
        engine.run_batch(xs, masks)
        assert len(seen) == len(xs)
        assert all(a is b for a, b in zip(seen, xs))

    def test_zeros_input_records_equal_real_input(self, engine):
        """``obs.build_trace`` takes each length's kernel records and
        choices from a zeros-input run; a real input must launch the same."""
        x, m = _batch(np.random.default_rng(11), [40], masked=(0,))
        real = engine.run(x[0], m[0])
        probe = engine.run(np.zeros_like(x[0]), np.zeros_like(m[0]))
        assert real.timeline.records == probe.timeline.records
        assert real.choices == probe.choices
        assert real.latency_us == probe.latency_us

    def test_shape_error_names_batch_item(self, engine):
        xs = [np.zeros((16, CFG.d_model)), np.zeros((16, 3))]
        with pytest.raises(ValueError, match="batch item 1"):
            engine.run_batch(xs)

    def test_mask_count_mismatch(self, engine):
        xs = [np.zeros((16, CFG.d_model))] * 2
        with pytest.raises(ValueError, match="2 inputs but 1 masks"):
            engine.run_batch(xs, [None])

    def test_bad_mask_fails_before_any_member_runs(self, engine,
                                                   monkeypatch):
        ran = []
        monkeypatch.setattr(engine, "_run_prepared",
                            lambda x, mask: ran.append(x))
        xs = [np.zeros((16, CFG.d_model)), np.zeros((32, CFG.d_model))]
        with pytest.raises(ValueError, match="batch item 1: mask"):
            engine.run_batch(xs, [None, causal_mask(16)])
        assert ran == []

    @pytest.mark.parametrize("shape", ["s", "s,s", "1,s,s"])
    def test_broadcastable_mask_shapes_accepted(self, engine, shape):
        s = 16
        mask = causal_mask(s)
        mask = {"s": mask[0], "s,s": mask, "1,s,s": mask[None]}[shape]
        xs, _ = _batch(np.random.default_rng(10), [s, s])
        assert_matches_run(engine, xs, [mask, None])


#: Members overlap only when the member pool (one thread per CPU) has two.
two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="the member pool has one thread per CPU")


class TestConcurrentMembers:
    @two_cpus
    def test_two_members_in_flight_at_once(self, engine, monkeypatch):
        # Each member waits at the barrier until the other one arrives:
        # the batch finishes only if both run at the same time.
        barrier = threading.Barrier(2, timeout=10)
        run_prepared = engine._run_prepared

        def spy(x, mask):
            barrier.wait()
            return run_prepared(x, mask)

        monkeypatch.setattr(engine, "_run_prepared", spy)
        xs, masks = _batch(np.random.default_rng(14), [32, 16], masked=(1,))
        results, _ = engine.run_batch(xs, masks)
        for x, m, res in zip(xs, masks, results):
            assert np.array_equal(res.output, run_prepared(x, m).output)

    def test_repeated_ragged_masked_batches_are_bitwise_stable(self, engine):
        xs, masks = _batch(np.random.default_rng(15), [48, 16, 32, 16],
                           masked=(1, 2))
        refs = [engine.run(x, m) for x, m in zip(xs, masks)]
        for _ in range(20):
            results, agg = engine.run_batch(xs, masks)
            for res, ref in zip(results, refs):
                assert np.array_equal(res.output, ref.output)
                assert _records(res.timeline) == _records(ref.timeline)
                assert res.timeline.time_by_region() == \
                    ref.timeline.time_by_region()
            assert agg.time_by_region() == {
                f"request{i}/{k}": v
                for i, ref in enumerate(refs)
                for k, v in ref.timeline.time_by_region().items()}

    @two_cpus
    def test_lowest_index_failure_raised_after_every_member(
            self, engine, monkeypatch):
        """Member 1 fails first in time, member 0 later, and member 2 ends
        last: the batch raises member 0's error, once all four are done."""
        xs, masks = _batch(np.random.default_rng(16), [16] * 4)
        run_prepared = engine._run_prepared
        done = []

        def spy(x, mask):
            i = next(k for k, xk in enumerate(xs) if xk is x)
            try:
                if i == 0:
                    time.sleep(0.1)
                    raise RuntimeError("member 0")
                if i == 1:
                    raise RuntimeError("member 1")
                if i == 2:
                    time.sleep(0.5)
                return run_prepared(x, mask)
            finally:
                done.append(i)

        monkeypatch.setattr(engine, "_run_prepared", spy)
        with pytest.raises(RuntimeError, match="member 0"):
            engine.run_batch(xs, masks)
        assert sorted(done) == [0, 1, 2, 3]
        assert done[0] == 1 and done[-1] == 2

    @two_cpus
    def test_run_batch_on_a_member_thread_runs_inline(self, engine,
                                                      monkeypatch):
        """A ``run_batch`` reached from a member-pool thread runs its
        members on that thread: handing them to other pool threads would
        deadlock once every pool thread waits the same way."""
        run_prepared = engine._run_prepared
        ran_on = []

        def spy(x, mask):
            ran_on.append(threading.current_thread())
            return run_prepared(x, mask)

        monkeypatch.setattr(engine, "_run_prepared", spy)
        xs, masks = _batch(np.random.default_rng(17), [16, 24], masked=(0,))

        def member():
            return threading.current_thread(), engine.run_batch(xs, masks)

        thread, (results, _) = _member_pool().submit(member).result(60)
        assert ran_on == [thread, thread]
        for x, m, res in zip(xs, masks, results):
            assert np.array_equal(res.output, run_prepared(x, m).output)


class TestLatencyMemoization:
    def test_memoized_by_seed_and_mask(self):
        eng = ETEngine(_weights())
        l1 = eng.latency_us(seq_len=16, seed=0)
        l2 = eng.latency_us(seq_len=16, seed=0)
        assert l1 == l2
        assert len(eng._latency_cache) == 1
        eng.latency_us(seq_len=16, seed=1)
        eng.latency_us(seq_len=16, mask=causal_mask(16), seed=0)
        eng.latency_us(seq_len=32, seed=0)
        assert len(eng._latency_cache) == 4

    def test_memoized_value_matches_uncached_run(self):
        eng = ETEngine(_weights())
        cached = eng.latency_us(seq_len=24, seed=3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((24, CFG.d_model))
        assert cached == eng.run(x).latency_us

    def test_clear_caches_resets(self):
        eng = ETEngine(_weights())
        eng.latency_us(seq_len=16, seed=0)
        assert eng._latency_cache
        eng.clear_caches()
        assert not eng._latency_cache


class TestFingerprints:
    def test_mask_fingerprint_none(self):
        assert mask_fingerprint(None) is None

    def test_mask_fingerprint_distinguishes_values(self):
        m = causal_mask(16)
        m2 = m.copy()
        m2[0, 1] = 0.0
        assert mask_fingerprint(m) == mask_fingerprint(m.copy())
        assert mask_fingerprint(m) != mask_fingerprint(m2)
