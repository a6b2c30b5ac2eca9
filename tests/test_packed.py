"""Packed batch execution: bitwise equivalence with the serial path.

The contract under test (DESIGN.md §10): for every engine with a packed
layer schedule, ``run_packed`` produces outputs, per-request latencies,
region breakdowns, choices, and aggregate timelines that are *bitwise*
identical to running each request through ``run(x, mask)`` — the packed
path only changes how the host executes the numerics, never what the
cost model or the math observes.
"""

import numpy as np
import pytest

from repro.config import BERT_BASE, small_config
from repro.ops.softmax import causal_mask
from repro.pruning import PruneMethod
from repro.runtime import (
    PLAN_CACHE,
    EncoderWeights,
    ETEngine,
    FasterTransformerLikeEngine,
    PlanCache,
    PyTorchLikeEngine,
    TensorRTLikeEngine,
    get_plan,
    mask_fingerprint,
)

CFG = small_config(name="packed-t", num_layers=2, d_model=64, num_heads=4,
                   max_seq_len=64)


def _weights(seed: int = 0) -> EncoderWeights:
    return EncoderWeights.random(CFG, np.random.default_rng(seed))


def _pruned(seed: int = 0) -> EncoderWeights:
    w = _weights(seed)
    w.prune(PruneMethod.ATTENTION_AWARE, 0.8, tile=(16, 16))
    return w


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


def assert_identical(engine, xs, masks):
    """Packed vs serial: everything the caller can observe is bitwise equal."""
    serial, agg_s = engine.run_batch(xs, masks, packed=False)
    packed, agg_p = engine.run_batch(xs, masks, packed=True)
    assert len(serial) == len(packed) == len(xs)
    for rs, rp in zip(serial, packed):
        assert np.array_equal(rs.output, rp.output)
        assert rs.latency_us == rp.latency_us
        assert rs.choices == rp.choices
        assert rs.timeline.time_by_region() == rp.timeline.time_by_region()
        assert [(r.name, r.tag, r.time_us) for r in rs.timeline.records] == \
            [(r.name, r.tag, r.time_us) for r in rp.timeline.records]
    assert agg_s.total_time_us == agg_p.total_time_us
    assert agg_s.time_by_region() == agg_p.time_by_region()
    assert len(agg_s) == len(agg_p)


class TestBitwiseEquivalence:
    def test_uniform_batch(self, engine):
        rng = np.random.default_rng(1)
        assert_identical(engine, *_batch(rng, [32] * 4))

    def test_ragged_lengths(self, engine):
        rng = np.random.default_rng(2)
        assert_identical(engine, *_batch(rng, [16, 48, 16, 32, 48, 16]))

    def test_causal_masks(self, engine):
        rng = np.random.default_rng(3)
        assert_identical(engine, *_batch(rng, [32] * 4, masked=(0, 2)))

    def test_mixed_masked_and_unmasked_same_length(self, engine):
        # same seq_len but different mask presence must land in
        # different plan groups, not share one
        rng = np.random.default_rng(4)
        assert_identical(engine, *_batch(rng, [24, 24, 24, 24],
                                         masked=(1, 3)))

    def test_batch_of_one(self, engine):
        rng = np.random.default_rng(5)
        assert_identical(engine, *_batch(rng, [40]))

    def test_seq_len_one(self, engine):
        # a one-row product goes to gemv serially but to gemm once stacked
        rng = np.random.default_rng(9)
        assert_identical(engine, *_batch(rng, [1, 1, 1]))

    def test_matches_single_request_run(self, engine):
        """run_packed vs the plain per-request run() API, not just serial
        run_batch — the strongest form of the contract."""
        rng = np.random.default_rng(6)
        xs, masks = _batch(rng, [16, 32, 16], masked=(1,))
        packed, _ = engine.run_batch(xs, masks, packed=True)
        for x, m, rp in zip(xs, masks, packed):
            rs = engine.run(x, m)
            assert np.array_equal(rs.output, rp.output)
            assert rs.latency_us == rp.latency_us
            assert rs.timeline.time_by_region() == \
                rp.timeline.time_by_region()


class TestPaperShape:
    """One BERT_BASE layer at 80% pruning: the tile GEMMs' tile-rows span
    several slabs (fc2 holds ~38 tiles a row), which the d_model-64 engines
    above never reach."""

    @pytest.fixture(scope="class")
    def bert_engine(self):
        w = EncoderWeights.random(BERT_BASE, np.random.default_rng(0), 1)
        w.prune(PruneMethod.ATTENTION_AWARE, 0.8, tile=(16, 16))
        return ETEngine(w)

    @pytest.mark.parametrize("lens", [[128, 128], [32, 320, 32]])
    def test_packed_equals_serial(self, bert_engine, lens):
        rng = np.random.default_rng(sum(lens))
        xs = [rng.standard_normal((s, BERT_BASE.d_model)) for s in lens]
        assert_identical(bert_engine, xs, [None] * len(lens))


class TestDispatch:
    def test_supports_packed(self, engine):
        assert engine.supports_packed

    def test_auto_dispatch_equals_explicit(self, engine):
        rng = np.random.default_rng(7)
        xs, masks = _batch(rng, [16, 16, 32])
        auto, agg_auto = engine.run_batch(xs, masks)
        explicit, agg_exp = engine.run_batch(xs, masks, packed=True)
        for ra, re in zip(auto, explicit):
            assert np.array_equal(ra.output, re.output)
            assert ra.latency_us == re.latency_us
        assert agg_auto.total_time_us == agg_exp.total_time_us

    def test_request_order_preserved_across_groups(self, engine):
        rng = np.random.default_rng(8)
        lens = [48, 16, 32, 16, 48]
        xs, masks = _batch(rng, lens)
        results, agg = engine.run_batch(xs, masks, packed=True)
        for i, (s, res) in enumerate(zip(lens, results)):
            assert res.output.shape == (s, CFG.d_model)
        regions = list(agg.time_by_region())
        # merge prefixes appear in original request order
        order = []
        for r in regions:
            req = r.split("/")[0]
            if not order or order[-1] != req:
                order.append(req)
        assert order == [f"request{i}" for i in range(len(lens))]

    def test_shape_error_names_batch_item(self, engine):
        xs = [np.zeros((16, CFG.d_model)), np.zeros((16, 3))]
        with pytest.raises(ValueError, match="batch item 1"):
            engine.run_batch(xs, packed=True)

    def test_mask_count_mismatch(self, engine):
        xs = [np.zeros((16, CFG.d_model))] * 2
        with pytest.raises(ValueError, match="2 inputs but 1 masks"):
            engine.run_batch(xs, [None])


class TestPlanCache:
    def test_hits_after_first_compile(self):
        eng = ETEngine(_pruned())
        cache = PlanCache(maxsize=8)
        p1 = get_plan(eng, 16, None, cache=cache)
        p2 = get_plan(eng, 16, None, cache=cache)
        assert p1 is p2
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1,
                                 "evictions": 0}

    def test_distinct_keys_per_mask_shape(self):
        eng = ETEngine(_weights())
        cache = PlanCache(maxsize=8)
        get_plan(eng, 16, None, cache=cache)
        get_plan(eng, 16, (16, 16), cache=cache)
        get_plan(eng, 32, None, cache=cache)
        assert cache.stats()["size"] == 3
        assert cache.stats()["misses"] == 3

    def test_lru_eviction(self):
        eng = ETEngine(_weights())
        cache = PlanCache(maxsize=2)
        get_plan(eng, 16, None, cache=cache)
        get_plan(eng, 32, None, cache=cache)
        get_plan(eng, 16, None, cache=cache)  # refresh 16 → 32 is LRU
        get_plan(eng, 48, None, cache=cache)  # evicts 32
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["size"] == 2
        misses = cache.stats()["misses"]
        get_plan(eng, 16, None, cache=cache)  # still cached
        assert cache.stats()["misses"] == misses
        get_plan(eng, 32, None, cache=cache)  # was evicted → recompile
        assert cache.stats()["misses"] == misses + 1

    def test_weight_mutation_changes_fingerprint(self):
        w = _weights()
        eng = ETEngine(w)
        fp1 = eng.plan_fingerprint()
        eng.weights.layers[0].wq[0, 0] += 1.0
        eng.clear_caches()
        eng._compile()
        assert eng.plan_fingerprint() != fp1

    def test_run_packed_populates_shared_cache(self):
        PLAN_CACHE.clear()
        eng = ETEngine(_weights())
        rng = np.random.default_rng(9)
        xs, masks = _batch(rng, [16, 16, 32])
        eng.run_batch(xs, masks, packed=True)
        before = PLAN_CACHE.stats()
        assert before["misses"] >= 2  # two groups compiled
        eng.run_batch(xs, masks, packed=True)
        after = PLAN_CACHE.stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]


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

    def test_engine_variants_do_not_share_plans(self):
        w = _weights()
        dense = ETEngine(w)
        pre = ETEngine(w, precompute=True)
        assert dense.plan_fingerprint() != pre.plan_fingerprint()
