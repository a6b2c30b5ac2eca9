"""Attention-algorithm autotuning: keys, cache, persistence, crossovers."""

import json

import pytest

from repro.gpu.device import A100, V100S, all_devices, device_by_name
from repro.runtime.autotune import (
    ATTENTION_ALGOS,
    AttentionKey,
    TuneCache,
    attention_algo_costs,
    autotune_attention,
    crossover_report,
    estimate_attention_us,
)


def key_at(s: int, device: str = "V100S", d_k: int = 64,
           heads: int = 12) -> AttentionKey:
    return AttentionKey(device, heads, s, d_k, d_k, True)


class TestAttentionKey:
    def test_to_str_round_trips(self):
        key = AttentionKey("A100", 12, 384, 64, 48, False, 4, False)
        assert AttentionKey.from_str(key.to_str()) == key

    def test_to_str_format(self):
        assert key_at(128).to_str() == "V100S/h12/s128/dk64/vw64/mask1/b2/tc1"

    @pytest.mark.parametrize("text", [
        "V100S/h12/s128",                              # too few fields
        "V100S/h12/s128/dk64/vw64/mask1/b2/tcX",       # non-digit value
        "V100S/x12/s128/dk64/vw64/mask1/b2/tc1",       # wrong prefix
    ])
    def test_malformed_keys_raise(self, text):
        with pytest.raises(ValueError):
            AttentionKey.from_str(text)


class TestCandidateCosts:
    def test_every_algo_priced_for_bert_geometry(self):
        costs = attention_algo_costs(key_at(128))
        assert set(costs) == set(ATTENTION_ALGOS)
        assert len(costs["partial_otf"]) == 2  # two-kernel variant

    def test_infeasible_flash_omitted_and_priced_inf(self):
        # effective V far too wide for any tile on V100S's 96 KB.
        key = AttentionKey("V100S", 2, 128, 64, 4000, True)
        assert "flash" not in attention_algo_costs(key)
        assert estimate_attention_us(key, "flash") == float("inf")

    def test_device_resolution_errors_loudly(self):
        with pytest.raises(KeyError):
            device_by_name("H100")
        assert device_by_name("A100") is A100
        assert {d.name for d in all_devices()} == {"V100S", "A100"}


class TestTuneCache:
    def test_hit_after_miss(self):
        cache = TuneCache()
        key = key_at(128)
        assert cache.lookup(key) is None
        cache.insert(key, "otf")
        assert cache.lookup(key) == "otf"
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1,
                                 "evictions": 0}

    def test_lru_eviction_order(self):
        cache = TuneCache(maxsize=2)
        cache.insert(key_at(32), "otf")
        cache.insert(key_at(64), "otf")
        cache.lookup(key_at(32))          # refresh 32 -> 64 is now LRU
        cache.insert(key_at(96), "flash")
        assert cache.lookup(key_at(64)) is None
        assert cache.lookup(key_at(32)) == "otf"
        assert cache.evictions == 1

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            TuneCache().insert(key_at(128), "winograd")

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            TuneCache(maxsize=0)

    def test_save_load_round_trip(self, tmp_path):
        cache = TuneCache()
        cache.insert(key_at(128), "otf")
        cache.insert(key_at(384), "flash")
        cache.insert(key_at(384, device="A100"), "flash")
        path = tmp_path / "tune.json"
        cache.save(path)

        restored = TuneCache()
        assert restored.load(path) == 3
        for key in (key_at(128), key_at(384), key_at(384, device="A100")):
            assert restored.lookup(key) == cache.lookup(key)

    def test_save_is_byte_deterministic(self, tmp_path):
        a, b = TuneCache(), TuneCache()
        # Insert in different orders; the files must still be identical.
        a.insert(key_at(128), "otf")
        a.insert(key_at(384), "flash")
        b.insert(key_at(384), "flash")
        b.insert(key_at(128), "otf")
        a.save(tmp_path / "a.json")
        b.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text(json.dumps({"version": 2, "entries": {}}))
        with pytest.raises(ValueError, match="version"):
            TuneCache().load(path)

    def test_load_rejects_malformed_entry(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text(json.dumps(
            {"version": 1, "entries": {"garbage": "otf"}}))
        with pytest.raises(ValueError):
            TuneCache().load(path)


class TestAutotuneAttention:
    def test_short_picks_otf_long_picks_flash(self):
        cache = TuneCache()
        assert autotune_attention(key_at(64), cache) == "otf"
        assert autotune_attention(key_at(384), cache) == "flash"

    def test_second_call_is_a_cache_hit(self):
        cache = TuneCache()
        first = autotune_attention(key_at(384), cache)
        second = autotune_attention(key_at(384), cache)
        assert first == second == "flash"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_persisted_table_preempts_pricing(self, tmp_path):
        warm = TuneCache()
        autotune_attention(key_at(384), warm)
        path = tmp_path / "tune.json"
        warm.save(path)

        cold = TuneCache()
        cold.load(path)
        assert cold.lookup(key_at(384)) == "flash"  # hit before any pricing

    def test_select_attention_consults_the_cache(self, rng, ctx):
        from repro.attention import select_attention
        from repro.runtime.autotune import TUNE_CACHE

        h, s, dk = 12, 384, 64
        q, k, v = (rng.standard_normal((h, s, dk)) for _ in range(3))
        TUNE_CACHE.clear()
        _, first = select_attention(ctx.fork(), q, k, v)
        hits_before = TUNE_CACHE.stats()["hits"]
        _, second = select_attention(ctx.fork(), q, k, v)
        assert first == second == "flash"
        assert TUNE_CACHE.stats()["hits"] == hits_before + 1


class TestCrossoverReport:
    def test_per_device_winner_tables(self):
        report = crossover_report(12, 64)
        assert set(report) == {"V100S", "A100"}
        for entry in report.values():
            winners = entry["winners"]
            assert winners[min(winners)] == "otf"
            assert winners[max(winners)] == "flash"
        # A100's larger SM count delays the flash takeover slightly.
        assert report["V100S"]["crossover"]["flash"] == 192
        assert report["A100"]["crossover"]["flash"] == 208

    def test_transformer_geometry_never_flash(self):
        report = crossover_report(4, 200, devices=(V100S,))
        assert report["V100S"]["crossover"]["flash"] is None
        assert report["V100S"]["crossover"]["partial_otf"] is not None

    def test_report_warms_a_cache(self):
        cache = TuneCache()
        crossover_report(12, 64, devices=(V100S,), cache=cache)
        assert len(cache) == len(range(32, 513, 16))
        assert cache.lookup(key_at(384)) == "flash"
