"""Tests for the content-memo layer feeding the hot-path rebuild.

Covers the bounded LRU itself and the content-keyed wrappers around
parsing, feature extraction, and pair diffing (shared-value semantics,
digest stamping, failure handling).
"""

from __future__ import annotations

import pytest

from repro.confparse.diff import DIFF_MEMO, diff_configs, diff_configs_cached
from repro.confparse.registry import PARSE_MEMO, config_digest, parse_config
from repro.errors import ConfigParseError
from repro.metrics.design import FEATURE_MEMO, extract_device_features
from repro.util.memo import ContentMemo

IOS_TEXT = """\
hostname lab1
interface TenGig0/1
 ip address 10.0.0.1 255.255.255.0
"""

IOS_TEXT_B = """\
hostname lab1
interface TenGig0/1
 ip address 10.0.0.2 255.255.255.0
"""


@pytest.fixture(autouse=True)
def clean_memos():
    for memo in (PARSE_MEMO, FEATURE_MEMO, DIFF_MEMO):
        memo.clear()
    yield
    for memo in (PARSE_MEMO, FEATURE_MEMO, DIFF_MEMO):
        memo.clear()


class TestContentMemo:
    def test_lru_eviction_order(self):
        memo = ContentMemo("t", capacity=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refresh "a"
        memo.put("c", 3)  # evicts "b", the least recently used
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3

    def test_hit_miss_counters(self):
        memo = ContentMemo("t", capacity=4)
        assert memo.get("x") is None
        memo.put("x", 42)
        assert memo.get("x") == 42
        assert memo.stats() == (1, 1)

    def test_zero_capacity_disables(self):
        memo = ContentMemo("t", capacity=0)
        assert not memo.enabled
        memo.put("x", 1)
        assert len(memo) == 0

    def test_clear_keeps_pinned_capacity(self):
        """clear() drops entries and counters; the constructor's
        capacity survives it."""
        memo = ContentMemo("t", capacity=2)
        memo.put("a", 1)
        assert memo.get("a") == 1
        memo.clear()
        assert len(memo) == 0 and memo.stats() == (0, 0)
        assert memo.capacity == 2

class TestParseMemo:
    def test_repeat_parse_shares_object(self):
        first = parse_config(IOS_TEXT, "ios")
        second = parse_config(IOS_TEXT, "ios")
        assert second is first
        assert first.content_digest == config_digest(IOS_TEXT, "ios")

    def test_different_dialect_different_entry(self):
        assert (config_digest(IOS_TEXT, "ios")
                != config_digest(IOS_TEXT, "eos"))

    def test_failures_not_cached(self):
        bad = "hostname x\ninterfaces {\n"  # junos text fed to junos
        with pytest.raises(ConfigParseError):
            parse_config(bad, "junos")
        with pytest.raises(ConfigParseError):
            parse_config(bad, "junos")
        assert PARSE_MEMO.stats()[0] == 0  # no hits: nothing was cached


class TestFeatureAndDiffMemos:
    def test_feature_extraction_memoized_by_digest(self):
        config = parse_config(IOS_TEXT, "ios")
        first = extract_device_features(config)
        second = extract_device_features(config)
        assert second is first
        assert FEATURE_MEMO.stats() == (1, 1)

    def test_diff_cached_matches_uncached(self):
        before = parse_config(IOS_TEXT, "ios")
        after = parse_config(IOS_TEXT_B, "ios")
        plain = diff_configs(before, after)
        cached = diff_configs_cached(before, after)
        again = diff_configs_cached(before, after)
        assert cached == plain
        assert again is cached  # served from the memo
        assert DIFF_MEMO.stats() == (1, 1)

    def test_diff_without_digest_falls_back(self):
        from repro.confparse.stanza import DeviceConfig
        # constructed directly (not via parse_config): no content digest
        before = DeviceConfig("lab1", "ios",
                              list(parse_config(IOS_TEXT, "ios")))
        after = parse_config(IOS_TEXT_B, "ios")
        assert diff_configs_cached(before, after) == diff_configs(before,
                                                                  after)
        assert DIFF_MEMO.stats() == (0, 0)  # memo never consulted

    def test_diff_persistent_store_round_trip(self):
        class DictStore:
            def __init__(self):
                self.data = {}
                self.loads = 0

            def load(self, key):
                self.loads += 1
                return self.data.get(key)

            def store(self, key, value):
                self.data[key] = value

        before = parse_config(IOS_TEXT, "ios")
        after = parse_config(IOS_TEXT_B, "ios")
        store = DictStore()
        first = diff_configs_cached(before, after, store=store)
        assert len(store.data) == 1  # pair diff persisted
        DIFF_MEMO.clear()  # simulate a new process sharing the store
        second = diff_configs_cached(before, after, store=store)
        assert second == first
        assert store.loads == 2  # miss then hit
