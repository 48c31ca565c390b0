"""Set-associative caches and the hierarchy filter.

``TestSetAssocCache`` pins the per-set LRU semantics on the reference
per-access cache (``tests/reference_loops.py``), the oracle both filter
kernels are held to.
"""

import numpy as np
import pytest

from reference_loops import ReferenceSetAssocCache
from repro.core.errors import ConfigError
from repro.gpu.cache import CacheHierarchy, CacheStats
from repro.gpu.config import table1_config


class TestSetAssocCache:
    def _cache(self, size=1024, line=128, assoc=2):
        return ReferenceSetAssocCache(size, line, assoc)

    def test_geometry(self):
        cache = self._cache()
        assert cache.n_sets == 4

    def test_cold_miss_then_hit(self):
        cache = self._cache()
        assert cache.access(0) is False
        assert cache.access(0) is True

    def test_distinct_sets_do_not_conflict(self):
        cache = self._cache()
        cache.access(0)
        cache.access(1)
        assert cache.access(0) and cache.access(1)

    def test_lru_eviction_within_set(self):
        cache = self._cache()  # 2-way, 4 sets
        cache.access(0)        # set 0
        cache.access(4)        # set 0
        cache.access(8)        # set 0: evicts line 0 (LRU)
        assert cache.access(4) is True
        assert cache.access(0) is False

    def test_lru_recency_update(self):
        cache = self._cache()
        cache.access(0)
        cache.access(4)
        cache.access(0)        # 0 becomes MRU
        cache.access(8)        # evicts 4, not 0
        assert cache.access(0) is True
        assert cache.access(4) is False

    def test_stats(self):
        cache = self._cache()
        cache.access(0)
        cache.access(0)
        cache.access(1)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_hit_rate_of_empty_cache(self):
        assert self._cache().stats.hit_rate == 0.0


class TestCacheStats:
    def test_merge(self):
        merged = CacheStats(10, 4).merge(CacheStats(5, 3))
        assert merged.accesses == 15
        assert merged.hits == 7


class TestCacheHierarchy:
    def _hierarchy(self):
        return CacheHierarchy(table1_config().scaled_caches(1 / 8), 12)

    def test_streaming_never_hits(self):
        hierarchy = self._hierarchy()
        stream = np.arange(50_000, dtype=np.int64)
        misses = stream[hierarchy.filter_stream_indices(stream)]
        assert misses.size == stream.size

    def test_hot_line_reuse_hits(self):
        hierarchy = self._hierarchy()
        stream = np.zeros(1000, dtype=np.int64)
        misses = stream[hierarchy.filter_stream_indices(stream)]
        # The line is resident after the first touch... but it bounces
        # between per-SM L1s, so at most one miss per L1 plus one L2
        # cold miss.
        assert misses.size <= 1

    def test_miss_stream_preserves_order(self):
        hierarchy = self._hierarchy()
        stream = np.array([10, 20, 10, 30], dtype=np.int64)
        misses = stream[hierarchy.filter_stream_indices(stream)]
        assert misses.tolist() == sorted(misses.tolist(), key=lambda x: (
            [10, 20, 30].index(x)
        ))

    def test_l1_and_l2_stats_populated(self):
        hierarchy = self._hierarchy()
        stream = np.arange(100, dtype=np.int64)
        misses = stream[hierarchy.filter_stream_indices(stream)]
        assert hierarchy.l1_stats().accesses == 100
        assert hierarchy.l2_stats().accesses > 0
        assert hierarchy.l2_stats().misses == misses.size

    def test_l2_filters_l1_misses(self):
        # Access 1 runs on SM 1: it misses that SM's L1, but the line
        # is in the shared L2 since access 0 (SM 0) filled it.
        stream = np.array([7, 7], dtype=np.int64)
        hierarchy = self._hierarchy()
        assert hierarchy.filter_stream_indices(stream).tolist() == [0]
        assert hierarchy.l2_stats() == CacheStats(accesses=2, hits=1)

    def test_bad_channel_count(self):
        with pytest.raises(ConfigError):
            CacheHierarchy(table1_config(), 0)
