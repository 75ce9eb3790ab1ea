"""Live-update cache coherence: invalidation / write-through per cache class.

Regression tests for the stale-hit gap the update path closes: before
``invalidate`` / ``update_rows`` existed, a row overwritten by a live
update stayed resident in the materialized caches and the *batch* probe
paths (``probe_filter`` / ``lookup_many`` / ``probe_many``) kept serving
the stale vector.  Each cache class gets its own regression: overwrite a
cached row, and every probe path must stop returning the old value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.embcache import DirectMappedEmbeddingCache
from repro.embedding.caches import SetAssociativeLru, StaticPartitionCache

from ..reference.caches import ScalarSetAssociativeLru, ScalarStaticPartitionCache


def _vec(seed: int, dim: int = 8) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=dim).astype(np.float32)


# ----------------------------------------------------------------------
# SetAssociativeLru (array) + scalar reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [SetAssociativeLru, ScalarSetAssociativeLru])
class TestLruInvalidate:
    def test_invalidate_drops_resident_key(self, cls):
        cache = cls(64, ways=4)
        cache.insert(7, _vec(1))
        assert cache.invalidate(7) is True
        assert cache.lookup(7) is None
        assert cache.invalidations == 1
        assert cache.occupancy == 0

    def test_invalidate_absent_key_is_noop(self, cls):
        cache = cls(64, ways=4)
        cache.insert(7, _vec(1))
        assert cache.invalidate(8) is False
        assert cache.invalidations == 0
        assert cache.occupancy == 1

    def test_invalidate_many_counts_resident_only(self, cls):
        cache = cls(64, ways=4)
        for key in (3, 5, 9):
            cache.insert(key, _vec(key))
        keys = np.asarray([3, 4, 5, 9, 11], dtype=np.int64)
        assert cache.invalidate_many(keys) == 3
        assert cache.invalidations == 3
        assert cache.occupancy == 0
        for key in (3, 5, 9):
            assert cache.lookup(key) is None

    def test_reinsert_after_invalidate_serves_new_value(self, cls):
        cache = cls(64, ways=4)
        cache.insert(7, _vec(1))
        cache.invalidate(7)
        new = _vec(2)
        cache.insert(7, new)
        got = cache.lookup(7)
        assert got is not None and np.array_equal(got, new)

    def test_capacity_zero(self, cls):
        cache = cls(0)
        assert cache.invalidate(1) is False
        assert cache.invalidate_many(np.asarray([1, 2])) == 0

    def test_reset_stats_clears_invalidations(self, cls):
        cache = cls(64, ways=4)
        cache.insert(1, _vec(1))
        cache.invalidate(1)
        cache.reset_stats()
        assert cache.invalidations == 0


class TestLruBatchPathsAfterInvalidate:
    """The batch probes must not resurrect an invalidated key (array cache)."""

    def _filled(self) -> SetAssociativeLru:
        cache = SetAssociativeLru(64, ways=4)
        for key in range(8):
            cache.insert(key, _vec(key))
        return cache

    def test_lookup_many_misses_invalidated_key(self):
        cache = self._filled()
        cache.invalidate(3)
        keys = np.arange(8, dtype=np.int64)
        hit_mask, vectors = cache.lookup_many(keys)
        assert not hit_mask[3]
        assert hit_mask.sum() == 7
        assert vectors.shape[0] == 7

    def test_probe_filter_misses_invalidated_key(self):
        cache = self._filled()
        cache.invalidate(3)
        keys = np.asarray([3, 3, 5], dtype=np.int64)
        hit_mask, _vectors = cache.probe_filter(keys)
        assert not hit_mask[0] and not hit_mask[1] and hit_mask[2]

    def test_insert_many_after_invalidate_serves_new_values(self):
        cache = self._filled()
        stale = cache.lookup(2).copy()
        cache.invalidate_many(np.asarray([2, 6]))
        fresh = np.stack([_vec(100), _vec(101)])
        cache.insert_many(np.asarray([2, 6, 2, 6], dtype=np.int64),
                          np.stack([_vec(99), _vec(99), fresh[0], fresh[1]]))
        _mask, vectors = cache.lookup_many(np.asarray([2, 6], dtype=np.int64))
        assert np.array_equal(vectors[0], fresh[0])
        assert np.array_equal(vectors[1], fresh[1])
        assert not np.array_equal(vectors[0], stale)

    def test_freed_way_is_reallocated(self):
        # One set, full ways: invalidate must free the way for the next
        # insert instead of forcing an LRU eviction.
        cache = SetAssociativeLru(4, ways=4)
        for key in range(4):
            cache.insert(key, _vec(key))
        cache.invalidate(1)
        cache.insert(9, _vec(9))
        assert cache.evictions == 0
        assert cache.occupancy == 4


# ----------------------------------------------------------------------
# StaticPartitionCache (array) + scalar reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [StaticPartitionCache, ScalarStaticPartitionCache])
class TestPartitionWriteThrough:
    def _cache(self, cls):
        rows = np.asarray([2, 5, 11, 17], dtype=np.int64)
        vectors = np.stack([_vec(r) for r in rows.tolist()])
        return cls(rows, vectors), rows

    def test_update_member_rows(self, cls):
        cache, rows = self._cache(cls)
        new = np.stack([_vec(100), _vec(101)])
        written = cache.update_rows(np.asarray([5, 17], dtype=np.int64), new)
        assert written == 2
        assert cache.updates == 2
        got = cache.vectors_for(np.asarray([5, 17], dtype=np.int64))
        assert np.array_equal(got, new)

    def test_non_member_rows_ignored(self, cls):
        cache, rows = self._cache(cls)
        before = cache.vectors_for(rows).copy()
        written = cache.update_rows(
            np.asarray([3, 4], dtype=np.int64), np.stack([_vec(1), _vec(2)])
        )
        assert written == 0
        assert cache.updates == 0
        assert np.array_equal(cache.vectors_for(rows), before)

    def test_membership_is_static(self, cls):
        cache, _rows = self._cache(cls)
        cache.update_rows(np.asarray([3], dtype=np.int64), _vec(1)[None])
        mask = cache.partition_mask(np.asarray([3], dtype=np.int64))
        assert not mask[0]
        assert cache.size == 4

    def test_duplicate_rows_last_write_wins(self, cls):
        cache, _rows = self._cache(cls)
        first, last = _vec(200), _vec(201)
        written = cache.update_rows(
            np.asarray([5, 5], dtype=np.int64), np.stack([first, last])
        )
        assert written == 2  # element-order semantics: both writes land
        got = cache.vectors_for(np.asarray([5], dtype=np.int64))[0]
        assert np.array_equal(got, last)

    def test_length_mismatch_raises(self, cls):
        cache, _rows = self._cache(cls)
        with pytest.raises(ValueError):
            cache.update_rows(np.asarray([5], dtype=np.int64), np.zeros((2, 8), np.float32))

    def test_reset_stats_clears_updates(self, cls):
        cache, _rows = self._cache(cls)
        cache.update_rows(np.asarray([5], dtype=np.int64), _vec(1)[None])
        cache.reset_stats()
        assert cache.updates == 0


# ----------------------------------------------------------------------
# DirectMappedEmbeddingCache (device-side)
# ----------------------------------------------------------------------
class TestDirectMappedInvalidate:
    def test_invalidate_drops_resident_row(self):
        cache = DirectMappedEmbeddingCache(256)
        cache.insert(1, 42, _vec(1))
        assert cache.invalidate(1, 42) is True
        assert cache.lookup(1, 42) is None
        assert cache.invalidations == 1
        assert cache.occupancy == 0

    def test_invalidate_wrong_table_or_row_is_noop(self):
        cache = DirectMappedEmbeddingCache(256)
        cache.insert(1, 42, _vec(1))
        assert cache.invalidate(2, 42) is False
        assert cache.invalidate(1, 43) is False
        assert cache.occupancy == 1
        assert cache.invalidations == 0

    def test_probe_many_misses_after_invalidate_many(self):
        cache = DirectMappedEmbeddingCache(4096)
        rows = np.arange(16, dtype=np.int64)
        cache.insert_many(3, rows, np.stack([_vec(int(r)) for r in rows]))
        stale = cache.lookup(3, 5).copy()
        dropped = cache.invalidate_many(3, np.asarray([5, 9, 5, 200], dtype=np.int64))
        assert dropped == 2  # duplicates and absent rows don't double count
        assert cache.invalidations == 2
        hit_mask, _vectors = cache.probe_many(3, rows)
        assert not hit_mask[5] and not hit_mask[9]
        assert hit_mask.sum() == 14
        # Reinstall through the page path: the fresh value is served.
        fresh = _vec(777)
        cache.insert_many(3, np.asarray([5], dtype=np.int64), fresh[None])
        got = cache.lookup(3, 5)
        assert np.array_equal(got, fresh) and not np.array_equal(got, stale)

    def test_invalidate_many_respects_table_key(self):
        cache = DirectMappedEmbeddingCache(4096)
        cache.insert(1, 10, _vec(1))
        cache.insert(2, 20, _vec(2))
        assert cache.invalidate_many(1, np.asarray([10, 20], dtype=np.int64)) == 1
        assert cache.lookup(2, 20) is not None

    def test_occupancy_tracks_invalidations(self):
        cache = DirectMappedEmbeddingCache(4096)
        rows = np.arange(8, dtype=np.int64)
        cache.insert_many(1, rows, np.stack([_vec(int(r)) for r in rows]))
        occupied = cache.occupancy
        cache.invalidate_many(1, rows)
        assert cache.occupancy == 0
        assert cache.invalidations == occupied

    def test_zero_slots_and_empty(self):
        cache = DirectMappedEmbeddingCache(0)
        assert cache.invalidate(1, 2) is False
        assert cache.invalidate_many(1, np.asarray([1, 2])) == 0
        cache2 = DirectMappedEmbeddingCache(64)
        assert cache2.invalidate_many(1, np.asarray([], dtype=np.int64)) == 0

    def test_reset_and_clear_cover_invalidations(self):
        cache = DirectMappedEmbeddingCache(64)
        cache.insert(1, 2, _vec(1))
        cache.invalidate(1, 2)
        cache.reset_stats()
        assert cache.invalidations == 0
        cache.insert(1, 2, _vec(1))
        cache.invalidate(1, 2)
        cache.clear()
        assert cache.invalidations == 0 and cache.occupancy == 0
