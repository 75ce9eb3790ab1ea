"""Write/invalidate hot path: vectorized vs scalar reference, randomized.

The live-update commit path is all batch array code — sorted-overlay
``UpdatableTableData.apply``/``get_rows``, ``invalidate_many`` on the
host LRU and device direct-mapped caches, ``update_rows`` write-through
on the NDP partition cache.  Each batch operation must be
indistinguishable — in returned values, hit/miss/invalidation stats,
final contents and LRU recency order — from the equivalent sequence of
scalar operations on the per-row reference implementations
(``tests/reference/caches.py``, ``ScalarUpdatableTableData`` from
``tests/reference/data.py``, and plain per-key ``invalidate`` loops).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.embcache import DirectMappedEmbeddingCache
from repro.embedding.caches import SetAssociativeLru, StaticPartitionCache
from repro.embedding.data import DenseTableData, UpdatableTableData

from ..reference.caches import ScalarSetAssociativeLru, ScalarStaticPartitionCache
from ..reference.data import ScalarUpdatableTableData


def vec(x, dim=4):
    return np.full(dim, float(x), dtype=np.float32)


def assert_lru_state_equal(ref: ScalarSetAssociativeLru, arr: SetAssociativeLru):
    assert ref.hits == arr.hits
    assert ref.misses == arr.misses
    assert ref.evictions == arr.evictions
    assert ref.invalidations == arr.invalidations
    assert ref.occupancy == arr.occupancy
    ref_contents = ref.contents()
    arr_contents = arr.contents()
    assert sorted(ref_contents) == sorted(arr_contents)
    for key in ref_contents:
        assert np.array_equal(ref_contents[key], arr_contents[key]), key
    assert ref.recency_order() == arr.recency_order()


class TestLruInvalidateEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("capacity,ways", [(64, 16), (32, 4), (8, 8), (16, 1)])
    def test_random_mixed_ops(self, seed, capacity, ways):
        """insert / lookup / invalidate / invalidate_many interleaved."""
        rng = np.random.default_rng(seed)
        ref = ScalarSetAssociativeLru(capacity, ways=ways)
        arr = SetAssociativeLru(capacity, ways=ways)
        for _ in range(300):
            roll = rng.random()
            if roll < 0.35:
                key = int(rng.integers(0, 96))
                value = vec(key)
                ref.insert(key, value)
                arr.insert(key, value)
            elif roll < 0.6:
                key = int(rng.integers(0, 96))
                got_ref = ref.lookup(key)
                got_arr = arr.lookup(key)
                assert (got_ref is None) == (got_arr is None)
            elif roll < 0.8:
                key = int(rng.integers(0, 96))
                assert ref.invalidate(key) == arr.invalidate(key)
            else:
                keys = rng.integers(0, 96, size=int(rng.integers(0, 12)))
                assert ref.invalidate_many(keys) == arr.invalidate_many(keys)
        assert_lru_state_equal(ref, arr)

    @pytest.mark.parametrize("seed", range(4))
    def test_invalidate_many_matches_scalar_loop(self, seed):
        """Vector invalidate_many == sequential invalidate, dupes included."""
        rng = np.random.default_rng(10 + seed)
        ref = ScalarSetAssociativeLru(48, ways=8)
        arr = SetAssociativeLru(48, ways=8)
        for key in rng.integers(0, 80, size=60).tolist():
            ref.insert(key, vec(key))
            arr.insert(key, vec(key))
        for _ in range(10):
            keys = rng.integers(0, 80, size=int(rng.integers(1, 24)))
            dropped_ref = sum(ref.invalidate(int(k)) for k in keys.tolist())
            dropped_arr = arr.invalidate_many(keys)
            assert dropped_ref == dropped_arr
            refill = rng.integers(0, 80, size=8)
            for k in refill.tolist():
                ref.insert(k, vec(k))
                arr.insert(k, vec(k))
        assert_lru_state_equal(ref, arr)


class TestPartitionUpdateEquivalence:
    def _pair(self, rng, members=48, universe=96, dim=4):
        rows = np.sort(rng.choice(universe, size=members, replace=False)).astype(np.int64)
        vectors = np.stack([vec(int(r), dim) for r in rows])
        return (
            ScalarStaticPartitionCache(rows, vectors.copy()),
            StaticPartitionCache(rows, vectors.copy()),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_update_probe_ops(self, seed):
        rng = np.random.default_rng(seed)
        ref, arr = self._pair(rng)
        for _ in range(60):
            keys = rng.integers(0, 96, size=int(rng.integers(1, 16)))
            if rng.random() < 0.5:
                values = np.stack(
                    [vec(int(k) * 100 + i) for i, k in enumerate(keys)]
                )
                assert ref.update_rows(keys, values) == arr.update_rows(keys, values)
            else:
                assert np.array_equal(
                    ref.partition_mask(keys), arr.partition_mask(keys)
                )
        assert ref.hits == arr.hits
        assert ref.misses == arr.misses
        assert ref.updates == arr.updates
        member_rows = np.sort(np.asarray(sorted(set(range(96)))))
        mask = ref.partition_mask(member_rows)
        members = member_rows[mask]
        assert np.array_equal(ref.vectors_for(members), arr.vectors_for(members))


class TestDirectMappedInvalidateEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("slots", [4096, 64])
    def test_invalidate_many_matches_scalar_loop(self, seed, slots):
        """Same inserts, then vector vs per-row invalidation: identical
        stats, hit patterns and surviving contents (conflicts included)."""
        rng = np.random.default_rng(seed)
        ref = DirectMappedEmbeddingCache(slots)
        vecd = DirectMappedEmbeddingCache(slots)
        for _ in range(8):
            table = int(rng.integers(1, 4))
            rows = rng.integers(0, 512, size=16).astype(np.int64)
            values = np.stack([vec(int(r)) for r in rows])
            ref.insert_many(table, rows, values)
            vecd.insert_many(table, rows, values)
            kill = rng.integers(0, 512, size=int(rng.integers(1, 10)))
            dropped_ref = sum(
                ref.invalidate(table, int(r)) for r in np.unique(kill).tolist()
            )
            assert vecd.invalidate_many(table, kill) == dropped_ref
        assert ref.invalidations == vecd.invalidations
        assert ref.occupancy == vecd.occupancy
        probe_rows = np.arange(512, dtype=np.int64)
        for table in (1, 2, 3):
            mask_ref, vecs_ref = ref.probe_many(table, probe_rows)
            mask_vec, vecs_vec = vecd.probe_many(table, probe_rows)
            assert np.array_equal(mask_ref, mask_vec)
            assert np.array_equal(vecs_ref, vecs_vec)


class TestUpdatableDataEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_apply_get_rows_matches_dict_reference(self, seed):
        """Sorted-overlay apply/get_rows == dict-backed per-row reference,
        including duplicate ids (last write wins) and repeated batches."""
        rng = np.random.default_rng(seed)
        base = DenseTableData.random(256, 4, seed=seed)
        vecd = UpdatableTableData(base)
        ref = ScalarUpdatableTableData(base)
        for _ in range(40):
            n = int(rng.integers(1, 20))
            ids = rng.integers(0, 256, size=n).astype(np.int64)
            values = rng.normal(size=(n, 4)).astype(np.float32)
            assert vecd.apply(ids, values) == ref.apply(ids, values)
            probe = rng.integers(0, 256, size=int(rng.integers(1, 32)))
            assert np.array_equal(vecd.get_rows(probe), ref.get_rows(probe))
        assert vecd.overlay_rows == ref.overlay_rows
        assert np.array_equal(vecd.written_ids(), ref.written_ids())
        assert vecd.updates_applied == ref.updates_applied
        assert vecd.rows_written == ref.rows_written
        everything = np.arange(256, dtype=np.int64)
        assert np.array_equal(vecd.get_rows(everything), ref.get_rows(everything))

    def test_empty_and_shape_checks_match(self):
        base = DenseTableData.random(16, 4, seed=0)
        for cls in (UpdatableTableData, ScalarUpdatableTableData):
            data = cls(base)
            assert data.apply(np.empty(0, np.int64), np.empty((0, 4), np.float32)) == 0
            assert data.updates_applied == 0
            with pytest.raises(ValueError):
                data.apply(np.asarray([1]), np.zeros((2, 4), np.float32))
            with pytest.raises(IndexError):
                data.apply(np.asarray([99]), np.zeros((1, 4), np.float32))
