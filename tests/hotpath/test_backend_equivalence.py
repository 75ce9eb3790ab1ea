"""Vectorized vs scalar SLS backends on randomized traces.

Two identically-seeded systems — one running the batch-first hot path,
one the scalar reference — must produce the same simulated op latencies,
stats, cache counters and device counters, and allclose values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding.backends.ndp import NdpSlsBackend
from repro.embedding.backends.ssd import SsdSlsBackend
from repro.embedding.caches import SetAssociativeLru, StaticPartitionCache
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable
from repro.host.system import build_system

from ..reference.backends import ScalarNdpSlsBackend, ScalarSsdSlsBackend
from ..reference.caches import ScalarSetAssociativeLru, ScalarStaticPartitionCache
from ..reference.ftl import install_scalar_reads


def make_bags(seed, n_bags, bag_size, rows):
    rng = np.random.default_rng(seed)
    bags = []
    for _ in range(n_bags):
        size = int(rng.integers(0, bag_size + 1))
        bags.append(rng.zipf(1.3, size).astype(np.int64) % rows)
    return bags


def build_ssd_backend(vectorized, layout, coalesce, cache_capacity, rows=20_000):
    system = build_system(min_capacity_pages=1 << 16)
    if not vectorized:
        install_scalar_reads(system.device.ftl)
    table = EmbeddingTable(TableSpec(name="t", rows=rows, dim=16, layout=layout))
    table.attach(system.device)
    cache = None
    if cache_capacity:
        cls = SetAssociativeLru if vectorized else ScalarSetAssociativeLru
        cache = cls(cache_capacity, ways=16)
    backend_cls = SsdSlsBackend if vectorized else ScalarSsdSlsBackend
    backend = backend_cls(system, table, host_cache=cache, coalesce=coalesce)
    return system, table, backend, cache


def op_fingerprint(result):
    return {
        "latency": result.latency,
        "end": result.end_time,
        "stats": dict(result.stats),
        "breakdown": dict(result.breakdown.components),
    }


@pytest.mark.parametrize(
    "layout,coalesce,cache_capacity",
    [
        (Layout.ONE_PER_PAGE, False, 1024),
        (Layout.ONE_PER_PAGE, False, 0),
        (Layout.PACKED, True, 512),
        (Layout.PACKED, False, 1024),
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_ssd_backend_equivalence(layout, coalesce, cache_capacity, seed):
    sys_s, _t, be_s, cache_s = build_ssd_backend(False, layout, coalesce, cache_capacity)
    sys_v, table, be_v, cache_v = build_ssd_backend(True, layout, coalesce, cache_capacity)
    for op in range(4):
        bags = make_bags(seed * 100 + op, 24, 24, 20_000)
        res_s = be_s.run_sync(bags)
        res_v = be_v.run_sync(bags)
        assert op_fingerprint(res_s) == op_fingerprint(res_v)
        assert np.allclose(res_s.values, res_v.values, rtol=1e-5, atol=1e-5)
        assert np.allclose(res_v.values, table.ref_sls(bags), rtol=1e-4, atol=1e-4)
    if cache_capacity:
        assert (cache_s.hits, cache_s.misses, cache_s.evictions) == (
            cache_v.hits,
            cache_v.misses,
            cache_v.evictions,
        )
    assert sys_s.device.ftl.flash_page_reads == sys_v.device.ftl.flash_page_reads
    assert sys_s.device.ftl.page_cache.hits == sys_v.device.ftl.page_cache.hits
    assert sys_s.driver.commands_issued == sys_v.driver.commands_issued
    assert sys_s.sim.now == sys_v.sim.now


def build_ndp_backend(vectorized, partition_capacity, rows=20_000):
    system = build_system(min_capacity_pages=1 << 16)
    table = EmbeddingTable(
        TableSpec(name="t", rows=rows, dim=16, layout=Layout.PACKED)
    )
    table.attach(system.device)
    partition = None
    if partition_capacity:
        from repro.embedding.caches import profile_hot_rows

        profile = make_bags(999, 16, 24, rows)
        hot = profile_hot_rows(profile, partition_capacity)
        vectors = table.get_rows(hot)
        cls = StaticPartitionCache if vectorized else ScalarStaticPartitionCache
        partition = cls(hot, vectors)
    backend_cls = NdpSlsBackend if vectorized else ScalarNdpSlsBackend
    backend = backend_cls(system, table, partition=partition)
    return system, table, backend, partition


@pytest.mark.parametrize("partition_capacity", [0, 512])
@pytest.mark.parametrize("seed", [0, 1])
def test_ndp_backend_equivalence(partition_capacity, seed):
    sys_s, _t, be_s, part_s = build_ndp_backend(False, partition_capacity)
    sys_v, table, be_v, part_v = build_ndp_backend(True, partition_capacity)
    for op in range(3):
        bags = make_bags(seed * 100 + op, 16, 24, 20_000)
        res_s = be_s.run_sync(bags)
        res_v = be_v.run_sync(bags)
        assert op_fingerprint(res_s) == op_fingerprint(res_v)
        assert np.allclose(res_s.values, res_v.values, rtol=1e-5, atol=1e-5)
        assert np.allclose(res_v.values, table.ref_sls(bags), rtol=1e-4, atol=1e-4)
    if partition_capacity:
        assert (part_s.hits, part_s.misses) == (part_v.hits, part_v.misses)
    assert sys_s.sim.now == sys_v.sim.now
