"""Batched Ftl.read_pages vs the scalar per-page reference, randomized.

Two identically-built systems run the same randomized multi-page read
sequences — mixing mapped, unmapped, cached and duplicate pages, plus
pages rewritten through the IO path — through the batched path and
through the per-page reference installed from ``tests/reference/ftl.py``.
Completion times, contents, and every FTL/flash/page-cache counter must
match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable, TablePageContent
from repro.flash.reliability import ReadRetryModel, ReliabilityConfig
from repro.host.system import build_system
from repro.nvme.payload import page_content_to_bytes

from ..reference.ftl import install_scalar_reads


def build(batch_reads, page_cache_pages=64):
    system = build_system(
        min_capacity_pages=1 << 16, page_cache_pages=page_cache_pages
    )
    if not batch_reads:
        install_scalar_reads(system.device.ftl)
    table = EmbeddingTable(
        TableSpec(name="t", rows=4096, dim=16, layout=Layout.PACKED)
    )
    table.attach(system.device)
    return system, table


def read_pages_sync(system, lpns):
    done = []
    system.device.ftl.read_pages(list(lpns), done.append)
    system.sim.run_until(lambda: bool(done))
    return system.sim.now, done[0]


def content_fingerprint(contents):
    out = []
    for c in contents:
        if c is None:
            out.append(None)
        elif isinstance(c, TablePageContent):
            out.append(("virtual", c.page_index))
        else:
            out.append(("raw", int(np.asarray(c).view(np.uint8).sum())))
    return out


def ftl_counters(system):
    ftl = system.device.ftl
    return (
        ftl.host_page_reads,
        ftl.flash_page_reads,
        ftl.page_cache.hits,
        ftl.page_cache.misses,
        ftl.page_cache.evictions,
        ftl.flash.total_reads(),
        tuple(ftl.flash.channel_load()),
    )


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("page_cache_pages", [64, 8])
def test_read_pages_equivalence(seed, page_cache_pages):
    sys_s, table_s = build(False, page_cache_pages)
    sys_v, table_v = build(True, page_cache_pages)
    ftl = sys_v.device.ftl
    base_lpn = table_v.base_lba // ftl.lbas_per_page
    n_pages = table_v.spec.table_pages(table_v.page_bytes)
    rng = np.random.default_rng(seed)
    for _ in range(12):
        size = int(rng.integers(2, 16))
        # +4 pushes some lpns past the table into unmapped space; repeats
        # and re-reads exercise the cache path.
        lpns = (base_lpn + rng.integers(0, n_pages + 4, size=size)).tolist()
        t_s, c_s = read_pages_sync(sys_s, lpns)
        t_v, c_v = read_pages_sync(sys_v, lpns)
        assert t_s == t_v
        assert content_fingerprint(c_s) == content_fingerprint(c_v)
        assert ftl_counters(sys_s) == ftl_counters(sys_v)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fail_p", [0.05, 0.5])
def test_read_pages_equivalence_under_read_errors(seed, fail_p):
    """Retry latency and uncorrectable losses match scalar vs vector.

    With a lossy reliability model, each page read draws retries (extra
    cmd+tR holds on the die) or gives up past the budget (content None).
    The batched path must consume the reliability RNG stream in the same
    page order as the scalar cascade, so with same-seed models both
    modes produce identical completion times, None patterns, and retry /
    uncorrectable counters.
    """
    systems = []
    for batch in (False, True):
        # No page cache: every read reaches the flash, so the reliability
        # stream is exercised on each page in both modes.
        system, table = build(batch, page_cache_pages=0)
        system.device.flash.reliability = ReadRetryModel(
            ReliabilityConfig(
                read_fail_probability=fail_p, max_read_retries=3, seed=77
            )
        )
        systems.append((system, table))
    (sys_s, table_s), (sys_v, _table_v) = systems
    ftl = sys_s.device.ftl
    base_lpn = table_s.base_lba // ftl.lbas_per_page
    n_pages = table_s.spec.table_pages(table_s.page_bytes)
    rng = np.random.default_rng(seed)
    saw_loss = False
    for _ in range(10):
        size = int(rng.integers(2, 16))
        lpns = (base_lpn + rng.integers(0, n_pages, size=size)).tolist()
        t_s, c_s = read_pages_sync(sys_s, lpns)
        t_v, c_v = read_pages_sync(sys_v, lpns)
        assert t_s == t_v
        prints = content_fingerprint(c_s)
        assert prints == content_fingerprint(c_v)
        saw_loss = saw_loss or any(p is None for p in prints)
        assert ftl_counters(sys_s) == ftl_counters(sys_v)
        for a, b in (
            (sys_s.device.flash.reliability, sys_v.device.flash.reliability),
        ):
            assert a.reads == b.reads
            assert a.retries == b.retries
            assert a.uncorrectable == b.uncorrectable
        assert (
            sys_s.device.flash.uncorrectable_reads
            == sys_v.device.flash.uncorrectable_reads
        )
    # The equivalence must have been exercised on actual failures.
    assert sys_s.device.flash.reliability.retries > 0
    if fail_p >= 0.5:
        assert saw_loss
        assert sys_s.device.flash.uncorrectable_reads > 0


def test_read_pages_after_io_write():
    """Pages rewritten through the IO path return raw buffers in both modes."""
    results = {}
    for batch in (False, True):
        system, table = build(batch)
        ftl = system.device.ftl
        base_lpn = table.base_lba // ftl.lbas_per_page
        lbas_per_page = ftl.lbas_per_page
        payload = np.arange(table.page_bytes, dtype=np.uint8)
        done = []
        system.driver.write(
            table.base_lba + 2 * lbas_per_page, lbas_per_page, payload, done.append
        )
        system.sim.run_until(lambda: bool(done))
        t, contents = read_pages_sync(system, [base_lpn + 1, base_lpn + 2, base_lpn + 3])
        raw = page_content_to_bytes(contents[1], table.page_bytes)
        results[batch] = (t, content_fingerprint(contents), raw.sum())
    assert results[False] == results[True]
