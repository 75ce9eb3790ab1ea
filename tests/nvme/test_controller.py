"""Device-side controller: IO through the full driver -> FTL -> flash path."""

import numpy as np
import pytest

from repro.driver.sync import sync_read, sync_write
from repro.driver.unvme import DriverConfig, UnvmeDriver
from repro.nvme.commands import NvmeCommand, Opcode, Status
from repro.sim.kernel import Simulator
from repro.ssd.presets import small_ssd


@pytest.fixture
def stack(sim):
    device = small_ssd(sim)
    driver = UnvmeDriver(sim, device, DriverConfig(num_qpairs=2, queue_depth=8))
    return sim, device, driver


class TestReadWrite:
    def test_write_read_roundtrip(self, stack):
        sim, device, driver = stack
        lba_bytes = device.ftl.config.lba_bytes
        data = np.arange(2 * lba_bytes, dtype=np.uint8) % 251
        assert sync_write(sim, driver, 4, 2, data).ok
        cpl = sync_read(sim, driver, 4, 2)
        assert cpl.ok
        got = cpl.payload.to_bytes(device.ftl.page_bytes)
        assert np.array_equal(got, data)

    def test_sub_page_write_rmw(self, stack):
        sim, device, driver = stack
        lba_bytes = device.ftl.config.lba_bytes
        lbas_per_page = device.ftl.lbas_per_page
        assert lbas_per_page >= 2
        full = np.zeros(lbas_per_page * lba_bytes, dtype=np.uint8)
        sync_write(sim, driver, 0, lbas_per_page, full)
        # Overwrite only the second LBA of the page.
        patch = np.full(lba_bytes, 7, dtype=np.uint8)
        assert sync_write(sim, driver, 1, 1, patch).ok
        cpl = sync_read(sim, driver, 0, lbas_per_page)
        got = cpl.payload.to_bytes(device.ftl.page_bytes)
        assert np.all(got[:lba_bytes] == 0)
        assert np.all(got[lba_bytes : 2 * lba_bytes] == 7)

    def test_read_unwritten_returns_zeros(self, stack):
        sim, device, driver = stack
        cpl = sync_read(sim, driver, 10, 1)
        assert cpl.ok
        got = cpl.payload.to_bytes(device.ftl.page_bytes)
        assert np.all(got == 0)

    def test_read_spanning_pages(self, stack):
        sim, device, driver = stack
        lba_bytes = device.ftl.config.lba_bytes
        lbas_per_page = device.ftl.lbas_per_page
        n = lbas_per_page + 1
        data = (np.arange(n * lba_bytes, dtype=np.int64) % 199).astype(np.uint8)
        sync_write(sim, driver, 0, n, data)
        cpl = sync_read(sim, driver, 0, n)
        got = cpl.payload.to_bytes(device.ftl.page_bytes)
        assert np.array_equal(got, data)
        assert len(cpl.payload.segments) == 2


class TestStatusPaths:
    def test_lba_out_of_range(self, stack):
        sim, device, driver = stack
        cpl = sync_read(sim, driver, device.ftl.logical_lbas, 1)
        assert cpl.status is Status.LBA_OUT_OF_RANGE

    def test_write_size_mismatch(self, stack):
        sim, device, driver = stack
        bad = np.zeros(10, dtype=np.uint8)
        cpl = sync_write(sim, driver, 0, 1, bad)
        assert cpl.status is Status.INVALID_FIELD

    def test_flush_succeeds(self, stack):
        sim, device, driver = stack
        box = []
        driver.submit(NvmeCommand(opcode=Opcode.FLUSH, slba=0, nlb=0), box.append)
        sim.run_until(lambda: bool(box))
        assert box[0].ok


class TestDriverBackpressure:
    def test_more_commands_than_total_depth(self, stack):
        sim, device, driver = stack
        total_depth = 2 * 8
        n = 3 * total_depth
        done = []
        for i in range(n):
            driver.read(i % 8, 1, done.append)
        sim.run_until(lambda: len(done) == n)
        assert all(c.ok for c in done)
        assert driver.outstanding == 0

    def test_completion_latency_positive_and_ordered_stats(self, stack):
        sim, device, driver = stack
        cpl = sync_read(sim, driver, 0, 1)
        assert cpl.complete_time > 0
        assert driver.commands_issued == 1


class TestEventBudget:
    """Pin the events one conventional single-page read costs end to end
    (driver submit, h2d command, fetch, FTL core, DMA setup + data, CQE,
    driver completion; a page-cache miss adds the die and the bus), so a
    re-added hop shows up here."""

    def test_single_page_read_event_count(self, stack):
        sim, device, driver = stack
        device.ftl.preload_pages(0, ["page0"])

        def events_for_read():
            before = sim.event_count
            assert sync_read(sim, driver, 0, 1).ok
            return sim.event_count - before

        assert events_for_read() == 9  # page-cache miss
        assert events_for_read() == 7  # page-cache hit
