"""Tests for Server (closed-form FIFO), PriorityServer, Store, BandwidthPipe."""

import pytest

from repro.sim.kernel import SimError, Simulator
from repro.sim.resources import BandwidthPipe, PriorityServer, Server, Store


class TestServer:
    def test_single_server_serializes(self, sim):
        server = Server(sim)
        done = []
        server.submit(1e-6, lambda: done.append(sim.now))
        server.submit(1e-6, lambda: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([1e-6, 2e-6])

    def test_reserve_chains_without_events(self, sim):
        server = Server(sim)
        assert server.reserve(2e-6, 0.0) == 2e-6
        # A later arrival starts at its own time; an earlier one queues.
        assert server.reserve(1e-6, 5e-6) == 6e-6
        assert server.reserve(1e-6, 0.0) == 7e-6
        assert sim.pending_events == 0

    def test_one_event_per_job(self, sim):
        server = Server(sim)
        for _ in range(4):
            server.submit(1e-6, lambda: None)
        sim.run()
        assert sim.event_count == 4

    def test_utilization_and_idle(self, sim):
        server = Server(sim)
        for _ in range(4):
            server.submit(1e-6, lambda: None)
        assert not server.idle
        sim.run()
        assert server.busy_time == pytest.approx(4e-6)
        assert server.utilization() == pytest.approx(1.0)
        assert server.idle

    def test_negative_service_time_rejected(self, sim):
        server = Server(sim)
        with pytest.raises(SimError):
            server.submit(-1e-6, lambda: None)


class TestPriorityServer:
    def test_fifo_within_priority(self, sim):
        server = PriorityServer(sim)
        order = []
        server.submit(1e-6, lambda: order.append("busy"))
        for name in ("a", "b", "c"):
            server.submit(1e-6, lambda n=name: order.append(n))
        sim.run()
        assert order == ["busy", "a", "b", "c"]

    def test_priority_jumps_queue(self, sim):
        server = PriorityServer(sim)
        order = []
        server.submit(1e-6, lambda: order.append("busy"))
        server.submit(1e-6, lambda: order.append("low1"), priority=1)
        server.submit(1e-6, lambda: order.append("low2"), priority=1)
        server.submit(1e-6, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["busy", "high", "low1", "low2"]

    def test_running_job_not_preempted(self, sim):
        server = PriorityServer(sim)
        order = []
        server.submit(10e-6, lambda: order.append("long"))
        sim.run(until=1e-6)
        server.submit(1e-6, lambda: order.append("urgent"), priority=-5)
        sim.run()
        assert order == ["long", "urgent"]

    def test_utilization_and_counters(self, sim):
        server = PriorityServer(sim)
        for _ in range(4):
            server.submit(1e-6, lambda: None)
        sim.run()
        assert server.jobs_completed == 4
        assert server.busy_time == pytest.approx(4e-6)
        assert server.utilization() == pytest.approx(1.0)
        assert server.idle

    def test_negative_service_time_rejected(self, sim):
        server = PriorityServer(sim)
        with pytest.raises(SimError):
            server.submit(-1e-6, lambda: None)

    def test_queue_length(self, sim):
        server = PriorityServer(sim)
        for _ in range(5):
            server.submit(1e-6, lambda: None)
        assert server.queue_length == 4
        assert server.busy


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        got = []
        store.put("x")
        store.get(got.append)
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []
        store.get(got.append)
        sim.run()
        assert got == []
        store.put("later")
        sim.run()
        assert got == ["later"]

    def test_fifo_order(self, sim):
        store = Store(sim)
        got = []
        for i in range(3):
            store.put(i)
        for _ in range(3):
            store.get(got.append)
        sim.run()
        assert got == [0, 1, 2]

    def test_try_get(self, sim):
        store = Store(sim)
        ok, _ = store.try_get()
        assert not ok
        store.put(9)
        ok, value = store.try_get()
        assert ok and value == 9


class TestBandwidthPipe:
    def test_transfer_time_is_size_over_bandwidth(self, sim):
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6)
        done = []
        pipe.transfer(1000, lambda: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([1e-3])

    def test_transfers_serialize(self, sim):
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6)
        done = []
        pipe.transfer(1000, lambda: done.append(sim.now))
        pipe.transfer(1000, lambda: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([1e-3, 2e-3])

    def test_latency_added_after_occupancy(self, sim):
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6, latency_s=5e-6)
        done = []
        pipe.transfer(1000, lambda: done.append(sim.now))
        pipe.transfer(1000, lambda: done.append(sim.now))
        sim.run()
        # Latency does not occupy the link: second transfer starts at 1ms.
        assert done == pytest.approx([1e-3 + 5e-6, 2e-3 + 5e-6])

    def test_bytes_counted(self, sim):
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6)
        pipe.transfer(123, lambda: None)
        pipe.transfer(877, lambda: None)
        sim.run()
        assert pipe.bytes_transferred == 1000

    def test_bad_bandwidth_rejected(self, sim):
        with pytest.raises(SimError):
            BandwidthPipe(sim, bandwidth_bytes_per_s=0)
