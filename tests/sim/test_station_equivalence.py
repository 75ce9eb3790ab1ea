"""Closed-form stations vs the event-driven reference, randomized.

The production ``Server`` computes each job's start and end at submit
time and pays one event; the reference in ``tests/reference/resources.py``
starts a queued job when its predecessor's finish event fires.  Both
must produce bit-equal completion times, in the same order, for FIFO
streams with mixed service times (zero included), same-instant bursts,
staggered and idle gaps, latency pipes, and the host-core -> device-to-
host tandem the NVMe controller chains in one step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.host.system import build_system
from repro.sim.kernel import Simulator
from repro.sim.resources import BandwidthPipe, Server

from ..reference import resources as ref

SERVICE_CHOICES = (0.0, 1e-6, 2.5e-6, 4e-6, 5e-6, 7.3e-6, 16e-6)


def arrival_times(rng, n):
    """Bursts at one instant, gaps shorter than service (queueing) and
    long gaps (the station drains and idles)."""
    t = 0.0
    times = []
    for _ in range(n):
        kind = rng.integers(3)
        if kind == 1:
            t += float(rng.uniform(0.0, 5e-6))
        elif kind == 2:
            t += float(rng.uniform(20e-6, 80e-6))
        times.append(t)
    return times


def service_time(rng):
    if rng.random() < 0.5:
        return float(rng.choice(SERVICE_CHOICES))
    return float(rng.uniform(0.0, 20e-6))


def drive(sim, arrivals, submit):
    """Schedule ``submit(i)`` at each arrival instant; run to completion."""
    for i, t in enumerate(arrivals):
        sim.schedule_at(t, lambda i=i: submit(i))
    sim.run()


@pytest.mark.parametrize("seed", range(8))
def test_server_matches_event_driven_reference(seed):
    rng = np.random.default_rng(seed)
    n = 200
    arrivals = arrival_times(rng, n)
    services = [service_time(rng) for _ in range(n)]
    results = []
    for station_cls in (Server, ref.Server):
        sim = Simulator()
        station = station_cls(sim)
        done = []
        drive(
            sim,
            arrivals,
            lambda i: station.submit(
                services[i], lambda i=i: done.append((i, sim.now))
            ),
        )
        results.append(done)
        assert station.busy_time == pytest.approx(sum(services))
    assert results[0] == results[1]
    assert [i for i, _t in results[0]] == list(range(n))


@pytest.mark.parametrize("latency_s", [0.0, 1e-6, 3.7e-6])
@pytest.mark.parametrize("seed", range(4))
def test_pipe_matches_event_driven_reference(seed, latency_s):
    rng = np.random.default_rng(100 + seed)
    n = 200
    arrivals = arrival_times(rng, n)
    sizes = [int(rng.choice([0, 16, 64, 4096, 16384, int(rng.integers(1, 65536))]))
             for _ in range(n)]
    results = []
    for pipe_cls in (BandwidthPipe, ref.BandwidthPipe):
        sim = Simulator()
        pipe = pipe_cls(sim, 3.2e9, latency_s)
        done = []
        drive(
            sim,
            arrivals,
            lambda i: pipe.transfer(sizes[i], lambda i=i: done.append((i, sim.now))),
        )
        results.append(done)
        assert pipe.bytes_transferred == sum(sizes)
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", range(6))
def test_host_core_d2h_tandem_matches_two_station_reference(seed):
    """The controller's host-core -> d2h chain (``dma_to_host``) mixed
    with host-core-only jobs (command fetch) against the reference
    cascade: host-core finish event, then a d2h transfer submitted there.
    """
    rng = np.random.default_rng(200 + seed)
    n = 200
    arrivals = arrival_times(rng, n)
    tandem = [bool(rng.random() < 0.6) for _ in range(n)]
    sizes = [int(rng.choice([16, 4096, 16384, 65536])) for _ in range(n)]

    system = build_system(min_capacity_pages=1 << 12)
    sim, controller = system.sim, system.device.controller
    costs = controller.ftl.cpu.costs
    done = []

    def submit(i):
        record = lambda: done.append((i, sim.now))
        if tandem[i]:
            controller.dma_to_host(sizes[i], record)
        else:
            controller.ftl.cpu.host_core.submit(costs.cmd_fetch_s, record)

    drive(sim, arrivals, submit)

    ref_sim = Simulator()
    pcie = controller.pcie.config
    host_core = ref.Server(ref_sim)
    d2h = ref.BandwidthPipe(ref_sim, pcie.bandwidth_bytes_s, pcie.latency_s)
    ref_done = []

    def ref_submit(i):
        record = lambda: ref_done.append((i, ref_sim.now))
        if tandem[i]:
            host_core.submit(
                costs.dma_setup_s, lambda: d2h.transfer(sizes[i], record)
            )
        else:
            host_core.submit(costs.cmd_fetch_s, record)

    drive(ref_sim, arrivals, ref_submit)

    assert dict(done) == dict(ref_done)
    # The link sees transfers in the same order, so d2h completions agree
    # in sequence too, not only per job.
    assert [i for i, _ in done if tandem[i]] == [i for i, _ in ref_done if tandem[i]]
    # One event per job instead of two (three with the link latency).
    assert sim.event_count - n == n
