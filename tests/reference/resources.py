"""Event-driven reference for the closed-form stations in
``repro.sim.resources``.

``Server`` and ``BandwidthPipe`` are the per-event forms production
used before its stations went closed-form: a queued job starts when its
predecessor's finish event fires, and a transfer's latency is a second
event.  They are kept as they were, minus the aggregate-job ``on_start``
hook and the unread ``queue_len_stat`` gauge that left production with
them.  The station equivalence tests compare completion times against
them.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.kernel import SimError, Simulator

__all__ = ["Server", "BandwidthPipe"]


class Server:
    """Priority-FIFO station with ``capacity`` parallel servers.

    Jobs are submitted with an explicit service time; when a server becomes
    free the highest-priority (lowest number), oldest job starts, and its
    completion callback runs when the service time elapses.  Priorities
    model firmware polling loops that refill hardware queues before doing
    deferrable computation (e.g. the FTL schedules flash page requests
    ahead of SLS translation work).  Tracks utilization and queue stats.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "server"):
        if capacity < 1:
            raise SimError(f"server capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._busy = 0
        self._heap: list[tuple[int, int, float, Callable[[], None]]] = []
        self._seq = 0
        self.jobs_started = 0
        self.jobs_completed = 0
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    def submit(
        self,
        service_time: float,
        on_done: Callable[[], None],
        priority: int = 0,
    ) -> None:
        """Enqueue a job needing ``service_time`` seconds of a server."""
        if service_time < 0:
            raise SimError(f"negative service time {service_time}")
        if self._busy < self.capacity:
            self._start(service_time, on_done)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (priority, self._seq, service_time, on_done))

    def _start(self, service_time: float, on_done: Callable[[], None]) -> None:
        self._busy += 1
        self.jobs_started += 1
        self.busy_time += service_time
        self.sim.schedule_call(service_time, self._finish, on_done)

    def _finish(self, on_done: Callable[[], None]) -> None:
        self._busy -= 1
        self.jobs_completed += 1
        if self._heap:
            _prio, _seq, service_time, callback = heapq.heappop(self._heap)
            self._start(service_time, callback)
        on_done()

    # ------------------------------------------------------------------
    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._heap)

    @property
    def idle(self) -> bool:
        return self._busy == 0 and not self._heap

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of server-seconds spent busy over ``elapsed`` seconds."""
        span = self.sim.now if elapsed is None else elapsed
        if span <= 0:
            return 0.0
        return self.busy_time / (span * self.capacity)


class BandwidthPipe:
    """A link that serializes transfers at a fixed bandwidth plus latency.

    Models a PCIe link or a flash-channel bus: transfers queue FIFO, each
    occupying the link for ``size / bandwidth`` and completing after an
    additional propagation ``latency`` (latency does not occupy the link).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_s: float,
        latency_s: float = 0.0,
        name: str = "pipe",
    ):
        if bandwidth_bytes_per_s <= 0:
            raise SimError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth_bytes_per_s
        self.latency = latency_s
        self._server = Server(sim, capacity=1, name=f"{name}.bus")
        self.bytes_transferred = 0

    def transfer(self, size_bytes: int, on_done: Callable[[], None]) -> None:
        """Move ``size_bytes`` through the link, then call ``on_done``."""
        if size_bytes < 0:
            raise SimError(f"negative transfer size {size_bytes}")
        self.bytes_transferred += size_bytes
        occupancy = size_bytes / self.bandwidth
        if self.latency > 0:
            latency = self.latency
            sim = self.sim
            self._server.submit(occupancy, lambda: sim.schedule(latency, on_done))
        else:
            self._server.submit(occupancy, on_done)

    @property
    def queue_length(self) -> int:
        return self._server.queue_length

    def utilization(self) -> float:
        return self._server.utilization()
