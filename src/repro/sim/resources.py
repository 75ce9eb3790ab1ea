"""Queueing resources for the DES kernel.

Three families:

* :class:`Server` — a closed-form single-server FIFO station (PCIe
  links, the NVMe host-interface core, flash dies and channel buses).
  A job's start and end are computed at submit time, so each job costs
  exactly one event: the caller's callback at its end.
* :class:`PriorityServer` — an event-driven single-server station with
  priority classes (the FTL core, where NDP and GC work yields to
  foreground IO).
* :class:`Store` — an unbounded FIFO handoff queue between producer and
  consumer callbacks/processes.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Optional

from .kernel import _NO_ARG, SimError, Simulator

__all__ = ["Server", "PriorityServer", "Store", "BandwidthPipe"]


class Server:
    """Closed-form single-server FIFO station.

    A job submitted at ``now`` starts at ``max(now, free_at)`` and ends
    ``service_time`` later.  The event cascade a queued job would go
    through (wait for the predecessor's finish event, start there) starts
    it at exactly the predecessor's end float, so these floats are
    bit-identical to that cascade, under contention too.  The one event
    per job is the caller's callback at the end.

    :meth:`reserve` claims the server without scheduling anything and
    returns the end time.  A caller may chain a downstream station off
    that end in the same step (a *tandem*), which is exact as long as
    every job the downstream station sees arrives through this one, so
    downstream arrival order equals this station's departure order.
    """

    def __init__(self, sim: Simulator, name: str = "server"):
        self.sim = sim
        self.name = name
        self.free_at = sim.now
        self.busy_time = 0.0

    def reserve(self, service_time: float, at: float) -> float:
        """Claim the server for ``service_time`` from ``max(at, free_at)``;
        returns the end time.  Schedules no event."""
        if service_time < 0:
            raise SimError(f"negative service time {service_time}")
        free_at = self.free_at
        end = (free_at if free_at > at else at) + service_time
        self.free_at = end
        self.busy_time += service_time
        return end

    def submit(
        self, service_time: float, on_done: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Run ``on_done()`` — or ``on_done(arg)`` if ``arg`` is given, which
        saves hot callers a closure — once a ``service_time`` job
        submitted now ends."""
        sim = self.sim
        sim._push(self.reserve(service_time, sim._now), on_done, arg)

    @property
    def idle(self) -> bool:
        """True once the clock reaches the last reservation's end.  The
        last job's callback may still be pending at that very instant;
        callers that need completion track their own callbacks."""
        return self.free_at <= self.sim._now

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of ``elapsed`` seconds (default: now) spent busy."""
        span = self.sim.now if elapsed is None else elapsed
        if span <= 0:
            return 0.0
        return self.busy_time / span


class PriorityServer:
    """Event-driven single-server station with priority classes.

    When the server frees, the highest-priority (lowest number), oldest
    queued job starts; a running job is never preempted.  Priorities
    model firmware polling loops that refill hardware queues before doing
    deferrable computation (e.g. the FTL schedules flash page requests
    ahead of SLS translation work).  A later high-priority arrival can
    overtake queued work, so start times depend on live queue state and
    each job pays one event at its end, where the next job starts.
    """

    def __init__(self, sim: Simulator, name: str = "server"):
        self.sim = sim
        self.name = name
        self._busy = False
        self._heap: list[tuple[int, int, float, Callable[[], None]]] = []
        self._seq = 0
        self.jobs_completed = 0
        self.busy_time = 0.0

    def submit(
        self, service_time: float, on_done: Callable[[], None], priority: int = 0
    ) -> None:
        """Enqueue a job needing ``service_time`` seconds of the server."""
        if service_time < 0:
            raise SimError(f"negative service time {service_time}")
        if self._busy:
            self._seq += 1
            heapq.heappush(self._heap, (priority, self._seq, service_time, on_done))
        else:
            self._start(service_time, on_done)

    def _start(self, service_time: float, on_done: Callable[[], None]) -> None:
        self._busy = True
        self.busy_time += service_time
        sim = self.sim
        sim._push(sim._now + service_time, self._finish, on_done)

    def _finish(self, on_done: Callable[[], None]) -> None:
        self._busy = False
        self.jobs_completed += 1
        if self._heap:
            _prio, _seq, service_time, callback = heapq.heappop(self._heap)
            self._start(service_time, callback)
        on_done()

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._heap)

    @property
    def idle(self) -> bool:
        return not self._busy and not self._heap

    utilization = Server.utilization


class Store:
    """Unbounded FIFO queue connecting asynchronous producers/consumers."""

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Callable[[Any], None]] = deque()
        self.put_count = 0
        self.get_count = 0

    def put(self, item: Any) -> None:
        self.put_count += 1
        if self._getters:
            getter = self._getters.popleft()
            self.get_count += 1
            # Deliver on a fresh event so producer stack frames unwind first.
            self.sim.call_soon(lambda: getter(item))
        else:
            self._items.append(item)

    def get(self, callback: Callable[[Any], None]) -> None:
        if self._items:
            item = self._items.popleft()
            self.get_count += 1
            self.sim.call_soon(lambda: callback(item))
        else:
            self._getters.append(callback)

    def try_get(self) -> tuple[bool, Any]:
        if self._items:
            self.get_count += 1
            return True, self._items.popleft()
        return False, None

    def __len__(self) -> int:
        return len(self._items)


class BandwidthPipe:
    """A link that serializes transfers at a fixed bandwidth plus latency.

    Models a PCIe link: transfers queue FIFO on a closed-form
    :class:`Server`, each occupying the link for ``size / bandwidth``
    and completing after an additional propagation ``latency`` (latency
    does not occupy the link).  The latency folds into the transfer's
    one event, at ``end + latency``.
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
        self._server = Server(sim, name=f"{name}.bus")
        self.bytes_transferred = 0

    def transfer(
        self,
        size_bytes: int,
        on_done: Callable[[], None],
        at: Optional[float] = None,
    ) -> None:
        """Move ``size_bytes`` through the link, then call ``on_done``.

        ``at`` (default: now) is when the data reaches the link — the end
        of an upstream :meth:`Server.reserve` in a tandem chain.
        """
        if size_bytes < 0:
            raise SimError(f"negative transfer size {size_bytes}")
        self.bytes_transferred += size_bytes
        sim = self.sim
        end = self._server.reserve(
            size_bytes / self.bandwidth, sim._now if at is None else at
        )
        sim._push(end + self.latency, on_done)
