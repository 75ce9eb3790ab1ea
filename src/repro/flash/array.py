"""Flash channel and array simulation.

Each channel owns one bus shared by ``ways`` dies; the bus and every die
are closed-form FIFO :class:`~repro.sim.resources.Server` stations.
Reads occupy the die for tR then the bus for the page transfer; programs
occupy the bus first (data in) then the die for tPROG; erases occupy the
die only.  With >=2 ways per channel, sustained read throughput is
bus-bound at ``page_bytes / channel_bw`` per page — the 10K IOPS/channel
figure from the paper.

A read costs two events: its die reservation ends, then it claims the
bus.  The bus is not chained off the die in one step because programs
reach the bus directly, so bus arrival order is only known as die
phases end.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional

import numpy as np

from ..sim.kernel import Simulator
from ..sim.resources import Server
from .geometry import FlashGeometry
from .reliability import ReadRetryModel, ReliabilityConfig, UncorrectableError
from .store import FlashStore
from .timing import FlashTiming

__all__ = ["FlashChannel", "FlashArray"]

ReadCallback = Callable[[Any], None]
DoneCallback = Callable[[], None]


class FlashChannel:
    """One channel: a shared bus and ``ways`` independent dies."""

    def __init__(
        self,
        sim: Simulator,
        channel_id: int,
        ways: int,
        timing: FlashTiming,
        page_bytes: int,
    ):
        self.sim = sim
        self.channel_id = channel_id
        self.page_bytes = page_bytes
        self.timing = timing
        self.bus = Server(sim, name=f"ch{channel_id}.bus")
        self.dies = [Server(sim, name=f"ch{channel_id}.die{w}") for w in range(ways)]
        self.reads = 0
        self.programs = 0
        self.erases = 0

    @property
    def timing(self) -> FlashTiming:
        return self._timing

    @timing.setter
    def timing(self, timing: FlashTiming) -> None:
        # Swappable at run time (fail-slow faults); derived costs follow.
        self._timing = timing
        # Bus occupancy of one page (command + data), and one read attempt.
        self._xfer_s = timing.t_cmd_s + timing.transfer_time(self.page_bytes)
        self._read_attempt_s = timing.t_cmd_s + timing.t_read_s

    # ------------------------------------------------------------------
    def read_page(self, way: int, on_done: DoneCallback, retries: int = 0) -> None:
        """Simulate a page read on ``way`` (timing only; data handled above).

        ``retries`` extra read-retry attempts each cost another command +
        tR on the die before the data transfer.
        """
        self.reads += 1
        attempts = 1 + max(0, retries)
        self.dies[way].submit(
            attempts * self._read_attempt_s, self._read_transfer, on_done
        )

    def _read_transfer(self, on_done: DoneCallback) -> None:
        self.bus.submit(self._xfer_s, on_done)

    def program_page(self, way: int, on_done: DoneCallback) -> None:
        self.programs += 1
        die = self.dies[way]
        t_program = self.timing.t_program_s
        self.bus.submit(self._xfer_s, lambda: die.submit(t_program, on_done))

    def erase_block(self, way: int, on_done: DoneCallback) -> None:
        self.erases += 1
        self.dies[way].submit(self.timing.t_cmd_s + self.timing.t_erase_s, on_done)


class FlashArray:
    """The full NAND array: geometry + store + per-channel simulation."""

    def __init__(
        self,
        sim: Simulator,
        geometry: Optional[FlashGeometry] = None,
        timing: Optional[FlashTiming] = None,
        reliability: Optional[ReliabilityConfig] = None,
    ):
        self.sim = sim
        self.geometry = geometry or FlashGeometry()
        self.timing = timing or FlashTiming()
        self.store = FlashStore(self.geometry)
        self.reliability = ReadRetryModel(reliability or ReliabilityConfig())
        self.channels: List[FlashChannel] = [
            FlashChannel(sim, c, self.geometry.ways, self.timing, self.geometry.page_bytes)
            for c in range(self.geometry.channels)
        ]
        self.uncorrectable_reads = 0
        # Operations issued whose completion callback has not run yet
        # (closed-form stations cannot tell that from the clock alone).
        self._inflight = 0

    # ------------------------------------------------------------------
    def read(self, ppn: int, on_done: ReadCallback) -> None:
        """Read page ``ppn``; ``on_done(content)`` fires when data is on-chip.

        Uncorrectable reads (reliability model) deliver ``None`` after the
        full retry sequence, as a real drive would report a media error.
        """
        addr = self.geometry.addr(ppn)
        self._read(ppn, addr.channel, addr.way, on_done)

    def _read(self, ppn: int, channel: int, way: int, on_done: ReadCallback) -> None:
        store = self.store
        try:
            retries = self.reliability.retries_for_read()
            failed = False
        except UncorrectableError:
            retries = self.reliability.config.max_read_retries
            failed = True
            self.uncorrectable_reads += 1

        def finish() -> None:
            self._inflight -= 1
            on_done(None if failed else store.read(ppn))

        self._inflight += 1
        self.channels[channel].read_page(way, finish, retries=retries)

    def read_many(
        self, ppns: "np.ndarray", on_page: Callable[[int, Any], None]
    ) -> None:
        """Batch read: ``on_page(i, content)`` fires as page ``i`` lands on-chip.

        Exactly :meth:`read` once per page, in page order: retry draws,
        die reservations and event order all match the per-page form;
        the die ids are computed in one vectorized pass.
        """
        ppns = np.ascontiguousarray(ppns, dtype=np.int64)
        if ppns.size == 0:
            return
        geometry = self.geometry
        if ppns.min() < 0 or ppns.max() >= geometry.total_pages:
            raise ValueError("ppn out of range")
        dies = ((ppns // geometry.pages_per_block) // geometry.blocks_per_die).tolist()
        ways = geometry.ways
        for i, ppn in enumerate(ppns.tolist()):
            die = dies[i]
            self._read(ppn, die // ways, die % ways, partial(on_page, i))

    def program(self, ppn: int, content: Any, on_done: DoneCallback) -> None:
        """Program ``content`` into page ``ppn`` (store updated at completion)."""
        addr = self.geometry.addr(ppn)

        def finish() -> None:
            self._inflight -= 1
            self.store.program(ppn, content)
            on_done()

        self._inflight += 1
        self.channels[addr.channel].program_page(addr.way, finish)

    def erase(self, block_id: int, on_done: DoneCallback) -> None:
        channel, way, _block = self.geometry.block_addr(block_id)

        def finish() -> None:
            self._inflight -= 1
            self.store.erase_block(block_id)
            on_done()

        self._inflight += 1
        self.channels[channel].erase_block(way, finish)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self._inflight == 0

    def total_reads(self) -> int:
        return sum(ch.reads for ch in self.channels)

    def total_programs(self) -> int:
        return sum(ch.programs for ch in self.channels)

    def total_erases(self) -> int:
        return sum(ch.erases for ch in self.channels)

    def channel_load(self) -> List[int]:
        """Reads issued per channel (load-balance diagnostics)."""
        return [ch.reads for ch in self.channels]
