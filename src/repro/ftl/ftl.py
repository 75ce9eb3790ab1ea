"""The greedy page-mapped FTL (the Cosmos+ "GreedyFTL" analogue).

Exposes the logical page read/write interface consumed by the NVMe
controller, a preload fast path for installing table images without
simulating millions of programs, and hooks the NDP engine uses to issue
scheduled flash-page reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

from ..flash.array import FlashArray
from ..obs.resettable import register_resettable
from ..sim.kernel import Simulator
from .blocks import BlockManager, OutOfSpaceError
from .cpu import FtlCpu, FtlCpuCosts
from .gc import GarbageCollector
from .mapping import UNMAPPED, MappingTable
from .pagecache import PageCache
from .wear import WearLeveler

__all__ = ["FtlConfig", "GreedyFtl"]

ReadDone = Callable[[Any, bool], None]  # (content, cache_hit)
Done = Callable[[], None]


@dataclass(frozen=True)
class FtlConfig:
    lba_bytes: int = 4096
    overprovision: float = 0.25
    page_cache_pages: int = 4096          # 64 MiB of 16 KiB pages
    gc_low_watermark: int = 2
    gc_high_watermark: int = 4
    wear_threshold: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.overprovision < 1.0:
            raise ValueError("overprovision must be in [0, 1)")
        if self.lba_bytes < 512:
            raise ValueError("lba_bytes must be >= 512")


class GreedyFtl:
    """Page-mapped log-structured FTL over a :class:`FlashArray`."""

    def __init__(
        self,
        sim: Simulator,
        flash: FlashArray,
        cpu: Optional[FtlCpu] = None,
        config: Optional[FtlConfig] = None,
    ):
        self.sim = sim
        self.flash = flash
        self.geometry = flash.geometry
        self.config = config or FtlConfig()
        self.cpu = cpu or FtlCpu(sim)
        logical_pages = int(self.geometry.total_pages * (1.0 - self.config.overprovision))
        self.mapping = MappingTable(self.geometry, max(1, logical_pages))
        self.blocks = BlockManager(self.geometry)
        self.page_cache = PageCache(self.config.page_cache_pages)
        self.gc = GarbageCollector(
            self, self.config.gc_low_watermark, self.config.gc_high_watermark
        )
        self.wear = WearLeveler(self, self.config.wear_threshold)
        # Stats
        self.host_page_reads = 0
        self.host_page_writes = 0
        self.flash_page_reads = 0
        self.write_stalls = 0
        self._erases_since_wear_check = 0
        self._stalled_writes: list[tuple[int, Any, Done]] = []
        # Blocks currently being migrated by GC or wear leveling; the other
        # service must not pick them as victims concurrently.
        self.migrating_blocks: set[int] = set()
        # In-flight program count per block: a block with queued programs
        # must not be erased (the die would reorder erase before program).
        self._inflight_programs: dict[int, int] = {}
        # Optional layout-migration hook (repro.embedding.placement.
        # LayoutMigrator): GC invokes it after each victim reclaim to
        # piggyback heat-driven row re-packing on the relocation.
        self.layout_migrator: Optional[Any] = None
        # One reset surface for every benchmark window (repro.obs):
        # ftl.reset_stats() cascades to page_cache/gc/wear, so only the
        # FTL itself registers.
        register_resettable(self)

    # ------------------------------------------------------------------
    # Derived geometry helpers
    # ------------------------------------------------------------------
    @property
    def page_bytes(self) -> int:
        return self.geometry.page_bytes

    @property
    def lbas_per_page(self) -> int:
        return self.geometry.page_bytes // self.config.lba_bytes

    @property
    def logical_pages(self) -> int:
        return self.mapping.logical_pages

    @property
    def logical_lbas(self) -> int:
        return self.logical_pages * self.lbas_per_page

    def lba_to_lpn(self, lba: int) -> int:
        return lba // self.lbas_per_page

    def lpn_range_for_lbas(self, slba: int, nlb: int) -> range:
        if nlb < 1:
            raise ValueError("nlb must be >= 1")
        first = self.lba_to_lpn(slba)
        last = self.lba_to_lpn(slba + nlb - 1)
        return range(first, last + 1)

    # ------------------------------------------------------------------
    # Foreground read path
    # ------------------------------------------------------------------
    def read_page(self, lpn: int, on_done: ReadDone) -> None:
        """Read logical page ``lpn`` through the page cache.

        ``on_done(content, cache_hit)`` runs after firmware + flash time.
        Unmapped pages return ``None`` content via the fast path.
        """
        self.host_page_reads += 1
        costs = self.cpu.costs
        hit, content = self.page_cache.lookup(lpn)
        if hit:
            self.cpu.ftl_core.submit(costs.io_hit_s, lambda: on_done(content, True))
            return
        ppn = self.mapping.lookup(lpn)
        if ppn == UNMAPPED:
            self.cpu.ftl_core.submit(costs.io_hit_s, lambda: on_done(None, True))
            return

        def after_cpu() -> None:
            self.flash_page_reads += 1
            self.flash.read(ppn, after_flash)

        def after_flash(content: Any) -> None:
            # None means the flash gave up (uncorrectable read): caching
            # it would turn a transient fault into a permanent zero-page.
            if content is not None:
                self.page_cache.insert(lpn, content)
            on_done(content, False)

        self.cpu.ftl_core.submit(costs.io_miss_s, after_cpu)

    def read_pages(self, lpns: list[int], on_done: Callable[[list[Any]], None]) -> None:
        """Read several logical pages of one command (batch fast path).

        The firmware pays the full command cost once plus a small per-extra-
        page cost (mapping lookup + channel-queue fill), so large sequential
        commands stream at near-flash bandwidth instead of per-page command
        cost — matching the prototype's ~1.3GB/s sequential envelope.

        Cache probes, mapping lookups and the flash fan-out run batched:
        one ``lookup_many`` per command and one die chain per (channel,
        way) group via :meth:`FlashArray.read_many`, instead of one
        closure per page.  It matches the per-page reference in
        ``tests/reference/ftl.py`` in simulated time and every counter.
        """
        if not lpns:
            self.sim.call_soon(lambda: on_done([]))
            return
        if len(lpns) == 1:
            self.read_page(lpns[0], lambda content, _hit: on_done([content]))
            return
        self.host_page_reads += len(lpns)
        costs = self.cpu.costs
        hits, contents = self.page_cache.lookup_many(lpns)
        miss_indices = [i for i, hit in enumerate(hits) if not hit]
        base = costs.io_miss_s if miss_indices else costs.io_hit_s
        cpu_cost = base + (len(lpns) - 1) * costs.io_extra_page_s

        def after_cpu() -> None:
            if not miss_indices:
                on_done(contents)
                return
            miss_lpns = np.asarray([lpns[i] for i in miss_indices], dtype=np.int64)
            ppns = self.mapping.lookup_many(miss_lpns)
            mapped = ppns != UNMAPPED
            flash_indices = [i for i, m in zip(miss_indices, mapped.tolist()) if m]
            if not flash_indices:
                on_done(contents)
                return
            self.flash_page_reads += len(flash_indices)
            remaining = {"n": len(flash_indices)}
            page_cache = self.page_cache

            def page_done(j: int, content: Any) -> None:
                i = flash_indices[j]
                contents[i] = content
                if content is not None:  # don't cache uncorrectable reads
                    page_cache.insert(lpns[i], content)
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    on_done(contents)

            self.flash.read_many(ppns[mapped], page_done)

        self.cpu.ftl_core.submit(cpu_cost, after_cpu)

    # ------------------------------------------------------------------
    # Foreground write path
    # ------------------------------------------------------------------
    def write_page(self, lpn: int, content: Any, on_done: Done) -> None:
        """Write one full logical page (log-structured allocate + program)."""
        if not 0 <= lpn < self.logical_pages:
            raise IndexError(f"lpn {lpn} out of logical range")
        self.host_page_writes += 1

        def after_cpu() -> None:
            self._do_write(lpn, content, on_done)

        self.cpu.ftl_core.submit(self.cpu.costs.write_accept_s, after_cpu)

    def _do_write(self, lpn: int, content: Any, on_done: Done) -> None:
        if not self.blocks.can_allocate(reserve=1):
            # Write stall: all dies are down to the GC reserve.  Queue the
            # write and kick collection; it resumes when a block frees up.
            self.write_stalls += 1
            self._stalled_writes.append((lpn, content, on_done))
            for die in range(self.geometry.dies):
                self.gc.maybe_collect(die)
            return
        ppn = self.blocks.allocate_page(reserve=1)
        die = self._die_of_ppn(ppn)

        def after_program() -> None:
            self.mapping.map(lpn, ppn)
            self.page_cache.insert(lpn, content)
            on_done()
            self.gc.maybe_collect(die)

        self.program_page(ppn, content, after_program)

    def program_page(self, ppn: int, content: Any, on_done: Done) -> None:
        """Issue a flash program with per-block in-flight accounting."""
        block_id = ppn // self.geometry.pages_per_block
        self._inflight_programs[block_id] = self._inflight_programs.get(block_id, 0) + 1

        def after_program() -> None:
            count = self._inflight_programs.get(block_id, 0) - 1
            if count <= 0:
                self._inflight_programs.pop(block_id, None)
            else:
                self._inflight_programs[block_id] = count
            on_done()

        self.flash.program(ppn, content, after_program)

    def block_erasable(self, block_id: int) -> bool:
        """True when no programs are queued/active against the block."""
        return self._inflight_programs.get(block_id, 0) == 0

    def notify_blocks_released(self) -> None:
        """Resume stalled writes after GC/wear leveling frees blocks."""
        while self._stalled_writes and self.blocks.can_allocate(reserve=1):
            lpn, content, on_done = self._stalled_writes.pop(0)
            self._do_write(lpn, content, on_done)

    def _die_of_ppn(self, ppn: int) -> int:
        addr = self.geometry.addr(ppn)
        return self.geometry.die_index(addr.channel, addr.way)

    # ------------------------------------------------------------------
    # NDP hook: scheduled flash page read without the IO-command overhead.
    # The SLS scheduling layer pays its own (cheaper) per-page CPU cost and
    # calls this to touch flash directly, exploiting internal parallelism.
    # ------------------------------------------------------------------
    def ndp_read_mapped_page(self, lpn: int, on_done: Callable[[Any], None]) -> None:
        ppn = self.mapping.lookup(lpn)
        if ppn == UNMAPPED:
            self.sim.call_soon(lambda: on_done(None))
            return
        self.flash_page_reads += 1
        self.flash.read(ppn, on_done)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def wear_check(self) -> None:
        """Called by GC after erases; rate-limits wear-leveling scans."""
        self._erases_since_wear_check += 1
        if self._erases_since_wear_check >= 8:
            self._erases_since_wear_check = 0
            self.wear.check()

    def trim_page(self, lpn: int) -> None:
        self.mapping.unmap(lpn)
        self.page_cache.invalidate(lpn)

    # ------------------------------------------------------------------
    # Preload fast path (no simulated time)
    # ------------------------------------------------------------------
    def preload_pages(self, lpn_start: int, contents: Iterable[Any]) -> int:
        """Install ``contents`` at consecutive LPNs; returns pages installed.

        Reserves whole blocks, installs content directly into the flash
        store and mapping.  Used to stand in for the one-time table load
        the paper performs before its measurements.
        """
        contents = list(contents)
        if not contents:
            return 0
        pages_needed = len(contents)
        if lpn_start + pages_needed > self.logical_pages:
            raise ValueError("preload exceeds logical space")
        blocks_needed = math.ceil(pages_needed / self.geometry.pages_per_block)
        block_ids = self.blocks.reserve_blocks(blocks_needed)
        idx = 0
        for block_id in block_ids:
            base_ppn = self.geometry.first_ppn_of_block(block_id)
            for page in range(self.geometry.pages_per_block):
                if idx >= pages_needed:
                    break
                ppn = base_ppn + page
                self.flash.store.install(ppn, contents[idx])
                self.mapping.map(lpn_start + idx, ppn)
                idx += 1
        return idx

    def preload_region(self, lpn_start: int, region: Any) -> int:
        """Install a virtual page region (e.g. an embedding table image).

        ``region`` provides ``page_count`` and ``page_content(offset)``.
        Consecutive logical pages are striped across dies exactly as the
        log-structured write path would place them, so sequential reads
        exploit full channel parallelism.  Whole blocks are reserved and
        the table's contents stay virtual (no per-page content entries),
        but the cost is still O(pages) in interpreter steps:
        ``FlashStore.install_region`` proves each block erased by probing
        every one of its PPNs in a Python generator, and the mapping is
        written with one ``bulk_map_pairs`` call (plus its array
        validation) per block rather than once per table.
        """
        pages_needed = int(region.page_count)
        if pages_needed <= 0:
            return 0
        if lpn_start + pages_needed > self.logical_pages:
            raise ValueError("preload exceeds logical space")
        per_block = self.geometry.pages_per_block
        dies = self.geometry.dies
        # Stripe across every die the way the write path would: each die
        # serves ~P/D pages, so small tables still occupy one (partially
        # filled) block on every die and sequential reads hit all channels.
        stripe_dies = min(dies, pages_needed)
        pages_per_die = math.ceil(pages_needed / stripe_dies)
        blocks_needed = stripe_dies * math.ceil(pages_per_die / per_block)
        block_ids = self.blocks.reserve_blocks(blocks_needed)
        # reserve_blocks hands out blocks round-robin across dies; group
        # them per die so die d serves logical pages d, d+D, d+2D, ...
        per_die_blocks: dict[int, list[int]] = {}
        for block_id in block_ids:
            die = block_id // self.geometry.blocks_per_die
            per_die_blocks.setdefault(die, []).append(block_id)
        die_order = sorted(per_die_blocks)
        n_dies = len(die_order)
        for d_idx, die in enumerate(die_order):
            # Logical offsets served by this die: d_idx, d_idx + n_dies, ...
            die_pages = (pages_needed - d_idx + n_dies - 1) // n_dies
            consumed = 0
            for block_id in per_die_blocks[die]:
                if consumed >= die_pages:
                    break
                count = min(per_block, die_pages - consumed)
                first_offset = d_idx + consumed * n_dies
                self.flash.store.install_region(
                    block_id, region, first_offset, stride=n_dies
                )
                base_ppn = self.geometry.first_ppn_of_block(block_id)
                ppns = np.arange(base_ppn, base_ppn + count, dtype=np.int64)
                offsets = first_offset + np.arange(count, dtype=np.int64) * n_dies
                self.mapping.bulk_map_pairs(lpn_start + offsets, ppns)
                consumed += count
            if consumed < die_pages:
                raise OutOfSpaceError(
                    f"die {die} reserved too few blocks for preload "
                    f"({consumed}/{die_pages} pages)"
                )
        return pages_needed

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Clear the request counters benchmarks read (not device state)."""
        self.host_page_reads = 0
        self.host_page_writes = 0
        self.flash_page_reads = 0
        self.write_stalls = 0
        self.page_cache.reset_stats()
        self.gc.reset_stats()
        self.wear.reset_stats()

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self.cpu.idle and self.flash.idle
