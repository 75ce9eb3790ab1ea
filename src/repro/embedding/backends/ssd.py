"""Baseline SSD SLS backend: conventional NVMe block reads + host accumulate.

This is the "COTS SSD" configuration of the paper: the host computes
which logical blocks hold the needed vectors, issues one conventional
read per (deduplicated) block run through the user-space driver, extracts
the vectors as payloads return, and accumulates on the host CPU.  An
optional host-DRAM LRU cache filters lookups first (Fig 10 baseline).

The hot path is batch-first: the cache filter, LBA-span grouping,
per-command vector extraction and cache refill all run as numpy array
operations — no per-row Python between the serving layer and the
driver.  The per-row scalar form it replaced lives on as a test-only
oracle, ``tests/reference/backends.py`` (``ScalarSsdSlsBackend``):
identical simulated behaviour, used by the equivalence tests and the
hot-path benchmark's "before" side.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...core.extract import extract_vectors, extract_vectors_many
from ...core.vecops import group_slices, scatter_add_vectors, segment_sum
from ...sim.stats import Breakdown
from ..caches import SetAssociativeLru
from ..table import EmbeddingTable, TablePageContent
from .base import SlsBackend, SlsOpResult, flatten_bags

__all__ = ["SsdSlsBackend"]


class SsdSlsBackend(SlsBackend):
    def __init__(
        self,
        system,
        table: EmbeddingTable,
        host_cache: Optional[SetAssociativeLru] = None,
        coalesce: bool = False,
        max_coalesce_lbas: int = 32,
    ):
        super().__init__(system, table)
        self.host_cache = host_cache
        self.coalesce = coalesce
        self.max_coalesce_lbas = max_coalesce_lbas

    # ------------------------------------------------------------------
    def _start(self, bags: Sequence[np.ndarray], on_done: Callable[[SlsOpResult], None]) -> None:
        sim = self.system.sim
        driver = self.system.driver_for(self.table.device)
        host_cpu = self.system.host_cpu
        table = self.table
        start = sim.now
        rows, rids = flatten_bags(bags)
        values = np.zeros((len(bags), table.spec.dim), dtype=np.float32)
        breakdown = Breakdown()
        stats: Dict[str, float] = {
            "lookups": float(rows.size),
            "cache_hits": 0.0,
            "commands": 0.0,
        }
        host_tail = host_cpu.config.op_overhead_s

        # ---- host cache filter (one batched probe) -----------------------
        if self.host_cache is not None and rows.size:
            hit_mask, hit_vecs = self.host_cache.probe_filter(rows)
            if hit_vecs is not None:
                n_hits = hit_vecs.shape[0]
                values += segment_sum(hit_vecs, rids[hit_mask], len(bags))
                cost = host_cpu.accumulate_time(n_hits, table.spec.row_bytes)
                breakdown.add("cache_hit_accumulate", cost)
                host_tail += cost
                stats["cache_hits"] = float(n_hits)
                keep = ~hit_mask
                rows = rows[keep]
                rids = rids[keep]

        # Per-lookup index handling cost on the host.
        host_tail += rows.size * host_cpu.config.sls_per_lookup_s

        if rows.size == 0:
            self._finish(sim, host_tail, values, start, breakdown, stats, on_done)
            return

        # ---- group misses by LBA run (mask/unique, no dict loop) ---------
        # Translate once to storage ranks: spans, page indices and slots
        # all address the (possibly heat-packed) physical placement,
        # while ``rows`` keeps the external ids for cache keys/values.
        srows = table.storage_ids(rows)
        spans = table.lba_span_of_storage(srows)  # [n, 2] (first_lba, nlb)
        encode = int(spans[:, 1].max()) + 1
        uniq_keys, member_order, bounds = group_slices(
            spans[:, 0] * encode + spans[:, 1]
        )
        span_first = uniq_keys // encode
        span_nlb = uniq_keys % encode
        commands = self._plan_command_ranges(span_first, span_nlb)
        stats["commands"] = float(len(commands))
        stats["unique_blocks"] = float(uniq_keys.size)

        pending = {"n": len(commands), "accumulate_cost": 0.0}
        rpp = table.rows_per_page
        page_bytes = table.page_bytes
        base_lpn = (table.base_lba * table.lba_bytes) // page_bytes
        quant = table.spec.quant
        dim = table.spec.dim

        # Miss vectors, pre-gathered once for the whole op.  Valid whenever
        # a command's pages are this table's virtual (preloaded) images —
        # extraction from those is definitionally ``table.get_rows``, so
        # the per-command work collapses to an array slice.  Commands whose
        # pages were rewritten through the IO path (raw buffers) fall back
        # to true extraction.
        prefetch: List[Optional[np.ndarray]] = [None] if (
            rows.size and int(rows.min()) >= 0 and int(rows.max()) < table.spec.rows
        ) else []

        def prefetched() -> np.ndarray:
            if prefetch[0] is None:
                prefetch[0] = table.get_rows(rows)
            return prefetch[0]

        def make_handler(member_idx: np.ndarray):
            def handle(cpl) -> None:
                if not cpl.ok:
                    raise RuntimeError(f"baseline SLS read failed: {cpl.status}")
                got_rows = rows[member_idx]
                got_srows = srows[member_idx]
                got_rids = rids[member_idx]
                segments = cpl.payload.segments
                bad_lpns = [seg.lpn for seg in segments if seg.content is None]
                if bad_lpns:
                    # Uncorrectable pages: their rows contribute zeros and
                    # must not be inserted into the host cache (that would
                    # pin zeros past the fault).  Count them for quality
                    # accounting; the op still completes.
                    ok = ~np.isin(
                        base_lpn + got_srows // rpp,
                        np.asarray(bad_lpns, dtype=np.int64),
                    )
                    stats["uncorrectable_rows"] = stats.get(
                        "uncorrectable_rows", 0.0
                    ) + float(got_rows.size - int(np.count_nonzero(ok)))
                    got_rows = got_rows[ok]
                    got_srows = got_srows[ok]
                    got_rids = got_rids[ok]
                if got_rows.size:
                    if not bad_lpns and prefetch and all(
                        type(seg.content) is TablePageContent
                        and seg.content.table is table
                        for seg in segments
                    ):
                        vecs = prefetched()[member_idx]
                    elif len(segments) == 1:
                        # Single-page command (every non-coalesced command):
                        # one direct extract, no grouping machinery.
                        vecs = extract_vectors(
                            segments[0].content, got_srows % rpp, dim, rpp, quant
                        )
                    else:
                        content_by_lpn = {seg.lpn: seg.content for seg in segments}
                        vecs = extract_vectors_many(
                            content_by_lpn,
                            base_lpn + got_srows // rpp,
                            got_srows % rpp,
                            dim,
                            rpp,
                            quant,
                        )
                    scatter_add_vectors(values, got_rids, vecs)
                    if self.host_cache is not None:
                        self.host_cache.insert_many(got_rows, vecs)
                pending["accumulate_cost"] += host_cpu.accumulate_time(
                    got_rows.size, table.spec.row_bytes
                )
                pending["n"] -= 1
                if pending["n"] == 0:
                    io_wait = sim.now - start
                    breakdown.add("io_wait", io_wait)
                    breakdown.add("host_accumulate", pending["accumulate_cost"])
                    self._finish(
                        sim,
                        host_tail + pending["accumulate_cost"],
                        values,
                        start,
                        breakdown,
                        stats,
                        on_done,
                    )

            return handle

        for slba, nlb, lo, hi in commands:
            driver.read(slba, nlb, make_handler(member_order[bounds[lo] : bounds[hi]]))

    def _plan_command_ranges(
        self, span_first: np.ndarray, span_nlb: np.ndarray
    ) -> List[Tuple[int, int, int, int]]:
        """Sorted unique spans -> ``(slba, nlb, span_lo, span_hi)`` commands.

        Range reads merge sorted spans (gaps included — the extra blocks
        ride along in the transfer) while the command stays within
        ``max_coalesce_lbas``.  Members are the half-open unique-span
        index range (consecutive, since commands merge sorted runs).
        """
        n = span_first.size
        if n == 0:
            return []
        if not self.coalesce:
            return [
                (int(span_first[i]), int(span_nlb[i]), i, i + 1) for i in range(n)
            ]
        commands: List[Tuple[int, int, int, int]] = []
        cur_start = int(span_first[0])
        cur_nlb = int(span_nlb[0])
        lo = 0
        for i in range(1, n):
            lba = int(span_first[i])
            nlb = int(span_nlb[i])
            if (lba + nlb - cur_start) <= self.max_coalesce_lbas:
                cur_nlb = max(cur_nlb, lba + nlb - cur_start)
            else:
                commands.append((cur_start, cur_nlb, lo, i))
                cur_start, cur_nlb = lba, nlb
                lo = i
        commands.append((cur_start, cur_nlb, lo, n))
        return commands

    # ------------------------------------------------------------------
    def _finish(self, sim, tail_cost, values, start, breakdown, stats, on_done) -> None:
        def finish() -> None:
            on_done(
                SlsOpResult(
                    values=values,
                    start_time=start,
                    end_time=sim.now,
                    breakdown=breakdown,
                    stats=stats,
                )
            )

        sim.schedule(tail_cost, finish)
