"""RecSSD NDP SLS backend.

Offloads the gather + accumulate to the SSD's FTL via the NDP session.
With a static host partition (Section 4.2), profiled-hot rows are summed
host-side and the SSD handles only the cold remainder; the returned
partial sums are merged on the host — exactly the post-processing step
the paper describes.

The hot/cold split runs batch-first: one vectorized membership probe
over the flattened bags, a segment-sum for the per-bag hot partials, and
a boundary split for the cold remainder — no per-bag Python loop.  The
per-bag scalar split it replaced is the test-only oracle
``ScalarNdpSlsBackend`` in ``tests/reference/backends.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ...core.vecops import segment_sum
from ...sim.stats import Breakdown
from ..caches import StaticPartitionCache
from ..table import EmbeddingTable
from .base import SlsBackend, SlsOpResult, flatten_bags

__all__ = ["NdpSlsBackend"]


class NdpSlsBackend(SlsBackend):
    def __init__(
        self,
        system,
        table: EmbeddingTable,
        partition: Optional[StaticPartitionCache] = None,
    ):
        super().__init__(system, table)
        self.partition = partition
        # Host-path fallback used while the device's NDP engine is down
        # (fault injection); built lazily so healthy runs never touch it.
        self._fallback = None
        self.fallback_ops = 0

    # ------------------------------------------------------------------
    def _split_partition(
        self,
        bags: Sequence[np.ndarray],
        partial: np.ndarray,
        breakdown: Breakdown,
        stats: Dict[str, float],
    ) -> tuple[List[np.ndarray], float]:
        """Host half of Section 4.2: sum profiled-hot rows host-side.

        Fills ``partial`` with the per-result hot sums and returns the cold
        remainder bags plus the host CPU time the split cost.
        """
        host_cpu = self.system.host_cpu
        table = self.table
        host_cost = 0.0
        if self.partition is not None:
            rows, rids = flatten_bags(bags)
            mask = self.partition.partition_mask(rows)
            hot_rows = rows[mask]
            partition_hits = int(hot_rows.size)
            if partition_hits:
                # rids ascend (bags flatten in order), so the per-bag hot
                # sums are one segment reduce.
                partial += segment_sum(
                    self.partition.vectors_for(hot_rows), rids[mask], len(bags)
                )
            cold_rows = rows[~mask]
            if len(bags):
                cold_counts = np.bincount(rids[~mask], minlength=len(bags))
                cold_bags = np.split(cold_rows, np.cumsum(cold_counts)[:-1])
            else:
                cold_bags = []
            host_cost = host_cpu.accumulate_time(partition_hits, table.spec.row_bytes)
            breakdown.add("host_partition", host_cost)
            total_lookups = int(rows.size)
        else:
            cold_bags = [np.asarray(b, dtype=np.int64).reshape(-1) for b in bags]
            total_lookups = int(sum(b.size for b in cold_bags))
            partition_hits = 0
        stats["lookups"] = float(total_lookups)
        stats["partition_hits"] = float(partition_hits)
        stats["cold_lookups"] = float(sum(b.size for b in cold_bags))
        return list(cold_bags), host_cost

    def _start(self, bags: Sequence[np.ndarray], on_done: Callable[[SlsOpResult], None]) -> None:
        device = getattr(self.table, "device", None)
        if device is not None and getattr(device.ndp, "down", False):
            self._start_fallback(bags, on_done)
            return
        sim = self.system.sim
        host_cpu = self.system.host_cpu
        table = self.table
        start = sim.now
        breakdown = Breakdown()
        stats: Dict[str, float] = {}
        n_results = len(bags)
        partial = np.zeros((n_results, table.spec.dim), dtype=np.float32)

        cold_bags, split_cost = self._split_partition(bags, partial, breakdown, stats)
        host_cost = host_cpu.config.op_overhead_s + split_cost

        if stats["cold_lookups"] == 0:
            # Everything was served from the host partition.
            def finish_local() -> None:
                on_done(
                    SlsOpResult(
                        values=partial,
                        start_time=start,
                        end_time=sim.now,
                        breakdown=breakdown,
                        stats=stats,
                    )
                )

            sim.schedule(host_cost, finish_local)
            return

        config = table.make_sls_config(cold_bags)

        def ndp_done(payload, timing) -> None:
            breakdown.merge(payload.breakdown)
            stats["flash_pages_read"] = float(payload.flash_pages_read)
            stats["ssd_page_cache_hits"] = float(payload.page_cache_hits)
            stats["emb_cache_hits"] = float(payload.emb_cache_hits)
            if payload.uncorrectable_pages:
                stats["uncorrectable_pages"] = float(payload.uncorrectable_pages)
            # Post-process: merge SSD partial sums with host partition sums.
            merge_cost = host_cpu.accumulate_time(n_results, table.spec.row_bytes)
            breakdown.add("host_merge", merge_cost)
            values = payload.values + partial

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

            sim.schedule(host_cost + merge_cost, finish)

        self.system.session_for(self.table.device).sls(config, ndp_done)

    # ------------------------------------------------------------------
    def _start_fallback(
        self, bags: Sequence[np.ndarray], on_done: Callable[[SlsOpResult], None]
    ) -> None:
        """NDP engine down: serve via the host-orchestrated SSD read path.

        Graceful degradation, not failure — the data is still on the
        device, only the in-storage compute is gone, so the host reads
        pages and accumulates itself (slower, but correct).  Results are
        tagged ``ndp_fallback`` so stats can separate the two paths.
        """
        from .ssd import SsdSlsBackend

        if self._fallback is None:
            self._fallback = SsdSlsBackend(self.system, self.table)
        self.fallback_ops += 1

        def tagged(result: SlsOpResult) -> None:
            result.stats["ndp_fallback"] = 1.0
            on_done(result)

        self._fallback._start(bags, tagged)

    def reset_stats(self) -> None:
        super().reset_stats()
        self.fallback_ops = 0
        if self._fallback is not None:
            self._fallback.reset_stats()
