"""Scalar reference SLS backends: one Python step per row (SSD) or per
bag (NDP split), matched by ``tests/hotpath/test_backend_equivalence.py``."""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.extract import extract_vectors
from repro.embedding.backends.base import SlsOpResult, flatten_bags
from repro.embedding.backends.ndp import NdpSlsBackend
from repro.embedding.backends.ssd import SsdSlsBackend
from repro.sim.stats import Breakdown

__all__ = ["ScalarNdpSlsBackend", "ScalarSsdSlsBackend"]


class ScalarSsdSlsBackend(SsdSlsBackend):
    """Per-row :class:`SsdSlsBackend`; its host cache is a ``ScalarSetAssociativeLru``."""

    def _start(
        self, bags: Sequence[np.ndarray], on_done: Callable[[SlsOpResult], None]
    ) -> None:
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

        # ---- host cache filter -------------------------------------------
        if self.host_cache is not None and rows.size:
            hit_vecs: List[np.ndarray] = []
            hit_rids: List[int] = []
            miss_mask = np.ones(rows.size, dtype=bool)
            missed_rows: set = set()
            for i in range(rows.size):
                row = int(rows[i])
                if row in missed_rows:
                    # Sequential execution would have fetched this row by
                    # now; the value still comes from the (shared) page
                    # fetch below, but it counts as a cache hit.
                    self.host_cache.record_sequential_hit()
                    continue
                vec = self.host_cache.lookup(row)
                if vec is not None:
                    hit_vecs.append(vec)
                    hit_rids.append(int(rids[i]))
                    miss_mask[i] = False
                else:
                    missed_rows.add(row)
            if hit_vecs:
                np.add.at(values, np.asarray(hit_rids), np.stack(hit_vecs))
                cost = host_cpu.accumulate_time(len(hit_vecs), table.spec.row_bytes)
                breakdown.add("cache_hit_accumulate", cost)
                host_tail += cost
                stats["cache_hits"] = float(len(hit_vecs))
            rows = rows[miss_mask]
            rids = rids[miss_mask]

        # Per-lookup index handling cost on the host.
        host_tail += rows.size * host_cpu.config.sls_per_lookup_s

        if rows.size == 0:
            self._finish(sim, host_tail, values, start, breakdown, stats, on_done)
            return

        # ---- group misses by LBA run --------------------------------------
        srows = table.storage_ids(rows)  # layout-aware storage ranks
        spans = table.lba_span_of_storage(srows)  # [n, 2] (first_lba, nlb)
        groups: Dict[Tuple[int, int], List[int]] = {}
        for i in range(rows.size):
            key = (int(spans[i, 0]), int(spans[i, 1]))
            groups.setdefault(key, []).append(i)
        commands = self._plan_commands(sorted(groups.keys()))
        stats["commands"] = float(len(commands))
        stats["unique_blocks"] = float(len(groups))

        pending = {"n": len(commands), "accumulate_cost": 0.0}
        rpp = table.rows_per_page
        page_bytes = table.page_bytes
        lba_bytes = table.lba_bytes
        table_base_byte = table.base_lba * lba_bytes

        def make_handler(span_keys: List[Tuple[int, int]]):
            member_idx = [i for key in span_keys for i in groups[key]]

            def handle(cpl) -> None:
                if not cpl.ok:
                    raise RuntimeError(f"baseline SLS read failed: {cpl.status}")
                # Extract each needed vector from the returned page content.
                content_by_lpn = {seg.lpn: seg.content for seg in cpl.payload.segments}
                got_rows = rows[member_idx]
                got_rids = rids[member_idx]
                got_srows = srows[member_idx]
                page_idx = got_srows // rpp
                slots = got_srows % rpp
                base_lpn = table_base_byte // page_bytes
                vecs = np.zeros((got_rows.size, table.spec.dim), dtype=np.float32)
                readable = np.ones(got_rows.size, dtype=bool)
                for j in range(got_rows.size):
                    content = content_by_lpn.get(base_lpn + int(page_idx[j]))
                    if content is None:
                        # Uncorrectable page: row contributes zeros, is
                        # not cached, and is counted (mirrors the
                        # vectorized path's filtering).
                        readable[j] = False
                        stats["uncorrectable_rows"] = (
                            stats.get("uncorrectable_rows", 0.0) + 1.0
                        )
                        continue
                    vecs[j] = extract_vectors(
                        content,
                        np.asarray([slots[j]]),
                        table.spec.dim,
                        rpp,
                        table.spec.quant,
                    )[0]
                np.add.at(values, got_rids, vecs)
                if self.host_cache is not None:
                    for j in range(got_rows.size):
                        if readable[j]:
                            self.host_cache.insert(int(got_rows[j]), vecs[j])
                pending["accumulate_cost"] += host_cpu.accumulate_time(
                    int(np.count_nonzero(readable)), table.spec.row_bytes
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

        for slba, nlb, span_keys in commands:
            driver.read(slba, nlb, make_handler(span_keys))

    # ------------------------------------------------------------------
    def _plan_commands(
        self, span_keys: List[Tuple[int, int]]
    ) -> List[Tuple[int, int, List[Tuple[int, int]]]]:
        """Turn sorted unique LBA spans into (slba, nlb, members) commands."""
        commands: List[Tuple[int, int, List[Tuple[int, int]]]] = []
        if not span_keys:
            return commands
        if not self.coalesce:
            return [(lba, nlb, [(lba, nlb)]) for lba, nlb in span_keys]
        # Range reads: merge spans (gaps included — the extra blocks ride
        # along in the transfer) as long as the command stays within the
        # max transfer size.
        cur_start, cur_nlb = span_keys[0]
        members = [span_keys[0]]
        for lba, nlb in span_keys[1:]:
            if (lba + nlb - cur_start) <= self.max_coalesce_lbas:
                cur_nlb = max(cur_nlb, lba + nlb - cur_start)
                members.append((lba, nlb))
            else:
                commands.append((cur_start, cur_nlb, members))
                cur_start, cur_nlb = lba, nlb
                members = [(lba, nlb)]
        commands.append((cur_start, cur_nlb, members))
        return commands


class ScalarNdpSlsBackend(NdpSlsBackend):
    """:class:`NdpSlsBackend` with the per-bag scalar hot/cold split."""

    def _split_partition(
        self,
        bags: Sequence[np.ndarray],
        partial: np.ndarray,
        breakdown: Breakdown,
        stats: Dict[str, float],
    ) -> tuple[List[np.ndarray], float]:
        """Scalar reference (golden baseline; do not optimize)."""
        host_cpu = self.system.host_cpu
        table = self.table
        cold_bags: List[np.ndarray] = []
        total_lookups = 0
        partition_hits = 0
        host_cost = 0.0
        if self.partition is not None:
            for i, bag in enumerate(bags):
                bag = np.asarray(bag, dtype=np.int64).reshape(-1)
                total_lookups += bag.size
                if bag.size == 0:
                    cold_bags.append(bag)
                    continue
                mask = self.partition.partition_mask(bag)
                hot = bag[mask]
                if hot.size:
                    partial[i] = self.partition.vectors_for(hot).sum(
                        axis=0, dtype=np.float32
                    )
                    partition_hits += int(hot.size)
                cold_bags.append(bag[~mask])
            host_cost = host_cpu.accumulate_time(partition_hits, table.spec.row_bytes)
            breakdown.add("host_partition", host_cost)
        else:
            cold_bags = [np.asarray(b, dtype=np.int64).reshape(-1) for b in bags]
            total_lookups = int(sum(b.size for b in cold_bags))
        stats["lookups"] = float(total_lookups)
        stats["partition_hits"] = float(partition_hits)
        stats["cold_lookups"] = float(sum(b.size for b in cold_bags))
        return cold_bags, host_cost
