"""Per-page reference for ``GreedyFtl.read_pages``, written as an unbound
method; :func:`install_scalar_reads` binds it over one FTL instance."""

from __future__ import annotations

import types
from typing import Any, Callable

from repro.ftl.ftl import GreedyFtl
from repro.ftl.mapping import UNMAPPED

__all__ = ["install_scalar_reads", "read_pages_scalar"]


def install_scalar_reads(ftl: GreedyFtl) -> None:
    """Route ``ftl.read_pages`` through the scalar reference."""
    ftl.read_pages = types.MethodType(read_pages_scalar, ftl)


def read_pages_scalar(
    self: GreedyFtl, lpns: list[int], on_done: Callable[[list[Any]], None]
) -> None:
    """Scalar reference for ``GreedyFtl.read_pages`` (one closure per page).

    Kept verbatim as the golden baseline the batch path must match in
    simulated time and stats; ``benchmarks/bench_hotpath.py`` also
    times it as the "before" side.
    """
    if not lpns:
        self.sim.call_soon(lambda: on_done([]))
        return
    if len(lpns) == 1:
        self.read_page(lpns[0], lambda content, _hit: on_done([content]))
        return
    self.host_page_reads += len(lpns)
    costs = self.cpu.costs
    contents: list[Any] = [None] * len(lpns)
    # Probe the cache up front; misses go to flash after the CPU cost.
    miss_indices: list[int] = []
    for i, lpn in enumerate(lpns):
        hit, content = self.page_cache.lookup(lpn)
        if hit:
            contents[i] = content
        else:
            miss_indices.append(i)
    base = costs.io_miss_s if miss_indices else costs.io_hit_s
    cpu_cost = base + (len(lpns) - 1) * costs.io_extra_page_s

    def after_cpu() -> None:
        if not miss_indices:
            on_done(contents)
            return
        remaining = {"n": len(miss_indices)}
        for i in miss_indices:
            lpn = lpns[i]
            ppn = self.mapping.lookup(lpn)
            if ppn == UNMAPPED:
                contents[i] = None
                remaining["n"] -= 1
                continue
            self.flash_page_reads += 1

            def make(i: int, lpn: int):
                def cb(content: Any) -> None:
                    contents[i] = content
                    if content is not None:  # don't cache uncorrectable reads
                        self.page_cache.insert(lpn, content)
                    remaining["n"] -= 1
                    if remaining["n"] == 0:
                        on_done(contents)

                return cb

            self.flash.read(ppn, make(i, lpn))
        if remaining["n"] == 0:
            on_done(contents)

    self.cpu.ftl_core.submit(cpu_cost, after_cpu)
