"""Per-layer numbers, read from outside the program.

Three sources, none of which adds code inside ``src/``:

* counts: public attributes of the built system, read after setup and
  again after the run phase (the difference is the run's work);
* wall self time per ``repro.<module>``: a sampling profile of the
  run phase (:class:`ModuleSampler`), with time in builtins and
  non-repro Python (numpy, the stdlib) charged to the repro module
  that called it;
* sim-time attribution: ``repro.obs.attribute_p99`` over the spans a
  :class:`repro.obs.Tracer` recorded.
"""

from __future__ import annotations

import contextlib
import signal
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.ftl.ftl import GreedyFtl
from repro.obs import attribute_p99
from repro.serving.request import RequestState

SRC_REPRO = str(Path(__file__).resolve().parent.parent / "src" / "repro") + "/"

# Modules whose wall self time is reported (README table order); the rest of
# repro (host, ssd, obs, traces, ...) and the benchmark itself still
# count toward the accounting check.
SELF_TIME_MODULES = (
    "sim", "flash", "ftl", "nvme", "driver", "core", "embedding",
    "serving", "cluster", "workload", "models",
)
OUTSIDE = "<outside repro>"

# Sim-time stages whose p99-cohort exclusive time is reported.
EXCL_STAGES = (
    "ftl.read", "ftl.write", "gc.migrate", "nvme.cmd", "sls_op",
    "queue", "batch", "dense", "update.write",
)


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------
def snapshot(rig) -> Counter:
    """Cumulative public counters of every layer of ``rig``."""
    c: Counter = Counter()
    c["sim.events"] = rig.sim.event_count
    for system in rig.systems:
        for device in system.devices:
            ftl, ndp = device.ftl, device.ndp
            c["flash.page_reads"] += device.flash.total_reads()
            c["flash.page_programs"] += device.flash.total_programs()
            c["flash.erases"] += device.flash.total_erases()
            c["ftl.flash_page_reads"] += ftl.flash_page_reads
            c["ftl.host_page_writes"] += ftl.host_page_writes
            c["ftl.write_stalls"] += ftl.write_stalls
            c["ftl.pagecache.hits"] += ftl.page_cache.hits
            c["ftl.pagecache.misses"] += ftl.page_cache.misses
            c["ftl.gc.pages_moved"] += ftl.gc.pages_moved
            c["ftl.gc.blocks_reclaimed"] += ftl.gc.blocks_reclaimed
            c["ftl.gc.moves_aborted"] += ftl.gc.moves_aborted
            c["nvme.cmds"] += device.controller.commands_fetched
            c["driver.cmds"] += system.driver_for(device).commands_issued
            c["core.ndp_requests"] += ndp.requests_started
            c["core.ndp_queued"] += ndp.requests_queued
            c["core.embcache.hits"] += ndp.emb_cache.hits
            c["core.embcache.misses"] += ndp.emb_cache.misses
    for server in rig.servers:
        for pool in server.workers.values():
            for worker in pool:
                for backend in worker.stage.backends.values():
                    c["embedding.sls_ops"] += backend.ops
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_ms(lists: List[List[float]]) -> float:
    values = [v for values in lists for v in values]
    return 1e3 * sum(values) / len(values) if values else 0.0


def layer_counts(rig, before: Counter, after: Counter) -> Dict[str, float]:
    """Per-layer counts and ratios of one run phase (exactly repeatable)."""
    d = after - before  # Counter subtraction drops zero entries
    stats = [server.stats for server in rig.servers]
    bags = sum(
        len(bag_list)
        for request in rig.requests
        if request.state is RequestState.COMPLETE
        for bag_list in request.batch.bags.values()
    )
    host_writes = d["ftl.host_page_writes"]
    batches = sum(s.requests_per_batch.count for s in stats)
    out = {
        "sim.events": float(d["sim.events"]),
        "flash.page_reads": float(d["flash.page_reads"]),
        "flash.page_programs": float(d["flash.page_programs"]),
        "flash.erases": float(d["flash.erases"]),
        "ftl.pages_per_bag": _ratio(d["ftl.flash_page_reads"], bags),
        "ftl.pagecache.hit_rate": _ratio(
            d["ftl.pagecache.hits"],
            d["ftl.pagecache.hits"] + d["ftl.pagecache.misses"],
        ),
        "ftl.gc.pages_moved": float(d["ftl.gc.pages_moved"]),
        "ftl.gc.blocks_reclaimed": float(d["ftl.gc.blocks_reclaimed"]),
        "ftl.gc.moves_aborted": float(d["ftl.gc.moves_aborted"]),
        "ftl.write_amp": _ratio(host_writes + d["ftl.gc.pages_moved"], host_writes),
        "ftl.write_stalls": float(d["ftl.write_stalls"]),
        "nvme.cmds": float(d["nvme.cmds"]),
        "driver.cmds": float(d["driver.cmds"]),
        "core.ndp_requests": float(d["core.ndp_requests"]),
        "core.ndp_queued_frac": _ratio(d["core.ndp_queued"], d["core.ndp_requests"]),
        "core.embcache.hit_rate": _ratio(
            d["core.embcache.hits"],
            d["core.embcache.hits"] + d["core.embcache.misses"],
        ),
        "embedding.sls_ops": float(d["embedding.sls_ops"]),
        "embedding.cache_hit_rate": _ratio(
            sum(s.total_cache_hits() for s in stats),
            sum(s.total_lookups() for s in stats),
        ),
        "serving.queue_wait_ms": _mean_ms([s.queue_delays for s in stats]),
        "serving.batch_requests": _ratio(
            sum(s.requests_per_batch.total for s in stats), batches
        ),
        "serving.dense_wait_ms": _mean_ms([s.dense_wait_s for s in stats]),
        "serving.sls_wait_ms": _mean_ms([s.sls_wait_s for s in stats]),
        "serving.updates.pages_written": float(
            sum(s.update_pages_written for s in stats)
        ),
        "serving.updates.write_ms": _mean_ms(
            [s.update_write_latencies for s in stats]
        ),
        "cluster.cache_hit_rate": 0.0,
        "cluster.routes_spread": 0.0,
        "cluster.host_imbalance": 0.0,
    }
    if rig.cluster is not None:
        completed = [s.completed for s in stats]
        out["cluster.cache_hit_rate"] = rig.cluster.stats.cache_hit_rate()
        out["cluster.routes_spread"] = float(
            getattr(rig.cluster.router, "routes_spread", 0)
        )
        out["cluster.host_imbalance"] = _ratio(
            max(completed), sum(completed) / len(completed)
        )
    return out


# ----------------------------------------------------------------------
# Wall self time per module
# ----------------------------------------------------------------------
def module_of(filename: str) -> str:
    """``repro.<module>`` owning a source file, or '' outside repro."""
    if not filename.startswith(SRC_REPRO):
        return ""
    head = filename[len(SRC_REPRO):].split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


class ModuleSampler:
    """Statistical wall-clock profiler of the main thread, by repro module.

    While the context is open, a wall-clock interval timer interrupts
    the main thread every ``interval_s``; the handler charges the wall
    time since the previous sample to the innermost frame inside
    ``repro``.  Python runs the handler between bytecodes, so time in a
    builtin or a numpy call lands on the repro code that made it, and
    time with no repro frame on the stack goes to :data:`OUTSIDE`.
    Unlike a deterministic profiler it adds no cost to each call, so the
    proportions between modules stay those of the untraced program.
    """

    def __init__(self, interval_s: float = 0.001):
        self.interval_s = interval_s
        self.seconds: Dict[str, float] = {}
        self.samples = 0
        self._owners: Dict[object, str] = {}
        self._last = 0.0
        self._previous_handler = None

    def __enter__(self) -> "ModuleSampler":
        self._last = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _owner(self, frame) -> str:
        while frame is not None:
            code = frame.f_code
            module = self._owners.get(code)
            if module is None:
                module = self._owners[code] = module_of(code.co_filename)
            if module:
                return module
            frame = frame.f_back
        return OUTSIDE

    def _sample(self, _signum, frame) -> None:
        now = time.perf_counter()
        module = self._owner(frame)
        self.seconds[module] = self.seconds.get(module, 0.0) + now - self._last
        self.samples += 1
        self._last = now


@contextlib.contextmanager
def timed_preload() -> Iterator[List[float]]:
    """Wall seconds spent inside ``GreedyFtl.preload_region`` while the
    context is open (the method is wrapped, then restored)."""
    spent = [0.0]
    original = GreedyFtl.preload_region

    def wrapper(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0

    GreedyFtl.preload_region = wrapper
    try:
        yield spent
    finally:
        GreedyFtl.preload_region = original


# ----------------------------------------------------------------------
# Sim-time attribution
# ----------------------------------------------------------------------
def p99_attribution(tracer) -> Tuple[Dict[str, float], float, float]:
    """Mean exclusive ms per p99-cohort request for :data:`EXCL_STAGES`,
    plus the sum over *all* stages and the cohort's mean latency (ms),
    which must agree."""
    report = attribute_p99(tracer)
    cohort = max(1, report["cohort"])
    stages: Mapping[str, float] = report["stages"]
    excl = {
        f"{stage}.excl_ms": 1e3 * stages.get(stage, 0.0) / cohort
        for stage in EXCL_STAGES
    }
    return (
        excl,
        1e3 * sum(stages.values()) / cohort,
        1e3 * report["cohort_latency_s"] / cohort,
    )
