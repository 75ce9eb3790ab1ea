"""Named counters/gauges/histograms and a sim-time periodic sampler.

The :class:`MetricsRegistry` is the aggregate side of ``repro.obs``:
where the tracer records *individual* causally-linked intervals, the
registry holds *named* running values — counters (monotonic within a
reset window), gauges (last-write-wins), and histograms (full sample
lists with the repo's one percentile rule,
:func:`~repro.sim.stats.rank_quantile`).

The :class:`PeriodicSampler` turns live gauges into *time series*: every
``period_s`` simulated seconds it calls a probe callable, which returns a
``{name: value}`` mapping, and appends ``(t, mapping)`` to
``sampler.samples``.  Unlike the tracer, the sampler DOES schedule
simulator events (one per tick), so it is strictly opt-in: nothing
creates or starts one implicitly, goldens never run with one active, and
``stop()`` cancels the pending tick so ``run_until``-style settle loops
cannot be wedged by an immortal heartbeat.  The probe must be read-only —
it observes queue depths / inflight / hit rates, never mutates them.

:func:`serving_probe` builds the standard probe for an
:class:`~repro.serving.server.InferenceServer` (queue depth, inflight,
cache hit rate, GC pressure, per-lane goodput); any zero-argument
callable returning a mapping works.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..sim.stats import rank_quantile

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PeriodicSampler",
    "serving_probe",
]


class Counter:
    """A monotonically-increasing count (within a reset window)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        self.value += amount

    def reset_stats(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-write-wins instantaneous value with a peak memory."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def reset_stats(self) -> None:
        self.value = 0.0
        self.peak = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value}, peak={self.peak})"


class Histogram:
    """A full sample list with rank-based percentiles (the repo's rule,
    :func:`~repro.sim.stats.rank_quantile`: the same index every serving
    and cluster latency report uses)."""

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def percentile(self, p: float) -> float:
        """Percentile ``p`` in [0, 100]; 0.0 when empty."""
        return rank_quantile(sorted(self.values), p / 100.0)

    def reset_stats(self) -> None:
        self.values.clear()

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={len(self.values)})"


class MetricsRegistry:
    """Named metrics, created on first use and listed deterministically."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def as_dict(self) -> Dict[str, float]:
        """Scalar snapshot: counters/gauges by value, histograms by count
        plus mean/p50/p99 derived keys."""
        out: Dict[str, float] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[f"{name}.count"] = float(metric.count)
                out[f"{name}.mean"] = metric.mean
                out[f"{name}.p50"] = metric.percentile(50)
                out[f"{name}.p99"] = metric.percentile(99)
            else:
                out[name] = metric.value
        return out

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset_stats()

    reset_stats = reset

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __repr__(self) -> str:
        return f"MetricsRegistry({self.names()})"


class PeriodicSampler:
    """Snapshot a probe mapping into a time series every ``period_s``.

    Explicit lifecycle: :meth:`start` schedules the first tick,
    :meth:`stop` cancels the pending one.  Each sample is
    ``(t, dict(probe()))``.  ``max_samples`` bounds memory (and run
    length) for open-ended scenarios; the sampler stops itself when the
    bound is reached.
    """

    def __init__(
        self,
        sim,
        probe: Callable[[], Mapping[str, float]],
        period_s: float,
        max_samples: Optional[int] = None,
    ):
        if period_s <= 0:
            raise ValueError("sampler period must be positive")
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be None or >= 1")
        self.sim = sim
        self.probe = probe
        self.period_s = period_s
        self.max_samples = max_samples
        self.samples: List[Tuple[float, Dict[str, float]]] = []
        self._handle = None

    @property
    def running(self) -> bool:
        return self._handle is not None

    def start(self) -> "PeriodicSampler":
        if self._handle is None:
            self._handle = self.sim.schedule(self.period_s, self._tick)
        return self

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        self._handle = None
        self.samples.append((self.sim.now, dict(self.probe())))
        if self.max_samples is not None and len(self.samples) >= self.max_samples:
            return
        self._handle = self.sim.schedule(self.period_s, self._tick)

    def series(self, name: str) -> List[Tuple[float, float]]:
        """The ``(t, value)`` time series of one probed key."""
        return [(t, row[name]) for t, row in self.samples if name in row]

    def reset_stats(self) -> None:
        self.samples.clear()

    def __repr__(self) -> str:
        return (
            f"PeriodicSampler(period={self.period_s}, "
            f"samples={len(self.samples)}, running={self.running})"
        )


def serving_probe(server) -> Callable[[], Dict[str, float]]:
    """The standard read-only probe for an ``InferenceServer``: queue
    depth, inflight, cumulative cache hit rate, GC pressure and per-lane
    goodput — the live shape of a diurnal/burst scenario."""

    def probe() -> Dict[str, float]:
        stats = server.stats
        out: Dict[str, float] = {
            "queue_depth": float(server.queue.queued),
            "inflight": float(stats.inflight),
            "submitted": float(stats.submitted),
            "completed": float(stats.completed),
            "dropped": float(stats.dropped),
            "rejected": float(stats.rejected),
            "cache_hit_rate": stats.cache_hit_rate(),
        }
        device = getattr(server.system, "device", None)
        ftl = getattr(device, "ftl", None)
        if ftl is not None:
            out["gc_runs"] = float(ftl.gc.runs)
            out["gc_pages_moved"] = float(ftl.gc.pages_moved)
            out["ftl_page_reads"] = float(ftl.host_page_reads)
            out["ftl_page_writes"] = float(ftl.host_page_writes)
        for lane, goodput in getattr(stats, "goodput_by_model", {}).items():
            out[f"goodput[{lane}]"] = float(goodput)
        return out

    return probe
