"""Statistics collection for the simulator and the modelled systems."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Accumulator",
    "TimeWeightedStat",
    "Breakdown",
    "rank_quantile",
    "summarize_latencies",
]


def rank_quantile(sorted_values: List[float], q: float) -> float:
    """Quantile ``q`` in [0, 1] of an ascending-sorted list.

    Picks index ``round(q * (n - 1))`` — the repo's historical percentile
    rule (shared by every latency report), not the textbook nearest-rank
    ``ceil(q * n)`` definition.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


class Accumulator:
    """Streaming mean/min/max/variance accumulator (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum", "total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return (
            f"Accumulator(n={self.count}, mean={self.mean:.4g}, "
            f"min={self.minimum:.4g}, max={self.maximum:.4g})"
        )


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant quantity (queue length)."""

    def __init__(self, sim) -> None:
        self._sim = sim
        self._last_time = sim.now
        self._last_value = 0.0
        self._weighted_sum = 0.0
        self._start = sim.now

    def record(self, value: float) -> None:
        now = self._sim.now
        self._weighted_sum += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = value

    def mean(self) -> float:
        now = self._sim.now
        span = now - self._start
        if span <= 0:
            return self._last_value
        total = self._weighted_sum + self._last_value * (now - self._last_time)
        return total / span


class Breakdown:
    """Named time-component accounting (e.g. the Fig 8 FTL breakdown).

    Components accumulate seconds; the breakdown can be merged, scaled and
    rendered.  Unknown components are created on first use.
    """

    __slots__ = ("components",)

    def __init__(self, components: Optional[Dict[str, float]] = None):
        self.components: Dict[str, float] = dict(components or {})

    def add(self, name: str, seconds: float) -> None:
        self.components[name] = self.components.get(name, 0.0) + seconds

    def get(self, name: str) -> float:
        return self.components.get(name, 0.0)

    def merge(self, other: "Breakdown") -> "Breakdown":
        for name, value in other.components.items():
            self.add(name, value)
        return self

    def scaled(self, factor: float) -> "Breakdown":
        return Breakdown({k: v * factor for k, v in self.components.items()})

    @property
    def total(self) -> float:
        return sum(self.components.values())

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {k: 0.0 for k in self.components}
        return {k: v / total for k, v in self.components.items()}

    def as_us(self) -> Dict[str, float]:
        return {k: v * 1e6 for k, v in self.components.items()}

    def copy(self) -> "Breakdown":
        return Breakdown(dict(self.components))

    def reset(self) -> None:
        """Clear all accumulated components (benchmark warm-up discard)."""
        self.components.clear()

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v * 1e6:.1f}us" for k, v in self.components.items())
        return f"Breakdown({parts})"


def summarize_latencies(latencies_s: List[float]) -> Dict[str, float]:
    """Convenience summary used by experiment reports (values in ms)."""
    acc = Accumulator()
    acc.extend(latencies_s)
    ordered = sorted(latencies_s)

    def pct(p: float) -> float:
        return rank_quantile(ordered, p)

    return {
        "mean_ms": acc.mean * 1e3,
        "min_ms": (acc.minimum if acc.count else 0.0) * 1e3,
        "max_ms": (acc.maximum if acc.count else 0.0) * 1e3,
        "p50_ms": pct(0.50) * 1e3,
        "p95_ms": pct(0.95) * 1e3,
        "p99_ms": pct(0.99) * 1e3,
        "count": float(acc.count),
    }
