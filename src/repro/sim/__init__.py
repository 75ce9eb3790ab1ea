"""Discrete-event simulation substrate (kernel, resources, statistics)."""

from .kernel import Process, ScheduleHandle, Signal, SimError, Simulator, Timeout, drain
from .resources import BandwidthPipe, Server, Store
from .stats import Accumulator, Breakdown, TimeWeightedStat, summarize_latencies
from . import units

__all__ = [
    "Simulator",
    "Process",
    "Signal",
    "Timeout",
    "SimError",
    "ScheduleHandle",
    "drain",
    "Server",
    "Store",
    "BandwidthPipe",
    "Accumulator",
    "Breakdown",
    "TimeWeightedStat",
    "summarize_latencies",
    "units",
]
