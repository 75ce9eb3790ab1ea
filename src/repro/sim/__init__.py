"""Discrete-event simulation substrate (kernel, resources, statistics)."""

from .kernel import Process, ScheduleHandle, Signal, SimError, Simulator, Timeout, drain
from .resources import BandwidthPipe, PriorityServer, Server, Store
from .stats import Accumulator, Breakdown, summarize_latencies
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
    "PriorityServer",
    "Store",
    "BandwidthPipe",
    "Accumulator",
    "Breakdown",
    "summarize_latencies",
    "units",
]
