"""Discrete-event simulation engine (events, processes, resources, stats)."""

from repro.sim.engine import Process, SimEvent, Simulator, Timeout, all_of
from repro.sim.resources import BandwidthLink, Resource, Store
from repro.sim.stats import (
    Histogram,
    PhaseBreakdown,
    RunningStat,
    UtilizationTracker,
    geometric_mean,
)

__all__ = [
    "Simulator",
    "SimEvent",
    "Timeout",
    "Process",
    "all_of",
    "Resource",
    "Store",
    "BandwidthLink",
    "RunningStat",
    "Histogram",
    "UtilizationTracker",
    "PhaseBreakdown",
    "geometric_mean",
]
