"""Discrete-event simulation kernel for the APEnet+ reproduction.

Public surface:

* :class:`Simulator`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`AllOf`, :class:`AnyOf` — the event engine (:mod:`repro.sim.core`);
* :class:`Resource`, :class:`Store`, :class:`ByteFifo`, :class:`PacketFifo`
  — shared-resource primitives (:mod:`repro.sim.resources`);
* :class:`Channel`, :class:`RateLimiter` — bandwidth/latency pipes
  (:mod:`repro.sim.channel`);
* :class:`OnlineStats`, :class:`TimeSeries`, :class:`FaultStats`,
  :func:`percentile` — measurement helpers (:mod:`repro.sim.stats`).

The event queue is a single binary heap of ``(t, seq, event)`` entries:
equal-time events run in schedule order, so a given seed always produces
an identical trace.
"""

from .channel import Channel, RateLimiter
from .core import (
    AllOf,
    AnyOf,
    DeadlockError,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    kernel_event_count,
)
from .resources import ByteFifo, PacketFifo, Resource, Store
from .stats import FaultStats, OnlineStats, TimeSeries, percentile

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "DeadlockError",
    "kernel_event_count",
    "Resource",
    "Store",
    "ByteFifo",
    "PacketFifo",
    "Channel",
    "RateLimiter",
    "OnlineStats",
    "FaultStats",
    "TimeSeries",
    "percentile",
]
