"""Deterministic discrete-event simulation core.

This subpackage is the substrate every other component runs on: a virtual
clock, generator-based processes, channels, resources, tracing, and seeded
random streams.
"""

from .channel import Channel
from .events import Event, EventQueue, LATE, NORMAL, URGENT
from .process import Signal, SimProcess, Timeout, Waitable
from .rand import RandomStreams, substream_seed
from .resources import Hold, Resource, Store
from .simulator import Simulator
from .trace import TraceRecord, Tracer

__all__ = [
    "Channel",
    "Event",
    "EventQueue",
    "Hold",
    "LATE",
    "NORMAL",
    "URGENT",
    "RandomStreams",
    "Resource",
    "Signal",
    "SimProcess",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "Waitable",
    "substream_seed",
]
