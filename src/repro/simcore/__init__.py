"""Deterministic discrete-event simulation core.

This subpackage is the substrate every other component runs on: a virtual
clock, generator-based processes, channels, resources and seeded random
streams.  Telemetry (spans, counters, instants) lives in :mod:`repro.obs`;
``Simulator.obs`` is the registry a run records into.
"""

from .channel import Channel
from .events import EventQueue, LATE, NORMAL, URGENT, cancel
from .process import Signal, SimProcess, Timeout, Waitable
from .rand import RandomStreams, substream_seed
from .resources import Hold, Resource
from .simulator import Simulator

__all__ = [
    "Channel",
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
    "Timeout",
    "Waitable",
    "cancel",
    "substream_seed",
]
