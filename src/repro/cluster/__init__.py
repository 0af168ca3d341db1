"""NOW cluster model: workstation nodes, the pool, availability daemons."""

from .adapt_events import EventScript, PeriodicAlternator, ScriptedEvent, select_pid
from .availability import DaySchedule, OwnerSchedule, PoissonOwnerActivity
from .loadsensor import LoadSensor
from .node import Node
from .pool import NodePool
from .traces import (
    AvailabilityEvent,
    TraceReplay,
    dump_trace,
    parse_trace,
    synthesize_workday,
)


__all__ = [
    "DaySchedule",
    "EventScript",
    "LoadSensor",
    "Node",
    "NodePool",
    "OwnerSchedule",
    "PeriodicAlternator",
    "PoissonOwnerActivity",
    "ScriptedEvent",
    "select_pid",
    "AvailabilityEvent",
    "TraceReplay",
    "dump_trace",
    "parse_trace",
    "synthesize_workday",
]
