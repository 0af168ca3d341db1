"""NOW cluster model: workstation nodes, the pool, adapt-event generators."""

from .adapt_events import PeriodicAlternator, select_pid, synthesize_workday
from .node import Node
from .pool import NodePool


__all__ = [
    "Node",
    "NodePool",
    "PeriodicAlternator",
    "select_pid",
    "synthesize_workday",
]
