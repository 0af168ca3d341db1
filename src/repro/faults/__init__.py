"""Fault injection and failure detection.

Declarative, seeded failure scenarios for the adaptive DSM system:
:class:`FaultPlan` scripts node crashes and link faults, a
:class:`FaultInjector` replays a plan onto a running system (its link
faults onto the wire's :class:`~repro.network.LinkFaults`), and
:class:`FailureDetector` is the master-driven heartbeat prober feeding the
crash-recovery orchestrator in :mod:`repro.core.recovery`.
"""

from .detector import FailureDetector
from .plan import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    dump_plan,
    parse_plan,
    parse_plan_file,
)

__all__ = [
    "FailureDetector",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "dump_plan",
    "parse_plan",
    "parse_plan_file",
]
