"""Event scripts, fault injection and failure detection.

Declarative, seeded scenarios for the adaptive DSM system:
:class:`FaultPlan` is the one event script — joins, leaves, node crashes
and link faults in one grammar — and :class:`FaultInjector` is the one
installer that replays a plan (or a spec's adapt events lowered to plan
actions) onto a running system, its link faults onto the wire's
:class:`~repro.network.LinkFaults`.  :class:`FailureDetector` is the
master-driven heartbeat prober feeding the crash-recovery orchestrator
in :mod:`repro.core.recovery`.
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
