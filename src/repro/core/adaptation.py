"""Adapt-event bookkeeping (§3).

Join and leave requests may arrive at any time; they are *executed* at the
next adaptation point (the fork boundary of a parallel construct).  All
events received between two successive adaptation points are handled
together there — which is why batched adaptations are cheaper (§5.4).

The manager only tracks requests and grace deadlines; the protocol work
lives in :mod:`.join`, :mod:`.leave`, :mod:`.urgent` and is driven by
:class:`~repro.core.runtime.AdaptiveRuntime`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..errors import AdaptationError


class RequestState(enum.Enum):
    PENDING = "pending"
    READY = "ready"  # joins: connections established
    URGENT = "urgent"  # leaves: grace expired, migration underway/done
    DONE = "done"
    CANCELLED = "cancelled"


@dataclass
class JoinRequest:
    """A node offering itself to the computation."""

    node_id: int
    submitted_at: float
    state: RequestState = RequestState.PENDING
    ready_at: Optional[float] = None
    completed_at: Optional[float] = None


@dataclass
class LeaveRequest:
    """A node being reclaimed by its owner."""

    node_id: int
    submitted_at: float
    grace: float
    deadline: float
    state: RequestState = RequestState.PENDING
    #: Team pid of the leaving process, resolved at submission.
    pid: Optional[int] = None
    #: Set once the process has been migrated off (urgent path).
    migrated_at: Optional[float] = None
    completed_at: Optional[float] = None
    was_urgent: bool = False
    #: The grace-period watchdog process (slave leaves only), killed
    #: once the leave is done or cancelled.
    watchdog: Any = field(default=None, repr=False, compare=False)


@dataclass
class AdaptationRecord:
    """One processed adaptation point (for analysis & Figure 2)."""

    time: float
    joins: List[int] = field(default_factory=list)
    leaves: List[int] = field(default_factory=list)
    urgent_leaves: List[int] = field(default_factory=list)
    nprocs_before: int = 0
    nprocs_after: int = 0
    duration: float = 0.0
    #: Network traffic generated while processing the adaptation point.
    traffic_bytes: int = 0
    #: Bytes on the busiest directional link during the adaptation (§5.4).
    max_link_bytes: int = 0
    #: Pages the master fetched from leaving processes (the drain).
    drained_pages: int = 0
    #: Pages the leaving processes owned at the adaptation point.
    leaver_owned_pages: int = 0


class AdaptationQueue:
    """Pending adapt events, consumed at adaptation points."""

    def __init__(self):
        self.joins: List[JoinRequest] = []
        self.leaves: List[LeaveRequest] = []
        self.history: List[AdaptationRecord] = []

    def add_join(self, req: JoinRequest) -> None:
        if any(j.node_id == req.node_id and j.state not in
               (RequestState.DONE, RequestState.CANCELLED) for j in self.joins):
            raise AdaptationError(f"node {req.node_id} already has a pending join")
        self.joins.append(req)

    def add_leave(self, req: LeaveRequest) -> None:
        if any(l.node_id == req.node_id and l.state in
               (RequestState.PENDING, RequestState.URGENT) for l in self.leaves):
            raise AdaptationError(f"node {req.node_id} already has a pending leave")
        self.leaves.append(req)

    def ready_joins(self) -> List[JoinRequest]:
        """Joins whose processes finished connection setup."""
        return [j for j in self.joins if j.state is RequestState.READY]

    def pending_leaves(self) -> List[LeaveRequest]:
        """Leaves awaiting execution (normal or already-migrated urgent)."""
        return [
            l for l in self.leaves
            if l.state in (RequestState.PENDING, RequestState.URGENT)
        ]
