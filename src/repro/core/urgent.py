"""Urgent leaves (§3, §4.2, Figure 2.c).

If a leave's grace period expires before the computation reaches an
adaptation point, the leaving process is migrated to another node that is
already participating and *multiplexed* there (the two processes share one
CPU, idling the other ``t − 2`` nodes at the next synchronization) until
the next adaptation point, where a normal leave removes it from the team.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import MigrationError
from .adaptation import LeaveRequest, RequestState
from .migration import migrate_process


def pick_migration_target(runtime, leaving_pid: int):
    """The participating node to multiplex onto: least loaded, lowest id."""
    candidates = []
    for pid in runtime.team.pids:
        if pid == leaving_pid:
            continue
        node = runtime.pool.node(runtime.team.node_of(pid))
        candidates.append((node.resident_processes, node.node_id, node))
    if not candidates:
        raise MigrationError("no node left to migrate to")
    return min(candidates)[2]


def grace_watchdog(runtime, req: LeaveRequest, pid: int) -> Generator:
    """Background coroutine: trigger the urgent path at deadline expiry."""
    sim = runtime.sim
    delay = max(0.0, req.deadline - sim.now)
    yield sim.timeout(delay)
    if req.state is not RequestState.PENDING:
        return  # handled at an adaptation point within the grace period
    req.state = RequestState.URGENT
    req.was_urgent = True
    sim.obs.instant(sim.now, "adapt", "grace_expired", f"node{req.node_id} pid{pid}")
    yield from urgent_leave(runtime, req, pid)


def urgent_leave(runtime, req: LeaveRequest, pid: int) -> Generator:
    """Freeze the computation, migrate the process off, free the node."""
    sim = runtime.sim
    proc = runtime.procs[pid]
    src_node = runtime.pool.node(req.node_id)
    target = pick_migration_target(runtime, pid)

    # "All processes then wait for the completion of the migration."
    runtime.freeze(f"urgent leave of node {req.node_id}")
    try:
        outcome = yield from migrate_process(runtime, proc, target)
    finally:
        runtime.unfreeze()
    req.migrated_at = sim.now
    runtime.record_migration(outcome)

    # The workstation owner gets the machine back right away (the process
    # already moved off); the migrated process is dissolved at the next
    # adaptation point by a normal leave.
    src_node.withdraw()
    sim.obs.instant(sim.now, "adapt", "urgent_leave",
                    f"node{req.node_id}: P{pid} multiplexed on node{target.node_id}")
