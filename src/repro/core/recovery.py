"""Crash recovery: rebuild the team and replay from the last checkpoint.

The checkpointing model (§4.3) makes recovery simple in principle: the
master's checkpoint holds *all* shared memory, and slaves carry no private
state across adaptation points.  On a confirmed fail-stop crash the
orchestrator therefore:

1. aborts the current epoch — kills the driver, the slave wait loops and
   every DSM engine where they stand (their in-flight protocol state is
   garbage now);
2. cancels queued adapt events (availability daemons must resubmit);
3. forms a new team from the surviving team nodes (the master's node
   first, when it survived) plus idle pool nodes, up to the old size;
4. charges the restore cost — re-reading the checkpoint image at the
   disk rate plus one remote process creation — and rebuilds fresh DSM
   engines, loading the checkpointed segments into the new master;
5. restarts the program driver.  A kernel that keeps its iteration
   counter in shared memory (``ResumableJacobi``, ``jacobi-resumable``)
   skips the checkpointed prefix, so only the work since the last
   checkpoint is lost.  The four stock kernels' drivers rewrite the
   initial data and re-run from iteration 0, so for them
   ``lost_work_seconds`` (detection minus checkpoint time) understates
   the work lost.

A :class:`RecoveryRecord` with the detection latency, restore time and
lost work lands in ``RunResult.recoveries``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..errors import RecoveryError
from ..obs.core import TRACK_ADAPT
from .checkpoint import restore_checkpoint_live


@dataclass
class RecoveryRecord:
    """Accounting of one completed crash recovery."""

    #: Simulated time the recovery finished (driver restarted).
    time: float
    #: Time the failure was declared (threshold reached / escalation).
    detected_at: float
    #: Node ids confirmed crashed in this recovery.
    crashed_nodes: List[int] = field(default_factory=list)
    #: "heartbeat" (detector threshold) or "timeout" (request escalation).
    reason: str = "heartbeat"
    #: detected_at minus the true crash instant (0 for fenced suspicions).
    detection_latency: float = 0.0
    #: Wall time from declaration to restart (image read + rebuild).
    restore_seconds: float = 0.0
    #: Computation time between the restored checkpoint and the detection.
    lost_work_seconds: float = 0.0
    #: Timestamp of the checkpoint replayed from (None = cold restart).
    checkpoint_time: Optional[float] = None
    nprocs_before: int = 0
    nprocs_after: int = 0


def plan_new_team(runtime, nprocs_target: int) -> List[int]:
    """Choose the post-crash team: survivors first, then idle spares.

    The master's node keeps the master role when it survived; otherwise
    the lowest surviving (or spare) node hosts the new master.  Nodes with
    a join in flight are free game — their requests were cancelled.
    """
    old_mapping = runtime.team.snapshot()

    def healthy(node_id: int) -> bool:
        node = runtime.pool.node(node_id)
        return node.in_pool and not node.crashed

    survivors = [
        node_id for _, node_id in sorted(old_mapping.items()) if healthy(node_id)
    ]
    old_master = old_mapping[runtime.team.MASTER_PID]
    if old_master in survivors:
        survivors.remove(old_master)
        survivors.insert(0, old_master)
    spares = sorted(
        n.node_id
        for n in runtime.pool.idle_nodes()
        if not n.crashed and n.node_id not in survivors
    )
    team = (survivors + spares)[:nprocs_target]
    if not team:
        raise RecoveryError("no surviving or idle node left to recover onto")
    return team


def run_recovery(
    runtime,
    crashed_nodes: List[int],
    detected_at: float,
    detection_latency: float,
    reason: str,
) -> Generator:
    """Orchestrate one recovery (runs as its own simulated process)."""
    sim = runtime.sim
    t0 = sim.now
    nprocs_before = runtime.team.nprocs
    sim.tracer.emit(
        "fault", "recovery_begin", f"crashed={crashed_nodes} reason={reason}"
    )

    # 1-2. abort the epoch and clear the adaptation queue
    runtime._halt_computation()
    runtime._cancel_adaptations()

    # 3. form the new team (may shrink if the pool ran dry)
    new_nodes = plan_new_team(runtime, nprocs_before)

    # 4. restore cost: re-read the image from disk, spawn replacements
    ckpt = runtime.ckpt_mgr.last
    cp = runtime.cfg.checkpoint
    io_seconds = (
        cp.fixed_cost + ckpt.image_bytes / cp.disk_rate if ckpt is not None else 0.0
    )
    spawn_seconds = runtime.cfg.migration.spawn_time(
        runtime.rng.uniform("recovery.spawn")
    )
    yield sim.timeout(io_seconds + spawn_seconds)
    t_restore = sim.now

    # A cascading crash during the restore window invalidates the plan
    # (crashes declared while recovering are fenced, not re-entered —
    # see AdaptiveRuntime._declare_crashed).  Re-plan over the nodes
    # still healthy; when none are left this raises a structured
    # RecoveryError instead of rebuilding onto a dead node.
    if any(runtime.pool.node(n).crashed for n in new_nodes):
        crashed_mid_restore = [
            n for n in new_nodes if runtime.pool.node(n).crashed
        ]
        sim.tracer.emit(
            "fault", "recovery_replan",
            f"crashed during restore: {crashed_mid_restore}",
        )
        new_nodes = plan_new_team(runtime, nprocs_before)

    runtime._rebuild_after_crash(new_nodes)
    if ckpt is not None:
        restore_checkpoint_live(runtime, ckpt)
    runtime.ckpt_mgr.last_time = sim.now

    # 5. restart the computation; a resumable kernel resumes from
    # shared-memory state, a stock one re-runs from iteration 0
    for pid in runtime.team.slave_pids:
        runtime._start_slave(runtime.procs[pid])
    runtime._driver_proc = sim.process(
        runtime._master_main(runtime.program), name="master.driver"
    )

    record = RecoveryRecord(
        time=sim.now,
        detected_at=detected_at,
        crashed_nodes=list(crashed_nodes),
        reason=reason,
        detection_latency=detection_latency,
        restore_seconds=sim.now - t0,
        lost_work_seconds=detected_at - (ckpt.time if ckpt is not None else 0.0),
        checkpoint_time=ckpt.time if ckpt is not None else None,
        nprocs_before=nprocs_before,
        nprocs_after=runtime.team.nprocs,
    )
    runtime.recoveries.append(record)
    runtime._finish_recovery()
    obs = sim.obs
    if obs.enabled:
        # recovery.restore + recovery.rebuild tile recovery.total, same as
        # the adaptation phases (rebuild is instantaneous in simulated
        # time — DSM engines are re-created between events — so its span
        # is usually zero-width; it is kept for the phase accounting).
        obs.span(
            TRACK_ADAPT,
            "recovery.restore",
            t0,
            t_restore,
            category="recovery",
            reason=reason,
            crashed=list(crashed_nodes),
        )
        obs.span(TRACK_ADAPT, "recovery.rebuild", t_restore, sim.now, category="recovery")
        obs.span(
            TRACK_ADAPT,
            "recovery.total",
            t0,
            sim.now,
            category="recovery",
            lost_work_seconds=record.lost_work_seconds,
            detection_latency=detection_latency,
        )
        obs.count("recovery.count")
        obs.count("recovery.lost_work_seconds", record.lost_work_seconds)
    sim.tracer.emit(
        "fault",
        "recovery_end",
        f"nprocs {nprocs_before}->{record.nprocs_after} "
        f"restore={record.restore_seconds:.3f}s lost={record.lost_work_seconds:.3f}s",
    )
