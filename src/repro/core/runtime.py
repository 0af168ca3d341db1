"""The adaptive runtime — the paper's primary contribution.

:class:`AdaptiveRuntime` extends the TreadMarks fork/join runtime with
transparent adaptation: adapt events submitted at any time are executed at
the next adaptation point (fork boundary), where the team is quiesced.
Processing order at an adaptation point (§4.1–§4.2):

1. garbage collection (leaves every page valid-or-owned, drops all
   consistency state — this is what makes the rest cheap);
2. master migration, if the master's node was reclaimed (§4.4: the master
   cannot perform a normal leave, but it can migrate);
3. for each leaving process: the master fetches the pages exclusively
   owned by the leaver that it lacks, and announces its new ownership;
4. process ids are reassigned (strategy pluggable, Figure 3) and joiners
   are appended to the team;
5. each joiner receives the page-location map in a single message;
6. the next ``Tmk_fork`` goes to the new team, whose partitioning code
   re-partitions the iteration space — data follows lazily via faults.

Urgent leaves (grace period expired mid-region) migrate the process to a
participating node immediately (freezing the computation for the image
copy) and multiplex it there until this same machinery removes it.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..dsm.process import DsmProcess
from ..dsm.runtime import DetectorCounters, RegionCtx, RunResult, TmkRuntime
from ..errors import AdaptationError, RecoveryError, SimulationError
from ..faults.detector import FailureDetector
from ..network import message as mk
from ..obs.core import TRACK_ADAPT
from ..simcore import RandomStreams
from .adaptation import (
    AdaptationQueue,
    AdaptationRecord,
    JoinRequest,
    LeaveRequest,
    RequestState,
)
from .checkpoint import CheckpointManager
from .grace import GracePolicy
from .join import connection_setup, ship_page_maps
from .leave import absorb_leaver_pages
from .migration import MigrationOutcome, migrate_process
from .reassign import CompactShift, ReassignStrategy
from .recovery import RecoveryRecord, run_recovery
from .urgent import grace_watchdog, pick_migration_target


class AdaptiveRuntime(TmkRuntime):
    """TreadMarks plus transparent adaptivity."""

    def __init__(
        self,
        sim,
        cfg,
        nodes,
        pool,
        materialized: bool = True,
        grace_policy: Optional[GracePolicy] = None,
        strategy: Optional[ReassignStrategy] = None,
        checkpoint_interval: Optional[float] = None,
        failure_detection: bool = False,
    ):
        super().__init__(sim, cfg, nodes, materialized=materialized)
        self.pool = pool
        self.queue = AdaptationQueue()
        self.grace_policy = grace_policy or GracePolicy(cfg.grace_period)
        self.strategy = strategy or CompactShift()
        self.rng = RandomStreams(cfg.seed)
        self.ckpt_mgr = CheckpointManager(self, checkpoint_interval)
        self.migrations: List[MigrationOutcome] = []
        self._frozen = None
        self.adaptations = 0
        self.failure_detection = failure_detection
        self.detector = FailureDetector(self, cfg.faults) if failure_detection else None
        self.recoveries: List[RecoveryRecord] = []
        self._recovering = False
        #: Nodes whose crash is being handled by the pending recovery.
        self._crash_handled: set = set()
        for proc in self.procs.values():
            self._wire_process(proc)

    # ------------------------------------------------------------------
    # event submission (called by availability daemons or tests)
    # ------------------------------------------------------------------
    def submit_join(self, node_id: int) -> JoinRequest:
        """A node became available: start the asynchronous join setup."""
        node = self.pool.node(node_id)
        if self.team.has_node(node_id):
            raise AdaptationError(f"node {node_id} is already participating")
        if not node.in_pool:
            node.rejoin()
        req = JoinRequest(node_id=node_id, submitted_at=self.sim.now)
        self.queue.add_join(req)
        self.sim.process(
            connection_setup(self, req), name=f"join.setup.{node_id}", daemon=True
        )
        self.sim.tracer.emit("adapt", "join_request", f"node{node_id}")
        return req

    def submit_leave(
        self, node_id: int, grace: Optional[float] = None
    ) -> Optional[LeaveRequest]:
        """A node is being reclaimed.  Returns None for idle nodes."""
        node = self.pool.node(node_id)
        if not self.team.has_node(node_id):
            node.withdraw()  # idle node: nothing to adapt
            return None
        period = grace if grace is not None else self.grace_policy.period_for(
            node_id, self.sim.now
        )
        pid = self.team.pid_of_node(node_id)
        req = LeaveRequest(
            node_id=node_id,
            submitted_at=self.sim.now,
            grace=period,
            deadline=self.sim.now + period,
            pid=pid,
        )
        self.queue.add_leave(req)
        if pid != self.team.MASTER_PID:
            req._watchdog = self.sim.process(
                grace_watchdog(self, req, pid), name=f"grace.{node_id}", daemon=True
            )
        self.sim.tracer.emit(
            "adapt", "leave_request", f"node{node_id} pid{pid} grace={period}"
        )
        return req

    # ------------------------------------------------------------------
    # freeze/unfreeze (urgent-leave migration barrier)
    # ------------------------------------------------------------------
    def freeze(self, reason: str = "") -> None:
        if self._frozen is None:
            self._frozen = self.sim.signal(f"freeze:{reason}")
            self.sim.tracer.emit("adapt", "freeze", reason)

    def unfreeze(self) -> None:
        if self._frozen is not None:
            frozen, self._frozen = self._frozen, None
            frozen.fire()
            self.sim.tracer.emit("adapt", "unfreeze", "")

    def stall_check(self) -> Generator:
        while self._frozen is not None:
            yield self._frozen

    def record_migration(self, outcome: MigrationOutcome) -> None:
        self.migrations.append(outcome)

    # ------------------------------------------------------------------
    # failure detection & crash recovery
    # ------------------------------------------------------------------
    def run(self, program, until=None) -> RunResult:
        if self.detector is not None:
            self.detector.start()
        try:
            return super().run(program, until=until)
        except SimulationError as err:
            # A RecoveryError inside the simulated recovery process (spare
            # pool exhausted mid-recovery) is a structured outcome of the
            # failure model, not a simulator defect: surface it as itself,
            # attributed, instead of a wrapped engine traceback.
            cause = err.__cause__
            if isinstance(cause, RecoveryError):
                raise RecoveryError(
                    f"unrecoverable: {cause} (after "
                    f"{len(self.recoveries)} completed recover(ies))"
                ) from cause
            raise

    def _wire_process(self, proc: DsmProcess) -> None:
        """Install the runtime's hooks on a (new) DSM engine."""
        proc.stall_hook = self.stall_check
        proc.peers_hook = self._live_procs
        if self.failure_detection:
            proc.crash_hook = self._report_suspected_crash

    def _find_node(self, node_id: int):
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        return self.pool.node(node_id)

    def inject_crash(self, node_id: int) -> None:
        """Fail-stop ``node_id`` right now: its processes die mid-step.

        This only *creates* the failure; detection and recovery follow
        through the heartbeat detector or request-timeout escalation (so a
        run without ``failure_detection`` simply hangs or errors, exactly
        like the base system would).
        """
        node = self._find_node(node_id)
        if node.crashed:
            return
        node.crash(self.sim.now)
        self.sim.tracer.emit("fault", "crash", f"node{node_id}")
        for proc in list(self.procs.values()):
            if proc.node is not node:
                continue
            handle = self._slave_procs.pop(proc, None)
            if handle is not None and handle.alive:
                handle.kill()
            if proc.is_master and self._driver_proc is not None and self._driver_proc.alive:
                self._driver_proc.kill()
            proc.fail_stop()

    def _report_suspected_crash(self, node_id: int, err: Exception) -> None:
        """Escalation target for request timeouts (``DsmProcess.crash_hook``)."""
        self.sim.tracer.emit("fault", "suspected", f"node{node_id}: {err}")
        self._declare_crashed(node_id, reason="timeout")

    def _declare_crashed(self, node_id: int, reason: str) -> None:
        """Confirm a crash and launch recovery (idempotent per crash)."""
        if self.finished or node_id in self._crash_handled:
            return
        self._crash_handled.add(node_id)
        node = self._find_node(node_id)
        detected_at = self.sim.now
        latency = (
            detected_at - node.crashed_at if node.crashed_at is not None else 0.0
        )
        # Fencing: a node declared crashed IS crashed from here on, even if
        # it was only partitioned — it must never talk to the new team.
        self.inject_crash(node_id)
        self.sim.tracer.emit(
            "fault",
            "declared_crashed",
            f"node{node_id} reason={reason} latency={latency:.4f}s",
        )
        if not self.team.has_node(node_id):
            return  # an idle pool node died; the computation is unaffected
        if self._recovering:
            return  # the pending recovery's rebuild will exclude this node
        self._recovering = True
        self.sim.process(
            run_recovery(self, [node_id], detected_at, latency, reason),
            name="recovery",
        )

    def _halt_computation(self) -> None:
        """Kill the driver, the slave wait loops and every DSM engine."""
        if self._driver_proc is not None and self._driver_proc.alive:
            self._driver_proc.kill()
        for handle in list(self._slave_procs.values()):
            if handle.alive:
                handle.kill()
        self._slave_procs.clear()
        for proc in self.procs.values():
            proc.halt()

    def _cancel_adaptations(self) -> None:
        """Void all queued adapt events (their world no longer exists)."""
        now = self.sim.now
        for req in self.queue.joins:
            if req.state in (RequestState.PENDING, RequestState.READY):
                req.state = RequestState.CANCELLED
                req.completed_at = now
        for req in self.queue.leaves:
            if req.state in (RequestState.PENDING, RequestState.URGENT):
                req.state = RequestState.CANCELLED
                req.completed_at = now
                watchdog = getattr(req, "_watchdog", None)
                if watchdog is not None:
                    watchdog.kill()

    def _rebuild_after_crash(self, new_node_ids: List[int]) -> None:
        """Fresh team, fresh DSM engines — shared address space retained."""
        from ..dsm.locks import LockManager

        self.team.set_mapping(dict(enumerate(new_node_ids)))
        self.nodes = [self._find_node(nid) for nid in new_node_ids]
        self.procs = {}
        for pid, node in enumerate(self.nodes):
            proc = self.PROCESS_CLS(
                self.sim,
                self.cfg,
                node,
                pid,
                self.team,
                self.space,
                materialized=self.materialized,
            )
            self._wire_process(proc)
            proc.start_server()
            self.procs[pid] = proc
        self.master = self.procs[self.team.MASTER_PID]
        self.master.lock_mgr = LockManager(self.master)
        self.master_ctx = RegionCtx(self, self.master)
        self._frozen = None

    def _finish_recovery(self) -> None:
        self._recovering = False
        self._crash_handled.clear()
        if self.detector is not None:
            self.detector.reset()

    # ------------------------------------------------------------------
    # the adaptation point
    # ------------------------------------------------------------------
    def at_adaptation_point(self) -> Generator:
        # "All processes wait for the completion of the migration" (§4.2):
        # an in-flight urgent-leave migration blocks the fork boundary too.
        yield from self.stall_check()
        adaptable = getattr(self.program, "adaptable", True)
        if adaptable:
            yield from self._process_adaptations()
        if self.ckpt_mgr.due(self.sim.now):
            yield from self.gc_at_fork_point()
            yield from self.ckpt_mgr.take()

    def _process_adaptations(self) -> Generator:
        joins = self.queue.ready_joins()
        # An URGENT leave whose migration has not finished yet stays queued
        # for the next point (cannot drain a process that is mid-copy).
        leaves = [
            l
            for l in self.queue.pending_leaves()
            if l.state is RequestState.PENDING or l.migrated_at is not None
        ]
        if not joins and not leaves:
            return
        sim = self.sim
        t0 = sim.now
        traffic0 = self.switch.stats.snapshot()
        record = AdaptationRecord(
            time=t0,
            joins=[j.node_id for j in joins],
            leaves=[l.node_id for l in leaves if not l.was_urgent],
            urgent_leaves=[l.node_id for l in leaves if l.was_urgent],
            nprocs_before=self.team.nprocs,
        )
        sim.tracer.emit(
            "adapt",
            "adaptation_begin",
            f"joins={record.joins} leaves={record.leaves + record.urgent_leaves}",
        )

        # 1. bring shared memory into the valid-or-owned state
        yield from self.gc_at_fork_point()
        t_gc = sim.now

        # 2. master migration (its node was reclaimed)
        master_leaves = [l for l in leaves if l.pid == self.team.MASTER_PID]
        slave_leaves = [l for l in leaves if l.pid != self.team.MASTER_PID]
        deferred: List[LeaveRequest] = []
        for req in master_leaves:
            migrated = yield from self._migrate_master(req)
            if not migrated:
                deferred.append(req)
        if deferred:
            # The leave stays queued; scrub it from this record so the
            # history reflects what actually happened at this point.
            leaves = [l for l in leaves if l not in deferred]
            for req in deferred:
                for lst in (record.leaves, record.urgent_leaves):
                    if req.node_id in lst:
                        lst.remove(req.node_id)

        t_migration = sim.now

        # 3. drain leaving processes' exclusively-owned pages
        leaving_pids: List[int] = []
        for req in slave_leaves:
            leaver = self.procs[req.pid]
            fetched, owned = yield from absorb_leaver_pages(self, leaver)
            record.drained_pages += fetched
            record.leaver_owned_pages += owned
            leaving_pids.append(req.pid)
        t_fetch = sim.now

        # 4/5/6. reassign ids, retire leavers, append joiners, ship maps
        self._rebuild_team(leaving_pids, slave_leaves, joins)

        # charge fixed master bookkeeping per adapt event handled
        events = len(joins) + len(leaves)
        yield sim.timeout(self.cfg.adapt_fixed_cost * events)

        for req in joins:
            req.state = RequestState.DONE
            req.completed_at = sim.now
        for req in leaves:
            req.state = RequestState.DONE
            req.completed_at = sim.now
            watchdog = getattr(req, "_watchdog", None)
            if watchdog is not None:
                watchdog.kill()
        self.adaptations += events
        record.nprocs_after = self.team.nprocs
        record.duration = sim.now - t0
        delta = self.switch.stats.snapshot().delta(traffic0)
        record.traffic_bytes = delta.bytes
        record.max_link_bytes = delta.max_link_bytes()
        self.queue.history.append(record)
        obs = sim.obs
        if obs.enabled:
            # The phase spans tile [t0, now] contiguously, so the phase
            # seconds sum exactly to record.duration (the harness number).
            # adapt.barrier is zero-width by construction: adaptation
            # points sit at fork boundaries where the team is already
            # quiesced (§4.1), so no extra quiesce wait is ever paid.
            end = sim.now
            detail = dict(joins=len(joins), leaves=len(leaves))
            obs.span(TRACK_ADAPT, "adapt.barrier", t0, t0, category="adapt")
            obs.span(TRACK_ADAPT, "adapt.gc", t0, t_gc, category="adapt", **detail)
            obs.span(
                TRACK_ADAPT, "adapt.migration", t_gc, t_migration, category="adapt"
            )
            obs.span(
                TRACK_ADAPT,
                "adapt.exclusive_fetch",
                t_migration,
                t_fetch,
                category="adapt",
                drained_pages=record.drained_pages,
                leaver_owned_pages=record.leaver_owned_pages,
            )
            obs.span(
                TRACK_ADAPT, "adapt.repartition", t_fetch, end, category="adapt"
            )
            obs.span(
                TRACK_ADAPT,
                "adapt.total",
                t0,
                end,
                category="adapt",
                traffic_bytes=record.traffic_bytes,
                nprocs_before=record.nprocs_before,
                nprocs_after=record.nprocs_after,
            )
            obs.count("adapt.events", events)
            obs.count("adapt.drained_pages", record.drained_pages)
            obs.count("adapt.leaver_owned_pages", record.leaver_owned_pages)
            obs.count("adapt.traffic_bytes", record.traffic_bytes)
        sim.tracer.emit(
            "adapt",
            "adaptation_end",
            f"nprocs {record.nprocs_before}->{record.nprocs_after} "
            f"in {record.duration:.3f}s",
        )

    def _migrate_master(self, req: LeaveRequest) -> Generator:
        """§4.4: the master cannot normal-leave, but it can migrate.

        Returns True when the master moved.  With no idle node to move to,
        the leave is *deferred* — it stays queued and is retried at the
        next adaptation point, when the pool may have refilled.  (The
        owner's reclaim is delayed; the alternative is aborting the run.)
        """
        pending_join_nodes = {
            j.node_id
            for j in self.queue.joins
            if j.state in (RequestState.PENDING, RequestState.READY)
        }
        idle = [
            n
            for n in self.pool.idle_nodes()
            if not self.team.has_node(n.node_id)
            and not n.crashed
            and n.node_id not in pending_join_nodes
        ]
        if not idle:
            self.sim.tracer.emit(
                "adapt",
                "master_leave_deferred",
                f"node{req.node_id}: no idle migration target",
            )
            return False
        target = min(idle, key=lambda n: n.node_id)
        old_node = self.pool.node(req.node_id)
        outcome = yield from migrate_process(self, self.master, target)
        self.record_migration(outcome)
        old_node.withdraw()
        req.was_urgent = True  # migration-based by definition
        return True

    def _rebuild_team(
        self,
        leaving_pids: List[int],
        slave_leaves: List[LeaveRequest],
        joins: List[JoinRequest],
    ) -> None:
        old_pids = self.team.pids
        old_mapping = self.team.snapshot()
        remap = self.strategy.reassign(old_pids, leaving_pids)

        # retire leavers: their wait loop cleans up on the STOP (it must
        # still be routed by the leaver's server, so no teardown here)
        self.master.send_fanout([
            (
                mk.STOP,
                req.pid,
                {"retire": True, "withdraw": not req.was_urgent},
                4,
            )
            for req in slave_leaves
        ])

        new_mapping: Dict[int, int] = {
            new_pid: old_mapping[old_pid] for old_pid, new_pid in remap.items()
        }
        joiner_pids = []
        next_pid = len(new_mapping)
        for req in joins:
            new_mapping[next_pid] = req.node_id
            joiner_pids.append(next_pid)
            next_pid += 1
        self.team.set_mapping(new_mapping)

        # re-identify surviving processes under the new team
        new_procs: Dict[int, DsmProcess] = {}
        for old_pid, new_pid in remap.items():
            proc = self.procs[old_pid]
            proc.adapt_reset(new_pid, remap)
            new_procs[new_pid] = proc
        # create joiner processes and ship them the page-location map
        for new_pid in joiner_pids:
            node = self.pool.node(new_mapping[new_pid])
            proc = DsmProcess(
                self.sim,
                self.cfg,
                node,
                new_pid,
                self.team,
                self.space,
                materialized=self.materialized,
            )
            self._wire_process(proc)
            proc.start_server()
            new_procs[new_pid] = proc
        self.procs = new_procs
        self.master = self.procs[self.team.MASTER_PID]
        ship_page_maps(self, [self.procs[p] for p in joiner_pids])
        for new_pid in joiner_pids:
            self._start_slave(self.procs[new_pid])

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def result(self) -> RunResult:
        res = super().result()
        res.adaptations = self.adaptations
        res.adapt_log = list(self.queue.history)
        res.recoveries = list(self.recoveries)
        if self.detector is not None:
            res.detector = DetectorCounters(
                heartbeats_sent=self.detector.heartbeats_sent,
                heartbeat_misses=self.detector.heartbeat_misses,
                false_suspicions=self.detector.false_suspicions,
            )
        return res
