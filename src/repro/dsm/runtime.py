"""The TreadMarks fork/join runtime (the non-adaptive base system).

Implements the ``Tmk_wait`` / ``Tmk_fork`` / ``Tmk_join`` primitives of
§2: slaves sit in a wait loop; the master drives the program, forking a
region (parallel construct) to the team and collecting joins.  Fork and
join messages double as LRC synchronization — they carry write notices in
both directions, so the master's sequential writes invalidate slave copies
and vice versa.

:class:`AdaptiveRuntime` (in :mod:`repro.core.runtime`) subclasses this
and overrides :meth:`at_adaptation_point` / :meth:`stall_check`; the base
class implements them as no-ops, which *is* the standard TreadMarks 1.1.0
behaviour Table 1 compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import DsmError
from ..network import message as mk
from ..obs.breakdown import CostBreakdown
from ..obs.core import TRACK_MASTER
from ..simcore import Simulator
from .locks import LockManager
from .memory import AddressSpace, SharedSegment
from .page import Protocol
from .process import DsmProcess
from .statistics import DsmStats
from .team import TeamView

#: A parallel-region body: ``region(ctx, pid, nprocs, args) -> generator``.
RegionFn = Callable[["RegionCtx", int, int, Any], Generator]
#: The master driver: ``driver(api) -> generator``.
DriverFn = Callable[["MasterApi"], Generator]


class TmkProgram:
    """A fork/join program: named regions plus a master driver."""

    def __init__(self, phases: Dict[str, RegionFn], driver: DriverFn, name: str = "program"):
        self.phases = dict(phases)
        self.driver = driver
        self.name = name

    def phase(self, name: str) -> RegionFn:
        try:
            return self.phases[name]
        except KeyError:
            raise DsmError(f"program {self.name!r} has no phase {name!r}") from None


class RegionCtx:
    """The API surface a region body (or sequential master code) uses."""

    def __init__(self, runtime: "TmkRuntime", proc: DsmProcess):
        self.runtime = runtime
        self.proc = proc

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def nprocs(self) -> int:
        return self.proc.team.nprocs

    @property
    def materialized(self) -> bool:
        return self.proc.materialized

    @property
    def sim(self) -> Simulator:
        return self.proc.sim

    def access(self, seg: SharedSegment, reads=(), writes=()) -> Generator:
        """Declare shared reads/writes (may fault; see DsmProcess.access)."""
        yield from self.runtime.stall_check()
        yield from self.proc.access(seg, reads, writes)

    def access_batch(self, specs) -> Generator:
        """Declare accesses over several segments as one atomic step."""
        yield from self.runtime.stall_check()
        yield from self.proc.access_batch(specs)

    def compute(self, seconds: float) -> Generator:
        """Charge application CPU time."""
        yield from self.runtime.stall_check()
        yield from self.proc.compute(seconds)

    def barrier(self) -> Generator:
        yield from self.proc.barrier()

    def lock(self, lock_id: int) -> Generator:
        yield from self.proc.lock_acquire(lock_id)

    def unlock(self, lock_id: int) -> None:
        self.proc.lock_release(lock_id)

    def array(self, seg: SharedSegment) -> np.ndarray:
        """Materialized numpy view of the local copy of ``seg``."""
        return self.proc.array(seg)


class MasterApi:
    """What a program driver sees on the master."""

    def __init__(self, runtime: "TmkRuntime"):
        self._runtime = runtime
        self.ctx = runtime.master_ctx

    @property
    def nprocs(self) -> int:
        return self._runtime.team.nprocs

    def fork_join(self, phase_name: str, args: Any = None) -> Generator:
        """Execute one parallel construct across the current team."""
        yield from self._runtime._fork_join(phase_name, args)

    def seq(self, fn: Callable[[RegionCtx], Generator]) -> Generator:
        """Run sequential master code between parallel constructs."""
        yield from fn(self.ctx)


@dataclass(frozen=True)
class NetworkCounters:
    """Data-plane reliability counters (added piecemeal in PR 1)."""

    #: Data-plane messages the lossy wire dropped.
    dropped: int = 0
    #: Request re-sends performed by retransmit timers across all NICs.
    retransmissions: int = 0


@dataclass(frozen=True)
class DetectorCounters:
    """Failure-detector counters (adaptive runs only; added in PR 2)."""

    #: Probes sent by the master.
    heartbeats_sent: int = 0
    #: Probes that missed their ack deadline.
    heartbeat_misses: int = 0
    #: Nodes suspected (>=1 miss) that later acked before being declared.
    false_suspicions: int = 0


@dataclass
class RunResult:
    """Outcome of one program run."""

    runtime_seconds: float
    traffic: Any
    per_process: Dict[int, DsmStats]
    forks: int
    adaptations: int = 0
    #: (time, kind, detail) adaptation event log (adaptive runs only).
    adapt_log: List[Tuple[float, str, str]] = field(default_factory=list)
    #: Data-plane reliability counters.
    network: NetworkCounters = field(default_factory=NetworkCounters)
    #: Failure-detector counters (zeros on non-adaptive runs).
    detector: DetectorCounters = field(default_factory=DetectorCounters)
    #: One :class:`~repro.core.recovery.RecoveryRecord` per crash recovery.
    recoveries: List[Any] = field(default_factory=list)
    #: Per-phase adaptation-cost decomposition (observability-enabled
    #: runs only; ``None`` otherwise).
    cost_breakdown: Optional[CostBreakdown] = None

    @property
    def total(self) -> DsmStats:
        acc = DsmStats()
        for s in self.per_process.values():
            acc = acc.add(s)
        return acc


class TmkRuntime:
    """The TreadMarks system instance driving one program run."""

    #: The DSM engine class per process (subclasses may swap the protocol).
    PROCESS_CLS = DsmProcess

    def __init__(
        self,
        sim: Simulator,
        cfg: SystemConfig,
        nodes: List,
        materialized: bool = True,
    ):
        if not nodes:
            raise DsmError("need at least one node")
        cfg.validate()
        self.sim = sim
        self.cfg = cfg
        self.nodes = list(nodes)
        self.materialized = materialized
        self.team = TeamView([n.node_id for n in nodes])
        self.space = AddressSpace(cfg.dsm.page_size)
        self.procs: Dict[int, DsmProcess] = {}
        for pid, node in enumerate(nodes):
            proc = self.PROCESS_CLS(
                sim, cfg, node, pid, self.team, self.space, materialized=materialized
            )
            self.procs[pid] = proc
        self.master = self.procs[TeamView.MASTER_PID]
        self.master.lock_mgr = LockManager(self.master)
        # The base runtime's stall_check is a no-op; installing it as a
        # per-page-fault hook would only create and discard an empty
        # generator per fault.  Subclasses that override it (the adaptive
        # runtime's freeze protocol) get the hook installed.
        install_stall = type(self).stall_check is not TmkRuntime.stall_check
        for proc in self.procs.values():
            if install_stall:
                proc.stall_hook = self.stall_check
            proc.peers_hook = self._live_procs
            proc.start_server()
        self.master_ctx = RegionCtx(self, self.master)
        self.fork_seq = 0
        self.program: Optional[TmkProgram] = None
        #: Set when the master driver completes; long-running daemons
        #: (availability models) watch this to stop generating events.
        self.finished = False
        self.finish_time: Optional[float] = None
        self._switch = nodes[0].switch
        #: Live coroutine handles, so crash injection / recovery can kill
        #: the computation where it stands.
        self._driver_proc = None
        self._slave_procs: Dict[DsmProcess, Any] = {}

    @property
    def switch(self):
        """The interconnect all team nodes share."""
        return self._switch

    # -- allocation ---------------------------------------------------------
    def malloc(
        self,
        name: str,
        nbytes: Optional[int] = None,
        protocol: Protocol = Protocol.MULTIPLE_WRITER,
        home: int = TeamView.MASTER_PID,
        dtype: str = "uint8",
        shape: Tuple[int, ...] = (),
    ) -> SharedSegment:
        """``Tmk_malloc``: allocate shared memory (page aligned)."""
        if nbytes is None:
            if not shape:
                raise DsmError("malloc needs nbytes or shape")
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self.space.alloc(
            name, nbytes, protocol=protocol, home=home, dtype=dtype, shape=shape
        )

    def _live_procs(self) -> Dict[int, DsmProcess]:
        """The current pid -> process map (``DsmProcess.peers_hook``).

        Interval-log pruning reads peers' applied clocks through this —
        always the *current* map, so team rebuilds (adaptation, crash
        recovery) are picked up automatically.
        """
        return self.procs

    # -- hooks overridden by the adaptive runtime ---------------------------
    def at_adaptation_point(self) -> Generator:
        """Called at every fork boundary; base system does nothing."""
        return
        yield  # pragma: no cover

    def stall_check(self) -> Generator:
        """Called before compute/access chunks; base system does nothing."""
        return
        yield  # pragma: no cover

    # -- program execution ---------------------------------------------------
    def run(self, program: TmkProgram, until: Optional[float] = None) -> RunResult:
        """Execute the program to completion; returns the results."""
        self.program = program
        for pid in self.team.slave_pids:
            self._start_slave(self.procs[pid])
        self._driver_proc = self.sim.process(
            self._master_main(program), name="master.driver"
        )
        self.sim.run(until=until)
        return self.result()

    def result(self) -> RunResult:
        traffic = self._switch.stats.snapshot()
        obs = self.sim.obs
        return RunResult(
            runtime_seconds=self.finish_time if self.finish_time is not None else self.sim.now,
            traffic=traffic,
            per_process={pid: p.stats.copy() for pid, p in self.procs.items()},
            forks=self.fork_seq,
            network=NetworkCounters(
                dropped=traffic.dropped,
                retransmissions=traffic.retransmissions,
            ),
            cost_breakdown=CostBreakdown.from_registry(obs) if obs.enabled else None,
        )

    def _start_slave(self, proc: DsmProcess) -> None:
        self._slave_procs = {
            p: h for p, h in self._slave_procs.items() if h.alive
        }
        self._slave_procs[proc] = self.sim.process(
            self._slave_main(proc), name=f"{proc.name}.main"
        )

    def _master_main(self, program: TmkProgram) -> Generator:
        api = MasterApi(self)
        yield from program.driver(api)
        self.master.close_interval()
        yield from self.at_adaptation_point()
        self.master.send_fanout(
            [(mk.STOP, pid, {}, 4) for pid in self.team.slave_pids]
        )
        self.finished = True
        self.finish_time = self.sim.now

    def _slave_main(self, proc: DsmProcess) -> Generator:
        """``Tmk_wait`` loop: wait for forks until stopped."""
        ctx = RegionCtx(self, proc)
        wanted = (mk.FORK, mk.STOP, mk.GC_REQ)
        while True:
            msg = yield proc.main_inbox.recv(match=lambda m: m.kind in wanted)
            if msg.kind == mk.STOP:
                if isinstance(msg.payload, dict) and msg.payload.get("retire"):
                    # Normal leave: tear down and hand the node back.
                    node = proc.node
                    proc.terminate()
                    if msg.payload.get("withdraw") and node.in_pool:
                        node.withdraw()
                break
            if msg.kind == mk.GC_REQ:
                yield from proc.tree_barrier.fork_point_gc(msg.payload)
                continue
            payload = msg.payload
            proc.apply_notices(payload["notices"], payload["vc"])
            # Relay the fork down our subtree before running the region,
            # so the whole tree starts in parallel.
            proc.tree_barrier.fork(payload)
            region = self.program.phase(payload["phase"])
            yield from region(ctx, proc.pid, payload["nprocs"], payload["args"])
            yield from proc.tree_barrier.join()

    def _fork_join(self, phase_name: str, args: Any) -> Generator:
        """One parallel construct: adaptation point, fork, region, join."""
        master = self.master
        # Seal the master's sequential-code writes first: the fork boundary
        # is a release, and an adaptation-point GC must not find an open
        # write set.
        master.close_interval()
        yield from self.at_adaptation_point()
        self.fork_seq += 1
        obs = self.sim.obs
        fork_t0 = self.sim.now
        self.sim.tracer.emit("tmk", "fork", f"#{self.fork_seq} {phase_name}")
        # The master forks its tree children (every slave, with one level);
        # each child re-forks its own subtree (see _slave_main).
        master.tree_barrier.fork({
            "phase": phase_name,
            "args": args,
            "fork_seq": self.fork_seq,
            "nprocs": self.team.nprocs,
        })
        region = self.program.phase(phase_name)
        yield from region(self.master_ctx, master.pid, self.team.nprocs, args)
        want_gc = yield from master.tree_barrier.join()
        self.sim.tracer.emit("tmk", "join", f"#{self.fork_seq} {phase_name}")
        if obs.enabled:
            obs.span(
                TRACK_MASTER,
                "fork_join",
                fork_t0,
                self.sim.now,
                category="region",
                phase=phase_name,
                fork=self.fork_seq,
            )
        if want_gc:
            yield from self.gc_at_fork_point()

    def gc_at_fork_point(self) -> Generator:
        """Master-coordinated GC while all slaves are in Tmk_wait.

        The request relays down the tree and both done rounds (flush,
        reset) aggregate one hop at a time, so the master's link carries
        radix control messages per phase.
        """
        obs = self.sim.obs
        gc_t0 = self.sim.now
        self.sim.tracer.emit("dsm", "gc_start", f"fork#{self.fork_seq}")
        yield from self.master.tree_barrier.fork_point_gc()
        if obs.enabled:
            obs.span(
                TRACK_MASTER,
                "gc.fork_point",
                gc_t0,
                self.sim.now,
                category="dsm",
                fork=self.fork_seq,
            )
            obs.count("gc.rounds")
