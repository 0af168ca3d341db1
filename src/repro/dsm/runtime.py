"""The TreadMarks fork/join runtime (the non-adaptive base system).

Implements the ``Tmk_wait`` / ``Tmk_fork`` / ``Tmk_join`` primitives of
§2: slaves sit in a wait loop; the master drives the program, forking a
region (parallel construct) to the team and collecting joins.  Fork and
join messages double as LRC synchronization — they carry write notices in
both directions, so the master's sequential writes invalidate slave copies
and vice versa.

:class:`AdaptiveRuntime` (in :mod:`repro.core.runtime`) subclasses this
and overrides :meth:`at_adaptation_point`, which the base class implements
as a no-op, and :meth:`_on_peer_lost`, which the base class lets raise —
together the standard TreadMarks 1.1.0 behaviour Table 1 compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import CheckpointError, DsmError
from ..network import message as mk
from ..obs.breakdown import CostBreakdown
from ..obs.core import TRACK_MASTER
from ..simcore import Simulator
from . import locks
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
        #: The OpenMP switch that inhibits adaptivity (§4.4): when False
        #: the adaptive runtime never changes the team during this program.
        self.adaptable = True

    def phase(self, name: str) -> RegionFn:
        try:
            return self.phases[name]
        except KeyError:
            raise DsmError(f"program {self.name!r} has no phase {name!r}") from None


class RegionCtx:
    """The API surface a region body (or sequential master code) uses.

    While the driver replays to a checkpoint (:attr:`TmkRuntime.replay`)
    every operation returns at once and :meth:`array` hands out a copy, so
    the replayed master code neither spends simulated time nor touches
    the restored memory.
    """

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
        if self.runtime.replay is None:
            yield from self.proc.access(seg, reads, writes)

    def access_batch(self, specs) -> Generator:
        """Declare accesses over several segments as one atomic step."""
        if self.runtime.replay is None:
            yield from self.proc.access_batch(specs)

    def compute(self, seconds: float) -> Generator:
        """Charge application CPU time."""
        if self.runtime.replay is None:
            yield from self.proc.compute(seconds)

    def barrier(self) -> Generator:
        if self.runtime.replay is None:
            yield from self.proc.barrier()

    def lock(self, lock_id: int) -> Generator:
        if self.runtime.replay is None:
            yield from locks.acquire(self.proc, lock_id)

    def unlock(self, lock_id: int) -> None:
        if self.runtime.replay is None:
            locks.release(self.proc, lock_id)

    def array(self, seg: SharedSegment) -> np.ndarray:
        """Materialized numpy view of the local copy of ``seg``."""
        if self.runtime.replay is not None:
            return self.proc.array(seg).copy()
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
    #: One :class:`~repro.core.recovery.RecoveryRecord` per crash recovery.
    recoveries: List[Any] = field(default_factory=list)
    #: Per-phase adaptation-cost decomposition (observability-enabled
    #: runs only; ``None`` otherwise).
    cost_breakdown: Optional[CostBreakdown] = None
    #: Stats of the engines that left the team or died in a crash.
    retired: List[DsmStats] = field(default_factory=list)

    @property
    def total(self) -> DsmStats:
        acc = DsmStats()
        for s in [*self.per_process.values(), *self.retired]:
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
        self.procs: Dict[int, DsmProcess] = {
            pid: self._new_engine(pid, node) for pid, node in enumerate(nodes)
        }
        self.master = self.procs[TeamView.MASTER_PID]
        self.master_ctx = RegionCtx(self, self.master)
        self.fork_seq = 0
        #: Phase names the running driver has forked, replayed ones
        #: included; a checkpoint records them.
        self.phases: List[str] = []
        #: The phases of a restored checkpoint while the driver replays
        #: them (``restore_checkpoint`` sets it); ``None`` once it runs for
        #: real.
        self.replay: Optional[Tuple[str, ...]] = None
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

    def _new_engine(self, pid: int, node) -> DsmProcess:
        """Build the DSM engine of ``pid`` on ``node``, wire it (crash
        escalation; the master's lock manager) and start its server."""
        proc = self.PROCESS_CLS(self.sim, self.cfg, node, pid, self.team,
                                self.space, materialized=self.materialized)
        proc.crash_hook = self._on_peer_lost
        if pid == TeamView.MASTER_PID:
            proc.lock_mgr = LockManager(proc)
        proc.start_server()
        return proc

    # -- allocation ---------------------------------------------------------
    def malloc(
        self,
        name: str,
        nbytes: Optional[int] = None,
        protocol: Protocol = Protocol.MULTIPLE_WRITER,
        dtype: str = "uint8",
        shape: Tuple[int, ...] = (),
    ) -> SharedSegment:
        """``Tmk_malloc``: allocate shared memory (page aligned)."""
        if nbytes is None:
            if not shape:
                raise DsmError("malloc needs nbytes or shape")
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self.space.alloc(
            name, nbytes, protocol=protocol, dtype=dtype, shape=shape
        )

    # -- hooks overridden by the adaptive runtime ---------------------------
    def at_adaptation_point(self) -> Generator:
        """Called at every fork boundary; base system does nothing."""
        return
        yield  # pragma: no cover

    def _on_peer_lost(self, node_id: int, err: Exception) -> None:
        """Every engine's ``crash_hook``: a request to ``node_id`` failed.
        The base system has no notion of node failure, so it is an error."""
        raise err

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
            cost_breakdown=CostBreakdown.from_registry(obs) if obs.enabled else None,
        )

    def release(self) -> None:
        """End the run's data with the run: every engine lets go of its
        page store and diff payloads (:meth:`DsmProcess.release`).  What a
        caller reads afterwards — the app's ``final`` arrays, stats,
        traffic, page tables, the interval log's records, the plan cache
        and any checkpoints — stays.  An engine that left the team is no
        longer referenced by then (:meth:`_slave_main` drops its handle)."""
        for proc in self.procs.values():
            proc.release()

    def _start_slave(self, proc: DsmProcess) -> None:
        self._slave_procs[proc] = self.sim.process(
            self._slave_main(proc), name=f"{proc.name}.main"
        )

    def _master_main(self, program: TmkProgram) -> Generator:
        self.phases = []
        api = MasterApi(self)
        yield from program.driver(api)
        if self.replay is not None:
            # The checkpoint was taken after the driver returned.
            if len(self.phases) != len(self.replay):
                raise CheckpointError(
                    f"driver returned after {len(self.phases)} of the "
                    f"{len(self.replay)} forks the checkpoint recorded"
                )
            self.replay = None
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
                # A stopped loop is done with its engine: the handle goes,
                # so a leaver's engine is freed when it retires.
                del self._slave_procs[proc]
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
        if self._replayed(phase_name):
            return
        master = self.master
        # Seal the master's sequential-code writes first: the fork boundary
        # is a release, and an adaptation-point GC must not find an open
        # write set.
        master.close_interval()
        yield from self.at_adaptation_point()
        self.phases.append(phase_name)
        self.fork_seq += 1
        obs = self.sim.obs
        fork_t0 = self.sim.now
        obs.instant(fork_t0, "tmk", "fork", f"#{self.fork_seq} {phase_name}")
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
        obs.instant(self.sim.now, "tmk", "join", f"#{self.fork_seq} {phase_name}")
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

    def _replayed(self, phase_name: str) -> bool:
        """Consume the next recorded fork while replaying to a checkpoint.

        A replayed fork costs nothing: no adaptation point, no message, no
        simulated time, no ``fork_seq`` tick.  The first fork past the
        record ends the replay and runs for real.
        """
        replay = self.replay
        if replay is None:
            return False
        done = len(self.phases)
        if done == len(replay):
            self.replay = None
            return False
        if replay[done] != phase_name:
            raise CheckpointError(
                f"replayed fork #{done + 1} is {phase_name!r}, the checkpoint "
                f"recorded {replay[done]!r}: the driver's control flow depends "
                f"on something a replay does not reproduce"
            )
        self.phases.append(phase_name)
        return True

    def gc_at_fork_point(self) -> Generator:
        """Master-coordinated GC while all slaves are in Tmk_wait.

        The request relays down the tree and both done rounds (flush,
        reset) aggregate one hop at a time, so the master's link carries
        radix control messages per phase.
        """
        obs = self.sim.obs
        gc_t0 = self.sim.now
        obs.instant(gc_t0, "dsm", "gc_start", f"fork#{self.fork_seq}")
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
