"""The per-node DSM protocol engine.

A :class:`DsmProcess` is one TreadMarks process on the simulated cluster.
Its LRC state — page table, vector clock, interval log, known intervals
and open write set — is a :class:`~repro.dsm.consistency.ConsistencyCore`
(``lrc``), which knows nothing of the simulator.  The process does the
rest: it moves notices, pages and diffs over the network, charges CPU
time, keeps the statistics and telemetry, and runs a server that services
protocol requests (page fetches, diff fetches, lock traffic) concurrently
with the main computation — the analogue of TreadMarks' SIGIO handlers: a
callback on the delivering event, then a :class:`~repro.simcore.Hold` on
the node's handler CPU (``docs/PROTOCOL.md`` §1, "The server side").

The main computation drives the engine through:

* :meth:`access` — declare the byte ranges a code section reads/writes;
  faults (page fetches, diff fetches, twin creation) happen here;
* :meth:`compute` — charge CPU time on the current node;
* :meth:`barrier` and the locks of :mod:`repro.dsm.locks` — lazy
  release consistency synchronization;
* the fork/join driver in :mod:`repro.dsm.runtime`.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import DsmError, NetworkError, ProtocolError
from ..network import message as mk
from ..network.message import Message
from ..simcore import Channel, Hold, Signal, Simulator
from . import locks
from .barrier import TreeBarrier
from .consistency import SLICE_PAGES, ConsistencyCore
from .diffs import apply_diffs_in_order, make_diff
from .intervals import Diff, IntervalRecord, NoticeBatch
from .memory import AddressSpace, LocalStore, SharedSegment
from .page import MODE_NONE, MODE_READ, MODE_WRITE, MW
from .ranges import Range
from .runs import run_at
from .statistics import DsmStats
from .team import TeamView
from .vectorclock import VectorClock

#: Page pulls the master keeps in flight while it drains a leaver (§4.2)
#: or collects a checkpoint (§4.3).
PIPELINE_DEPTH = 32

#: Message kinds routed to the main coroutine rather than a handler.
MAIN_KINDS = frozenset(
    {
        mk.FORK,
        mk.STOP,
        mk.BARRIER_RELEASE,
        mk.GC_GO,
        mk.GC_REQ,
        mk.LOCK_GRANT,
    }
)


class _Pull:
    """One :meth:`DsmProcess.pull_pages` window: up to ``PIPELINE_DEPTH``
    page requests in flight, each a callback chain — the reply's wait
    calls back ``page_service_client`` after the reply arrives, and the
    install launches the next request.  The reply table refers to the
    window and nothing refers back, so a finished pull is freed by
    reference count (§10)."""

    __slots__ = ("proc", "pairs", "kind", "idx", "active", "done")

    def __init__(self, proc: "DsmProcess", pairs: List[Tuple[int, int]], kind: str):
        self.proc, self.pairs, self.kind = proc, pairs, kind
        self.idx = self.active = 0
        self.done = Signal(proc.sim, f"{proc.name}.pull")

    def launch(self) -> None:
        proc, pairs, kind = self.proc, self.pairs, self.kind
        service = proc.cfg.network.page_service_client
        while self.active < PIPELINE_DEPTH and self.idx < len(pairs):
            page, from_pid = pairs[self.idx]
            self.idx += 1
            self.active += 1
            node = proc.team.node_of(from_pid)

            def on_reply(reply, err, page=page, node=node):
                if err is not None:
                    self.fail(page, node, err)
                else:
                    self.install(reply)

            try:
                proc.request(kind, from_pid, {"page": page}, 8,
                             service).subscribe(on_reply)
            except BaseException as err:  # noqa: BLE001 - a dark NIC, reported
                self.fail(page, node, err)

    def install(self, reply: Message) -> None:
        payload = reply.payload
        try:
            self.proc.install_page(payload["page"], payload["data"], payload["applied"])
        except BaseException as err:  # noqa: BLE001 - report through simulator
            self.proc.sim._report_failure(f"{self.kind}.{payload['page']}", err)
            return
        self.active -= 1
        self.launch()
        if self.active == 0 and self.idx >= len(self.pairs):
            self.done.fire()

    def fail(self, page: int, node: int, err: BaseException) -> None:
        """A lost peer goes to the crash hook and the window never
        completes (recovery kills whoever waits on it); anything else is
        the simulation's failure, under the pull's name."""
        try:
            if not isinstance(err, NetworkError):
                raise err
            self.proc.crash_hook(node, err)
        except BaseException as failure:  # noqa: BLE001 - report through simulator
            self.proc.sim._report_failure(f"{self.kind}.{page}", failure)


class DsmProcess:
    """One TreadMarks-style DSM process."""

    def __init__(
        self,
        sim: Simulator,
        cfg: SystemConfig,
        node,
        pid: int,
        team: TeamView,
        space: AddressSpace,
        materialized: bool = True,
    ):
        self.sim = sim
        self.cfg = cfg
        self.node = node
        self.pid = pid
        self.team = team
        self.space = space
        self.materialized = materialized
        self.store: Optional[LocalStore] = LocalStore(space) if materialized else None

        #: The LRC state: clock, interval log, known intervals, page table
        #: and open write set (docs/PROTOCOL.md §1).
        self.lrc = ConsistencyCore(space, pid, team.nprocs,
                                   cfg.dsm.gc_interval_limit, self.store)
        self.stats = DsmStats()
        self._notice_bytes = cfg.dsm.write_notice_bytes
        self._clock_entry_bytes = cfg.dsm.clock_entry_bytes
        #: Wire size of our vector clock.  Its width is the team size and
        #: changes only at a GC or an adaptation (:meth:`gc_reset`,
        #: :meth:`adapt_reset`), so it is kept, not recomputed per message.
        self.vc_wire_bytes = team.nprocs * self._clock_entry_bytes

        #: Control messages for the main coroutine (fork, release, grants...).
        self.main_inbox = Channel(sim, name=f"{self.name}.main")
        #: Collectors of our tree children's arrivals, joins and GC reports.
        self.arrive_store = Channel(sim, name=f"{self.name}.arrivals")
        self.join_store = Channel(sim, name=f"{self.name}.joins")
        self.gc_done_store = Channel(sim, name=f"{self.name}.gcdone")
        self.lock_mgr = None  # set for the master by the runtime
        #: The synchronization engine: barrier, fork, join, GC rounds (§11).
        self.tree_barrier = TreeBarrier(self)
        #: Our side of the distributed locks: lock id -> state
        #: (:mod:`repro.dsm.locks`).
        self.lock_states: Dict[int, Dict[str, Any]] = {}
        #: req_ids currently being served (duplicate retransmissions of a
        #: request we are still working on are suppressed).
        self._inflight_reqs: set = set()
        #: Requests on (or queued for) the handler CPU, in issue order.
        self._holds: Dict[Hold, None] = {}
        #: Set by the runtime's engine factory: called as
        #: ``crash_hook(dst_node_id, err)`` when a request to a peer times
        #: out or the peer's NIC is dark.  The base runtime's hook re-raises
        #: the error; with failure detection on, the adaptive runtime's
        #: turns it into a suspected-crash report.
        self.crash_hook = None
        node.add_process()

    # ------------------------------------------------------------------
    # identity & plumbing
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"P{self.pid}"

    @property
    def is_master(self) -> bool:
        return self.pid == TeamView.MASTER_PID

    def notice_wire_bytes(self, n_notices: int) -> int:
        return n_notices * self._notice_bytes

    def notice_leg(
        self, kind: str, dst_pid: int, notices: NoticeBatch,
        fields: Optional[Dict[str, Any]] = None, extra_bytes: int = 8,
    ) -> Tuple[str, int, Dict[str, Any], int]:
        """A ``(kind, dst_pid, payload, size)`` synchronization leg — the
        argument tuple of :meth:`send`, an element of :meth:`send_fanout` —
        carrying ``notices``, our clock and ``fields``; the wire is charged
        per notice plus the clock plus ``extra_bytes``."""
        payload = {"notices": notices, "vc": self.lrc.vc.snapshot()}
        if fields:
            payload.update(fields)
        size = self.notice_wire_bytes(len(notices)) + self.vc_wire_bytes + extra_bytes
        return kind, dst_pid, payload, size

    def _message(self, kind: str, dst_pid: int, payload: Any, size: int) -> Message:
        """A protocol message to process ``dst_pid``."""
        return Message(kind=kind, src=self.node.node_id, dst=self.team.node_of(dst_pid),
                       size_bytes=size, payload=payload, src_pid=self.pid, dst_pid=dst_pid)

    def send(self, kind: str, dst_pid: int, payload: Any = None, size: int = 8) -> Message:
        """Build and transmit a protocol message to another process."""
        msg = self._message(kind, dst_pid, payload, size)
        try:
            self.node.nic.send(msg)
        except NetworkError as err:
            # Fail-stop world: a dark peer means the message is simply
            # lost; the crash hook decides whether that is a suspected
            # crash or (the base system) an error.
            self.crash_hook(msg.dst, err)
        return msg

    def send_fanout(
        self, legs: List[Tuple[str, int, Any, int]]
    ) -> List[Message]:
        """Transmit ``(kind, dst_pid, payload, size)`` legs as one wave.

        Leaves links, traffic counters and the event queue exactly as
        ``[self.send(*leg) for leg in legs]`` does, dark peers and the
        crash hook included (docs/PROTOCOL.md §13); it exists so a wave
        is one call the switch can count.
        """
        msgs = [self._message(*leg) for leg in legs]
        crash_hook = self.crash_hook
        self.node.nic.send_flight(msgs, lambda m, e: crash_hook(m.dst, e))
        return msgs

    def request(self, kind: str, dst_pid: int, payload: Any, size: int,
                service: Optional[float] = None):
        """Waitable request/reply to another process's server, resuming
        ``service`` seconds after the reply arrives if given
        (:meth:`Nic.request <repro.network.nic.Nic.request>`)."""
        return self.node.nic.request(self._message(kind, dst_pid, payload, size),
                                     service)

    def request_reply(
        self, kind: str, dst_pid: int, payload: Any, size: int,
        service: Optional[float] = None,
    ) -> Generator:
        """Request/reply with crash escalation (``reply = yield from ...``).

        A :class:`~repro.errors.NetworkError` (retransmissions exhausted, or
        the peer's NIC already dark) is reported through ``crash_hook``.  If
        the hook returns (a suspected crash) the calling coroutine parks
        forever — recovery tears it down and restarts the computation from
        the last checkpoint; the base system's hook re-raises instead.
        """
        msg = self._message(kind, dst_pid, payload, size)
        try:
            reply = yield self.node.nic.request(msg, service)
        except NetworkError as err:
            self.crash_hook(msg.dst, err)
            # Park until recovery kills this coroutine: there is no answer
            # coming, and the caller cannot make progress without one.
            yield Signal(self.sim, name=f"{self.name}.parked")
            raise ProtocolError(f"{self.name}: parked coroutine resumed")
        return reply

    # ------------------------------------------------------------------
    # server: request handling (the SIGIO side of TreadMarks)
    # ------------------------------------------------------------------
    def start_server(self) -> None:
        """(Re)start serving on the current node's NIC; messages that
        arrived before (a joiner's, a migrating process's) are served now,
        in arrival order."""
        self._stop_taking()
        self.node.nic.serve(self)

    def _stop_taking(self) -> None:
        servers = self.node.nic.servers
        if self in servers:
            servers.remove(self)

    def take(self, msg: Message) -> None:
        """The server (called by the NIC): route one message, in the event
        that delivers it.  A failure is reported under the name the
        message's handler coroutine used to have (``P3.h.page_req``)."""
        kind = msg.kind
        try:
            if kind in MAIN_KINDS:
                self.main_inbox.put(msg)
            elif kind == mk.BARRIER_ARRIVE:
                self.arrive_store.put(msg)
            elif kind == mk.JOIN_DONE:
                self.join_store.put(msg)
            elif kind == mk.GC_DONE:
                self.gc_done_store.put(msg)
            elif kind == mk.LOCK_REQ:
                self.lock_mgr.on_request(msg)
            else:
                if msg.req_id is not None:
                    if msg.req_id in self._inflight_reqs:
                        return  # duplicate of a request already in service
                    self._inflight_reqs.add(msg.req_id)
                self._serve(msg)
        except BaseException as err:  # noqa: BLE001 - report through simulator
            self.sim._report_failure(f"{self.name}.h.{kind}", err)

    def _serve(self, msg: Message) -> None:
        """Take a request: what precedes its service time runs now, then it
        occupies the handler CPU; :meth:`_reply` finishes it."""
        kind = msg.kind
        net = self.cfg.network
        if kind == mk.PAGE_REQ or kind == mk.CKPT_PAGE_REQ:
            self._check_servable(msg.payload["page"])
            self._occupy(
                msg, net.page_service_server,
                mk.PAGE_REPLY if kind == mk.PAGE_REQ else mk.CKPT_PAGE_REPLY,
            )
        elif kind == mk.DIFF_REQ:
            payload = msg.payload
            diffs = self.lrc.log.diffs_for(
                payload["page"], payload["from_seq"], payload["to_seq"],
                self._encode_lazy_diff,
            )
            dirty = wire = 0
            for diff in diffs:
                dirty += diff.dirty_bytes
                wire += diff.wire_size
            self._occupy(
                msg, net.diff_fixed + dirty * net.diff_per_byte, mk.DIFF_REPLY,
                4 + wire, {"diffs": diffs, "n_diffs": len(diffs)},
            )
        elif kind == mk.LOCK_FORWARD:
            self._occupy(msg, net.lock_service)
        elif kind == mk.CONNECT:
            # A joining process dialing in (§4.1): acknowledge.
            self._occupy(msg, 50.0e-6, mk.CONNECT_ACK)
        elif kind == mk.HEARTBEAT:
            # Failure-detector probe from the master: ack goes through the
            # handler CPU, so a node buried in protocol work acks late —
            # that is what the detector's timeout margin is tuned against.
            self._occupy(msg, 10.0e-6, mk.HEARTBEAT_ACK)
        elif kind == mk.PAGE_MAP:
            self._on_page_map(msg)
        elif kind == mk.OWNER_UPDATE:
            self._on_owner_update(msg)
        else:
            raise ProtocolError(f"{self.name}: unexpected request {msg!r}")

    def _occupy(self, msg: Message, cost: float, reply_kind: Optional[str] = None,
                size: int = 4, payload: Any = None) -> None:
        """Queue ``msg`` for ``cost`` seconds of this node's handler CPU
        (one FIFO for every request served on the node)."""
        node = self.node
        hold = node.handler_cpu.hold(
            cost / node.speed, self._reply, msg, (reply_kind, size, payload)
        )
        self._holds[hold] = None

    def _reply(self, hold: Hold) -> None:
        """A request's service time is over: answer it.  The one place a
        reply is built and sent; a page's bytes and ``applied`` clock are
        read now, not at arrival."""
        msg = hold.msg
        del self._holds[hold]
        self._inflight_reqs.discard(msg.req_id)
        reply_kind, size, payload = hold.state
        try:
            if reply_kind is None:
                locks.on_forward(self, msg)
                return
            if reply_kind == mk.PAGE_REPLY or reply_kind == mk.CKPT_PAGE_REPLY:
                page = msg.payload["page"]
                data = self.store.page_view(page).copy() if self.materialized else None
                # "applied" is a fresh dict: retransmissions of this reply
                # carry the applied cells as of send time.
                payload = {"page": page, "applied": self.lrc.table.applied_of(page),
                           "data": data}
                size = self.cfg.dsm.page_size + self.vc_wire_bytes
            self.node.nic.send(msg.reply(reply_kind, size_bytes=size, payload=payload))
        except BaseException as err:  # noqa: BLE001 - report through simulator
            if reply_kind == mk.HEARTBEAT_ACK and isinstance(err, NetworkError):
                return  # the prober's NIC went dark; nothing to tell it
            self.sim._report_failure(f"{self.name}.h.{msg.kind}", err)

    def _on_page_map(self, msg: Message) -> None:
        """The page-location map shipped to a joiner at absorption."""
        payload = msg.payload
        targets = payload["targets"]
        owners = payload["owners"]
        if self.pid in targets:
            self.lrc.table.owner[:] = owners
            self.sim.obs.instant(self.sim.now, "adapt", "page_map",
                                 f"{self.name} {len(owners)} pages")
        self.tree_barrier.relay_page_map(owners, targets)

    def _on_owner_update(self, msg: Message) -> None:
        """The master took over a leaver's pages (§4.2)."""
        payload = msg.payload
        owner = self.lrc.table.owner
        for page in payload["pages"]:
            owner[page] = TeamView.MASTER_PID
        self.tree_barrier.relay_owner_update(payload)

    def _check_servable(self, page: int) -> None:
        # Lazily map: the owner of a page holds a valid (zero-filled)
        # copy even before ever touching it.
        table = self.lrc.table
        if not table.mapped[page]:
            self.lrc.map_page(page)
        if not table.valid[page]:
            raise ProtocolError(
                f"{self.name}: asked for page {page} but holds no valid copy"
            )

    def _encode_lazy_diff(self, rec: IntervalRecord, page: int) -> Optional[Diff]:
        """Encode the diff of ``page`` for an interval that skipped eager
        creation (``IntervalLog.diffs_for`` asks for it).

        Happens only for pages demoted from single-writer after their
        interval closed.  In materialized mode the current page bytes stand
        in for the (long gone) interval snapshot; the declared ranges are
        exact, and later intervals' diffs overwrite in apply order, so the
        reader converges to the same bytes.
        """
        diff = make_diff(
            proc=self.pid,
            seq=rec.seq,
            page=page,
            vc=rec.vc,
            declared_ranges=run_at(rec.runs, page)[2],
            current=self.store.page_view(page) if self.materialized else None,
            vc_is_snapshot=True,
        )
        if diff is not None:
            self.stats.diffs_created += 1
            obs = self.sim.obs
            if obs.enabled:
                obs.count("dsm.diff.created", 1)
        return diff

    # ------------------------------------------------------------------
    # notices (the state is the core's; these are the traced entry points)
    # ------------------------------------------------------------------
    def apply_notices(self, notices: NoticeBatch, sender_vc: VectorClock) -> None:
        """:meth:`ConsistencyCore.apply_notices`, which defers ingestion.
        With per-process observation on, the batch is ingested at once, so
        each ``dsm/demote`` instant keeps its simulated time and place."""
        lrc = self.lrc
        lrc.apply_notices(notices, sender_vc)
        obs = self.sim.obs
        if obs.enabled and obs.per_process:
            for page in lrc.settle():
                obs.instant(self.sim.now, "dsm", "demote",
                            f"{self.name} pg{page} -> multiple-writer")

    def notices_unknown_to(self, other_vc: VectorClock) -> NoticeBatch:
        """All epoch notices this process knows that ``other_vc`` does not cover."""
        return self.lrc.notices_unknown_to(other_vc)

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def access(
        self,
        seg: SharedSegment,
        reads: Iterable[Range] = (),
        writes: Iterable[Range] = (),
    ) -> Generator:
        """Declare that the program now reads/writes these segment byte ranges.

        Pages not valid locally fault and fetch; written pages get twins
        and enter the open interval's write set.  This is the page-level
        equivalent of the SEGV handler firing as compiled code touches
        shared arrays.

        A run of at least :data:`SLICE_PAGES` pages is split only around
        the pages that fault: each stretch of valid pages with nothing
        pending between them is handled at once (:meth:`_touch`).  Shorter
        runs are walked page by page.  Before each page the engine waits
        out the team's freeze (an urgent leave's migration, §4.2); only a
        fault lets simulated time pass, so a freeze can begin only there
        and is honoured before the page after it.
        """
        reads = tuple(reads)
        writes = tuple(writes)
        page_size = self.cfg.dsm.page_size
        # The page runs and their write ranges are a pure function of the
        # segment geometry and the requested ranges, so iterative programs
        # (same ranges every sweep) hit the memo instead of recomputing.
        plan = self.space.plan_cache.lookup(seg, reads, writes, page_size)
        lrc = self.lrc
        table = lrc.table
        valid = table.valid
        npending = table.npending
        mode = table.mode
        wset = lrc.writes
        team = self.team
        for start, stop, wr in plan.runs:
            if stop - start >= SLICE_PAGES:
                page = start
                while page < stop:
                    while team.frozen is not None:
                        yield team.frozen
                    if valid[page] and not npending[page]:
                        end = self._fault_free_end(page, stop)
                        self._touch(page, end, wr)
                        page = end  # faults, or ends the run
                        continue
                    yield from self._ensure_access(page, write=wr is not None)
                    if wr is not None:
                        wset.write(page, page + 1, wr)
                    page += 1
                continue
            for page in range(start, stop):
                while team.frozen is not None:
                    yield team.frozen
                # Fast path: a valid, up-to-date copy needs no fault — skip
                # the _ensure_access generator machinery entirely.  (An
                # unmapped page reads as not valid.)
                if valid[page] and not npending[page]:
                    if wr is None:
                        if mode[page] == MODE_NONE:
                            mode[page] = MODE_READ
                    elif wset.rewrite(page, wr):
                        # Repeat write in the same interval: the twin/owner
                        # work already happened (mode WRITE implies
                        # _prepare_write ran and nothing reset it since).
                        if mode[page] != MODE_WRITE:
                            self._prepare_write(page, False)
                    else:
                        self._prepare_write(page, True)
                        wset.add(page, page + 1, wr)
                    continue
                yield from self._ensure_access(page, write=wr is not None)
                if wr is not None:
                    wset.write(page, page + 1, wr)

    def _fault_free_end(self, start: int, stop: int) -> int:
        """The first page of ``[start, stop)`` that would fault, or ``stop``."""
        table = self.lrc.table
        valid = table.valid
        npending = table.npending
        end = valid.find(0, start, stop)
        if end < 0:
            end = stop
        if any(npending[start:end]):
            end = start
            while valid[end] and not npending[end]:
                end += 1
        return end

    def _touch(self, start: int, stop: int, wr: Optional[List[Range]]) -> None:
        """The fault-free accesses to the valid, up-to-date pages ``[start,
        stop)``: read (``wr`` None) or write them at the page ranges ``wr``."""
        lrc = self.lrc
        mode = lrc.table.mode
        if wr is None:
            if mode.find(MODE_NONE, start, stop) >= 0:
                mode[start:stop] = mode[start:stop].replace(b"\0", b"\1")
            return
        wset = lrc.writes
        if not wset.overlaps(start, stop):
            # The first writes to the run: one twin each.
            lrc.prepare_run(start, stop)
            n = stop - start
            self.stats.twins_created += n
            node = self.node
            twin_time = self.cfg.dsm.twin_time
            busy = node.busy_time
            for _ in range(n):  # per page: float sums are order-sensitive
                busy += twin_time
            node.busy_time = busy
            wset.add(start, stop, wr)
            return
        for page in range(start, stop):
            if not wset.contains(page):
                self._prepare_write(page, True)
            elif mode[page] != MODE_WRITE:
                self._prepare_write(page, False)
        wset.write(start, stop, wr)

    def access_batch(self, specs) -> Generator:
        """Access several segments in one region step.

        Under LRC this is simply the accesses in sequence; the SC baseline
        overrides it to make the combined write set atomic.
        """
        for seg, reads, writes in specs:
            yield from self.access(seg, reads, writes)

    def _ensure_access(self, page: int, write: bool) -> Generator:
        """Fault in one page for read or write access."""
        lrc = self.lrc
        table = lrc.table
        if not table.mapped[page]:
            lrc.map_page(page)
        if not table.valid[page] or table.npending[page]:
            t0 = self.sim.now
            if not table.valid[page]:
                from_pid = table.owner[page]
                if from_pid == self.pid:
                    # First touch at the home/owner: the zero-filled copy
                    # is valid.
                    table.valid[page] = 1
                else:
                    yield from self._pull_page(page, from_pid)
                    obs = self.sim.obs
                    if obs.enabled and obs.per_process:
                        obs.instant(self.sim.now, "dsm", "page_fetch",
                                    f"{self.name}<-P{from_pid} pg{page}")
            if table.npending[page]:
                yield from self._fetch_pending(page)
            self.stats.fault_wait_time += self.sim.now - t0
            obs = self.sim.obs
            if obs.enabled and obs.per_process:
                obs.span(
                    f"P{self.pid}",
                    "fault.wait",
                    t0,
                    self.sim.now,
                    category="dsm",
                    page=page,
                    write=write,
                )
        if write:
            self._prepare_write(page, not lrc.writes.contains(page))
        elif table.mode[page] == MODE_NONE:
            table.mode[page] = MODE_READ

    def install_page(self, page: int, data, applied: Dict[int, int]) -> None:
        """Install a fetched full copy of ``page`` (a PAGE_REPLY's content)."""
        self.lrc.install_page(page, data, applied)
        self.stats.page_fetches += 1

    def _pull_page(self, page: int, from_pid: int) -> Generator:
        """A fault's page fetch: request, then install once the reply is in
        and the client-side service time has passed — one resume (the
        callback form of the same steps is :class:`_Pull`)."""
        reply = yield from self.request_reply(
            mk.PAGE_REQ, from_pid, {"page": page}, 8,
            self.cfg.network.page_service_client)
        self.install_page(page, reply.payload["data"], reply.payload["applied"])

    def pull_pages(self, pairs: List[Tuple[int, int]], kind: str) -> Generator:
        """Pull every ``(page, from_pid)`` pair, ``PIPELINE_DEPTH`` at a time.

        The serving CPUs and this node's downlink serialize the stream,
        which is exactly the bottleneck §5.4 measures.
        """
        if pairs:
            pull = _Pull(self, pairs, kind)
            pull.launch()
            yield pull.done

    def _fetch_pending(self, page: int) -> Generator:
        """Bring a stale copy up to date (diffs, or full page re-fetch)."""
        lrc = self.lrc
        table = lrc.table
        by_writer = table.pending_of(page)
        if table.protocol[page] != MW:
            # One interval per writer suffices here: a writer's later
            # interval clock dominates its earlier ones, so the per-writer
            # latest pending interval attains the maximum.
            latest = max(
                by_writer,
                key=lambda w: (
                    *lrc.known_interval(w, by_writer[w]).vc.sort_key(), -w
                ),
            )
            yield from self._fetch_page_refresh(page, latest)
            if not table.npending[page]:
                return
            # Concurrent writers after all: demote and fall through to the
            # diff path for the remaining intervals.
            table.protocol[page] = MW
            obs = self.sim.obs
            if obs.enabled and obs.per_process:
                obs.instant(self.sim.now, "dsm", "demote",
                            f"{self.name} pg{page} -> multiple-writer")
            by_writer = table.pending_of(page)
        t_fetch = self.sim.now
        collected: List[Diff] = []
        applied = table.applied
        for writer, to_seq in by_writer.items():
            if writer == self.pid:
                raise ProtocolError(f"{self.name}: pending notice from self")
            col = applied.get(writer)
            reply = yield from self.request_reply(
                mk.DIFF_REQ,
                writer,
                {
                    "page": page,
                    "from_seq": col[page] if col is not None else 0,
                    "to_seq": to_seq,
                },
                size=16,
            )
            collected.extend(reply.payload["diffs"])
        buffer = self.store.page_view(page) if self.materialized else None
        ordered = apply_diffs_in_order(collected, buffer)
        dirty = sum([diff.dirty_bytes for diff in ordered])
        # Every diff came from a pending writer at a seq no later than its
        # pending one, so advancing each writer to that seq covers them,
        # and the intervals that produced no diff for this page (e.g. a
        # write of identical bytes).
        for writer, seq in by_writer.items():
            table.advance(page, writer, seq)
        self.stats.diffs_fetched += len(collected)
        obs = self.sim.obs
        if obs.enabled:
            obs.count("dsm.diff.fetched", len(collected))
            obs.count("dsm.diff.bytes", dirty)
            if buffer is not None and len(ordered) > 1:
                obs.count("dsm.diff.squashes", 1)
            if obs.per_process:
                obs.span(
                    f"P{self.pid}",
                    "dsm.diff.fetch",
                    t_fetch,
                    self.sim.now,
                    category="dsm",
                    page=page,
                    n_diffs=len(collected),
                )
        table.clear_pending(page, by_writer)

    def _fetch_page_refresh(self, page: int, from_pid: int) -> Generator:
        """Re-fetch a full page (single-writer protocol update path)."""
        yield from self._pull_page(page, from_pid)
        self.lrc.table.owner[page] = from_pid

    def _prepare_write(self, page: int, first: bool) -> None:
        """Write access to the valid ``page`` in the open interval
        (:meth:`ConsistencyCore.prepare_write`); ``first``, the interval's
        first write to it, costs ``twin_time``."""
        self.lrc.prepare_write(page, first)
        if first:
            self.stats.twins_created += 1
            self.node.busy_time += self.cfg.dsm.twin_time

    # ------------------------------------------------------------------
    # intervals & releases
    # ------------------------------------------------------------------
    def close_interval(self) -> NoticeBatch:
        """Close the open interval (at a release); returns its notices."""
        batch, created = self.lrc.close_interval()
        if batch.intervals:
            if created:
                self.stats.diffs_created += created
                obs = self.sim.obs
                if obs.enabled:
                    obs.count("dsm.diff.created", created)
            self.stats.intervals_closed += 1
        return batch

    def sync_notices(self) -> NoticeBatch:
        """Close the open interval and return all own notices the master
        has not yet been told about (lock releases create intervals the
        master never sees otherwise)."""
        self.close_interval()
        return self.lrc.unsent_own_notices()

    # ------------------------------------------------------------------
    # barrier (the fold itself is the synchronization engine's)
    # ------------------------------------------------------------------
    def barrier(self) -> Generator:
        """TreadMarks barrier with write-notice exchange."""
        t0 = self.sim.now
        self.stats.barriers += 1
        yield from self.tree_barrier.barrier()
        self.stats.barrier_wait_time += self.sim.now - t0
        obs = self.sim.obs
        if obs.enabled and obs.per_process:
            obs.span(f"P{self.pid}", "barrier.wait", t0, self.sim.now, category="dsm")

    # ------------------------------------------------------------------
    # garbage collection participation
    # ------------------------------------------------------------------
    def gc_flush(self) -> Generator:
        """Make our copies of pages we will own complete (flush phase):
        fetch the pending diffs of the pages we win, in page order."""
        lrc = self.lrc
        npending = lrc.table.npending
        for start, end in lrc.gc_owned_spans():
            for page in compress(range(start, end), npending[start:end]):
                yield from self._fetch_pending(page)

    def gc_reset(self) -> None:
        """Drop all consistency bookkeeping and start a new epoch."""
        lrc = self.lrc
        nprocs = self.team.nprocs
        lrc.gc_reset(nprocs)
        self.vc_wire_bytes = nprocs * self._clock_entry_bytes
        self.lock_states.clear()
        if self.lock_mgr is not None:
            self.lock_mgr.reset()
        # Subtree knowledge floors are per-epoch (clocks reset).
        self.tree_barrier.reset()
        self.stats.gcs += 1
        self.sim.obs.instant(self.sim.now, "dsm", "gc",
                             f"{self.name} epoch={lrc.epoch}")

    # ------------------------------------------------------------------
    # compute & data access helpers
    # ------------------------------------------------------------------
    def compute(self, seconds: float) -> Generator:
        """Charge ``seconds`` of application CPU work on the current node,
        once the team's freeze (if any) is over."""
        team = self.team
        while team.frozen is not None:
            yield team.frozen
        self.stats.compute_time += seconds
        t0 = self.sim.now
        yield from self.node.compute(seconds)
        obs = self.sim.obs
        if obs.enabled and obs.per_process:
            obs.span(f"P{self.pid}", "compute", t0, self.sim.now, category="app")

    def array(self, seg: SharedSegment) -> np.ndarray:
        """Materialized view of a segment's local copy (shape/dtype applied)."""
        store = self.store
        if store is None:
            raise DsmError("array views are only available in materialized mode, "
                           "while the run lasts (a finished run's memory is "
                           "its app's final arrays)")
        return store.array_view(seg)

    # ------------------------------------------------------------------
    # migration support (urgent leaves)
    # ------------------------------------------------------------------
    def resident_image_bytes(self) -> int:
        """Heap+stack image size moved by libckpt (§5.3).

        The checkpoint image covers every *mapped* shared page (libckpt
        dumps the heap; DSM mappings are part of it whether currently valid
        or not) plus the runtime's own heap/stack overhead.  This matches
        the paper's per-application migration costs, which correspond to
        roughly the whole shared segment at 8.1 MB/s.
        """
        return (
            len(self.lrc.table) * self.cfg.dsm.page_size
            + self.cfg.migration.image_overhead_bytes
        )

    def adapt_reset(self, new_pid: int, owner_remap: Dict[int, int]) -> None:
        """Re-identify this process after an adaptation (§4.1).

        Must follow a GC (all clocks zero, no pending notices).  ``new_pid``
        is the reassigned process id; ``owner_remap`` maps old owner pids to
        new ones for every page-owner reference we hold.
        """
        nprocs = self.team.nprocs
        self.lrc.adapt_reset(new_pid, nprocs, owner_remap)
        self.vc_wire_bytes = nprocs * self._clock_entry_bytes
        # Team membership changed: conceptually a repartition, so drop all
        # memoized access plans (they are rebuilt lazily on first use).
        self.space.plan_cache.invalidate()
        self.pid = new_pid
        # Pids were renumbered; the tree is rebuilt from the new team.
        self.tree_barrier.reset()

    def release(self) -> None:
        """The run is over: let go of the page store (both references) and
        of the interval log's diff payloads (:meth:`ConsistencyCore.release`).
        Stats, the page table and the log's records stay."""
        self.store = None
        self.lrc.release()

    def terminate(self) -> None:
        """Tear down after leaving the computation.  The engines that point
        back at this process are dropped, as in :meth:`fail_stop`."""
        self._stop_taking()
        self.node.remove_process()
        self.lock_mgr = self.tree_barrier = None

    def fail_stop(self) -> None:
        """Die with the node: nothing more is taken, and every request
        queued for or occupying the handler CPU is cancelled unanswered, in
        issue order (the CPU goes to whoever else queues on the node).

        The node's own crash already zeroed its resident-process count, so
        no node bookkeeping happens here.  The synchronization and lock engines,
        which point back at this process, are dropped: nothing reads them
        once the coroutines are dead, and a discarded engine is then freed
        by reference count rather than left as a cycle (§10).
        """
        self._stop_taking()
        holds, self._holds = self._holds, {}
        for hold in holds:
            hold.cancel()
        self.lock_mgr = self.tree_barrier = None

    def halt(self) -> None:
        """Stop serving (recovery teardown of a *surviving* process).

        Unlike :meth:`fail_stop` the node is healthy: the resident-process
        slot is handed back so recovery can place a fresh engine on it.
        """
        self.fail_stop()
        if not self.node.crashed:
            self.node.remove_process()

    def move_to_node(self, new_node) -> None:
        """Transplant this process onto ``new_node`` (after image copy)."""
        self._stop_taking()
        self.node.remove_process()
        self.node = new_node
        new_node.add_process()
        self.start_server()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DsmProcess {self.name} on node {self.node.node_id}>"
