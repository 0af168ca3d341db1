"""The per-node DSM protocol engine.

A :class:`DsmProcess` is one TreadMarks process: it owns a page table, a
vector clock, an interval log, and a server that services protocol
requests (page fetches, diff fetches, lock traffic) concurrently with the
main computation — the analogue of TreadMarks' SIGIO handlers: a callback
on the delivering event, then a :class:`~repro.simcore.Hold` on the node's
handler CPU (``docs/PROTOCOL.md`` §1, "The server side").

The main computation drives the engine through:

* :meth:`access` — declare the byte ranges a code section reads/writes;
  faults (page fetches, diff fetches, twin creation) happen here;
* :meth:`compute` — charge CPU time on the current node;
* :meth:`barrier`, :meth:`lock_acquire`, :meth:`lock_release` — lazy
  release consistency synchronization;
* the fork/join driver in :mod:`repro.dsm.runtime`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, itemgetter
from typing import Any, Dict, Generator, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import DsmError, NetworkError, ProtocolError
from ..network import message as mk
from ..network.message import Message
from ..simcore import Channel, Hold, Signal, Simulator
from .barrier import TreeBarrier, in_subtree, tree_children
from .diffs import apply_diffs_in_order, make_diff
from .gc import gc_new_owners
from .intervals import Diff, IntervalLog, IntervalNotice, IntervalRecord, NoticeBatch
from .memory import AddressSpace, LocalStore, SharedSegment
from .page import MODE_NONE, MODE_READ, MODE_WRITE, MW, SW, PageTable
from .ranges import Range
from .runs import Run, WriteSet, page_count, run_at
from .statistics import DsmStats
from .team import TeamView
from .vectorclock import VectorClock

_seq = attrgetter("seq")

#: Page pulls the master keeps in flight while it drains a leaver (§4.2)
#: or collects a checkpoint (§4.3).
PIPELINE_DEPTH = 32

#: Shortest page run that notice ingestion and the access fast path
#: handle with slice loads and stores; shorter runs take the per-page
#: body of the same loop.  A slice run costs ≈ 1.5 µs of set-up against
#: ≈ 0.1 µs per page in the loop; this is the measured break-even of
#: multiple-writer ingestion and of reads (docs/PROTOCOL.md §6, "Page
#: runs" table).
SLICE_PAGES = 12

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
    page requests in flight, each a callback chain — the reply schedules
    the install ``page_service_client`` later, the install launches the
    next request.  The reply table refers to the window and nothing refers
    back, so a finished pull is freed by reference count (§10)."""

    __slots__ = ("proc", "pairs", "kind", "idx", "active", "done")

    def __init__(self, proc: "DsmProcess", pairs: List[Tuple[int, int]], kind: str):
        self.proc, self.pairs, self.kind = proc, pairs, kind
        self.idx = self.active = 0
        self.done = Signal(proc.sim, f"{proc.name}.pull")

    def launch(self) -> None:
        proc, pairs, kind = self.proc, self.pairs, self.kind
        while self.active < PIPELINE_DEPTH and self.idx < len(pairs):
            page, from_pid = pairs[self.idx]
            self.idx += 1
            self.active += 1
            node = proc.team.node_of(from_pid)

            def on_reply(reply, err, page=page, node=node):
                if err is not None:
                    self.fail(page, node, err)
                else:
                    proc.sim.schedule(proc.cfg.network.page_service_client,
                                      (self.install, reply))

            try:
                proc.request(kind, from_pid, {"page": page}, 8).subscribe(on_reply)
            except BaseException as err:  # noqa: BLE001 - a dark NIC, reported
                self.fail(page, node, err)

    def install(self, reply: Message, _exc=None) -> None:
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
        hook = self.proc.crash_hook
        try:
            if hook is None or not isinstance(err, NetworkError):
                raise err
            hook(node, err)
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

        #: The page table as of the last :meth:`_settle`; read it through
        #: :attr:`table`.
        self._table = PageTable(space)
        self.vc = VectorClock.zeros(team.nprocs)
        self.log = IntervalLog(pid)
        self.epoch = 0
        #: Per-writer list of every interval known this epoch, ascending
        #: by seq.  This is both the dedupe structure (membership is one
        #: int compare against the tail, or a bisect on out-of-order
        #: arrival) and the "everything newer than vc[w]" index (a bisect
        #: + slice).  As of the last :meth:`_settle`; read it through
        #: :attr:`_known`.
        self._buckets: Dict[int, List[IntervalNotice]] = {}
        #: The interval lists of the notice batches received since the
        #: last :meth:`_settle`, in arrival order (the batches' own lists).
        self._deferred: List[List[IntervalNotice]] = []
        #: The *open* interval's write set (runs with their dirty ranges).
        self._writes = WriteSet()
        #: ``(start, stop, copy)`` twins (pristine pre-write copies) of the
        #: open interval's multiple-writer pages, one per run of pages
        #: first written together; materialized mode only.
        self._twins: List[Tuple[int, int, np.ndarray]] = []
        #: Owner runs computed by gc_flush (``gc_new_owners``' order),
        #: installed by gc_reset.
        self._gc_pending_owners: List[Tuple[range, int]] = []
        self.stats = DsmStats()
        #: Highest own interval seq already reported to the master.
        self._sent_to_master_seq = 0
        self._notice_bytes = cfg.dsm.write_notice_bytes
        self._vc_bytes: Tuple[int, int] = (-1, 0)  # (vc width, cached bytes)

        #: Control messages for the main coroutine (fork, release, grants...).
        self.main_inbox = Channel(sim, name=f"{self.name}.main")
        #: Collectors of our tree children's arrivals, joins and GC reports.
        self.arrive_store = Channel(sim, name=f"{self.name}.arrivals")
        self.join_store = Channel(sim, name=f"{self.name}.joins")
        self.gc_done_store = Channel(sim, name=f"{self.name}.gcdone")
        self.lock_mgr = None  # set for the master by the runtime
        #: The synchronization engine: barrier, fork, join, GC rounds (§11).
        self.tree_barrier = TreeBarrier(self)
        #: Per-process distributed lock state: lock id -> dict.
        self._lock_state: Dict[int, Dict[str, Any]] = {}
        #: Set by the runtime: a generator-returning callable that blocks
        #: while the system is frozen (urgent-leave migration, §4.2).  It
        #: is consulted between individual page faults so a long fault
        #: sequence cannot run through a freeze.
        self.stall_hook = None
        #: req_ids currently being served (duplicate retransmissions of a
        #: request we are still working on are suppressed).
        self._inflight_reqs: set = set()
        #: Requests on (or queued for) the handler CPU, in issue order.
        self._holds: Dict[Hold, None] = {}
        #: Set by the runtime when failure detection is on: called as
        #: ``crash_hook(dst_node_id, err)`` when a request to a peer times
        #: out or the peer's NIC is dark — escalates the NetworkError into a
        #: suspected-crash report instead of failing the simulation.
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

    @property
    def vc_wire_bytes(self) -> int:
        # Cached per clock width; adaptations change the team size (and
        # with it the clock width), so the cache key is the width itself.
        width = self.vc.width
        cached = self._vc_bytes
        if cached[0] == width:
            return cached[1]
        val = width * self.cfg.dsm.clock_entry_bytes
        self._vc_bytes = (width, val)
        return val

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
        payload = {"notices": notices, "vc": self.vc.snapshot()}
        if fields:
            payload.update(fields)
        size = self.notice_wire_bytes(len(notices)) + self.vc_wire_bytes + extra_bytes
        return kind, dst_pid, payload, size

    def send(
        self,
        kind: str,
        dst_pid: int,
        payload: Any = None,
        size: int = 8,
        req_id: Optional[int] = None,
        is_reply: bool = False,
    ) -> Message:
        """Build and transmit a protocol message to another process."""
        msg = Message(
            kind=kind,
            src=self.node.node_id,
            dst=self.team.node_of(dst_pid),
            size_bytes=size,
            payload=payload,
            req_id=req_id,
            is_reply=is_reply,
            src_pid=self.pid,
            dst_pid=dst_pid,
        )
        try:
            self.node.nic.send(msg)
        except NetworkError as err:
            # Fail-stop world: a dark peer means the message is simply
            # lost.  With a crash hook installed the failure is escalated
            # to the runtime (suspected crash); without one it propagates,
            # as the base system has no notion of node failure.
            if self.crash_hook is None:
                raise
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
        node_of = self.team.node_of
        src = self.node.node_id
        pid = self.pid
        msgs = [
            Message(
                kind=kind,
                src=src,
                dst=node_of(dst_pid),
                size_bytes=size,
                payload=payload,
                src_pid=pid,
                dst_pid=dst_pid,
            )
            for kind, dst_pid, payload, size in legs
        ]
        crash_hook = self.crash_hook
        on_error = (
            None
            if crash_hook is None
            else lambda m, e: crash_hook(m.dst, e)
        )
        self.node.nic.send_flight(msgs, on_error)
        return msgs

    def request(self, kind: str, dst_pid: int, payload: Any, size: int):
        """Waitable request/reply to another process's server."""
        msg = Message(
            kind=kind,
            src=self.node.node_id,
            dst=self.team.node_of(dst_pid),
            size_bytes=size,
            payload=payload,
            src_pid=self.pid,
            dst_pid=dst_pid,
        )
        return self.node.nic.request(msg)

    def request_reply(
        self, kind: str, dst_pid: int, payload: Any, size: int
    ) -> Generator:
        """Request/reply with crash escalation (``reply = yield from ...``).

        A :class:`~repro.errors.NetworkError` (retransmissions exhausted, or
        the peer's NIC already dark) is reported through ``crash_hook`` and
        the calling coroutine parks forever — recovery tears it down and
        restarts the computation from the last checkpoint.  Without a hook
        the error propagates unchanged (base-system behaviour).
        """
        dst_node = self.team.node_of(dst_pid)
        try:
            reply = yield self.request(kind, dst_pid, payload, size)
        except NetworkError as err:
            if self.crash_hook is None:
                raise
            self.crash_hook(dst_node, err)
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
            diffs = self.log.diffs_for(
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
                self._on_lock_forward(msg)
                return
            if reply_kind == mk.PAGE_REPLY or reply_kind == mk.CKPT_PAGE_REPLY:
                page = msg.payload["page"]
                data = self.store.page_view(page).copy() if self.materialized else None
                # "applied" is a fresh dict: retransmissions of this reply
                # carry the applied cells as of send time.
                payload = {"page": page, "applied": self.table.applied_of(page),
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
            self.table.owner[:] = owners
            self.sim.obs.instant(self.sim.now, "adapt", "page_map",
                                 f"{self.name} {len(owners)} pages")
        self.relay_page_map(owners, targets)

    def relay_page_map(self, owners: List[int], targets: List[int],
                       direct: bool = False) -> None:
        """One hop of the page-map relay (PROTOCOL.md §11), the master's
        included: one copy to each tree child whose subtree holds some of
        ``targets`` — or, ``direct``, one copy straight to each target."""
        tree = self.tree_barrier
        size = len(owners) * self.cfg.dsm.page_descriptor_bytes
        if direct:
            routes = [(t, [t]) for t in targets]
        else:
            routes = [
                (cpid, [t for t in targets if in_subtree(t, cpid, tree.radix)])
                for cpid in tree.children
            ]
        legs = [
            (mk.PAGE_MAP, cpid, {"owners": owners, "targets": hit}, size)
            for cpid, hit in routes if hit
        ]
        if not legs:
            return
        self.send_fanout(legs)
        obs = self.sim.obs
        if obs.enabled:
            for _ in legs:
                obs.count("adapt.page_map_messages")
                obs.count("adapt.page_map_bytes", size)

    def _on_owner_update(self, msg: Message) -> None:
        """The master took over a leaver's pages (§4.2)."""
        payload = msg.payload
        owner = self.table.owner
        for page in payload["pages"]:
            owner[page] = TeamView.MASTER_PID
        self.relay_owner_update(payload)

    def relay_owner_update(self, payload: Dict[str, Any]) -> None:
        """One hop of the drain broadcast (PROTOCOL.md §13), the master's
        included: one copy to each of our children in the heap layout over
        ``[master] + targets`` with the master's ``radix`` at the drain.
        The layout comes from the payload, so it never includes (or routes
        through) the leaver and a team rebuilt meanwhile does not reshape
        it; every relay node is itself a target and has installed the
        update."""
        relay = [TeamView.MASTER_PID] + payload["targets"]
        children = tree_children(relay, relay.index(self.pid), payload["radix"])
        if not children:
            return
        size = len(payload["pages"]) * self.cfg.dsm.page_descriptor_bytes
        # The drain's rebuild may renumber the team while a hop is in
        # flight; pids that no longer exist are dropped here — the same
        # best-effort contract the NIC's dst_pid check gives the master's
        # own hop.  (A reused pid still receives the update, which is
        # harmless: "the master owns these pages" is globally true
        # post-drain.)
        nprocs = self.team.nprocs
        self.send_fanout([
            (mk.OWNER_UPDATE, cpid, payload, max(size, 8))
            for cpid in children if cpid < nprocs
        ])

    def _check_servable(self, page: int) -> None:
        # Lazily map: the owner of a page holds a valid (zero-filled)
        # copy even before ever touching it.
        if not self.table.mapped[page]:
            self._map(page)
        if not self.table.valid[page]:
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
    # page ownership and notices
    # ------------------------------------------------------------------
    def owner_of(self, page: int) -> int:
        """Current owner pid of ``page`` as known to this process."""
        return self.table.owner[page]

    def _map(self, page: int) -> None:
        """First touch of ``page``: its copy is valid iff we own it now."""
        self.table.map(page, self.table.owner[page] == self.pid)

    def readable(self, page: int) -> bool:
        """A fault-free read of ``page`` is possible: a valid copy with
        nothing pending.  Maps the page first, so it counts in the
        migration image from now on."""
        table = self.table
        if not table.mapped[page]:
            self._map(page)
        return bool(table.valid[page]) and not table.npending[page]

    @cached_property
    def table(self) -> PageTable:
        """The page table, every notice received so far ingested.

        Kept in the instance once settled, so reading it is a plain
        attribute load until :meth:`apply_notices` defers the next batch
        and drops it; the access path reads it several times per page."""
        if self._deferred:
            self._settle()
        return self._table

    @property
    def _known(self) -> Dict[int, List[IntervalNotice]]:
        """Every interval known this epoch, per writer, ascending by seq,
        every notice received so far ingested."""
        if self._deferred:
            self._settle()
        return self._buckets

    def apply_notices(self, notices: NoticeBatch, sender_vc: VectorClock) -> None:
        """Receive a batch of remote write notices and merge the sender's
        clock.

        Only the clock merge happens now.  The batch's interval list is
        put on the deferred list and ingested — dedupe into the known
        buckets, pages invalidated — by :meth:`_settle`, which every read
        of :attr:`table` or :attr:`_known` runs first.  So whoever looks
        sees the state the batches would have left on arrival, and a
        process that reads neither — a slave with an empty block, until
        the next garbage collection reads its known intervals — does no
        ingestion work (docs/PROTOCOL.md §6, "Deferred ingestion").  With
        per-process observation on, the batch is ingested at once, so
        each ``dsm/demote`` instant keeps its simulated time and its place
        in the stream.
        """
        intervals = notices.intervals
        if intervals:
            self._deferred.append(intervals)
            self.__dict__.pop("table", None)  # the next read settles
            obs = self.sim.obs
            if obs.enabled and obs.per_process:
                self._settle()
        self.vc.merge(sender_vc)

    def _settle(self) -> None:
        """Ingest the deferred batches, in arrival order.

        Synchronization batches carry hundreds of notices (the master
        re-broadcasts every slave's notices at each barrier), making this
        the engine's hottest loop.  Dedupe and indexing happen once per
        *interval*: each writer's bucket is ascending by seq and batches
        arrive per-writer in that order, so freshness is one int compare
        against the bucket tail (bisect on the rare out-of-order or
        duplicate delivery — a lock grant overlapping a barrier
        broadcast).  A fresh interval then costs, per page run it names,
        a few slice loads and stores (:meth:`_ingest_run`), or for a run
        shorter than :data:`SLICE_PAGES` or one whose pages need
        different treatment, a few column loads and stores per page
        (``PageTable.add_pending``, inlined).  Most of those pages are
        multiple-writer pages already pending from the same writer: a
        non-zero pending cell is mapped and above its applied cell, so
        such a page takes the newer seq and the mode store and nothing
        else.

        The replay reads only the page table, the open write set, our own
        ``applied`` cells and the intervals' immutable clocks, and all
        code that changes the first three reads :attr:`table` first.
        """
        deferred, self._deferred = self._deferred, []
        known = self._buckets
        my_pid = self.pid
        table = self._table
        mapped = table.mapped
        protocol = table.protocol
        mode = table.mode
        npending = table.npending
        owner = table.owner
        own_applied = table.applied.get(my_pid)
        writes = self._writes
        applied_cols = table.applied
        pending_cols = table.pending
        slice_pages = SLICE_PAGES
        for iv in chain.from_iterable(deferred):
            proc = iv.proc
            seq = iv.seq
            bucket = known.get(proc)
            if bucket is None:
                bucket = known[proc] = [iv]
            elif seq > bucket[-1].seq:
                bucket.append(iv)
            else:
                k = bisect_left(bucket, seq, key=_seq)
                if bucket[k].seq == seq:
                    continue
                bucket.insert(k, iv)
            if proc == my_pid:
                continue
            applied = applied_cols.get(proc)
            pend = pending_cols.get(proc)
            if pend is None:
                pend = table.column(pending_cols, proc)
            for pages in iv.runs:
                if len(pages) >= slice_pages and self._ingest_run(
                        iv, pages, applied, pend):
                    continue
                for page in pages:
                    prev = pend[page]
                    if 0 < prev < seq and protocol[page] == MW:
                        pend[page] = seq
                        mode[page] = MODE_NONE
                        continue
                    if not mapped[page]:
                        self._map(page)
                    if protocol[page] == MW:
                        if applied is not None and applied[page] >= seq:
                            continue
                    elif applied is None or applied[page] < seq:
                        # Another process wrote a single-writer page:
                        # possibly demote to the multiple-writer (diff)
                        # protocol, as TreadMarks does when it detects
                        # write sharing.  Page-aligned kernels
                        # (Gauss/FFT/NBF) funnel every notice of every
                        # barrier broadcast through this arm.
                        own_seq = own_applied[page] if own_applied is not None else 0
                        if (
                            own_seq > 0 and iv.vc.entries[my_pid] < own_seq
                        ) or (page < writes.end and writes.contains(page)):
                            protocol[page] = MW
                            obs = self.sim.obs
                            if obs.enabled and obs.per_process:
                                obs.instant(self.sim.now, "dsm", "demote",
                                            f"{self.name} pg{page} -> multiple-writer")
                        else:
                            # The latest writer holds the complete page.
                            owner[page] = proc
                    else:
                        owner[page] = proc
                        continue
                    if prev < seq:
                        if not prev:
                            npending[page] += 1
                        pend[page] = seq
                    mode[page] = MODE_NONE

    def _ingest_run(self, iv: IntervalNotice, pages: range,
                    applied: Optional[List[int]], pend: List[int]) -> bool:
        """:meth:`_settle`'s per-page body over ``pages`` of ``iv``, as
        slice loads and stores: taken when every page of the run gets the
        same treatment (one protocol, in-order seqs, no demotion).
        Otherwise False, with nothing stored but the run's first-touch
        mappings, which the per-page body skips."""
        start, stop = pages.start, pages.stop
        table = self._table
        mapped = table.mapped
        if mapped.find(0, start, stop) >= 0:
            for page in range(start, stop):
                if not mapped[page]:
                    self._map(page)
        seq = iv.seq
        protocol = table.protocol
        fresh = applied is None or max(applied[start:stop]) < seq
        if protocol.find(SW, start, stop) < 0:
            if not fresh:
                return False
            take_ownership = False
        elif protocol.find(MW, start, stop) >= 0:
            return False
        elif fresh:
            # Single-writer pages the sender's interval wrote after ours:
            # the latest writer owns them, unless one of them is written
            # concurrently with us (demotion, per page).
            own_applied = table.applied.get(self.pid)
            if own_applied is not None:
                own_seq = max(own_applied[start:stop])
                if own_seq and iv.vc.entries[self.pid] < own_seq:
                    return False
            if self._writes.overlaps(start, stop):
                return False
            take_ownership = True
        elif min(applied[start:stop]) >= seq:
            self._set_owner(start, stop, iv.proc)  # our copy is that write
            return True
        else:
            return False
        # The writer's pending cells must all be older seqs (0: none):
        # one seq over the whole run, or, on multiple-writer pages, any
        # mix.  ``count`` compares small ints by identity.
        n = stop - start
        was = pend[start:stop]
        latest = was[0]
        mixed = was.count(latest) != n
        if mixed:
            if take_ownership or max(was) >= seq:
                return False
        elif latest >= seq:
            return False
        if take_ownership:
            self._set_owner(start, stop, iv.proc)
        npending = table.npending
        if mixed:
            # npending rises where the writer had nothing pending
            npending[start:stop] = [
                c + (not w) for c, w in zip(npending[start:stop], was)]
        elif not latest:
            counts = npending[start:stop]
            first = counts[0]
            if counts.count(first) == n:
                npending[start:stop] = [first + 1] * n
            else:
                npending[start:stop] = [c + 1 for c in counts]
        pend[start:stop] = [seq] * n
        table.mode[start:stop] = bytes(n)  # MODE_NONE: next access faults
        return True

    def _set_owner(self, start: int, stop: int, pid: int) -> None:
        """``pid`` owns the pages ``[start, stop)``."""
        self._table.owner[start:stop] = [pid] * (stop - start)

    def _known_intervals(self) -> Iterator[IntervalNotice]:
        """Every interval known this epoch (any writer, bucket order)."""
        for bucket in self._known.values():
            yield from bucket

    def notices_unknown_to(self, other_vc: VectorClock) -> NoticeBatch:
        """All epoch notices this process knows that ``other_vc`` does not cover."""
        out: List[IntervalNotice] = []
        known = self._known
        entries = other_vc.entries
        width = other_vc.width
        for proc in sorted(known):
            bucket = known[proc]
            floor = entries[proc] if proc < width else 0
            if bucket[-1].seq > floor:
                out.extend(bucket[bisect_right(bucket, floor, key=_seq):])
        return NoticeBatch(out)

    def notices_unknown_to_each(
        self, vcs: List[VectorClock], since: Optional[VectorClock]
    ) -> List[NoticeBatch]:
        """:meth:`notices_unknown_to` of every clock in ``vcs`` (one fan-out
        wave's legs), from one scan of the known intervals.

        ``since`` is a clock of ours from an earlier wave, or None.  The
        batch unknown to it is built once; a clock with ``since``'s stamp
        gets that batch object, and a clock covering ``since`` gets it cut
        at the clock's entries, which keeps each writer's intervals newer
        than the clock, in the same order.  Any other clock gets its own
        scan.  Legs may share a batch: no batch is mutated once built.
        """
        if since is None:
            return [self.notices_unknown_to(vc) for vc in vcs]
        batch = self.notices_unknown_to(since)
        intervals = batch.intervals
        stamp, width = since.stamp, since.width
        out: List[NoticeBatch] = []
        for vc in vcs:
            if vc.stamp == stamp:
                out.append(batch)
            elif vc.width == width and vc.covers(since):
                entries = vc.entries
                kept = [iv for iv in intervals if iv.seq > entries[iv.proc]]
                out.append(batch if len(kept) == len(intervals) else NoticeBatch(kept))
            else:
                out.append(self.notices_unknown_to(vc))
        return out

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
        runs are walked page by page.  The freeze ``stall_hook`` runs
        before the first page and again after every fault: nothing else
        here lets simulated time pass, so a freeze cannot begin between.
        """
        reads = tuple(reads)
        writes = tuple(writes)
        page_size = self.cfg.dsm.page_size
        # The page runs and their write ranges are a pure function of the
        # segment geometry and the requested ranges, so iterative programs
        # (same ranges every sweep) hit the memo instead of recomputing.
        plan = self.space.plan_cache.lookup(seg, reads, writes, page_size)
        table = self.table
        valid = table.valid
        npending = table.npending
        mode = table.mode
        wset = self._writes
        stall = self.stall_hook
        stalled = stall is None
        for start, stop, wr in plan.runs:
            if stop - start >= SLICE_PAGES:
                page = start
                while page < stop:
                    if not stalled:
                        yield from stall()
                        stalled = True
                    end = self._fault_free_end(page, stop)
                    if end > page:
                        self._touch(page, end, wr)
                        page = end  # faults, or ends the run
                        continue
                    yield from self._ensure_access(page, write=wr is not None)
                    if wr is not None:
                        wset.write(page, page + 1, wr)
                    stalled = stall is None
                    page += 1
                continue
            for page in range(start, stop):
                if not stalled:
                    yield from stall()
                    stalled = True
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
                stalled = stall is None

    def _fault_free_end(self, start: int, stop: int) -> int:
        """The first page of ``[start, stop)`` that would fault, or ``stop``."""
        table = self.table
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
        table = self.table
        mode = table.mode
        if wr is None:
            if mode.find(MODE_NONE, start, stop) >= 0:
                mode[start:stop] = mode[start:stop].replace(b"\0", b"\1")
            return
        wset = self._writes
        if not wset.overlaps(start, stop):
            self._prepare_run(start, stop)
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
        table = self.table
        if not table.mapped[page]:
            self._map(page)
        if not table.valid[page] or table.npending[page]:
            t0 = self.sim.now
            self.stats.read_faults += 0 if write else 1
            self.stats.write_faults += 1 if write else 0
            if not table.valid[page]:
                yield from self._fetch_page(page, self.owner_of(page))
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
            self._prepare_write(page, not self._writes.contains(page))
        elif table.mode[page] == MODE_NONE:
            table.mode[page] = MODE_READ

    def install_page(self, page: int, data, applied: Dict[int, int]) -> None:
        """Install a fetched full copy of ``page`` (a PAGE_REPLY's content)."""
        if self.materialized:
            self.store.page_view(page)[:] = data
        table = self.table
        table.valid[page] = 1
        for writer, seq in applied.items():
            table.advance(page, writer, seq)
        table.prune_pending(page)
        self.stats.page_fetches += 1

    def _pull_page(
        self, page: int, from_pid: int, kind: str = mk.PAGE_REQ
    ) -> Generator:
        """A fault's page fetch: request, client-side service, install (the
        callback form of the same three steps is :class:`_Pull`)."""
        reply = yield from self.request_reply(kind, from_pid, {"page": page}, size=8)
        yield self.sim.timeout(self.cfg.network.page_service_client)
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

    def _fetch_page(self, page: int, from_pid: int) -> Generator:
        """Fetch a full page copy from ``from_pid``."""
        if from_pid == self.pid:
            # First touch at the home/owner: the zero-filled copy is valid.
            self.table.valid[page] = 1
            return
        yield from self._pull_page(page, from_pid)
        obs = self.sim.obs
        if obs.enabled and obs.per_process:
            obs.instant(self.sim.now, "dsm", "page_fetch",
                        f"{self.name}<-P{from_pid} pg{page}")

    def _known_interval(self, writer: int, seq: int) -> IntervalNotice:
        bucket = self._known[writer]
        return bucket[bisect_left(bucket, seq, key=_seq)]

    def _fetch_pending(self, page: int) -> Generator:
        """Bring a stale copy up to date (diffs, or full page re-fetch)."""
        table = self.table
        by_writer = table.pending_of(page)
        if table.protocol[page] != MW:
            # One interval per writer suffices here: a writer's later
            # interval clock dominates its earlier ones, so the per-writer
            # latest pending interval attains the maximum.
            latest = max(
                by_writer,
                key=lambda w: (
                    *self._known_interval(w, by_writer[w]).vc.sort_key(), -w
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
            self.stats.diff_requests += 1
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
        self.table.owner[page] = from_pid

    def _prepare_write(self, page: int, first: bool) -> None:
        """Write access to the valid ``page`` in the open interval.
        ``first``: the interval's first write to it, which twins it (a
        copy of a multiple-writer page in materialized mode, ``twin_time``
        in both modes).  Then we own it if it is single-writer, and it is
        valid in mode WRITE."""
        table = self.table
        multiple_writer = table.protocol[page] == MW
        if first:
            if self.materialized and multiple_writer:
                self._twins.append((page, page + 1, self.store.page_view(page).copy()))
            self.stats.twins_created += 1
            self.node.busy_time += self.cfg.dsm.twin_time
        if not multiple_writer:
            table.owner[page] = self.pid
        table.valid[page] = 1
        table.mode[page] = MODE_WRITE

    def _prepare_run(self, start: int, stop: int) -> None:
        """:meth:`_prepare_write` of the first writes to the pages
        ``[start, stop)`` of a fault-free run, as slice loads and stores:
        one twin copy per stretch of multiple-writer pages."""
        table = self.table
        protocol, owner = table.protocol, table.owner
        n = stop - start
        if self.materialized:
            page = protocol.find(MW, start, stop)
            while page >= 0:
                end = protocol.find(SW, page, stop)
                if end < 0:
                    end = stop
                self._twins.append(
                    (page, end, self.store.pages_view(page, end).copy()))
                page = protocol.find(MW, end, stop)
        self.stats.twins_created += n
        node = self.node
        twin_time = self.cfg.dsm.twin_time
        busy = node.busy_time
        for _ in range(n):  # per page: float sums are order-sensitive
            busy += twin_time
        node.busy_time = busy
        pid = self.pid
        if protocol.find(SW, start, stop) >= 0 and owner[start:stop].count(pid) != n:
            for page in range(start, stop):
                if protocol[page] != MW:
                    owner[page] = pid
        table.valid[start:stop] = b"\1" * n
        table.mode[start:stop] = bytes([MODE_WRITE]) * n

    # ------------------------------------------------------------------
    # intervals & releases
    # ------------------------------------------------------------------
    def close_interval(self) -> NoticeBatch:
        """Close the open interval (at a release); returns its notices."""
        if not self._writes.runs:
            return NoticeBatch()
        # Settle while the write set is still open: a deferred notice for
        # a page in it demotes that page.
        table = self.table
        self.vc.tick(self.pid)
        pid = self.pid
        seq = self.vc.entries[pid]
        # One frozen snapshot per interval: its notice AND its diffs all
        # share this clock object (make_diff with vc_is_snapshot=True).
        rec_vc = self.vc.snapshot()
        rec = IntervalRecord(proc=pid, seq=seq, vc=rec_vc, runs=self._writes.take())
        self.log.add(rec)
        runs = rec.runs
        protocol = table.protocol
        # Multiple-writer pages encode their diff now: from the twin, or
        # (traced mode) as the declared, already-normalized ranges, which
        # ARE the diff.  Single-writer pages serve full-page refreshes
        # instead; should one be demoted later (write sharing after an
        # adaptation), its diff is encoded lazily at the first DIFF_REQ
        # from the recorded ranges (see _encode_lazy_diff).
        diffs = rec.diffs
        if self.materialized:
            twins = sorted(self._twins, key=itemgetter(0))
            page_size = self.cfg.dsm.page_size
            for start, stop, ranges in runs:
                for page in range(start, stop):
                    if protocol[page] != MW:
                        continue
                    twin = run_at(twins, page)
                    if twin is not None:
                        at = (page - twin[0]) * page_size
                        twin = twin[2][at:at + page_size]
                    diff = make_diff(
                        proc=pid,
                        seq=seq,
                        page=page,
                        vc=rec_vc,
                        declared_ranges=ranges,
                        twin=twin,
                        current=self.store.page_view(page),
                        declared_normalized=True,
                        vc_is_snapshot=True,
                    )
                    if diff is not None:
                        diffs[page] = diff
            self._twins = []
            created = len(diffs)
        else:
            rec.diff_runs = self._multiple_writer_runs(runs)
            created = page_count(rec.diff_runs)
        mode = table.mode
        # seq is a fresh tick, so the applied stores below are pure advances.
        own_applied = table.column(table.applied, pid)
        for pages in rec.spans:
            start, stop = pages.start, pages.stop
            mode[start:stop] = bytes([MODE_READ]) * (stop - start)
            own_applied[start:stop] = [seq] * (stop - start)
        if created:
            self.stats.diffs_created += created
            obs = self.sim.obs
            if obs.enabled:
                obs.count("dsm.diff.created", created)
        self.stats.intervals_closed += 1
        # Index our own interval directly: ``seq`` is a fresh maximum for
        # our bucket, so a plain append keeps it ascending.
        notice = IntervalNotice(pid, seq, rec_vc, rec.spans)
        self._buckets.setdefault(pid, []).append(notice)
        return NoticeBatch((notice,))

    def _multiple_writer_runs(self, runs: Tuple[Run, ...]) -> Tuple[Run, ...]:
        """The parts of ``runs`` whose pages are multiple-writer now —
        ``runs`` itself when that is all of them."""
        protocol = self.table.protocol
        lo, hi = runs[0][0], runs[-1][1]
        if protocol.find(SW, lo, hi) < 0:
            return runs
        if protocol.find(MW, lo, hi) < 0:
            return ()
        out: List[Run] = []
        for start, stop, ranges in runs:
            page = protocol.find(MW, start, stop)
            while page >= 0:
                end = protocol.find(SW, page, stop)
                if end < 0:
                    end = stop
                out.append((page, end, ranges))
                page = protocol.find(MW, end, stop)
        return tuple(out)

    def sync_notices(self) -> NoticeBatch:
        """Close the open interval and return all own notices the master
        has not yet been told about (lock releases create intervals the
        master never sees otherwise).

        Reads our own bucket without settling: a deferred batch can only
        repeat own intervals, and :meth:`close_interval` put each of them
        in the bucket when it closed it."""
        self.close_interval()
        bucket = self._buckets.get(self.pid, ())
        out = NoticeBatch(bucket[bisect_right(bucket, self._sent_to_master_seq, key=_seq):])
        self._sent_to_master_seq = self.vc.entries[self.pid]
        return out

    @property
    def wants_gc(self) -> bool:
        """True when enough intervals closed this epoch (§4.1): the log
        holds exactly the intervals closed since the last GC."""
        return len(self.log) >= self.cfg.dsm.gc_interval_limit

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
        """Make our copies of pages we will own complete (flush phase).

        The new-owner runs are painted in order onto a scratch column of
        "ours" flags, one slice store per run, so its set spans are the
        pages of our own written runs that we win.  Only those spans are
        visited, ascending, so pending diffs are fetched in page order."""
        new_owners = gc_new_owners(self._known_intervals())
        table = self.table
        valid, npending = table.valid, table.npending
        pid = self.pid
        ours = bytearray(len(valid))
        for pages, owner in new_owners:
            flag = b"\1" if owner == pid else b"\0"
            ours[pages.start:pages.stop] = flag * len(pages)
        start = ours.find(1)
        while start >= 0:
            end = ours.find(0, start)
            if end < 0:
                end = len(ours)
            # Writing a page this epoch mapped it valid.
            page = valid.find(0, start, end)
            if page >= 0:
                raise ProtocolError(
                    f"{self.name}: GC made us owner of page {page} we never wrote"
                )
            for page in compress(range(start, end), npending[start:end]):
                yield from self._fetch_pending(page)
            start = ours.find(1, end)
        self._gc_pending_owners = new_owners

    def gc_reset(self) -> None:
        """Drop all consistency bookkeeping and start a new epoch."""
        if self._writes:
            raise ProtocolError(f"{self.name}: GC with an open write set")
        table = self.table
        owner = table.owner
        for pages, new_owner in self._gc_pending_owners:
            owner[pages.start:pages.stop] = [new_owner] * len(pages)
        self._gc_pending_owners = []
        table.reset_epoch()
        self.log.clear()
        self._known.clear()
        self.vc = VectorClock.zeros(self.team.nprocs)
        self.epoch += 1
        self._sent_to_master_seq = 0
        self._lock_state.clear()
        if self.lock_mgr is not None:
            self.lock_mgr.reset()
        # Subtree knowledge floors are per-epoch (clocks reset).
        self.tree_barrier.reset()
        self.stats.gcs += 1
        self.sim.obs.instant(self.sim.now, "dsm", "gc",
                             f"{self.name} epoch={self.epoch}")

    # ------------------------------------------------------------------
    # locks (distributed queue, master as manager)
    # ------------------------------------------------------------------
    def _lock(self, lock_id: int) -> Dict[str, Any]:
        state = self._lock_state.get(lock_id)
        if state is None:
            # The master conceptually holds (and has released) every lock at
            # epoch start — it carries one release "token".  Tokens count
            # completed tenures whose successor forward has not arrived yet:
            # a forward can race past our release *and* our re-request, so
            # matching forwards to releases needs explicit accounting.
            master = self.is_master
            state = {
                "status": "released" if master else "idle",
                "pending": None,
                "tokens": 1 if master else 0,
            }
            self._lock_state[lock_id] = state
        return state

    def lock_acquire(self, lock_id: int) -> Generator:
        """Acquire a TreadMarks lock (an LRC acquire)."""
        t0 = self.sim.now
        state = self._lock(lock_id)
        if state["status"] in ("waiting", "held"):
            raise DsmError(f"{self.name}: lock {lock_id} already requested/held")
        state["status"] = "waiting"
        self.send(
            mk.LOCK_REQ,
            TeamView.MASTER_PID,
            {"lock": lock_id, "pid": self.pid, "vc": self.vc.snapshot()},
            size=8 + self.vc_wire_bytes,
        )
        msg = yield self.main_inbox.recv(
            match=lambda m: m.kind == mk.LOCK_GRANT and m.payload["lock"] == lock_id
        )
        self.apply_notices(msg.payload["notices"], msg.payload["vc"])
        state["status"] = "held"
        self.stats.locks_acquired += 1
        self.stats.lock_wait_time += self.sim.now - t0

    def lock_release(self, lock_id: int) -> None:
        """Release a lock (an LRC release: closes the interval)."""
        state = self._lock(lock_id)
        if state["status"] != "held":
            raise DsmError(f"{self.name}: releasing lock {lock_id} it does not hold")
        self.close_interval()
        state["status"] = "released"
        pending, state["pending"] = state["pending"], None
        if pending is not None:
            self._grant_lock(lock_id, pending["requester"], pending["vc"])
        else:
            # no successor known yet: bank the release for the forward that
            # is still on its way (or may never come this epoch)
            state["tokens"] += 1

    def _grant_lock(self, lock_id: int, requester: int, requester_vc: VectorClock) -> None:
        self.send(*self.notice_leg(
            mk.LOCK_GRANT, requester, self.notices_unknown_to(requester_vc),
            {"lock": lock_id},
        ))

    def _on_lock_forward(self, msg: Message) -> None:
        """The manager forwarded a lock request to us (last in the chain);
        called when its ``lock_service`` time on the handler CPU is over."""
        lock_id = msg.payload["lock"]
        requester = msg.payload["requester"]
        requester_vc = msg.payload["vc"]
        state = self._lock(lock_id)
        if state["tokens"] > 0:
            # a completed tenure is waiting for exactly this forward (this
            # also covers our own request chaining back to us, and the
            # master's epoch-start conceptual release)
            state["tokens"] -= 1
            self._grant_lock(lock_id, requester, requester_vc)
        elif state["status"] in ("waiting", "held"):
            if state["pending"] is not None:
                raise ProtocolError(f"{self.name}: two pending forwards for lock {lock_id}")
            state["pending"] = {"requester": requester, "vc": requester_vc}
        else:
            raise ProtocolError(
                f"{self.name}: forwarded lock {lock_id} with no tenure to match"
            )

    # ------------------------------------------------------------------
    # compute & data access helpers
    # ------------------------------------------------------------------
    def compute(self, seconds: float) -> Generator:
        """Charge ``seconds`` of application CPU work on the current node."""
        self.stats.compute_time += seconds
        t0 = self.sim.now
        yield from self.node.compute(seconds)
        obs = self.sim.obs
        if obs.enabled and obs.per_process:
            obs.span(f"P{self.pid}", "compute", t0, self.sim.now, category="app")

    def array(self, seg: SharedSegment) -> np.ndarray:
        """Materialized view of a segment's local copy (shape/dtype applied)."""
        if not self.materialized:
            raise DsmError("array views are only available in materialized mode")
        return self.store.array_view(seg)

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
            len(self.table) * self.cfg.dsm.page_size
            + self.cfg.migration.image_overhead_bytes
        )

    def adapt_reset(self, new_pid: int, owner_remap: Dict[int, int]) -> None:
        """Re-identify this process after an adaptation (§4.1).

        Must follow a GC (all clocks zero, no pending notices).  ``new_pid``
        is the reassigned process id; ``owner_remap`` maps old owner pids to
        new ones for every page-owner reference we hold.
        """
        if self._known or self._writes or len(self.log):
            raise ProtocolError(f"{self.name}: adapt_reset without a preceding GC")
        # Team membership changed: conceptually a repartition, so drop all
        # memoized access plans (they are rebuilt lazily on first use).
        self.space.plan_cache.invalidate()
        self.pid = new_pid
        width = self.team.nprocs
        self.vc = VectorClock.zeros(width)
        self._sent_to_master_seq = 0
        self.table.remap_owners(owner_remap, TeamView.MASTER_PID)
        self.table.applied.clear()  # keyed by the old pids
        # Pids were renumbered; the tree is rebuilt from the new team.
        self.tree_barrier.reset()

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
        if not getattr(self.node, "crashed", False):
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
