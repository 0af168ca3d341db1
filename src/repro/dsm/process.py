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
from .page import MODE_NONE, MODE_READ, MODE_WRITE, MW, PageTable, PageTableEntry
from .ranges import Range, merge
from .statistics import DsmStats
from .team import TeamView
from .vectorclock import VectorClock

#: Interval closes between prune sweeps of a process's interval log
#: (pruning is O(peers × pages written), so it is amortized rather than
#: run per close).
INTERVAL_PRUNE_PERIOD = 64

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

        self.table = PageTable(self.name, space)
        self.vc = VectorClock.zeros(team.nprocs)
        self.log = IntervalLog(pid)
        self.epoch = 0
        #: Per-writer index of every interval known this epoch, as
        #: parallel lists ``(seqs, intervals)`` ascending by seq.  This
        #: is both the dedupe structure (membership is one int compare
        #: against the tail, or a bisect on out-of-order arrival) and the
        #: "everything newer than vc[w]" index (a bisect + slice).
        self._known: Dict[int, Tuple[List[int], List[IntervalNotice]]] = {}
        #: page -> dirty ranges of the *open* interval.
        self.current_writes: Dict[int, List[Range]] = {}
        #: page -> twin (pristine pre-write copy) of the open interval's
        #: multiple-writer pages, materialized mode only.
        self._twins: Dict[int, np.ndarray] = {}
        #: Owner changes computed by gc_flush, installed by gc_reset.
        self._gc_pending_owners: Dict[int, int] = {}
        #: page -> owner pid overrides (default: segment home).
        self.owners: Dict[int, int] = {}
        self.stats = DsmStats()
        #: Highest own interval seq already reported to the master.
        self._sent_to_master_seq = 0
        #: Interval closes left until the next log-prune sweep.
        self._prune_countdown = INTERVAL_PRUNE_PERIOD
        #: Intervals closed since the last GC; drives ``wants_gc`` (the
        #: §4.1 consistency-memory limit) independently of pruning, so
        #: GC timing never depends on how much of the log was pruned.
        self._intervals_this_epoch = 0
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
        #: Set by the runtime: zero-argument callable returning the live
        #: pid -> process map.  Interval-log pruning reads peers' applied
        #: clocks through it — pure host-side bookkeeping, no messages.
        self.peers_hook = None
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
            req_id=mk.next_req_id(),
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
            span = (msg.payload["page"], msg.payload["from_seq"],
                    msg.payload["to_seq"])
            self._encode_lazy_diffs(*span)
            diffs = self.log.diffs_for(*span)
            dirty = sum(d.dirty_bytes for d in diffs)
            self._occupy(
                msg, net.diff_fixed + dirty * net.diff_per_byte, mk.DIFF_REPLY,
                4 + sum(d.wire_size for d in diffs),
                {"diffs": diffs, "n_diffs": len(diffs)},
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
        if self.pid in targets:
            self.owners = dict(payload["owners"])
            self.sim.tracer.emit(
                "adapt", "page_map", f"{self.name} {len(self.owners)} pages"
            )
        self.relay_page_map(payload["owners"], targets)

    def relay_page_map(self, owners: Dict[int, int], targets: List[int],
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
        mapped, owner = self.table.mapped, self.table.owner
        for page in payload["pages"]:
            self.owners[page] = TeamView.MASTER_PID
            if mapped[page]:
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
        # Lazily map: the home/owner of a page holds a valid (zero-filled)
        # copy even before ever touching it.
        if not self.table.mapped[page]:
            self._map(page)
        if not self.table.valid[page]:
            raise ProtocolError(
                f"{self.name}: asked for page {page} but holds no valid copy"
            )

    def _encode_lazy_diffs(self, page: int, from_seq: int, to_seq: int) -> None:
        """Encode diffs for intervals that skipped eager creation.

        Happens only for pages demoted from single-writer after their
        interval closed.  In materialized mode the current page bytes stand
        in for the (long gone) interval snapshot; the declared ranges are
        exact, and later intervals' diffs overwrite in apply order, so the
        reader converges to the same bytes.
        """
        created = 0
        for rec in self.log.records_for(page, from_seq, to_seq):
            if page in rec.diffs:
                continue
            diff = make_diff(
                proc=self.pid,
                seq=rec.seq,
                page=page,
                vc=rec.vc,
                declared_ranges=rec.write_ranges[page],
                current=self.store.page_view(page) if self.materialized else None,
                vc_is_snapshot=True,
            )
            if diff is not None:
                rec.diffs[page] = diff
                created += 1
        if created:
            self.stats.diffs_created += created
            obs = self.sim.obs
            if obs.enabled:
                obs.count("dsm.diff.created", created)

    # ------------------------------------------------------------------
    # page ownership and notices
    # ------------------------------------------------------------------
    def owner_of(self, page: int) -> int:
        """Current owner pid of ``page`` as known to this process."""
        own = self.owners.get(page)
        if own is not None:
            return own
        return self.space.segment_of_page(page).home

    def _map(self, page: int) -> None:
        """First touch of ``page``: its copy is valid iff we own it now."""
        owner = self.owner_of(page)
        self.table.map(page, owner, owner == self.pid)

    def _pte(self, page: int) -> PageTableEntry:
        """Cold-path view of ``page``'s state, mapping it if needed."""
        if not self.table.mapped[page]:
            self._map(page)
        return PageTableEntry(self.table, page)

    def apply_notices(self, notices: NoticeBatch, sender_vc: VectorClock) -> None:
        """Record a batch of remote write notices (invalidating their
        pages) and merge the sender's clock.

        Synchronization batches carry hundreds of notices (the master
        re-broadcasts every slave's notices at each barrier), making this
        the engine's hottest loop.  Dedupe and indexing happen once per
        *interval*: each writer's bucket is ascending by seq and batches
        arrive per-writer in that order, so freshness is one int compare
        against the bucket tail (bisect on the rare out-of-order or
        duplicate delivery — a lock grant overlapping a barrier
        broadcast).  A fresh interval then costs a few column loads and
        stores per page it names (``PageTable.add_pending``, inlined).
        """
        known = self._known
        my_pid = self.pid
        table = self.table
        mapped = table.mapped
        protocol = table.protocol
        mode = table.mode
        npending = table.npending
        owner = table.owner
        own_applied = table.applied.get(my_pid)
        current_writes = self.current_writes
        owners = self.owners
        for iv in notices.intervals:
            proc = iv.proc
            seq = iv.seq
            pair = known.get(proc)
            if pair is None:
                pair = known[proc] = ([], [])
            seqs, bucket = pair
            if not seqs or seq > seqs[-1]:
                seqs.append(seq)
                bucket.append(iv)
            else:
                k = bisect_left(seqs, seq)
                if k < len(seqs) and seqs[k] == seq:
                    continue
                seqs.insert(k, seq)
                bucket.insert(k, iv)
            if proc == my_pid:
                continue
            applied = table.applied.get(proc)
            pend = table.column(table.pending, proc)
            for page in iv.pages:
                if not mapped[page]:
                    self._map(page)
                if protocol[page] == MW:
                    if applied is not None and applied[page] >= seq:
                        continue
                elif applied is None or applied[page] < seq:
                    # Another process wrote a single-writer page: possibly
                    # demote to the multiple-writer (diff) protocol, as
                    # TreadMarks does when it detects write sharing.
                    # Page-aligned kernels (Gauss/FFT/NBF) funnel every
                    # notice of every barrier broadcast through this arm.
                    own_seq = own_applied[page] if own_applied is not None else 0
                    if (
                        own_seq > 0 and iv.vc.entries[my_pid] < own_seq
                    ) or page in current_writes:
                        protocol[page] = MW
                        self.sim.tracer.emit(
                            "dsm", "demote",
                            f"{self.name} pg{page} -> multiple-writer",
                        )
                    else:
                        # The latest writer holds the complete page.
                        owner[page] = proc
                        owners[page] = proc
                else:
                    owner[page] = proc
                    owners[page] = proc
                    continue
                prev = pend[page]
                if prev < seq:
                    if not prev:
                        npending[page] += 1
                    pend[page] = seq
                mode[page] = MODE_NONE
        self.vc.merge(sender_vc)

    def _known_intervals(self) -> Iterator[IntervalNotice]:
        """Every interval known this epoch (any writer, bucket order)."""
        for _, bucket in self._known.values():
            yield from bucket

    def notices_unknown_to(self, other_vc: VectorClock) -> NoticeBatch:
        """All epoch notices this process knows that ``other_vc`` does not cover."""
        out: List[IntervalNotice] = []
        known = self._known
        entries = other_vc.entries
        width = other_vc.width
        for proc in sorted(known):
            seqs, bucket = known[proc]
            floor = entries[proc] if proc < width else 0
            if seqs[-1] > floor:
                out.extend(bucket[bisect_right(seqs, floor):])
        return NoticeBatch(out)

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
        """
        reads = tuple(reads)
        writes = tuple(writes)
        page_size = self.cfg.dsm.page_size
        # The page set and per-page write ranges are a pure function of the
        # segment geometry and the requested ranges, so iterative programs
        # (same ranges every sweep) hit the memo instead of recomputing.
        plan = self.space.plan_cache.lookup(seg, reads, writes, page_size)
        current_writes = self.current_writes
        table = self.table
        valid = table.valid
        npending = table.npending
        mode = table.mode
        last_access = table.last_access
        epoch = self.epoch
        stall = self.stall_hook
        for page, is_write, wr in plan.steps:
            if stall is not None:
                yield from stall()
            # Fast path: a valid, up-to-date copy needs no fault — skip
            # the _ensure_access generator machinery entirely.  (An
            # unmapped page reads as not valid.)
            if not valid[page] or npending[page]:
                yield from self._ensure_access(page, write=is_write)
                if is_write:
                    prev = current_writes.get(page)
                    if prev:
                        current_writes[page] = merge(prev, wr)
                    else:
                        current_writes[page] = list(wr)
                continue
            last_access[page] = epoch
            if is_write:
                prev = current_writes.get(page)
                if prev:
                    # Repeat write in the same interval: the twin/owner
                    # work of _prepare_write already happened (mode WRITE
                    # implies it ran and nothing reset it since).
                    if mode[page] != MODE_WRITE:
                        self._prepare_write(page)
                    if prev != wr:
                        current_writes[page] = merge(prev, wr)
                else:
                    # First write of the interval to this page: the plan's
                    # normalized ranges are exactly merge([], ranges).
                    self._prepare_write(page)
                    current_writes[page] = list(wr)
            elif mode[page] == MODE_NONE:
                mode[page] = MODE_READ

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
        table.last_access[page] = self.epoch
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
            self._prepare_write(page)
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
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit("dsm", "page_fetch", f"{self.name}<-P{from_pid} pg{page}")

    def _known_interval(self, writer: int, seq: int) -> IntervalNotice:
        seqs, bucket = self._known[writer]
        return bucket[bisect_left(seqs, seq)]

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
            self.sim.tracer.emit(
                "dsm", "demote", f"{self.name} pg{page} -> multiple-writer"
            )
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
        dirty = 0
        for diff in ordered:
            table.advance(page, diff.proc, diff.seq)
            dirty += diff.dirty_bytes
        # Notices may name intervals that produced no diff for this page
        # (e.g. a write of identical bytes); cover them explicitly.
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
        table.clear_pending(page)

    def _fetch_page_refresh(self, page: int, from_pid: int) -> Generator:
        """Re-fetch a full page (single-writer protocol update path)."""
        yield from self._pull_page(page, from_pid)
        self.table.owner[page] = from_pid
        self.owners[page] = from_pid

    def _prepare_write(self, page: int) -> None:
        """First write to a page in the open interval: twin it."""
        table = self.table
        multiple_writer = table.protocol[page] == MW
        if page not in self.current_writes:
            if self.materialized and multiple_writer:
                self._twins[page] = self.store.page_view(page).copy()
            self.stats.twins_created += 1
            self.node.busy_time += self.cfg.dsm.twin_time
            self.current_writes[page] = []
        if not multiple_writer and table.owner[page] != self.pid:
            table.owner[page] = self.pid
            self.owners[page] = self.pid
        table.valid[page] = 1
        table.mode[page] = MODE_WRITE

    # ------------------------------------------------------------------
    # intervals & releases
    # ------------------------------------------------------------------
    def close_interval(self) -> NoticeBatch:
        """Close the open interval (at a release); returns its notices."""
        writes = self.current_writes
        if not writes:
            return NoticeBatch()
        self.vc.tick(self.pid)
        pid = self.pid
        seq = self.vc.entries[pid]
        # One frozen snapshot per interval: its notice AND its diffs all
        # share this clock object (make_diff with vc_is_snapshot=True).
        rec_vc = self.vc.snapshot()
        pages = sorted(writes)
        table = self.table
        protocol = table.protocol
        # Multiple-writer pages encode their diff now: from the twin, or
        # (traced mode) as the declared, already-normalized ranges, which
        # ARE the diff.  Single-writer pages serve full-page refreshes
        # instead; should one be demoted later (write sharing after an
        # adaptation), its diff is encoded lazily at the first DIFF_REQ
        # from the recorded ranges (see _serve_diff).
        if self.materialized:
            diffs = {}
            for page in pages:
                if protocol[page] == MW:
                    diff = make_diff(
                        proc=pid,
                        seq=seq,
                        page=page,
                        vc=rec_vc,
                        declared_ranges=writes[page],
                        twin=self._twins.get(page),
                        current=self.store.page_view(page),
                        declared_normalized=True,
                        vc_is_snapshot=True,
                    )
                    if diff is not None:
                        diffs[page] = diff
            self._twins.clear()
        else:
            diffs = {
                page: writes[page]
                for page in pages
                if protocol[page] == MW and writes[page]
            }
        rec = IntervalRecord(
            proc=pid, seq=seq, vc=rec_vc,
            write_ranges={page: writes[page] for page in pages}, diffs=diffs,
        )
        mode = table.mode
        # seq is a fresh tick, so the applied stores below are pure advances.
        own_applied = table.column(table.applied, pid)
        for page in pages:
            mode[page] = MODE_READ
            own_applied[page] = seq
        self.log.add(rec)
        if diffs:
            self.stats.diffs_created += len(diffs)
            obs = self.sim.obs
            if obs.enabled:
                obs.count("dsm.diff.created", len(diffs))
        self.current_writes = {}
        self.stats.intervals_closed += 1
        self._intervals_this_epoch += 1
        self._prune_countdown -= 1
        if self._prune_countdown <= 0:
            self._prune_countdown = INTERVAL_PRUNE_PERIOD
            if len(self.log) >= INTERVAL_PRUNE_PERIOD:
                self._prune_interval_log()
        # Index our own interval directly: ``seq`` is a fresh maximum for
        # our bucket, so a plain append keeps it ascending.
        notice = IntervalNotice(pid, seq, rec_vc, tuple(pages))
        pair = self._known.get(pid)
        if pair is None:
            pair = self._known[pid] = ([], [])
        pair[0].append(seq)
        pair[1].append(notice)
        return NoticeBatch((notice,))

    def sync_notices(self) -> NoticeBatch:
        """Close the open interval and return all own notices the master
        has not yet been told about (lock releases create intervals the
        master never sees otherwise)."""
        self.close_interval()
        seqs, bucket = self._known.get(self.pid, ((), ()))
        out = NoticeBatch(bucket[bisect_right(seqs, self._sent_to_master_seq):])
        self._sent_to_master_seq = self.vc.entries[self.pid]
        return out

    @property
    def wants_gc(self) -> bool:
        """True when enough intervals closed this epoch (§4.1).

        Counts *closes*, not live log records, so incremental pruning
        (which shrinks the log) never shifts when GCs happen.
        """
        return self._intervals_this_epoch >= self.cfg.dsm.gc_interval_limit

    def _prune_interval_log(self) -> int:
        """Drop log records no peer can ever request diffs from again.

        A peer asks this writer for diffs of page ``p`` in the window
        ``(applied[p][us], seq]`` (see :meth:`_fetch_pending`), and its
        per-page applied clock only advances within an epoch.  So the
        *cover frontier* — the minimum over all peers of their applied
        cell for us on ``p``, with 0 for peers that never mapped ``p``
        (a later notice lazily maps it with nothing applied) — is a
        safe lower bound: records whose every written page is covered at
        or beyond their seq are unreachable and can be dropped.

        Skipped entirely unless every peer is in our GC epoch (applied
        clocks reset across GC/adaptation, so cross-epoch reads would be
        meaningless).  Reads peer state through ``peers_hook`` — an
        oracle read of host memory, no simulated messages or time, which
        is why pruning is bitwise invisible to the simulation.
        """
        peers_hook = self.peers_hook
        if peers_hook is None:
            return 0
        pid = self.pid
        epoch = self.epoch
        peers = [q for q in peers_hook().values() if q.pid != pid]
        if not peers:
            return 0
        for q in peers:
            if q.epoch != epoch:
                return 0
        # Each peer's applied column for us (cells of unmapped pages are
        # 0); a peer that never applied anything of ours covers nothing.
        columns = [q.table.applied.get(pid) for q in peers]
        if None in columns:
            return 0
        cover: Dict[int, int] = {}
        for page in self.log.pages():
            frontier = min([applied[page] for applied in columns])
            if frontier:
                cover[page] = frontier
        if not cover:
            return 0
        pruned = self.log.prune_covered(cover)
        if pruned:
            self.stats.intervals_pruned += pruned
        return pruned

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
        """Make our copies of pages we will own complete (flush phase)."""
        new_owners = gc_new_owners(self._known_intervals())
        table = self.table
        for page, owner in sorted(new_owners.items()):
            if owner != self.pid:
                continue
            if not table.mapped[page]:
                self._map(page)
            if not table.valid[page]:
                raise ProtocolError(
                    f"{self.name}: GC made us owner of page {page} we never wrote"
                )
            if table.npending[page]:
                yield from self._fetch_pending(page)
        self._gc_pending_owners = new_owners

    def gc_reset(self) -> None:
        """Drop all consistency bookkeeping and start a new epoch."""
        if self.current_writes:
            raise ProtocolError(f"{self.name}: GC with an open write set")
        table = self.table
        mapped, owner = table.mapped, table.owner
        for page, new_owner in self._gc_pending_owners.items():
            if mapped[page]:
                owner[page] = new_owner
        self.owners.update(self._gc_pending_owners)
        self._gc_pending_owners = {}
        table.reset_epoch()
        self.log.clear()
        self._known.clear()
        self.vc = VectorClock.zeros(self.team.nprocs)
        self.epoch += 1
        self._intervals_this_epoch = 0
        self._prune_countdown = INTERVAL_PRUNE_PERIOD
        self._sent_to_master_seq = 0
        self._lock_state.clear()
        if self.lock_mgr is not None:
            self.lock_mgr.reset()
        # Subtree knowledge floors are per-epoch (clocks reset).
        self.tree_barrier.reset()
        self.stats.gcs += 1
        self.sim.tracer.emit("dsm", "gc", f"{self.name} epoch={self.epoch}")

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
        if self._known or self.current_writes or len(self.log):
            raise ProtocolError(f"{self.name}: adapt_reset without a preceding GC")
        # Team membership changed: conceptually a repartition, so drop all
        # memoized access plans (they are rebuilt lazily on first use).
        self.space.plan_cache.invalidate()
        self.pid = new_pid
        width = self.team.nprocs
        self.vc = VectorClock.zeros(width)
        self._sent_to_master_seq = 0
        self.owners = {
            page: owner_remap.get(owner, TeamView.MASTER_PID)
            for page, owner in self.owners.items()
        }
        self.table.remap_owners(owner_remap, TeamView.MASTER_PID)
        self.table.applied.clear()  # keyed by the old pids
        self.table.proc_name = self.name
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
