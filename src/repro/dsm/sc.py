"""A sequentially-consistent, IVY-style write-invalidate DSM baseline.

The paper builds on TreadMarks' lazy release consistency; its intellectual
baseline is the classic Li & Hudak shared-virtual-memory protocol ([15] in
the paper): a fixed manager keeps, per page, the current *owner* and the
*copyset*; reads fetch a shared copy from the owner, writes invalidate
every copy and transfer ownership.  No twins, no diffs, no write notices —
and therefore page ping-pong under false sharing, which is precisely what
LRC's multiple-writer protocol eliminates.

This module exists for the ablation bench ("why lazy release consistency",
``benchmarks/test_sc_baseline.py``): the same kernels run under both
protocols and the traffic difference is measured.  The SC runtime is a
drop-in :class:`ScRuntime` for the non-adaptive system; adaptivity is out
of scope for the baseline (the paper's contribution assumes LRC's GC).

The fault side rides the same vectorized infrastructure as the LRC
engine so that large-team baseline comparisons measure the *protocol*,
not the baseline's Python overhead: page sets come from the shared
epoch-invalidated :class:`~repro.dsm.plans.PlanCache` (one memoized
lookup per recurring access instead of per-range page arithmetic), page
payloads are the contiguous :class:`~repro.dsm.memory.LocalStore`
buffers, and already-satisfied pages (valid copy / exclusive hold) skip
the fault generator machinery entirely — a skip is observationally
identical because the fault path would return without yielding.

Protocol messages (manager = master, as for locks):

* ``SC_READ_REQ`` / ``SC_WRITE_REQ`` — fault requests to the manager;
* ``SC_FETCH`` / ``SC_FETCH_EX`` — manager asks the owner to ship the page
  (shared / with ownership transfer) straight to the faulting process,
  which receives it as the reply to its original request (3-hop path);
* ``SC_INVALIDATE`` — manager invalidates a copyset member (acked).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Set

from ..errors import ProtocolError
from ..network.message import Message
from ..simcore.process import Callback
from .intervals import NoticeBatch
from .memory import SharedSegment
from .page import MODE_NONE, MODE_READ, MODE_WRITE
from .process import DsmProcess
from .runtime import TmkRuntime
from .team import TeamView

SC_READ_REQ = "sc_read_req"
SC_WRITE_REQ = "sc_write_req"
SC_FETCH = "sc_fetch"
SC_FETCH_EX = "sc_fetch_ex"
SC_INVALIDATE = "sc_invalidate"
SC_INVALIDATE_ACK = "sc_invalidate_ack"
SC_GRANT = "sc_grant"
SC_DATA = "sc_data"


class ScDirectory:
    """The manager's per-page owner/copyset table (the master holds
    every page at first)."""

    def __init__(self):
        self._entries: Dict[int, dict] = {}

    def entry(self, page: int) -> dict:
        state = self._entries.get(page)
        if state is None:
            master = TeamView.MASTER_PID
            state = {"owner": master, "copies": {master}}
            self._entries[page] = state
        return state


class ScProcess(DsmProcess):
    """A DSM process speaking the write-invalidate protocol."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: pages this process may currently write (exclusive mode)
        self._sc_exclusive: Set[int] = set()
        # the manager's directory lives on the master instance
        self.sc_directory = None
        #: the manager's per-page FIFO of fault requests: resolution takes
        #: round trips, and two faults on one page must serialize — the
        #: head is in resolution, the rest wait for it
        self._sc_faults: Dict[int, Deque[Message]] = {}

    # ------------------------------------------------------------------
    # fault side
    # ------------------------------------------------------------------
    def access(self, seg: SharedSegment, reads=(), writes=()) -> Generator:
        """SC faults: no intervals, no twins — ownership and copies only."""
        yield from self.access_batch([(seg, reads, writes)])

    def access_batch(self, specs) -> Generator:
        """Fault several segments' accesses with ONE atomic write set.

        The program's stores land when the (last) access generator returns,
        so every write page — across all segments a region body touches —
        must be exclusive simultaneously at that instant.  A real SC DSM
        faults per store; batching the faults opens a steal window that the
        final re-acquisition loop closes.

        Page sets come from the shared :class:`~repro.dsm.plans.PlanCache`
        (iterative kernels re-issue identical range tuples every sweep),
        and pages already in the needed state skip the fault generator —
        both bitwise-neutral, see the module docstring.
        """
        page_size = self.cfg.dsm.page_size
        plan_cache = self.space.plan_cache
        #: page -> is_write, OR-merged across specs (segments' page id
        #: ranges are disjoint, but one segment may appear twice).
        combined: Dict[int, bool] = {}
        for seg, reads, writes in specs:
            reads = tuple(reads)
            writes = tuple(writes)
            plan = plan_cache.lookup(seg, reads, writes, page_size)
            for start, stop, ranges in plan.runs:
                for page in range(start, stop):
                    if ranges is not None:
                        combined[page] = True
                    elif page not in combined:
                        combined[page] = False
        team = self.team
        exclusive = self._sc_exclusive
        valid = self.lrc.table.valid
        write_pages = sorted(p for p, w in combined.items() if w)
        for page in sorted(combined):
            write = combined[page]
            while team.frozen is not None:
                yield team.frozen
            # Fast path: already exclusive (write) or valid (read) — the
            # fault generator would return without yielding.  (Both imply
            # the page is mapped.)
            if page in exclusive if write else valid[page]:
                continue
            yield from self._sc_ensure(page, write=write)
        for attempt in range(200):
            missing = [p for p in write_pages if p not in self._sc_exclusive]
            if not missing:
                break
            if attempt:
                # pid-staggered backoff breaks the symmetric two-writer
                # ping-pong (each needing the same pair of shared pages)
                yield self.sim.timeout(
                    min(attempt, 16) * 150e-6 * (1.0 + 0.13 * self.pid)
                )
            for page in missing:
                yield from self._sc_ensure(page, write=True)
        else:
            raise ProtocolError(
                f"{self.name}: SC write-set acquisition livelocked on {missing}"
            )

    def _sc_ensure(self, page: int, write: bool) -> Generator:
        table = self.lrc.table
        if not table.mapped[page]:
            self.lrc.map_page(page)
        if page in self._sc_exclusive if write else table.valid[page]:
            return
        t0 = self.sim.now
        # the requester-side fault overhead is charged up front so that
        # grant receipt, state change, and return to the program are one
        # atomic instant — otherwise contending writers steal the page
        # inside the handling window and nobody ever converges
        yield self.sim.timeout(self.cfg.network.page_service_client)
        kind = SC_WRITE_REQ if write else SC_READ_REQ
        reply = yield self.request(kind, 0, {"page": page}, size=8)
        data = reply.payload.get("data")
        if data is not None:
            if self.materialized:
                self.store.page_view(page)[:] = data
            self.stats.page_fetches += 1
        table.valid[page] = 1
        table.mode[page] = MODE_WRITE if write else MODE_READ
        if write:
            self._sc_exclusive.add(page)
        self.stats.fault_wait_time += self.sim.now - t0

    # Under SC there are no intervals/notices; releases are pure syncs.
    def close_interval(self):
        return NoticeBatch()

    def sync_notices(self):
        return NoticeBatch()

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def _serve(self, msg: Message) -> None:
        # Each arm is a chain of callbacks: this event, then the handler
        # CPU and the replies the arm waits for (docs/PROTOCOL.md §3).
        kind = msg.kind
        if kind == SC_READ_REQ or kind == SC_WRITE_REQ:
            if not self.is_master:
                raise ProtocolError(f"{self.name}: SC fault request at a non-manager")
            page = msg.payload["page"]
            faults = self._sc_faults.get(page)
            if faults is None:
                faults = self._sc_faults[page] = deque()
            faults.append(msg)
            if len(faults) == 1:
                self._sc_resolve(msg)
        elif kind == SC_FETCH or kind == SC_FETCH_EX:
            self._sc_ship(msg, msg.payload["page"], kind == SC_FETCH_EX,
                          partial(self._sc_reply, msg, SC_DATA))
        elif kind == SC_INVALIDATE:
            self._sc_drop(msg.payload["page"], MODE_NONE)
            self._sc_service(msg, 25e-6,
                             lambda _hold: self._sc_reply(msg, SC_INVALIDATE_ACK))
        else:
            super()._serve(msg)

    def _sc_step(self, msg: Message, step: Callable[[Any], None]) -> Callback:
        """``step`` as a ``(value, err)`` callback serving ``msg``: an error,
        the awaited reply's or the step's own, is the failure of
        ``P<pid>.h.<kind>``."""
        def callback(value: Any, err: Optional[BaseException] = None) -> None:
            try:
                if err is not None:
                    raise err
                step(value)
            except BaseException as failure:  # noqa: BLE001 - report through simulator
                self.sim._report_failure(f"{self.name}.h.{msg.kind}", failure)
        return callback

    def _sc_service(self, msg: Message, cost: float, step: Callable[[Any], None]) -> None:
        """``cost`` seconds of this node's handler CPU, then ``step``."""
        node = self.node
        node.handler_cpu.hold(cost / node.speed, self._sc_step(msg, step))

    def _sc_reply(self, msg: Message, kind: str, data: Any = None) -> None:
        """Answer ``msg``: its request is then out of service."""
        if kind == SC_INVALIDATE_ACK:
            reply = msg.reply(kind, size_bytes=4)
        else:
            size = 8 if kind == SC_GRANT else self.cfg.dsm.page_size
            reply = msg.reply(kind, size_bytes=size, payload={"data": data})
        self.node.nic.send(reply)
        self._inflight_reqs.discard(msg.req_id)

    def _sc_resolve(self, msg: Message) -> None:
        """Manager: resolve the fault at the head of its page's queue."""
        if msg.kind == SC_WRITE_REQ:
            # invalidate every other copy, with acks (SC requires it)
            state = self.sc_directory.entry(msg.payload["page"])
            pending = sorted(state["copies"] - {msg.src_pid, state["owner"]})
            self._sc_invalidate(msg, pending)
        else:
            self._sc_obtain(msg, exclusive=False)

    def _sc_invalidate(self, msg: Message, pending: List[int], _ack: Any = None) -> None:
        """Invalidate ``pending``'s copies one acked round trip at a time,
        then hand the page over."""
        if pending:
            self.request(SC_INVALIDATE, pending.pop(0), msg.payload, size=8).subscribe(
                self._sc_step(msg, partial(self._sc_invalidate, msg, pending)))
        elif self.sc_directory.entry(msg.payload["page"])["owner"] == msg.src_pid:
            # upgrade in place (requester already holds the only copy)
            self._sc_settle(msg, None, SC_GRANT)
        else:
            self._sc_obtain(msg, exclusive=True)

    def _sc_obtain(self, msg: Message, exclusive: bool) -> None:
        """Manager-side: get the page bytes from the owner (or locally).

        All data and invalidations then flow out of the manager node, whose
        per-destination FIFO delivery makes a later invalidation unable to
        overtake an earlier grant.
        """
        page = msg.payload["page"]
        owner = self.sc_directory.entry(page)["owner"]
        settle = partial(self._sc_settle, msg)
        if owner == self.pid:
            self._sc_ship(msg, page, exclusive, settle)
        else:
            self.request(SC_FETCH_EX if exclusive else SC_FETCH, owner,
                         msg.payload, size=8).subscribe(
                self._sc_step(msg, lambda reply: settle(reply.payload["data"])))

    def _sc_settle(self, msg: Message, data: Any, kind: str = SC_DATA) -> None:
        """Manager: answer the fault, record the new owner or copy, and
        start the next fault queued on the page."""
        page = msg.payload["page"]
        self._sc_reply(msg, kind, data)
        state = self.sc_directory.entry(page)
        if msg.kind == SC_WRITE_REQ:
            state["owner"] = msg.src_pid
            state["copies"] = {msg.src_pid}
        else:
            state["copies"].add(msg.src_pid)
        faults = self._sc_faults[page]
        faults.popleft()
        if faults:
            self._sc_step(faults[0], self._sc_resolve)(faults[0])

    def _sc_ship(self, msg: Message, page: int, exclusive: bool,
                 then: Callable[[Any], None], _: Any = None) -> None:
        """Owner side: copy the page out, giving up or demoting our hold,
        ``page_service_server`` of handler CPU after our copy is valid;
        ``then(data)``."""
        table = self.lrc.table
        if not table.mapped[page]:
            self.lrc.map_page(page)
        if not table.valid[page]:
            # our own grant may still be inbound (owner-designate window)
            retry = partial(self._sc_ship, msg, page, exclusive, then)
            self.sim.schedule(50e-6, (self._sc_step(msg, retry), None))
            return

        def copy_out(_hold: Any) -> None:
            data = self.store.page_view(page).copy() if self.materialized else None
            # shipping a shared copy demotes our exclusive hold: the next
            # local write must fault so the new copy gets invalidated
            self._sc_drop(page, MODE_NONE if exclusive else MODE_READ)
            then(data)

        self._sc_service(msg, self.cfg.network.page_service_server, copy_out)

    def _sc_drop(self, page: int, mode: int) -> None:
        """Give up our exclusive hold on ``page``: down to a shared copy
        (``MODE_READ``) or to none at all."""
        table = self.lrc.table
        if mode == MODE_NONE:
            if not table.mapped[page]:
                self.lrc.map_page(page)
            table.valid[page] = 0
        table.mode[page] = mode
        self._sc_exclusive.discard(page)


class ScRuntime(TmkRuntime):
    """The fork/join runtime over the write-invalidate baseline DSM."""

    PROCESS_CLS = ScProcess

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        directory = ScDirectory()
        for proc in self.procs.values():
            proc.sc_directory = directory
