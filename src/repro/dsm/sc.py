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

from typing import Dict, Generator, Set

from ..errors import ProtocolError
from ..network import message as mk
from ..network.message import Message
from ..simcore import Resource
from .intervals import NoticeBatch
from .memory import SharedSegment
from .page import MODE_NONE, MODE_READ, MODE_WRITE
from .process import DsmProcess
from .runtime import TmkRuntime

SC_READ_REQ = "sc_read_req"
SC_WRITE_REQ = "sc_write_req"
SC_FETCH = "sc_fetch"
SC_FETCH_EX = "sc_fetch_ex"
SC_INVALIDATE = "sc_invalidate"
SC_INVALIDATE_ACK = "sc_invalidate_ack"
SC_GRANT = "sc_grant"
SC_DATA = "sc_data"


class ScDirectory:
    """The manager's per-page owner/copyset table."""

    def __init__(self, space):
        self.space = space
        self._entries: Dict[int, dict] = {}

    def entry(self, page: int) -> dict:
        state = self._entries.get(page)
        if state is None:
            home = self.space.segment_of_page(page).home
            state = {"owner": home, "copies": {home}}
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
        #: per-page mutual exclusion at the manager: fault resolution
        #: involves round trips, and two faults on one page must serialize
        self._sc_page_locks: Dict[int, object] = {}

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
            for page, is_write in plan.pages:
                if is_write:
                    combined[page] = True
                elif page not in combined:
                    combined[page] = False
        stall = self.stall_hook
        exclusive = self._sc_exclusive
        valid = self.table.valid
        last_access = self.table.last_access
        epoch = self.epoch
        write_pages = sorted(p for p, w in combined.items() if w)
        for page in sorted(combined):
            write = combined[page]
            if stall is not None:
                yield from stall()
            # Fast path: already exclusive (write) or valid (read) — the
            # fault generator would return without yielding.  (Both imply
            # the page is mapped.)
            if page in exclusive if write else valid[page]:
                last_access[page] = epoch
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
        table = self.table
        if not table.mapped[page]:
            self._map(page)
        table.last_access[page] = self.epoch
        if page in self._sc_exclusive if write else table.valid[page]:
            return
        t0 = self.sim.now
        if write:
            self.stats.write_faults += 1
        else:
            self.stats.read_faults += 1
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
        # The manager and owner arms really block (page lock, invalidation
        # round trips, the owner-designate wait): each runs as a coroutine.
        kind = msg.kind
        if kind == SC_READ_REQ or kind == SC_WRITE_REQ:
            arm = self._sc_manage(msg, write=kind == SC_WRITE_REQ)
        elif kind == SC_FETCH or kind == SC_FETCH_EX:
            arm = self._sc_serve_fetch(msg)
        elif kind == SC_INVALIDATE:
            arm = self._sc_invalidate(msg)
        else:
            return super()._serve(msg)
        self.sim.process(self._handle_request(msg, arm),
                         name=f"{self.name}.h.{kind}", daemon=True)

    def _handle_request(self, msg: Message, arm: Generator) -> Generator:
        try:
            yield from arm
        finally:
            self._inflight_reqs.discard(msg.req_id)

    def _sc_manage(self, msg: Message, write: bool) -> Generator:
        """Manager: resolve a fault against the directory."""
        if not self.is_master:
            raise ProtocolError(f"{self.name}: SC fault request at a non-manager")
        page = msg.payload["page"]
        requester = msg.src_pid
        lock = self._sc_page_locks.get(page)
        if lock is None:
            lock = Resource(self.sim, capacity=1, name=f"scpage{page}")
            self._sc_page_locks[page] = lock
        yield lock.acquire()
        try:
            yield from self._sc_resolve(msg, page, requester, write)
        finally:
            lock.release()

    def _sc_resolve(self, msg: Message, page: int, requester: int, write: bool) -> Generator:
        state = self.sc_directory.entry(page)
        owner = state["owner"]

        if write:
            # invalidate every other copy, with acks (SC requires it)
            to_invalidate = sorted(state["copies"] - {requester, owner})
            for pid in to_invalidate:
                yield self.request(SC_INVALIDATE, pid, {"page": page}, size=8)
            if owner == requester:
                # upgrade in place (requester already holds the only copy)
                self.node.nic.send(
                    msg.reply(SC_GRANT, size_bytes=8, payload={"data": None})
                )
            else:
                data = yield from self._sc_obtain(page, owner, exclusive=True)
                self.node.nic.send(
                    msg.reply(SC_DATA, size_bytes=self.cfg.dsm.page_size,
                              payload={"data": data})
                )
            state["owner"] = requester
            state["copies"] = {requester}
        else:
            data = yield from self._sc_obtain(page, owner, exclusive=False)
            self.node.nic.send(
                msg.reply(SC_DATA, size_bytes=self.cfg.dsm.page_size,
                          payload={"data": data})
            )
            state["copies"].add(requester)

    def _sc_obtain(self, page: int, owner: int, exclusive: bool) -> Generator:
        """Manager-side: get the page bytes from the owner (or locally).

        All data and invalidations then flow out of the manager node, whose
        per-destination FIFO delivery makes a later invalidation unable to
        overtake an earlier grant.
        """
        if owner == self.pid:
            return (yield from self._sc_ship(page, exclusive))
        kind = SC_FETCH_EX if exclusive else SC_FETCH
        reply = yield self.request(kind, owner, {"page": page}, size=8)
        return reply.payload["data"]

    def _sc_ship(self, page: int, exclusive: bool) -> Generator:
        """Owner side: copy the page out, giving up or demoting our hold."""
        table = self.table
        if not table.mapped[page]:
            self._map(page)
        while not table.valid[page]:
            # our own grant may still be inbound (owner-designate window)
            yield self.sim.timeout(50e-6)
        yield from self.node.service(self.cfg.network.page_service_server)
        data = self.store.page_view(page).copy() if self.materialized else None
        if exclusive:
            table.valid[page] = 0
            table.mode[page] = MODE_NONE
        else:
            # shipping a shared copy demotes our exclusive hold: the next
            # local write must fault so the new copy gets invalidated
            table.mode[page] = MODE_READ
        self._sc_exclusive.discard(page)
        return data

    def _sc_serve_fetch(self, msg: Message) -> Generator:
        """Owner: ship the page back to the manager."""
        data = yield from self._sc_ship(
            msg.payload["page"], exclusive=msg.kind == SC_FETCH_EX
        )
        self.node.nic.send(
            msg.reply(SC_DATA, size_bytes=self.cfg.dsm.page_size,
                      payload={"data": data})
        )

    def _sc_invalidate(self, msg: Message) -> Generator:
        page = msg.payload["page"]
        table = self.table
        if not table.mapped[page]:
            self._map(page)
        table.valid[page] = 0
        table.mode[page] = MODE_NONE
        self._sc_exclusive.discard(page)
        yield from self.node.service(25e-6)
        self.node.nic.send(msg.reply(SC_INVALIDATE_ACK, size_bytes=4))


class ScRuntime(TmkRuntime):
    """The fork/join runtime over the write-invalidate baseline DSM."""

    PROCESS_CLS = ScProcess

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        directory = ScDirectory(self.space)
        for proc in self.procs.values():
            proc.sc_directory = directory
