"""The synchronization engine: barrier, fork, join and GC rounds as one
combining tree (PROTOCOL.md §2, §11).

The paper's barrier, fork and join are all-to-one (§2): every process
sends its write notices to the master, which folds them and fans the
releases back out.  A combining tree folds the same way, one tree node at
a time, and a tree whose radix covers the whole team *is* that flat fold:
the master is its only interior node and every slave is a leaf.  So there
is one engine.  The tree is laid out heap-style over the team's dense
pids — pid ``i`` parents ``k·i+1 … k·i+k``, the master (pid 0) is the
root — with ``k = PerfParams.barrier_radix`` when ``barrier_tree`` is on
and ``k = nprocs`` (one level) otherwise.

Up-sweep
    Each process closes its interval, waits for one arrival per child,
    ingests its children's subtree notices, and forwards one combined
    arrival — all new notices of its subtree, grouped by writer in
    ascending-writer order — to its parent.  A barrier folds its
    arrivals with one run-batched ingestion after the last one; a join
    collector ingests each arrival as it arrives.

Down-sweep
    The root decides the release and whether a GC round follows; every
    parent sends each child the notices unknown to that child's
    *reported* clock, and children relay downward after applying.  A GC
    round relays the flush-done / go handshake through the same tree, so
    no phase puts more than ``radix`` payload messages on one process's
    links.

Three rules make the one-level tree the paper's flat protocol, bit for
bit (``tests/dsm/test_tree_barrier.py`` checks every golden scenario):

* a leaf's JOIN_DONE carries no ``min_vc`` — its knowledge floor is its
  own clock, which is already on the wire;
* join collectors ingest each child's arrival as it arrives (a
  single-writer page's last-writer owner depends on that order);
* a leaf does no layout or relay work: the layout is arithmetic on the
  pid (``TeamView`` keeps pids dense).

Because each writer's notices travel through exactly one subtree and
every fold consumes ascending-writer runs, a barrier root folds the same
per-writer run sequence whatever the radix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from ..errors import ProtocolError
from ..network import message as mk
from .intervals import IntervalNotice, NoticeBatch
from .vectorclock import VectorClock

if TYPE_CHECKING:  # pragma: no cover
    from .process import DsmProcess

#: The FORK fields a parent relays to its children (the notices and the
#: clock are each leg's own).
FORK_FIELDS = ("phase", "args", "fork_seq", "nprocs")


def children_of(pid: int, nprocs: int, radix: int) -> range:
    """Child pids of ``pid`` in the heap layout over dense pids."""
    lo = radix * pid + 1
    return range(lo, min(lo + radix, nprocs))


def parent_of(pid: int, radix: int) -> int:
    """Parent pid of ``pid`` (pid > 0) in the heap layout."""
    return (pid - 1) // radix


def in_subtree(pid: int, root: int, radix: int) -> bool:
    """True when ``pid`` lies in the subtree rooted at ``root``."""
    while pid > root:
        pid = (pid - 1) // radix
    return pid == root


def tree_children(pids: List[int], pos: int, radix: int) -> List[int]:
    """Children of position ``pos`` in the heap layout over the list
    ``pids`` (a relay order that is not the team's, e.g. a drain's
    ``[master] + targets``)."""
    lo = radix * pos + 1
    return list(pids[lo:lo + radix])


def vc_min(a: VectorClock, b: VectorClock) -> VectorClock:
    """Elementwise minimum — the knowledge floor of a subtree."""
    return VectorClock(
        [x if x <= y else y for x, y in zip(a.entries, b.entries)]
    )


def writer_sorted(chunks) -> List[IntervalNotice]:
    """Concatenate interval chunks into ascending-writer per-writer runs.

    Each chunk is already grouped by writer with every writer's run
    strictly ascending (a ``sync_notices`` output or a combined subtree
    arrival), and a writer appears in at most one chunk — so regrouping
    by writer preserves run order and yields the canonical form a fold
    consumes.
    """
    groups: Dict[int, List[IntervalNotice]] = {}
    for chunk in chunks:
        for iv in chunk:
            group = groups.get(iv.proc)
            if group is None:
                group = groups[iv.proc] = []
            group.append(iv)
    return [iv for w in sorted(groups) for iv in groups[w]]


def fold_batches(batches) -> NoticeBatch:
    """:func:`writer_sorted` over the intervals of several batches."""
    return NoticeBatch(writer_sorted(b.intervals for b in batches))


class TreeBarrier:
    """Per-process synchronization engine (one per :class:`DsmProcess`)."""

    def __init__(self, proc: "DsmProcess"):
        self.proc = proc
        perf = proc.cfg.perf
        #: The configured fan-out, or None for one level (radix = nprocs).
        self._radix: Optional[int] = perf.barrier_radix if perf.barrier_tree else None
        self.round = 0
        #: Force a GC at the next barrier this process roots (tests).
        self.force_gc = False
        #: Per-tree-child subtree knowledge floor (elementwise-min clock)
        #: reported at the last join — what the next fork/GC request must
        #: top up.  Cleared on every epoch reset and team rebuild; a
        #: missing entry reads as the zero clock.
        self.child_join_vcs: Dict[int, VectorClock] = {}
        self.reset()

    def reset(self) -> None:
        """Start a new epoch or a new team: drop the subtree floors and
        lay the tree out over the current pid and team size.  Both change
        only where this is called — ``gc_reset`` and ``adapt_reset`` —
        or with a fresh engine."""
        self.child_join_vcs.clear()
        proc = self.proc
        self.nprocs = proc.team.nprocs
        self.radix = self._radix or self.nprocs
        self.children = children_of(proc.pid, self.nprocs, self.radix)
        self.parent = parent_of(proc.pid, self.radix)

    def child_vc(self, pid: int) -> VectorClock:
        """The stored knowledge floor of ``pid``'s subtree (zeros default)."""
        vc = self.child_join_vcs.get(pid)
        if vc is None:
            return VectorClock.zeros(self.nprocs)
        return vc

    def _count_fold(self, notices: int) -> None:
        obs = self.proc.sim.obs
        if obs.enabled:
            obs.count("barrier.folds")
            obs.count("barrier.notices_folded", notices)
            if self.proc.pid == 0:
                obs.count("barrier.rounds")

    # -- barrier ------------------------------------------------------------
    def barrier(self) -> Generator:
        """One barrier round; runs in the process's main coroutine."""
        proc = self.proc
        pid = proc.pid
        own = proc.sync_notices()
        this_round = self.round
        self.round += 1

        # -- up-sweep: collect and fold the children's subtrees ----------
        children = self.children
        arrivals: Dict[int, dict] = {}
        for _ in children:
            msg = yield proc.arrive_store.recv()
            child = msg.payload["pid"]
            if child in arrivals:
                raise ProtocolError(f"pid {child} arrived twice at barrier {this_round}")
            if child not in children:
                raise ProtocolError(
                    f"pid {child} arrived at {proc.name}, not its parent, "
                    f"at barrier {this_round}"
                )
            arrivals[child] = msg.payload
        order = sorted(arrivals)
        if arrivals:
            batched = fold_batches(arrivals[c]["notices"] for c in order)
            if batched:
                # One batched ingestion per round; the clock merges below
                # are elementwise max, hence order-free.
                proc.apply_notices(batched, proc.vc.snapshot())
            for c in order:
                proc.vc.merge(arrivals[c]["vc"])
            self._count_fold(len(batched))
        want_gc = proc.wants_gc or any(p["want_gc"] for p in arrivals.values())

        if pid == 0:
            do_gc = want_gc or self.force_gc
            self.force_gc = False
        else:
            # -- forward one combined arrival for our whole subtree.
            upward = own
            if arrivals:
                upward = fold_batches([own] + [arrivals[c]["notices"] for c in order])
            proc.send(*proc.notice_leg(
                mk.BARRIER_ARRIVE, self.parent, upward,
                {"pid": pid, "want_gc": want_gc},
            ))
            msg = yield proc.main_inbox.recv(
                match=lambda m: m.kind == mk.BARRIER_RELEASE
            )
            payload = msg.payload
            proc.apply_notices(payload["notices"], payload["vc"])
            do_gc = payload["gc"]

        # -- down-sweep: release our children with what each is missing,
        # one wave issued back-to-back (PROTOCOL.md §13).
        if arrivals:
            proc.send_fanout([
                proc.notice_leg(
                    mk.BARRIER_RELEASE, c,
                    proc.notices_unknown_to(arrivals[c]["vc"]),
                    {"round": this_round, "gc": do_gc},
                )
                for c in order
            ])
        if do_gc:
            yield from self.gc_round()

    # -- fork / join --------------------------------------------------------
    def fork(self, fork: dict) -> None:
        """Send each child a FORK carrying what its subtree's knowledge
        floor is missing — a superset of each member's need; receivers
        dedupe.  The master forks its children, every child re-forks its
        own subtree before running the region."""
        children = self.children
        if not children:
            return
        proc = self.proc
        fields = {k: fork[k] for k in FORK_FIELDS}
        extra = 8 * fields["nprocs"] + 16
        proc.send_fanout([
            proc.notice_leg(
                mk.FORK, c, proc.notices_unknown_to(self.child_vc(c)), fields,
                extra_bytes=extra,
            )
            for c in children
        ])

    def join(self) -> Generator:
        """Close the region: collect one JOIN_DONE per child, ingesting
        each as it arrives, and (below the root) send one combined
        JOIN_DONE up.  The root returns whether anyone wants a GC."""
        proc = self.proc
        pid = proc.pid
        own = proc.sync_notices()
        children = self.children
        if pid and not children:
            # A leaf: its floor is its own clock, already on the wire.
            proc.send(*proc.notice_leg(
                mk.JOIN_DONE, self.parent, own,
                {"pid": pid, "want_gc": proc.wants_gc},
            ))
            return False
        floor = proc.vc.snapshot()
        want_gc = proc.wants_gc
        arrivals: Dict[int, dict] = {}
        folded = 0
        for _ in children:
            msg = yield proc.join_store.recv()
            p = msg.payload
            # No arrived-twice check, unlike the barrier's: crash recovery
            # does not fence the dead incarnation's traffic yet, and a
            # stale JOIN_DONE reaching the rebuilt master is part of the
            # golden ``chaos`` scenario.
            arrivals[p["pid"]] = p
            proc.apply_notices(p["notices"], p["vc"])
            self.child_join_vcs[p["pid"]] = p.get("min_vc", p["vc"])
            want_gc = want_gc or p["want_gc"]
            folded += len(p["notices"])
        if arrivals:
            self._count_fold(folded)
        if pid == 0:
            return want_gc
        order = sorted(arrivals)
        for c in order:
            floor = vc_min(floor, self.child_join_vcs[c])
        proc.send(*proc.notice_leg(
            mk.JOIN_DONE, self.parent,
            fold_batches([own] + [arrivals[c]["notices"] for c in order]),
            {"pid": pid, "min_vc": floor, "want_gc": want_gc},
            extra_bytes=proc.vc_wire_bytes + 8,
        ))
        return False

    # -- garbage collection -------------------------------------------------
    def fork_point_gc(self, request: Optional[dict] = None) -> Generator:
        """A GC while the team waits for a fork: apply the parent's
        GC_REQ (``request``; none at the root), relay it to our children,
        then run the round with the reset acknowledged."""
        proc = self.proc
        if request is not None:
            proc.apply_notices(request["notices"], request["vc"])
        children = self.children
        if children:
            proc.send_fanout([
                proc.notice_leg(
                    mk.GC_REQ, c, proc.notices_unknown_to(self.child_vc(c))
                )
                for c in children
            ])
        yield from self.gc_round(ack=True)

    def gc_round(self, ack: bool = False) -> Generator:
        """Flush up-sweep, go down-sweep, reset (§4.1).

        Flush-done reports aggregate one hop at a time and the go fans
        down the tree.  With ``ack`` (fork-point GC) a second done round
        confirms every reset: the master must not rebuild the team while
        a slave still holds the old epoch's state.
        """
        proc = self.proc
        pid, children, parent = proc.pid, self.children, self.parent
        yield from proc.gc_flush()
        for _ in children:
            yield proc.gc_done_store.recv()
        if pid:
            proc.send(mk.GC_DONE, parent, {"pid": pid, "phase": "flush"}, size=8)
            yield proc.main_inbox.recv(match=lambda m: m.kind == mk.GC_GO)
        if children:
            proc.send_fanout([(mk.GC_GO, c, {}, 4) for c in children])
        proc.gc_reset()
        if ack:
            for _ in children:
                yield proc.gc_done_store.recv()
            if pid:
                proc.send(
                    mk.GC_DONE, parent, {"pid": pid, "phase": "reset"}, size=8
                )
