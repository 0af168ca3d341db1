"""Tree-structured barrier with write-notice combining (PROTOCOL.md §11).

The paper's barrier is all-to-one: every process sends its write notices
to the master, which folds them one arrival at a time and fans the
releases back out (``dsm/barrier.py``).  That puts O(N) payload-carrying
messages on the master's links per barrier — exactly the "max traffic per
link" term the paper's §5.4 cost law says dominates — and it stops
scaling long before 128 nodes.

With ``PerfParams.barrier_tree`` on, the team synchronizes through a
``barrier_radix``-ary **combining tree** laid out heap-style over the
team's pid order: the process at position ``i`` parents positions
``k·i+1 … k·i+k``, with the master (position 0) as the root.

Up-sweep
    Each process closes its interval, waits for one combined arrival per
    child, folds the children's subtree notices into its own consistency
    index with **one** run-batched ingestion (the PR-5 per-writer-run
    path; interior folds therefore dedupe per-writer runs exactly like
    the master's flat fold), and forwards a single combined arrival — all
    new notices of its subtree, grouped by writer in ascending-writer
    order — to its tree parent.

Down-sweep
    The root decides the release (and whether a GC round follows) exactly
    like the flat manager; every parent sends each child the notices
    unknown to that child's *reported* arrival clock, and children relay
    downward after applying.  A GC round relays the flush-done / go
    handshake through the same tree, so neither phase ever puts more than
    ``radix`` payload messages on one process's links.

Because each writer's notices travel through exactly one subtree and
every fold consumes ascending-writer runs, the root's fold processes the
same per-writer run sequence the flat manager would — the property
``tests/dsm/test_tree_barrier.py`` checks for random arrival orders and
radices.  Tree runs are *not* bitwise identical to flat runs (message
patterns and modelled times differ, which is the point); they are
internally deterministic: same config, same digest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List

from ..network import message as mk
from ..simcore import Channel
from .intervals import IntervalNotice, NoticeBatch

if TYPE_CHECKING:  # pragma: no cover
    from .process import DsmProcess
    from .vectorclock import VectorClock


def tree_children(pids: List[int], pos: int, radix: int) -> List[int]:
    """Child pids of the process at position ``pos`` in the heap layout."""
    lo = radix * pos + 1
    return list(pids[lo:lo + radix])


def tree_parent(pids: List[int], pos: int, radix: int) -> int:
    """Parent pid of the process at position ``pos`` (pos > 0)."""
    return pids[(pos - 1) // radix]


def subtree_pids(pids: List[int], pos: int, radix: int) -> List[int]:
    """All pids in the subtree rooted at position ``pos``."""
    out: List[int] = []
    stack = [pos]
    n = len(pids)
    while stack:
        i = stack.pop()
        out.append(pids[i])
        lo = radix * i + 1
        stack.extend(range(lo, min(lo + radix, n)))
    return out


def vc_min(a: "VectorClock", b: "VectorClock") -> "VectorClock":
    """Elementwise minimum — the knowledge floor of a subtree."""
    from .vectorclock import VectorClock

    return VectorClock(
        [x if x <= y else y for x, y in zip(a.entries, b.entries)]
    )


def writer_sorted(chunks) -> List[IntervalNotice]:
    """Concatenate interval chunks into ascending-writer per-writer runs.

    Each chunk is already grouped by writer with every writer's run
    strictly ascending (a ``sync_notices`` output or a combined subtree
    arrival), and a writer appears in at most one chunk — so regrouping
    by writer preserves run order and yields the canonical form the flat
    fold consumes.
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
    """Per-process combining-tree barrier state machine."""

    def __init__(self, proc: "DsmProcess"):
        self.proc = proc
        self.radix = proc.cfg.perf.barrier_radix
        self.round = 0
        #: Combined arrivals from our children (fed by ``DsmProcess.take``).
        self.arrive_store = Channel(proc.sim, name=f"{proc.name}.treearrive")
        #: Per-tree-child subtree knowledge floor (elementwise-min clock)
        #: reported at the last join — what the next fork/GC relay must
        #: top up.  Cleared on every epoch reset and team rebuild; a
        #: missing entry reads as the zero clock.
        self.child_join_vcs: Dict[int, "VectorClock"] = {}

    def on_arrive(self, msg) -> None:
        """A child's BARRIER_TREE_ARRIVE (called from ``DsmProcess.take``)."""
        self.arrive_store.put(msg)

    def reset(self) -> None:
        """Drop cross-epoch tree state (GC reset / team rebuild)."""
        self.child_join_vcs.clear()

    def child_vc(self, pid: int) -> "VectorClock":
        """The stored knowledge floor of ``pid``'s subtree (zeros default)."""
        from .vectorclock import VectorClock

        width = self.proc.team.nprocs
        vc = self.child_join_vcs.get(pid)
        if vc is None or vc.width != width:
            return VectorClock.zeros(width)
        return vc

    # ------------------------------------------------------------------
    def barrier(self) -> Generator:
        """One barrier round; runs in the process's main coroutine."""
        proc = self.proc
        pids = proc.team.pids
        pos = pids.index(proc.pid)
        radix = self.radix
        children = tree_children(pids, pos, radix)
        own_notices = proc.sync_notices()
        this_round = self.round
        self.round += 1

        # -- up-sweep: collect and fold the children's subtrees ----------
        arrivals: Dict[int, dict] = {}
        for _ in children:
            msg = yield self.arrive_store.recv()
            p = msg.payload
            arrivals[p["pid"]] = p

        batched = fold_batches(
            arrivals[cpid]["notices"] for cpid in sorted(arrivals)
        )
        if batched:
            # One batched ingestion per round; the clock merges below are
            # elementwise max, hence order-free.
            proc.apply_notices(batched, proc.vc.snapshot())
        for cpid in sorted(arrivals):
            proc.vc.merge(arrivals[cpid]["vc"])
        subtree_gc = proc.wants_gc or any(
            p["want_gc"] for p in arrivals.values()
        )
        obs = proc.sim.obs
        if obs.enabled and children:
            obs.count("barrier.tree.folds")
            obs.count("barrier.tree.notices_folded", len(batched))

        if pos == 0:
            # -- root: decide the release, exactly like the flat manager.
            mgr = proc.barrier_mgr
            do_gc = subtree_gc
            if mgr is not None and mgr.force_gc:
                do_gc = True
                mgr.force_gc = False
            if obs.enabled:
                obs.count("barrier.tree.rounds")
        else:
            # -- forward one combined arrival for our whole subtree.
            upward = fold_batches(
                [own_notices]
                + [arrivals[cpid]["notices"] for cpid in sorted(arrivals)]
            )
            proc.send(*proc.notice_leg(
                mk.BARRIER_TREE_ARRIVE, tree_parent(pids, pos, radix), upward,
                {"pid": proc.pid, "round": this_round, "want_gc": subtree_gc},
            ))
            msg = yield proc.main_inbox.recv(
                match=lambda m: m.kind == mk.BARRIER_TREE_RELEASE
            )
            payload = msg.payload
            proc.apply_notices(payload["notices"], payload["vc"])
            do_gc = payload["gc"]

        # -- down-sweep: release our children with what each is missing,
        # one wave issued back-to-back (PROTOCOL.md §13).
        proc.send_fanout([
            proc.notice_leg(
                mk.BARRIER_TREE_RELEASE, cpid,
                proc.notices_unknown_to(arrivals[cpid]["vc"]),
                {"round": this_round, "gc": do_gc},
            )
            for cpid in sorted(arrivals)
        ])

        if do_gc:
            yield from self._gc_round(pids, pos, children)

    # ------------------------------------------------------------------
    def _gc_round(self, pids: List[int], pos: int,
                  children: List[int]) -> Generator:
        """Tree-relayed GC: flush up-sweep, go down-sweep, reset.

        Same phases as the flat round (everyone flushes, the master
        releases the epoch), but flush-done reports aggregate one hop at
        a time and the go fans down the tree — the master handles
        ``radix`` control messages instead of N.
        """
        proc = self.proc
        yield from proc.gc_flush()
        for _ in children:
            yield proc.gc_done_store.recv()
        if pos != 0:
            parent = tree_parent(pids, pos, self.radix)
            proc.send(
                mk.GC_DONE, parent, {"pid": proc.pid, "phase": "flush"}, size=8
            )
            yield proc.main_inbox.recv(match=lambda m: m.kind == mk.GC_GO)
        proc.send_fanout([(mk.GC_GO, cpid, {}, 4) for cpid in children])
        proc.gc_reset()

    # ------------------------------------------------------------------
    def gc_fork_point_participate(self, payload: dict) -> Generator:
        """Slave side of a tree-relayed fork-point GC (GC_REQ arm).

        Mirrors :meth:`DsmProcess.gc_participate` with ``ack=True`` but
        relays the request to our tree children and aggregates both done
        rounds (flush and reset) one hop at a time, so the master link
        carries ``radix`` control messages instead of N.
        """
        proc = self.proc
        proc.apply_notices(payload["notices"], payload["vc"])
        pids = proc.team.pids
        pos = pids.index(proc.pid)
        children = tree_children(pids, pos, self.radix)
        proc.send_fanout([
            proc.notice_leg(
                mk.GC_REQ, cpid, proc.notices_unknown_to(self.child_vc(cpid))
            )
            for cpid in children
        ])
        parent = tree_parent(pids, pos, self.radix)
        yield from proc.gc_flush()
        for _ in children:
            yield proc.gc_done_store.recv()
        proc.send(
            mk.GC_DONE, parent, {"pid": proc.pid, "phase": "flush"}, size=8
        )
        yield proc.main_inbox.recv(match=lambda m: m.kind == mk.GC_GO)
        proc.send_fanout([(mk.GC_GO, cpid, {}, 4) for cpid in children])
        proc.gc_reset()
        for _ in children:
            yield proc.gc_done_store.recv()
        proc.send(
            mk.GC_DONE, parent, {"pid": proc.pid, "phase": "reset"}, size=8
        )
