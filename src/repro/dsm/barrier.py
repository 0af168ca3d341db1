"""Centralized barrier manager (runs at the master, §2).

TreadMarks barriers are all-to-one/one-to-all: arrivals carry the write
notices created since the arriving process last synchronized, the release
carries every notice the arriving process has not yet seen.  When any
participant's interval log hit its limit (or a GC was forced), a garbage
collection round is appended: release(gc) -> each process flushes ->
GC_DONE -> GC_GO -> everyone resets to a fresh epoch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List

from ..errors import ProtocolError
from ..network import message as mk
from ..network.message import Message
from .intervals import IntervalNotice, NoticeBatch
from .team import TeamView
from .vectorclock import VectorClock

if TYPE_CHECKING:  # pragma: no cover
    from .process import DsmProcess


class BarrierManager:
    """Barrier state machine living on the master process."""

    def __init__(self, master: "DsmProcess"):
        self.master = master
        self.round = 0
        #: Force a GC at the next barrier (used by tests and the runtime).
        self.force_gc = False
        self._arrivals: Dict[int, dict] = {}
        self._local_done = None

    @property
    def _expected(self) -> List[int]:
        return self.master.team.pids

    # -- arrivals -----------------------------------------------------------
    def arrive_local(self, proc: "DsmProcess", notices: NoticeBatch, want_gc: bool):
        """The master's own arrival; returns a waitable for its release."""
        if proc is not self.master:
            raise ProtocolError("arrive_local must be called by the master")
        self._local_done = self.master.sim.signal(f"barrier{self.round}.master")
        self._record(proc.pid, notices, proc.vc.snapshot(), want_gc)
        return self._local_done

    def on_arrive(self, msg: Message) -> None:
        """A slave's BARRIER_ARRIVE message (fed by ``DsmProcess.take``)."""
        p = msg.payload
        self._record(p["pid"], p["notices"], p["vc"], p["want_gc"])

    def _record(self, pid: int, notices: NoticeBatch, vc: VectorClock, want_gc: bool) -> None:
        if pid in self._arrivals:
            raise ProtocolError(f"pid {pid} arrived twice at barrier {self.round}")
        self._arrivals[pid] = {"notices": notices, "vc": vc, "want_gc": want_gc}
        if set(self._arrivals) == set(self._expected):
            self.master.sim.process(
                self._release(), name=f"barrier{self.round}.release", daemon=True
            )

    # -- release ------------------------------------------------------------
    def _release(self) -> Generator:
        master = self.master
        arrivals, self._arrivals = self._arrivals, {}
        local_done, self._local_done = self._local_done, None
        this_round = self.round
        self.round += 1

        # Fold every arrival's notices into the master's knowledge with
        # one batched ingestion for the whole round: each arrival
        # carries only its own writer's strictly-ascending intervals
        # (sync_notices), so concatenating them in ascending-pid order
        # feeds apply_notices one per-writer run after another — and
        # apply_notices never reads the master's clock mid-fold, so the
        # (elementwise-max, order-free) clock merges can follow it.
        intervals: List[IntervalNotice] = []
        for pid in sorted(arrivals):
            if pid != master.pid:
                intervals.extend(arrivals[pid]["notices"].intervals)
        if intervals:
            master.apply_notices(NoticeBatch(intervals), master.vc.snapshot())
        for pid in sorted(arrivals):
            if pid != master.pid:
                master.vc.merge(arrivals[pid]["vc"])

        do_gc = (
            self.force_gc
            or master.wants_gc
            or any(a["want_gc"] for a in arrivals.values())
        )
        self.force_gc = False

        # One release wave, issued back-to-back in this event (PROTOCOL.md §13).
        legs = [
            master.notice_leg(
                mk.BARRIER_RELEASE, pid,
                master.notices_unknown_to(arrivals[pid]["vc"]),
                {"round": this_round, "gc": do_gc},
            )
            for pid in sorted(arrivals)
            if pid != master.pid
        ]
        master.send_fanout(legs)

        if do_gc:
            yield from master.gc_flush()
            for _ in range(len(arrivals) - 1):
                yield master.gc_done_store.recv()
            master.send_fanout([
                (mk.GC_GO, pid, {}, 4)
                for pid in sorted(arrivals)
                if pid != master.pid
            ])
            master.gc_reset()

        local_done.fire()
