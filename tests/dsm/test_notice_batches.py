"""Interval-granular write notices and the dense page columns, at the
``DsmProcess`` level: batches are built by hand and fed to one process's
entry points, no simulated time passes."""

import pytest

from repro.dsm import IntervalNotice, NoticeBatch, Protocol, VectorClock
from repro.dsm.page import MODE_NONE, MODE_READ, MW, SW
from repro.dsm.runs import page_spans
from repro.errors import ProtocolError

from ..helpers import build_system

PAGE = 4096


def _system(nprocs=3, npages=6, protocol=Protocol.MULTIPLE_WRITER):
    sim, rt, pool = build_system(nprocs=nprocs, materialized=False)
    seg = rt.malloc("seg", nbytes=PAGE * npages, protocol=protocol)
    return rt, seg


def _interval(proc, seq, pages, width=3):
    vc = [0] * width
    vc[proc] = seq
    return IntervalNotice(proc, seq, VectorClock(vc), page_spans(pages))


def _notices(batch):
    """``(proc, seq, page)`` of every write notice in ``batch``."""
    return [(iv.proc, iv.seq, page)
            for iv in batch.intervals for pages in iv.runs for page in pages]


def _mapped(table):
    """The mapped pages, ascending."""
    return [p for p in range(len(table.mapped)) if p in table]


def _write(proc, seg, first_page, last_page):
    """Write whole pages at their home: faults nothing, yields nothing."""
    for _ in proc.access(seg, writes=((first_page * PAGE, (last_page + 1) * PAGE),)):
        raise AssertionError("a write at the home process must not block")


class TestBatch:
    def test_len_is_the_notice_count_charged_on_the_wire(self):
        rt, seg = _system()
        master = rt.master
        assert len(master.close_interval()) == 0  # nothing written
        _write(master, seg, 0, 2)
        batch = master.close_interval()
        assert len(batch) == 3 and len(batch.intervals) == 1
        assert _notices(batch) == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]
        assert master.notice_wire_bytes(len(batch)) \
            == 3 * rt.cfg.dsm.write_notice_bytes
        merged = NoticeBatch(batch.intervals + [_interval(1, 1, [4, 5])])
        assert len(merged) == 5 and len(_notices(merged)) == 5
        assert not NoticeBatch() and len(NoticeBatch()) == 0

    def test_sync_notices_returns_what_the_master_has_not_been_told(self):
        rt, seg = _system()
        master = rt.master
        _write(master, seg, 0, 0)
        master.close_interval()  # e.g. a lock release
        _write(master, seg, 1, 2)
        told = master.sync_notices()
        assert [(iv.seq, iv.runs) for iv in told.intervals] \
            == [(1, (range(0, 1),)), (2, (range(1, 3),))]
        assert len(told) == 3
        assert len(master.sync_notices()) == 0


class TestIngestion:
    def test_duplicate_and_out_of_order_delivery_applies_once(self):
        """A lock grant overlapping a barrier broadcast re-delivers
        intervals and delivers later ones first."""
        rt, seg = _system()
        me = rt.procs[2]
        iv1, iv2, iv3 = (_interval(1, 1, [0, 1]), _interval(1, 2, [1, 2]),
                         _interval(1, 3, [2]))
        sender = VectorClock([0, 3, 0])
        me.apply_notices(NoticeBatch([iv3]), sender)  # lock grant, ahead
        assert me.lrc.table.pending_of(2) == {1: 3}
        me.apply_notices(NoticeBatch([iv1, iv2, iv3]), sender)  # broadcast
        me.apply_notices(NoticeBatch([iv2, iv1]), sender)  # stale grant
        assert me.lrc.known[1] == [iv1, iv2, iv3]
        assert [me.lrc.table.pending_of(p) for p in range(4)] \
            == [{1: 1}, {1: 2}, {1: 3}, {}]  # iv2 did not lower page 2
        assert me.lrc.table.npending[:4] == [1, 1, 1, 0]
        assert list(me.lrc.vc.entries) == [0, 3, 0]
        # a second writer on the same page is a second pending cell
        me.apply_notices(NoticeBatch([_interval(0, 1, [1])]), VectorClock([1, 3, 0]))
        assert me.lrc.table.pending_of(1) == {0: 1, 1: 2}
        assert me.lrc.table.npending[1] == 2
        assert all(me.lrc.table.mode[p] == MODE_NONE and not me.lrc.readable(p)
                   for p in _mapped(me.lrc.table))

    def test_a_newer_notice_on_a_page_pending_from_its_writer(self):
        """The fast exit: one seq store and the mode store.  A page written
        in an interval that a lock grant invalidated is left READ by the
        interval's close, pending all the same."""
        rt, seg = _system()
        me = rt.procs[2]
        me.apply_notices(NoticeBatch([_interval(1, 1, [0, 1])]), VectorClock([0, 1, 0]))
        me.lrc.table.mode[0] = MODE_READ
        me.apply_notices(NoticeBatch([_interval(1, 2, [0])]), VectorClock([0, 2, 0]))
        assert me.lrc.table.pending_of(0) == {1: 2} and me.lrc.table.pending_of(1) == {1: 1}
        assert me.lrc.table.npending[:2] == [1, 1]
        assert me.lrc.table.mode[0] == MODE_NONE

    def test_own_and_covered_intervals_do_not_invalidate(self):
        rt, seg = _system()
        me = rt.procs[2]
        me.lrc.table.map(0, valid=True)
        me.lrc.table.advance(0, 1, 2)  # our copy already has P1's seq 2
        me.apply_notices(
            NoticeBatch([_interval(1, 2, [0]), _interval(2, 1, [0])]),
            VectorClock([0, 2, 1]),
        )
        assert me.lrc.readable(0)
        assert set(me.lrc.known) == {1, 2}  # both still indexed for forwarding

    def test_single_writer_notice_moves_ownership_or_demotes(self):
        rt, seg = _system(protocol=Protocol.SINGLE_WRITER)
        me = rt.procs[2]
        me.apply_notices(NoticeBatch([_interval(1, 1, [3])]), VectorClock([0, 1, 0]))
        assert me.lrc.owner_of(3) == 1 and me.lrc.table.owner[3] == 1
        assert me.lrc.table.protocol[3] == SW
        # we wrote page 4 in an interval the other writer had not seen
        me.lrc.table.map(4, valid=True)
        me.lrc.table.owner[4] = 2
        me.lrc.table.advance(4, 2, 1)
        me.apply_notices(NoticeBatch([_interval(1, 2, [4])]), VectorClock([0, 2, 0]))
        assert me.lrc.table.protocol[4] == MW
        assert me.lrc.table.owner[4] == 2

    def test_notices_unknown_to_cuts_each_writer_at_its_floor(self):
        rt, seg = _system()
        me = rt.procs[0]
        p1 = [_interval(1, s, [s, s + 1]) for s in (1, 2, 3)]
        p2 = [_interval(2, s, [0]) for s in (1, 2)]
        me.apply_notices(NoticeBatch(p1 + p2), VectorClock([0, 3, 2]))
        out = me.notices_unknown_to(VectorClock([0, 1, 2]))
        assert out.intervals == p1[1:] and len(out) == 4
        assert me.notices_unknown_to(VectorClock([9, 3, 2])).intervals == []
        assert me.notices_unknown_to(VectorClock([0, 0, 0])).intervals == p1 + p2
        # a clock narrower than the writer's pid knows nothing of it
        assert me.notices_unknown_to(VectorClock([0, 3])).intervals == p2


class TestResets:
    def test_gc_then_adapt_reset_across_a_team_width_change(self):
        rt, seg = _system()
        me = rt.procs[1]
        me.lrc.table.map(0, valid=True)
        me.lrc.table.map(1, valid=True)
        me.apply_notices(NoticeBatch([_interval(2, 1, [0, 5])]), VectorClock([0, 0, 1]))
        me.lrc.table.advance(1, 0, 4)
        # as gc_flush leaves it: runs stored in order, the last one wins
        me.lrc._gc_pending_owners = [(range(3, 6), 2), (range(4, 5), 0), (range(0, 1), 2)]
        me.gc_reset()
        assert me.lrc.epoch == 1 and me.lrc.known == {} and me.lrc._gc_pending_owners == []
        assert [(p, me.lrc.table.valid[p], me.lrc.table.owner[p]) for p in _mapped(me.lrc.table)] \
            == [(0, False, 2), (1, True, 0), (5, False, 2)]
        assert me.lrc.table.owner == [2, 0, 0, 2, 0, 2]  # unmapped page 3 too
        assert me.lrc.table.applied == {} and me.lrc.table.pending == {}
        assert me.lrc.table.npending == [0] * 6
        # pid 1 leaves: the team shrinks to two, old pid 2 becomes pid 1
        rt.team.set_mapping({0: 0, 1: 2})
        me.adapt_reset(1, {0: 0, 2: 1})
        assert me.pid == 1 and me.lrc.vc.width == 2
        assert me.lrc.table.owner == [1, 0, 0, 1, 0, 1]
        assert [me.lrc.table.owner[p] for p in _mapped(me.lrc.table)] == [1, 0, 1]
        # the next epoch's notices carry the narrower clocks
        me.apply_notices(NoticeBatch([_interval(0, 1, [1], width=2)]),
                         VectorClock([1, 0]))
        assert me.lrc.table.pending_of(1) == {0: 1}

    def test_gc_flush_fetches_what_we_will_own_in_page_order(self, monkeypatch):
        """Pid 1 wins two separate spans of pages, each with a diff
        pending from pid 2, whose later interval wins page 9 back: the
        flush fetches pages 3 and 8, in that order, and not page 9."""
        rt, seg = _system(npages=12)
        me = rt.procs[1]
        for page in (2, 3, 8, 9):
            me.lrc.table.map(page, valid=True)
        theirs = [IntervalNotice(2, 1, VectorClock([0, 0, 1]), page_spans([3, 8, 9])),
                  IntervalNotice(2, 2, VectorClock([0, 1, 2]), page_spans([9]))]
        mine = IntervalNotice(1, 1, VectorClock([0, 1, 1]), page_spans([2, 3, 8, 9]))
        me.apply_notices(NoticeBatch(theirs + [mine]), VectorClock([0, 1, 2]))
        fetched = []

        def fetch(page):
            fetched.append(page)
            yield from ()

        monkeypatch.setattr(me, "_fetch_pending", fetch)
        for _ in me.gc_flush():
            raise AssertionError("the stub fetch never blocks")
        assert fetched == [3, 8]
        me.gc_reset()
        assert me.lrc.table.owner[:10] == [0, 0, 1, 1, 0, 0, 0, 0, 1, 2]

    def test_gc_flush_refuses_a_page_we_never_wrote(self):
        rt, seg = _system()
        me = rt.procs[1]
        # our own notice for page 5, which we never touched (not valid here)
        me.apply_notices(NoticeBatch([_interval(1, 1, [5])]), VectorClock([0, 1, 0]))
        with pytest.raises(ProtocolError, match="owner of page 5 we never wrote"):
            for _ in me.gc_flush():
                pass

    def test_mapped_page_count_drives_the_migration_image(self):
        rt, seg = _system()
        me = rt.procs[1]
        overhead = rt.cfg.migration.image_overhead_bytes
        assert me.resident_image_bytes() == overhead
        me.apply_notices(NoticeBatch([_interval(0, 1, [0, 1, 2])]),
                         VectorClock([1, 0, 0]))
        assert len(me.lrc.table) == 3
        assert me.resident_image_bytes() == 3 * PAGE + overhead
        me.gc_reset()  # mappings survive a GC
        assert me.resident_image_bytes() == 3 * PAGE + overhead
