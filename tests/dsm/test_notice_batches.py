"""Interval-granular write notices and the dense page columns, at the
``DsmProcess`` level: batches are built by hand and fed to one process's
entry points, no simulated time passes."""

from repro.dsm import IntervalNotice, NoticeBatch, Protocol, VectorClock
from repro.dsm.page import AccessMode

from ..helpers import build_system

PAGE = 4096


def _system(nprocs=3, npages=6, protocol=Protocol.MULTIPLE_WRITER):
    sim, rt, pool = build_system(nprocs=nprocs, materialized=False)
    seg = rt.malloc("seg", nbytes=PAGE * npages, protocol=protocol)
    return rt, seg


def _interval(proc, seq, pages, width=3):
    vc = [0] * width
    vc[proc] = seq
    return IntervalNotice(proc, seq, VectorClock(vc), tuple(pages))


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
        assert [(n.proc, n.seq, n.page) for n in batch] == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]
        assert master.notice_wire_bytes(len(batch)) \
            == 3 * rt.cfg.dsm.write_notice_bytes
        merged = NoticeBatch(batch.intervals + [_interval(1, 1, [4, 5])])
        assert len(merged) == 5 and len(list(merged)) == 5
        assert not NoticeBatch() and len(NoticeBatch()) == 0

    def test_sync_notices_returns_what_the_master_has_not_been_told(self):
        rt, seg = _system()
        master = rt.master
        _write(master, seg, 0, 0)
        master.close_interval()  # e.g. a lock release
        _write(master, seg, 1, 2)
        told = master.sync_notices()
        assert [(iv.seq, iv.pages) for iv in told.intervals] == [(1, (0,)), (2, (1, 2))]
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
        assert me.table.pending_of(2) == {1: 3}
        me.apply_notices(NoticeBatch([iv1, iv2, iv3]), sender)  # broadcast
        me.apply_notices(NoticeBatch([iv2, iv1]), sender)  # stale grant
        seqs, bucket = me._known[1]
        assert seqs == [1, 2, 3] and bucket == [iv1, iv2, iv3]
        assert [me.table.pending_of(p) for p in range(4)] \
            == [{1: 1}, {1: 2}, {1: 3}, {}]  # iv2 did not lower page 2
        assert me.table.npending[:4] == [1, 1, 1, 0]
        assert list(me.vc.entries) == [0, 3, 0]
        # a second writer on the same page is a second pending cell
        me.apply_notices(NoticeBatch([_interval(0, 1, [1])]), VectorClock([1, 3, 0]))
        assert me.table.pending_of(1) == {0: 1, 1: 2}
        assert me.table.npending[1] == 2
        assert all(p.mode is AccessMode.NONE and not p.readable for p in me.table)

    def test_own_and_covered_intervals_do_not_invalidate(self):
        rt, seg = _system()
        me = rt.procs[2]
        me.table.map(0, owner=0, valid=True)
        me.table.advance(0, 1, 2)  # our copy already has P1's seq 2
        me.apply_notices(
            NoticeBatch([_interval(1, 2, [0]), _interval(2, 1, [0])]),
            VectorClock([0, 2, 1]),
        )
        assert me.table.entry(0).readable
        assert set(me._known) == {1, 2}  # both still indexed for forwarding

    def test_single_writer_notice_moves_ownership_or_demotes(self):
        rt, seg = _system(protocol=Protocol.SINGLE_WRITER)
        me = rt.procs[2]
        me.apply_notices(NoticeBatch([_interval(1, 1, [3])]), VectorClock([0, 1, 0]))
        assert me.owner_of(3) == 1 and me.table.entry(3).owner == 1
        assert me.table.entry(3).protocol is Protocol.SINGLE_WRITER
        # we wrote page 4 in an interval the other writer had not seen
        me.table.map(4, owner=2, valid=True)
        me.table.advance(4, 2, 1)
        me.apply_notices(NoticeBatch([_interval(1, 2, [4])]), VectorClock([0, 2, 0]))
        assert me.table.entry(4).protocol is Protocol.MULTIPLE_WRITER
        assert me.table.entry(4).owner == 2

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
        me.table.map(0, owner=0, valid=True)
        me.table.map(1, owner=0, valid=True)
        me.apply_notices(NoticeBatch([_interval(2, 1, [0, 5])]), VectorClock([0, 0, 1]))
        me.table.advance(1, 0, 4)
        me._gc_pending_owners = {0: 2, 5: 2, 3: 2}  # as gc_flush leaves it
        me.gc_reset()
        assert me.epoch == 1 and me._known == {} and me._gc_pending_owners == {}
        assert [(p.page, p.valid, p.owner) for p in me.table] \
            == [(0, False, 2), (1, True, 0), (5, False, 2)]
        assert me.owners == {0: 2, 5: 2, 3: 2}  # unmapped page 3 too
        assert me.table.applied == {} and me.table.pending == {}
        assert me.table.npending == [0] * 6
        # pid 1 leaves: the team shrinks to two, old pid 2 becomes pid 1
        rt.team.set_mapping({0: 0, 1: 2})
        me.adapt_reset(1, {0: 0, 2: 1})
        assert me.pid == 1 and me.vc.width == 2
        assert me.owners == {0: 1, 5: 1, 3: 1}
        assert [p.owner for p in me.table] == [1, 0, 1]
        # the next epoch's notices carry the narrower clocks
        me.apply_notices(NoticeBatch([_interval(0, 1, [1], width=2)]),
                         VectorClock([1, 0]))
        assert me.table.pending_of(1) == {0: 1}

    def test_mapped_page_count_drives_the_migration_image(self):
        rt, seg = _system()
        me = rt.procs[1]
        overhead = rt.cfg.migration.image_overhead_bytes
        assert me.resident_image_bytes() == overhead
        me.apply_notices(NoticeBatch([_interval(0, 1, [0, 1, 2])]),
                         VectorClock([1, 0, 0]))
        assert len(me.table) == 3
        assert me.resident_image_bytes() == 3 * PAGE + overhead
        me.gc_reset()  # mappings survive a GC
        assert me.resident_image_bytes() == 3 * PAGE + overhead
