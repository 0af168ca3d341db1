"""The consistency core's rules one at a time, on a core alone (no
simulator, no network): what an interval close records, own-notice
reporting, the GC trigger, the GC and adaptation resets and their
preconditions, page installs, and materialized-mode diff encoding.  The
differentials in ``test_deferred_ingestion.py`` compare two cores with
each other; these pin what one core does."""

import numpy as np
import pytest

from repro.dsm import IntervalNotice, NoticeBatch, VectorClock
from repro.dsm.consistency import SLICE_PAGES, ConsistencyCore
from repro.dsm.diffs import apply_diffs_in_order
from repro.dsm.memory import LocalStore
from repro.dsm.page import MODE_READ
from repro.errors import ProtocolError

from .test_deferred_ingestion import _own_write
from .test_page_runs import ME, PAGE, SEG_PAGES, _receiver, _space


def _writable(me, a, b):
    """Map ``[a, b)`` valid here, so writes to it fault nothing."""
    for page in range(a, b):
        me.table.map(page, True)


def _write_and_close(me, a, b):
    _writable(me, a, b)
    assert _own_write(me, a, b) == list(range(a, b))
    return me.close_interval()


def test_a_close_with_nothing_written_records_nothing():
    me = _receiver()
    batch, created = me.close_interval()
    assert not batch and created == 0
    assert list(me.vc.entries) == [0, 0, 0]
    assert len(me.log) == 0 and not me.known


def test_a_close_records_the_interval_and_write_protects_its_pages():
    """Four pages on each side of the segment boundary: the four
    multiple-writer ones get diff runs, the four single-writer ones
    become ours."""
    me = _receiver()
    a, b = SEG_PAGES - 4, SEG_PAGES + 4
    batch, created = _write_and_close(me, a, b)
    [iv] = batch.intervals
    assert (iv.proc, iv.seq, list(iv.runs)) == (ME, 1, [range(a, b)])
    assert list(me.vc.entries) == [0, 0, 1] and list(iv.vc.entries) == [0, 0, 1]
    assert me.known == {ME: [iv]}
    [rec] = me.log.records_for(a, 0, 1)
    assert [run[:2] for run in rec.diff_runs] == [(a, SEG_PAGES)]
    assert created == SEG_PAGES - a
    assert not me.writes
    assert all(me.table.mode[p] == MODE_READ for p in range(a, b))
    assert me.table.applied[ME][a:b] == [1] * (b - a)
    assert me.table.owner[a:b] == [0] * (SEG_PAGES - a) + [ME] * (b - SEG_PAGES)


def test_each_own_interval_is_reported_to_the_master_once():
    me = _receiver()
    _write_and_close(me, 0, 2)
    _write_and_close(me, 2, 4)
    assert [iv.seq for iv in me.unsent_own_notices().intervals] == [1, 2]
    assert not me.unsent_own_notices()
    _write_and_close(me, 0, 1)
    assert [iv.seq for iv in me.unsent_own_notices().intervals] == [3]


def test_a_gc_is_wanted_once_the_epoch_closed_the_interval_limit():
    me = _receiver(gc_interval_limit=2)
    _write_and_close(me, 0, 1)
    assert not me.wants_gc
    me.close_interval()  # nothing written: no interval
    assert not me.wants_gc
    _write_and_close(me, 1, 2)
    assert me.wants_gc
    me.gc_owned_spans()
    me.gc_reset(3)
    assert not me.wants_gc


def test_a_gc_refuses_an_open_write_set():
    me = _receiver()
    _writable(me, 0, 1)
    _own_write(me, 0, 1)
    with pytest.raises(ProtocolError, match="open write set"):
        me.gc_reset(3)


def test_a_gc_refuses_to_make_us_owner_of_a_page_we_never_wrote():
    """A notice in our name for a page we hold no valid copy of."""
    me = _receiver()
    mine = IntervalNotice(ME, 1, VectorClock([0, 0, 1]), (range(5, 6),))
    me.apply_notices(NoticeBatch([mine]), VectorClock([0, 0, 1]))
    with pytest.raises(ProtocolError, match="never wrote"):
        me.gc_owned_spans()


def test_an_adaptation_follows_a_gc_and_renames_every_owner():
    me = _receiver()
    _write_and_close(me, SEG_PAGES, SEG_PAGES + 3)
    with pytest.raises(ProtocolError, match="without a preceding GC"):
        me.adapt_reset(1, 2, {0: 0, ME: 1})
    assert me.gc_owned_spans() == [(SEG_PAGES, SEG_PAGES + 3)]
    me.gc_reset(3)
    assert me.epoch == 1 and list(me.vc.entries) == [0, 0, 0]
    assert me.table.owner[SEG_PAGES:SEG_PAGES + 3] == [ME] * 3
    # pid 1 leaves: old pid 2 becomes pid 1 of two
    me.adapt_reset(1, 2, {0: 0, ME: 1})
    assert me.pid == 1 and list(me.vc.entries) == [0, 0]
    assert me.table.owner[SEG_PAGES - 1:SEG_PAGES + 4] == [0, 1, 1, 1, 0]
    assert me.table.applied == {}
    # the next close is interval 1 of the new pid
    batch, _ = _write_and_close(me, 0, 1)
    assert [(iv.proc, iv.seq) for iv in batch.intervals] == [(1, 1)]


def test_an_installed_page_is_readable_once_it_covers_every_pending_writer():
    me = _receiver()
    me.apply_notices(NoticeBatch([
        IntervalNotice(0, 1, VectorClock([1, 0, 0]), (range(3, 4),)),
        IntervalNotice(1, 2, VectorClock([0, 2, 0]), (range(3, 4),)),
    ]), VectorClock([1, 2, 0]))
    assert me.table.pending_of(3) == {0: 1, 1: 2} and not me.readable(3)
    me.install_page(3, None, {1: 2})
    assert me.table.pending_of(3) == {0: 1} and not me.readable(3)
    me.install_page(3, None, {0: 1, 1: 2})
    assert me.table.pending_of(3) == {} and me.readable(3)
    assert me.table.applied_of(3) == {0: 1, 1: 2}


def test_a_long_notice_run_maps_its_first_touched_pages_as_map_page_does():
    """Notice runs of ``SLICE_PAGES`` pages or more map their unmapped
    pages by slices: one run over unmapped pages, some of them ours (a
    first-touch copy is valid iff we own the page), and one that starts
    on mapped pages and runs into unmapped ones.  Both leave the mapping
    exactly as one ``map_page`` per page does."""
    mw_run = range(40, 40 + SLICE_PAGES + 4)
    sw_run = range(SEG_PAGES + 10, SEG_PAGES + 10 + SLICE_PAGES + 6)
    ours = [*range(44, 50), SEG_PAGES + 12, SEG_PAGES + 20]
    premapped = range(SEG_PAGES + 10, SEG_PAGES + 16)
    cores = []
    for _ in range(2):
        me = _receiver()
        for page in ours:
            me.table.owner[page] = ME
        for page in premapped:
            me.map_page(page)
        cores.append(me)
    by_run, by_page = cores
    vc = VectorClock([0, 1, 0])
    by_run.apply_notices(NoticeBatch([IntervalNotice(1, 1, vc, (mw_run, sw_run))]), vc)
    for page in [*mw_run, *sw_run]:
        if not by_page.table.mapped[page]:
            by_page.map_page(page)
    got, want = by_run.table, by_page.table
    assert got.pending[1][mw_run.start:mw_run.stop] == [1] * len(mw_run)
    assert got.pending[1][sw_run.start:sw_run.stop] == [1] * len(sw_run)
    assert got.n_mapped == want.n_mapped == len(mw_run) + len(sw_run)
    assert got.mapped == want.mapped
    assert got.valid == want.valid
    assert sum(got.valid) == len(ours)


def test_a_materialized_close_encodes_the_changed_bytes_of_its_twinned_pages():
    """A multiple-writer page is twinned at its first write and encoded
    at the close; a single-writer page written in the same interval is
    not (its readers fetch the whole page)."""
    space = _space()
    store = LocalStore(space)
    me = ConsistencyCore(space, ME, 3, gc_interval_limit=4096, store=store)
    mw, sw = 0, SEG_PAGES
    for page in (mw, sw):
        me.table.map(page, True)
        store.page_view(page)[:] = 5
        me.prepare_write(page, True)
        me.writes.add(page, page + 1, [(100, 108)])
    store.page_view(mw)[100:104] = 7  # bytes 104-107 rewritten unchanged
    store.page_view(sw)[100:108] = 7
    batch, created = me.close_interval()
    assert created == 1
    [rec] = me.log.records_for(mw, 0, 1)
    assert set(rec.diffs) == {mw}
    diff = rec.diffs[mw]
    assert diff.runs == 1 and diff.dirty_bytes == 4
    copy = np.full(PAGE, 5, dtype=np.uint8)
    apply_diffs_in_order([diff], copy)
    assert np.array_equal(copy, store.page_view(mw))
