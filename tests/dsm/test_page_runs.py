"""Page runs (:mod:`repro.dsm.runs`) against the per-page rules they
replaced: notice ingestion, the open write set, and what an interval
costs in memory."""

import tracemalloc
from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.dsm import (AddressSpace, IntervalLog, IntervalNotice, IntervalRecord, NoticeBatch,
                       Protocol, VectorClock)
from repro.dsm.consistency import SLICE_PAGES, ConsistencyCore
from repro.dsm.page import MODE_NONE, MW
from repro.dsm.ranges import merge, normalize
from repro.dsm.runs import expand, page_count, page_spans

from ..helpers import build_system

PAGE = 4096
#: Pages per segment; the address space holds a multiple-writer segment
#: followed by a single-writer one, so a run may straddle both.
SEG_PAGES = 320
TOTAL = 2 * SEG_PAGES
ME = 2


def _space():
    space = AddressSpace(PAGE)
    space.alloc("mw", nbytes=PAGE * SEG_PAGES, protocol=Protocol.MULTIPLE_WRITER)
    space.alloc("sw", nbytes=PAGE * SEG_PAGES, protocol=Protocol.SINGLE_WRITER)
    return space


def _receiver(gc_interval_limit=4096):
    """The bare consistency core of process ``ME`` in a team of three, in
    traced mode: no simulator, no network."""
    return ConsistencyCore(_space(), ME, 3, gc_interval_limit=gc_interval_limit)


def per_page_apply(me, notices, sender_vc):
    """The per-page ingestion loop that ``apply_notices`` replaced: one
    pass over every (interval, page) notice, kept here as the oracle."""
    known, table = me.known, me.table
    own_applied = table.applied.get(me.pid)
    written = set(expand(me.writes.runs))
    for iv in notices.intervals:
        proc, seq = iv.proc, iv.seq
        bucket = known.setdefault(proc, [])
        seqs = [known_iv.seq for known_iv in bucket]
        k = bisect_left(seqs, seq)
        if k < len(seqs) and seqs[k] == seq:
            continue
        bucket.insert(k, iv)
        if proc == me.pid:
            continue
        applied = table.applied.get(proc)
        pend = table.column(table.pending, proc)
        for page in (p for pages in iv.runs for p in pages):
            if not table.mapped[page]:
                me.map_page(page)
            if table.protocol[page] == MW:
                if applied is not None and applied[page] >= seq:
                    continue
            elif applied is None or applied[page] < seq:
                own_seq = own_applied[page] if own_applied is not None else 0
                if (own_seq > 0 and iv.vc.entries[me.pid] < own_seq) or page in written:
                    table.protocol[page] = MW
                else:
                    table.owner[page] = proc
            else:
                table.owner[page] = proc
                continue
            prev = pend[page]
            if prev < seq:
                if not prev:
                    table.npending[page] += 1
                pend[page] = seq
            table.mode[page] = MODE_NONE
    me.vc.merge(sender_vc)


def state(me):
    """Every column, the index and clock."""
    t = me.table
    return (
        bytes(t.mapped), bytes(t.valid), bytes(t.mode), bytes(t.protocol),
        t.n_mapped, list(t.owner), list(t.npending),
        [(w, list(col)) for w, col in t.applied.items()],
        [(w, list(col)) for w, col in t.pending.items()],
        [(w, [(iv.seq, id(iv)) for iv in bucket]) for w, bucket in me.known.items()],
        list(me.vc.entries),
    )


def assert_pending_above_applied(me):
    """The invariant ``apply_notices``' fast exit relies on: every
    non-zero ``pending[w][p]`` is mapped and greater than ``applied[w][p]``."""
    t = me.table
    for w, pend in t.pending.items():
        applied = t.applied.get(w, [0] * len(pend))
        for page, seq in enumerate(pend):
            assert not seq or (t.mapped[page] and seq > applied[page]), (w, page)


def _spans_in(lo, hi):
    return st.tuples(st.integers(lo, hi - 1), st.integers(1, 300)).map(
        lambda s: (s[0], min(hi, s[0] + s[1])))


#: Page spans of 1-300 pages: inside one segment (one protocol), or anywhere.
_span = st.one_of(_spans_in(0, SEG_PAGES), _spans_in(SEG_PAGES, TOTAL),
                  _spans_in(0, TOTAL))


@st.composite
def receiver_state(draw):
    """First touches, applied cells (our own included: the demotion rule
    reads them) and an open write set, to lay down before ingestion."""
    return (
        draw(st.lists(st.tuples(_span, st.sampled_from([0, 1, ME]), st.booleans()),
                      max_size=4)),
        draw(st.lists(st.tuples(st.sampled_from([0, 1, ME]), _span, st.integers(1, 5)),
                      max_size=4)),
        draw(st.lists(_span, max_size=2)),
    )


@st.composite
def deliveries(draw):
    """Batches drawn, with repeats and out of order, from each writer's
    intervals; each interval names one to three runs of 1-300 pages."""
    pool = []
    for proc in (0, 1, ME):
        for seq in range(1, draw(st.integers(0, 4)) + 1):
            pages = {p for a, b in draw(st.lists(_span, min_size=1, max_size=3))
                     for p in range(a, b)}
            vc = [draw(st.integers(0, 5)) for _ in range(3)]
            vc[proc] = seq
            pool.append(IntervalNotice(proc, seq, VectorClock(vc), page_spans(pages)))
    if not pool:
        return []
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=6),
                         min_size=1, max_size=4))


def _lay_down(me, setup):
    touches, applied, writes = setup
    for (a, b), owner, valid in touches:
        for page in range(a, b):
            if not me.table.mapped[page]:
                me.table.map(page, valid)
                me.table.owner[page] = owner
    for writer, (a, b), seq in applied:
        for page in range(a, b):
            me.table.advance(page, writer, seq)
    for a, b in writes:
        me.writes.write(a, b, [(0, PAGE)])


@settings(max_examples=60, deadline=None)
@given(receiver_state(), deliveries())
def test_ingestion_matches_the_per_page_loop(setup, batches):
    runs, pages = _receiver(), _receiver()
    _lay_down(runs, setup)
    _lay_down(pages, setup)
    assert state(runs) == state(pages)
    for ivs in batches:
        sender = VectorClock([max([iv.vc.entries[w] for iv in ivs], default=0)
                              for w in range(3)])
        runs.apply_notices(NoticeBatch(ivs), sender)
        per_page_apply(pages, NoticeBatch(ivs), sender)
        assert state(runs) == state(pages)
        assert_pending_above_applied(runs)


def test_a_long_fresh_run_is_ingested_by_slices(monkeypatch):
    """The differential test covers both arms; this one shows the slice
    arm is the one a long run of like pages takes."""
    taken = []
    slices = ConsistencyCore._ingest_run

    def spy(self, iv, pages, applied, pend):
        taken.append((pages, slices(self, iv, pages, applied, pend)))
        return taken[-1][1]

    monkeypatch.setattr(ConsistencyCore, "_ingest_run", spy)
    me = _receiver()
    run = range(10, 10 + 2 * SLICE_PAGES)
    me.apply_notices(NoticeBatch([IntervalNotice(1, 1, VectorClock([0, 1, 0]), (run,))]),
                     VectorClock([0, 1, 0]))
    assert taken == []  # deferred until the page table is read
    table = me.table
    assert taken == [(run, True)]
    assert table.pending_of(10) == {1: 1} and table.npending[run.stop - 1] == 1


#: The writer whose run :func:`mixed_cells` ingests.
WRITER = 1


@st.composite
def mixed_cells(draw, lo, hi):
    """A run of at least ``SLICE_PAGES`` pages inside ``[lo, hi)``, the
    writer's interval seq, and per page whether it is mapped (and valid),
    the writer's pending cell, another writer's pending cell and the
    writer's applied cell.  The writer's pending cells are all older than
    the interval and mix 0 with non-zero seqs."""
    n = draw(st.integers(SLICE_PAGES, 60))
    start = draw(st.integers(lo, hi - n))
    seq = draw(st.integers(2, 6))
    older = st.integers(0, seq - 1)
    cells = draw(st.lists(st.tuples(st.booleans(), st.booleans(), older,
                                     st.integers(0, 3), older),
                          min_size=n, max_size=n))
    zero = draw(st.integers(0, n - 1))
    busy = (zero + draw(st.integers(1, n - 1))) % n
    cells[zero] = cells[zero][:2] + (0,) + cells[zero][3:]
    cells[busy] = cells[busy][:2] + (draw(st.integers(1, seq - 1)),) + cells[busy][3:]
    return range(start, start + n), seq, cells


def _lay_cells(me, run, cells):
    table = me.table
    for page, (mapped, valid, pend, other, applied) in zip(run, cells):
        if mapped:
            table.map(page, valid)
        if pend:
            table.add_pending(page, WRITER, pend)
        if other:
            table.add_pending(page, 0, other)
        table.advance(page, WRITER, applied)


def _ingest(me, run, seq):
    """``_ingest_run`` of the writer's interval ``seq`` naming ``run``."""
    vc = [0] * 3
    vc[WRITER] = seq
    iv = IntervalNotice(WRITER, seq, VectorClock(vc), (run,))
    table = me.table
    return me._ingest_run(iv, run, table.applied.get(WRITER),
                          table.column(table.pending, WRITER))


@settings(max_examples=60, deadline=None)
@given(mixed_cells(0, SEG_PAGES))
def test_mixed_pending_cells_on_multiple_writer_pages_take_the_slices(drawn):
    """A multiple-writer run whose writer's pending cells mix 0 and older
    seqs is ingested by slices, leaving what ``PageTable.add_pending``
    leaves page by page (npending rises only where the cell was 0)."""
    run, seq, cells = drawn
    runs, pages = _receiver(), _receiver()
    _lay_cells(runs, run, cells)
    _lay_cells(pages, run, cells)
    assert _ingest(runs, run, seq) is True
    for page in run:
        if not pages.table.mapped[page]:
            pages.map_page(page)
        assert pages.table.add_pending(page, WRITER, seq)
    assert state(runs) == state(pages)


@settings(max_examples=30, deadline=None)
@given(mixed_cells(SEG_PAGES, TOTAL))
def test_mixed_pending_cells_on_single_writer_pages_fall_back(drawn):
    """A single-writer run the writer takes ownership of still needs one
    older seq over the whole run: with mixed cells it falls back, having
    stored nothing but its first-touch mappings."""
    run, seq, cells = drawn
    runs, pages = _receiver(), _receiver()
    _lay_cells(runs, run, cells)
    _lay_cells(pages, run, cells)
    assert _ingest(runs, run, seq) is False
    for page in run:
        if not pages.table.mapped[page]:
            pages.map_page(page)
    assert state(runs) == state(pages)


def _bytes(first, extra, partial, lo_off, hi_off):
    """Whole pages ``first .. first + extra``, or (``partial``) the span
    from ``lo_off`` into the first to ``hi_off`` into the last, clipped to
    the 40-page segment and never empty."""
    lo = first * PAGE + (lo_off if partial else 0)
    hi = (first + extra) * PAGE + (hi_off if partial else PAGE)
    return lo, min(max(hi, lo + 1), 40 * PAGE)


_byte_range = st.builds(_bytes, st.integers(0, 39), st.integers(0, 5), st.booleans(),
                        st.integers(1, PAGE - 1), st.integers(1, PAGE - 1))


def per_page_write_set(accesses):
    """The open write set as the per-page ``{page: ranges}`` map: each
    access's page-local ranges, merged page by page into earlier ones."""
    current = {}
    for _, writes in accesses:
        local = {}
        for lo, hi in writes:
            for page in range(lo // PAGE, (hi - 1) // PAGE + 1):
                base = page * PAGE
                local.setdefault(page, []).append(
                    (max(lo, base) - base, min(hi, base + PAGE) - base))
        for page, ranges in local.items():
            ranges = normalize(ranges)
            prev = current.get(page)
            current[page] = merge(prev, ranges) if prev else ranges
    return current


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.lists(_byte_range, max_size=2),
                          st.lists(_byte_range, max_size=3)),
                min_size=1, max_size=8))
def test_closed_write_set_expands_to_the_per_page_map(accesses):
    accesses = [(tuple(reads), tuple(writes)) for reads, writes in accesses]
    sim, rt, pool = build_system(nprocs=2, materialized=False)
    seg = rt.malloc("seg", nbytes=40 * PAGE, protocol=Protocol.MULTIPLE_WRITER)
    me = rt.master  # the home: no access faults, none yields
    expected = per_page_write_set(accesses)
    for _ in range(2):  # the second interval repeats the first
        for reads, writes in accesses:
            for _ in me.access(seg, reads=reads, writes=writes):
                raise AssertionError("an access at the home must not block")
        batch = me.close_interval()
        if not expected:
            assert len(batch) == 0 and len(me.lrc.log) == 0
            continue
        [notice] = batch.intervals
        [rec] = me.lrc.log.records_for(notice.runs[0].start, notice.seq - 1, notice.seq)
        assert expand(rec.runs) == {seg.page0 + p: r for p, r in expected.items()}
        assert list(expand(rec.runs)) == sorted(seg.page0 + p for p in expected)
        assert len(batch) == page_count(rec.runs) == len(expected)
        assert notice.runs is rec.spans
        assert all(a.stop < b.start for a, b in zip(notice.runs, notice.runs[1:]))
        assert [p for iv in batch.intervals for pages in iv.runs for p in pages] \
            == list(expand(rec.runs))


def test_log_lookup_merges_alternating_write_sets():
    """Jacobi's two grids: intervals alternate between two page sets that
    overlap on one page; a lookup there interleaves both sets by seq, and
    an interval repeating its set's pages shares that set's tuples."""
    log = IntervalLog(0)
    recs = []
    for seq in range(1, 9):
        vc = VectorClock([seq, 0])
        first = 10 if seq % 2 else 14
        recs.append(IntervalRecord(proc=0, seq=seq, vc=vc,
                                   runs=((first, first + 5, [(0, PAGE)]),)))
        log.add(recs[-1])
    assert log.records_for(14, 0, 8) == recs
    assert log.records_for(14, 2, 6) == recs[2:6]
    assert log.records_for(11, 0, 8) == recs[0::2]
    assert log.records_for(18, 3, 8) == recs[3::2]
    assert log.records_for(19, 0, 8) == [] and len(log) == 8
    assert recs[2].runs is recs[0].runs and recs[2].spans is recs[0].spans
    assert recs[3].spans is recs[1].spans and recs[3].spans is not recs[0].spans


def test_interval_memory_grows_with_runs_not_pages():
    """1 000 contiguous whole pages per interval: the record, the log
    entry and the notice together stay under 4 KB (one Python object per
    page would be tens of KB)."""
    sim, rt, pool = build_system(nprocs=2, materialized=False)
    seg = rt.malloc("big", nbytes=1100 * PAGE, protocol=Protocol.MULTIPLE_WRITER)
    me = rt.master

    def write(first):
        for _ in me.access(seg, writes=((first * PAGE, (first + 1000) * PAGE),)):
            raise AssertionError("an access at the home must not block")

    write(0)
    me.close_interval()  # first use allocates our applied column
    kept, grown = [], 0
    tracemalloc.start()
    try:
        for first in range(1, 11):  # new pages each time: nothing shared
            write(first)
            before = tracemalloc.get_traced_memory()[0]
            kept.append(me.close_interval())
            grown += tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [len(batch) for batch in kept] == [1000] * 10
    assert len(me.lrc.log) == 11
    assert grown / len(kept) < 4096, grown
