"""The lazy-release-consistency core of one process (``docs/PROTOCOL.md``
§1, "State per process"): vector clock, interval log, the intervals known
this epoch, page table, and the open interval's write set and twins, with
the rules that change them — deferred notice ingestion, interval closes,
the state half of write faults and page installs, the GC and adaptation
resets.  No simulator and no network: :class:`~repro.dsm.process.DsmProcess`
holds one and does the messaging, timing, statistics and telemetry.  Only
this module touches the raw state behind the settling reads (``_table``,
``_buckets``, ``_deferred``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ProtocolError
from . import diffs
from .gc import gc_new_owners
from .intervals import IntervalLog, IntervalNotice, IntervalRecord, NoticeBatch
from .memory import AddressSpace, LocalStore
from .page import MODE_NONE, MODE_READ, MODE_WRITE, MW, SW, PageTable
from .runs import Run, WriteSet, page_count, run_at
from .team import TeamView
from .vectorclock import VectorClock

_seq = attrgetter("seq")

#: Shortest page run that notice ingestion and the access fast path
#: handle with slice loads and stores; shorter runs take the per-page
#: body of the same loop.  A slice run costs ≈ 1.5 µs of set-up against
#: ≈ 0.1 µs per page in the loop; this is the measured break-even of
#: multiple-writer ingestion and of reads (docs/PROTOCOL.md §6, "Page
#: runs" table).
SLICE_PAGES = 12


class ConsistencyCore:
    """One process's LRC state and the rules that change it.

    ``store`` is the process's materialized memory (None when traced):
    twins are copied from it and diffs encoded against it.
    """

    def __init__(self, space: AddressSpace, pid: int, nprocs: int,
                 gc_interval_limit: int, store: Optional[LocalStore] = None):
        self.pid = pid
        self.store = store
        self._page_size = space.page_size
        self._gc_interval_limit = gc_interval_limit
        #: The page table as of the last :meth:`settle`; read it through
        #: :attr:`table`.
        self._table = PageTable(space)
        self.vc = VectorClock.zeros(nprocs)
        self.log = IntervalLog(pid)
        self.epoch = 0
        #: Per-writer list of every interval known this epoch, ascending
        #: by seq.  This is both the dedupe structure (membership is one
        #: int compare against the tail, or a bisect on out-of-order
        #: arrival) and the "everything newer than vc[w]" index (a bisect
        #: + slice).  As of the last :meth:`settle`; read it through
        #: :attr:`known`.
        self._buckets: Dict[int, List[IntervalNotice]] = {}
        #: The interval lists of the notice batches received since the
        #: last :meth:`settle`, in arrival order (the batches' own lists).
        self._deferred: List[List[IntervalNotice]] = []
        #: The *open* interval's write set (runs with their dirty ranges).
        self.writes = WriteSet()
        #: ``(start, stop, copy)`` twins (pristine pre-write copies) of the
        #: open interval's multiple-writer pages, one per run of pages
        #: first written together; materialized mode only.
        self._twins: List[Tuple[int, int, np.ndarray]] = []
        #: Owner runs computed by :meth:`gc_owned_spans`
        #: (``gc_new_owners``' order), installed by :meth:`gc_reset`.
        self._gc_pending_owners: List[Tuple[range, int]] = []
        #: Highest own interval seq already reported to the master.
        self._sent_to_master_seq = 0

    # -- settling reads and notice ingestion ---------------------------
    @cached_property
    def table(self) -> PageTable:
        """The page table, every notice received so far ingested.

        Kept in the instance once settled, so reading it is a plain
        attribute load until :meth:`apply_notices` defers the next batch
        and drops it; the access path reads it several times per page."""
        if self._deferred:
            self.settle()
        return self._table

    @property
    def known(self) -> Dict[int, List[IntervalNotice]]:
        """Every interval known this epoch, per writer, ascending by seq,
        every notice received so far ingested."""
        if self._deferred:
            self.settle()
        return self._buckets

    def apply_notices(self, notices: NoticeBatch, sender_vc: VectorClock) -> None:
        """Receive a batch of remote write notices and merge the sender's
        clock.

        Only the clock merge happens now.  The batch's interval list is
        put on the deferred list and ingested — dedupe into the known
        buckets, pages invalidated — by :meth:`settle`, which every read
        of :attr:`table` or :attr:`known` runs first.  So whoever looks
        sees the state the batches would have left on arrival, and a
        process that reads neither — a slave with an empty block, until
        the next garbage collection reads its known intervals — does no
        ingestion work (docs/PROTOCOL.md §6, "Deferred ingestion").
        """
        intervals = notices.intervals
        if intervals:
            self._deferred.append(intervals)
            self.__dict__.pop("table", None)  # the next read settles
        self.vc.merge(sender_vc)

    def settle(self) -> List[int]:
        """Ingest the deferred batches, in arrival order; returns the
        pages this demoted to the multiple-writer protocol.

        Synchronization batches carry hundreds of notices (the master
        re-broadcasts every slave's notices at each barrier), making this
        the engine's hottest loop.  Dedupe and indexing happen once per
        *interval*: each writer's bucket is ascending by seq and batches
        arrive per-writer in that order, so freshness is one int compare
        against the bucket tail (bisect on the rare out-of-order or
        duplicate delivery — a lock grant overlapping a barrier
        broadcast).  A fresh interval then costs, per page run it names,
        a few slice loads and stores (:meth:`_ingest_run`), or for a run
        shorter than :data:`SLICE_PAGES` or one whose pages need
        different treatment, a few column loads and stores per page
        (``PageTable.add_pending``, inlined).  Most of those pages are
        multiple-writer pages already pending from the same writer: a
        non-zero pending cell is mapped and above its applied cell, so
        such a page takes the newer seq and the mode store and nothing
        else.

        The replay reads only the page table, the open write set, our own
        ``applied`` cells and the intervals' immutable clocks, and all
        code that changes the first three reads :attr:`table` first.
        """
        deferred, self._deferred = self._deferred, []
        demoted: List[int] = []
        known = self._buckets
        my_pid = self.pid
        table = self._table
        mapped = table.mapped
        protocol = table.protocol
        mode = table.mode
        npending = table.npending
        owner = table.owner
        own_applied = table.applied.get(my_pid)
        writes = self.writes
        applied_cols = table.applied
        pending_cols = table.pending
        slice_pages = SLICE_PAGES
        for iv in chain.from_iterable(deferred):
            proc = iv.proc
            seq = iv.seq
            bucket = known.get(proc)
            if bucket is None:
                bucket = known[proc] = [iv]
            elif seq > bucket[-1].seq:
                bucket.append(iv)
            else:
                k = bisect_left(bucket, seq, key=_seq)
                if bucket[k].seq == seq:
                    continue
                bucket.insert(k, iv)
            if proc == my_pid:
                continue
            applied = applied_cols.get(proc)
            pend = pending_cols.get(proc)
            if pend is None:
                pend = table.column(pending_cols, proc)
            for pages in iv.runs:
                if len(pages) >= slice_pages and self._ingest_run(
                        iv, pages, applied, pend):
                    continue
                for page in pages:
                    prev = pend[page]
                    if 0 < prev < seq and protocol[page] == MW:
                        pend[page] = seq
                        mode[page] = MODE_NONE
                        continue
                    if not mapped[page]:
                        self.map_page(page)
                    if protocol[page] == MW:
                        if applied is not None and applied[page] >= seq:
                            continue
                    elif applied is None or applied[page] < seq:
                        # Another process wrote a single-writer page:
                        # possibly demote to the multiple-writer (diff)
                        # protocol, as TreadMarks does when it detects
                        # write sharing.  Page-aligned kernels
                        # (Gauss/FFT/NBF) funnel every notice of every
                        # barrier broadcast through this arm.
                        own_seq = own_applied[page] if own_applied is not None else 0
                        if (
                            own_seq > 0 and iv.vc.entries[my_pid] < own_seq
                        ) or (page < writes.end and writes.contains(page)):
                            protocol[page] = MW
                            demoted.append(page)
                        else:
                            # The latest writer holds the complete page.
                            owner[page] = proc
                    else:
                        owner[page] = proc
                        continue
                    if prev < seq:
                        if not prev:
                            npending[page] += 1
                        pend[page] = seq
                    mode[page] = MODE_NONE
        return demoted

    def _ingest_run(self, iv: IntervalNotice, pages: range,
                    applied: Optional[List[int]], pend: List[int]) -> bool:
        """:meth:`settle`'s per-page body over ``pages`` of ``iv``, as
        slice loads and stores: taken when every page of the run gets the
        same treatment (one protocol, in-order seqs, no demotion).
        Otherwise False, with nothing stored but the run's first-touch
        mappings, which the per-page body skips."""
        start, stop = pages.start, pages.stop
        table = self._table
        table.map_run(start, stop, self.pid)
        seq = iv.seq
        protocol = table.protocol
        fresh = applied is None or max(applied[start:stop]) < seq
        if protocol.find(SW, start, stop) < 0:
            if not fresh:
                return False
            take_ownership = False
        elif protocol.find(MW, start, stop) >= 0:
            return False
        elif fresh:
            # Single-writer pages the sender's interval wrote after ours:
            # the latest writer owns them, unless one of them is written
            # concurrently with us (demotion, per page).
            own_applied = table.applied.get(self.pid)
            if own_applied is not None:
                own_seq = max(own_applied[start:stop])
                if own_seq and iv.vc.entries[self.pid] < own_seq:
                    return False
            if self.writes.overlaps(start, stop):
                return False
            take_ownership = True
        elif min(applied[start:stop]) >= seq:
            # our copy is that write
            table.owner[start:stop] = [iv.proc] * (stop - start)
            return True
        else:
            return False
        # The writer's pending cells must all be older seqs (0: none):
        # one seq over the whole run, or, on multiple-writer pages, any
        # mix.  ``count`` compares small ints by identity.
        n = stop - start
        was = pend[start:stop]
        latest = was[0]
        mixed = was.count(latest) != n
        if mixed:
            if take_ownership or max(was) >= seq:
                return False
        elif latest >= seq:
            return False
        if take_ownership:
            table.owner[start:stop] = [iv.proc] * n
        npending = table.npending
        if mixed:
            # npending rises where the writer had nothing pending
            npending[start:stop] = [
                c + (not w) for c, w in zip(npending[start:stop], was)]
        elif not latest:
            counts = npending[start:stop]
            first = counts[0]
            if counts.count(first) == n:
                npending[start:stop] = [first + 1] * n
            else:
                npending[start:stop] = [c + 1 for c in counts]
        pend[start:stop] = [seq] * n
        table.mode[start:stop] = bytes(n)  # MODE_NONE: next access faults
        return True

    # -- pages ----------------------------------------------------------
    def owner_of(self, page: int) -> int:
        """Current owner pid of ``page`` as known to this process."""
        return self.table.owner[page]

    def map_page(self, page: int) -> None:
        """First touch of ``page``: its copy is valid iff we own it now."""
        self.table.map(page, self.table.owner[page] == self.pid)

    def readable(self, page: int) -> bool:
        """A fault-free read of ``page`` is possible: a valid copy with
        nothing pending.  Maps the page first, so it counts in the
        migration image from now on."""
        table = self.table
        if not table.mapped[page]:
            self.map_page(page)
        return bool(table.valid[page]) and not table.npending[page]

    def prepare_write(self, page: int, first: bool) -> None:
        """Write access to the valid ``page`` in the open interval.
        ``first``: the interval's first write to it, which twins a
        multiple-writer page in materialized mode.  Then we own it if it
        is single-writer, and it is valid in mode WRITE."""
        table = self.table
        multiple_writer = table.protocol[page] == MW
        if first and multiple_writer and self.store is not None:
            self._twins.append((page, page + 1, self.store.page_view(page).copy()))
        if not multiple_writer:
            table.owner[page] = self.pid
        table.valid[page] = 1
        table.mode[page] = MODE_WRITE

    def prepare_run(self, start: int, stop: int) -> None:
        """:meth:`prepare_write` of the first writes to the pages
        ``[start, stop)`` of a fault-free run, as slice loads and stores:
        one twin copy per stretch of multiple-writer pages."""
        table = self.table
        protocol, owner = table.protocol, table.owner
        n = stop - start
        if self.store is not None:
            page = protocol.find(MW, start, stop)
            while page >= 0:
                end = protocol.find(SW, page, stop)
                if end < 0:
                    end = stop
                self._twins.append(
                    (page, end, self.store.pages_view(page, end).copy()))
                page = protocol.find(MW, end, stop)
        pid = self.pid
        if protocol.find(SW, start, stop) >= 0 and owner[start:stop].count(pid) != n:
            for page in range(start, stop):
                if protocol[page] != MW:
                    owner[page] = pid
        table.valid[start:stop] = b"\1" * n
        table.mode[start:stop] = bytes([MODE_WRITE]) * n

    def install_page(self, page: int, data, applied: Dict[int, int]) -> None:
        """Install a fetched full copy of ``page`` (a PAGE_REPLY's content)."""
        if self.store is not None:
            self.store.page_view(page)[:] = data
        table = self.table
        table.valid[page] = 1
        cols = table.applied
        for writer, seq in applied.items():
            col = cols.get(writer)
            if col is None:
                col = table.column(cols, writer)
            if col[page] < seq:
                col[page] = seq
        if table.npending[page]:
            table.prune_pending(page)

    # -- intervals ------------------------------------------------------
    def known_intervals(self) -> Iterator[IntervalNotice]:
        """Every interval known this epoch (any writer, bucket order)."""
        return chain.from_iterable(self.known.values())

    def known_interval(self, writer: int, seq: int) -> IntervalNotice:
        bucket = self.known[writer]
        return bucket[bisect_left(bucket, seq, key=_seq)]

    def notices_unknown_to(self, other_vc: VectorClock) -> NoticeBatch:
        """All epoch notices this process knows that ``other_vc`` does not cover."""
        out: List[IntervalNotice] = []
        known = self.known
        entries = other_vc.entries
        width = other_vc.width
        for proc in sorted(known):
            bucket = known[proc]
            floor = entries[proc] if proc < width else 0
            if bucket[-1].seq > floor:
                out.extend(bucket[bisect_right(bucket, floor, key=_seq):])
        return NoticeBatch(out)

    def close_interval(self) -> Tuple[NoticeBatch, int]:
        """Close the open interval (at a release): its notices, and the
        number of diffs it encoded."""
        if not self.writes.runs:
            return NoticeBatch(), 0
        # Settle while the write set is still open: a deferred notice for
        # a page in it demotes that page.
        table = self.table
        self.vc.tick(self.pid)
        pid = self.pid
        seq = self.vc.entries[pid]
        # One frozen snapshot per interval: its notice AND its diffs all
        # share this clock object (make_diff with vc_is_snapshot=True).
        rec_vc = self.vc.snapshot()
        rec = IntervalRecord(proc=pid, seq=seq, vc=rec_vc, runs=self.writes.take())
        self.log.add(rec)
        runs = rec.runs
        protocol = table.protocol
        # Multiple-writer pages encode their diff now: from the twin, or
        # (traced mode) as the declared, already-normalized ranges, which
        # ARE the diff.  Single-writer pages serve full-page refreshes
        # instead; should one be demoted later (write sharing after an
        # adaptation), its diff is encoded lazily at the first DIFF_REQ
        # from the recorded ranges (``DsmProcess._encode_lazy_diff``).
        encoded = rec.diffs
        store = self.store
        if store is not None:
            twins = sorted(self._twins, key=itemgetter(0))
            page_size = self._page_size
            for start, stop, ranges in runs:
                for page in range(start, stop):
                    if protocol[page] != MW:
                        continue
                    twin = run_at(twins, page)
                    if twin is not None:
                        at = (page - twin[0]) * page_size
                        twin = twin[2][at:at + page_size]
                    # Looked up on the module at each call, so a wrapper
                    # installed there (the benchmark's tracer) sees it.
                    diff = diffs.make_diff(
                        proc=pid,
                        seq=seq,
                        page=page,
                        vc=rec_vc,
                        declared_ranges=ranges,
                        twin=twin,
                        current=store.page_view(page),
                        declared_normalized=True,
                        vc_is_snapshot=True,
                    )
                    if diff is not None:
                        encoded[page] = diff
            self._twins = []
            created = len(encoded)
        else:
            rec.diff_runs = self._multiple_writer_runs(runs)
            created = page_count(rec.diff_runs)
        mode = table.mode
        # seq is a fresh tick, so the applied stores below are pure advances.
        own_applied = table.column(table.applied, pid)
        for pages in rec.spans:
            start, stop = pages.start, pages.stop
            mode[start:stop] = bytes([MODE_READ]) * (stop - start)
            own_applied[start:stop] = [seq] * (stop - start)
        # Index our own interval directly: ``seq`` is a fresh maximum for
        # our bucket, so a plain append keeps it ascending.
        notice = IntervalNotice(pid, seq, rec_vc, rec.spans)
        self._buckets.setdefault(pid, []).append(notice)
        return NoticeBatch((notice,)), created

    def _multiple_writer_runs(self, runs: Tuple[Run, ...]) -> Tuple[Run, ...]:
        """The parts of ``runs`` whose pages are multiple-writer now —
        ``runs`` itself when that is all of them."""
        protocol = self.table.protocol
        lo, hi = runs[0][0], runs[-1][1]
        if protocol.find(SW, lo, hi) < 0:
            return runs
        if protocol.find(MW, lo, hi) < 0:
            return ()
        out: List[Run] = []
        for start, stop, ranges in runs:
            page = protocol.find(MW, start, stop)
            while page >= 0:
                end = protocol.find(SW, page, stop)
                if end < 0:
                    end = stop
                out.append((page, end, ranges))
                page = protocol.find(MW, end, stop)
        return tuple(out)

    def unsent_own_notices(self) -> NoticeBatch:
        """Our own closed intervals the master has not yet been told
        about; from now on it has.

        Reads our own bucket without settling: a deferred batch can only
        repeat own intervals, and :meth:`close_interval` put each of them
        in the bucket when it closed it."""
        bucket = self._buckets.get(self.pid, ())
        out = NoticeBatch(bucket[bisect_right(bucket, self._sent_to_master_seq, key=_seq):])
        self._sent_to_master_seq = self.vc.entries[self.pid]
        return out

    # -- garbage collection and adaptation (§4.1) -----------------------
    @property
    def wants_gc(self) -> bool:
        """True when enough intervals closed this epoch (§4.1): the log
        holds exactly the intervals closed since the last GC."""
        return len(self.log) >= self._gc_interval_limit

    def gc_owned_spans(self) -> List[Tuple[int, int]]:
        """Decide every page's owner for the next epoch (installed by
        :meth:`gc_reset`) and return the ``[start, end)`` spans of the
        pages we win, ascending; the flush makes our copies of them
        complete.

        The new-owner runs are painted in order onto a scratch column of
        "ours" flags, one slice store per run, so its set spans are the
        pages of our own written runs that we win."""
        new_owners = gc_new_owners(self.known_intervals())
        valid = self.table.valid
        pid = self.pid
        ours = bytearray(len(valid))
        for pages, owner in new_owners:
            flag = b"\1" if owner == pid else b"\0"
            ours[pages.start:pages.stop] = flag * len(pages)
        spans: List[Tuple[int, int]] = []
        start = ours.find(1)
        while start >= 0:
            end = ours.find(0, start)
            if end < 0:
                end = len(ours)
            # Writing a page this epoch mapped it valid.
            page = valid.find(0, start, end)
            if page >= 0:
                raise ProtocolError(
                    f"P{pid}: GC made us owner of page {page} we never wrote"
                )
            spans.append((start, end))
            start = ours.find(1, end)
        self._gc_pending_owners = new_owners
        return spans

    def gc_reset(self, nprocs: int) -> None:
        """Install the new owners, drop all consistency bookkeeping and
        start a new epoch with an ``nprocs``-wide zero clock."""
        if self.writes:
            raise ProtocolError(f"P{self.pid}: GC with an open write set")
        table = self.table
        owner = table.owner
        for pages, new_owner in self._gc_pending_owners:
            owner[pages.start:pages.stop] = [new_owner] * len(pages)
        self._gc_pending_owners = []
        table.reset_epoch()
        self.log.clear()
        self._buckets.clear()
        self.vc = VectorClock.zeros(nprocs)
        self.epoch += 1
        self._sent_to_master_seq = 0

    def adapt_reset(self, new_pid: int, nprocs: int, owner_remap: Dict[int, int]) -> None:
        """Re-identify as ``new_pid`` in an ``nprocs`` team (§4.1).

        Must follow a GC (all clocks zero, no pending notices).
        ``owner_remap`` maps old owner pids to new ones for every
        page-owner reference we hold."""
        if self.known or self.writes or len(self.log):
            raise ProtocolError(f"P{self.pid}: adapt_reset without a preceding GC")
        self.pid = new_pid
        self.vc = VectorClock.zeros(nprocs)
        self._sent_to_master_seq = 0
        table = self.table
        table.remap_owners(owner_remap, TeamView.MASTER_PID)
        table.applied.clear()  # keyed by the old pids

    def release(self) -> None:
        """The run is over: drop the page store and every diff payload.
        The page table, the clock and the log's records stay readable."""
        self.store = None
        self.log.drop_diffs()
