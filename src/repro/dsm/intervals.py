"""Interval records, write notices, and diffs.

TreadMarks structures each process's execution into *intervals* delimited
by releases (barrier arrivals, lock releases).  Closing an interval ticks
the process's vector clock, records the pages written (the write set), and
— in this implementation — eagerly encodes the diffs of multiple-writer
pages from their twins ("eager diff creation, lazy diff fetching").  Write
notices advertising the interval travel with the next synchronization;
remote processes invalidate the named pages and fetch diffs on demand.

All of this bookkeeping is exactly what garbage collection (§4.1) wipes:
after a GC every page is valid somewhere with a known owner and no
interval/notice/diff state survives, which is what makes adaptation cheap.

A materialized diff is three things: ``buf``, every changed byte in page
order; ``mask``, one bit per page byte saying which bytes changed
(``page_size // 8`` bytes, ``np.packbits`` order); and the number of runs
the changed bytes form, which is all the wire size needs.  No
``(start, end)`` tuple exists per run — a Jacobi page is ~490 runs —
until somebody reads ``Diff.ranges``.  Application is one masked store,
``page[unpackbits(mask)] = buf``.  A traced diff is its declared range
list and nothing else.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .ranges import RUN_HEADER_BYTES, Range, coalesce, total_bytes
from .runs import Run, run_at, spans
from .vectorclock import VectorClock

_seq = attrgetter("seq")


class Diff:
    """The encoded writes of one interval to one page.

    Two shapes share the ``(proc, seq, page, vc)`` header:

    * *traced*: the declared dirty ``ranges`` are the diff; ``buf`` and
      ``mask`` are ``None``.
    * *materialized*: ``buf`` holds the changed bytes in page order and
      ``mask`` the packed bitmap of their page positions (``buf.size``
      bits set).  Only the run *count* is kept, as the encoder counted
      it; ``ranges`` run-length encodes the mask on demand.

    ``dirty_bytes`` and ``wire_size = dirty_bytes + RUN_HEADER_BYTES *
    runs`` are computed once at construction (they sit on the
    DIFF_REQ/REPLY accounting hot path) and are the same numbers in both
    shapes.  Equality is identity: ``(proc, seq, page)`` names a diff.
    """

    __slots__ = ("proc", "seq", "page", "vc", "buf", "mask", "runs",
                 "dirty_bytes", "wire_size", "_ranges", "_key")

    def __init__(
        self,
        proc: int,
        seq: int,
        page: int,
        vc: VectorClock,
        ranges: Optional[List[Range]] = None,
        buf: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
        runs: int = 0,
    ):
        self.proc = proc
        self.seq = seq
        self.page = page
        self.vc = vc
        self.buf = buf
        self.mask = mask
        self._ranges = ranges
        self._key = None
        if mask is not None:
            dirty = buf.size
        else:
            runs = len(ranges)
            if runs == 1:
                # Traced single-run diffs dominate interval closes; skip
                # the generator expression inside total_bytes for them.
                start, end = ranges[0]
                dirty = end - start
            else:
                dirty = total_bytes(ranges)
        self.runs = runs
        self.dirty_bytes = dirty
        self.wire_size = dirty + RUN_HEADER_BYTES * runs

    @property
    def ranges(self) -> List[Range]:
        """The dirty byte ranges (exact in both shapes)."""
        ranges = self._ranges
        if ranges is None:
            ranges = coalesce(np.flatnonzero(np.unpackbits(self.mask)))
        return ranges

    def apply(self, page_buffer: np.ndarray) -> None:
        """Write the diff's bytes into a page-sized uint8 buffer."""
        if self.buf is None:
            raise ValueError("cannot apply a traced-mode diff to real data")
        changed = np.unpackbits(self.mask, count=page_buffer.size).view(bool)
        page_buffer[changed] = self.buf

    def sort_key(self):
        """Happens-before-consistent application order (cached)."""
        key = self._key
        if key is None:
            key = self._key = (*self.vc.sort_key(), self.proc, self.seq)
        return key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Diff(proc={self.proc}, seq={self.seq}, page={self.page}, "
                f"runs={self.runs}, dirty_bytes={self.dirty_bytes})")


class IntervalNotice:
    """The write notices of one closed interval, as one object.

    ``(proc, seq)`` names the interval, ``vc`` is its interned clock
    snapshot (shared with the interval's diffs) and ``runs`` the pages it
    wrote, as ascending, maximal ``range`` objects (``runs.spans`` of the
    writer's record).  ``npages`` is their page count.  Created once at
    the writer's ``close_interval``; every receiver indexes, dedupes and
    forwards this same object, so the per-notice work of a
    synchronization is per *interval*, and the page-state stores are per
    run.
    """

    __slots__ = ("proc", "seq", "vc", "runs", "npages")

    def __init__(self, proc: int, seq: int, vc: VectorClock, runs: Tuple[range, ...]):
        self.proc = proc
        self.seq = seq
        self.vc = vc
        self.runs = runs
        self.npages = sum(map(len, runs))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"IntervalNotice(proc={self.proc}, seq={self.seq}, "
                f"runs={len(self.runs)}, pages={self.npages})")


class NoticeBatch:
    """The notice payload of one synchronization message.

    ``intervals`` are grouped by writer, each writer's run normally in
    ascending seq.  ``len(batch)`` is the number of (interval, page)
    write notices — what the wire is charged for
    (``DsmProcess.notice_wire_bytes``); the notices themselves are only
    ever handled as whole intervals.
    """

    __slots__ = ("intervals", "count")

    def __init__(self, intervals: Iterable[IntervalNotice] = ()):
        self.intervals = list(intervals)
        self.count = sum([iv.npages for iv in self.intervals])

    def __len__(self) -> int:
        return self.count


@dataclass(slots=True)
class IntervalRecord:
    """One closed interval of one process (kept by the writer until GC)."""

    proc: int
    seq: int
    vc: VectorClock
    #: The write set: ascending runs ``(start, stop, dirty byte ranges)``.
    runs: Tuple[Run, ...] = ()
    #: Its pages as maximal ``range`` objects (``runs.spans(runs)``, set
    #: by :meth:`IntervalLog.add`): the notice's ``runs``, the same tuple.
    spans: Tuple[range, ...] = ()
    #: Traced mode: the runs whose pages were multiple-writer at close.
    #: Their declared ranges ARE their diffs; :meth:`IntervalLog.diffs_for`
    #: wraps a page's in a :class:`Diff` only if a reader ever asks (most
    #: are never asked for).  The same tuple as ``runs`` when every page
    #: was multiple-writer.
    diff_runs: Tuple[Run, ...] = ()
    #: page id -> encoded diff: materialized diffs made at close, traced
    #: diffs wrapped on request, and lazily encoded diffs of pages demoted
    #: after the close.
    diffs: Dict[int, Diff] = field(default_factory=dict)


class IntervalLog:
    """Per-process, append-only store of the intervals closed this GC epoch.

    Every own close carries a fresh clock tick, so records arrive in
    ascending seq and garbage collection (:meth:`clear`) is the only
    thing that ever drops one.  The log is indexed by *write set*: the
    records that wrote the same pages share one spans tuple and one
    seq-ascending ``(seqs, records)`` pair (an iterative kernel writes a
    few page sets over and over — Jacobi two, alternately).  A diff
    lookup asks each write set once, with one bisect over its span
    bounds, whether it holds the page, and bisects the seq window of
    those that do.
    """

    def __init__(self, proc: int):
        self.proc = proc
        self._count = 0
        self._last_seq = 0
        #: Span bounds ``(start0, stop0, start1, stop1, ...)`` of each write
        #: set (a page is in it iff it bisects to an odd position) -> the
        #: bounds again and the set's ascending ``(seqs, records)``.
        self._sets: Dict[Tuple[int, ...],
                         Tuple[Tuple[int, ...], List[int], List[IntervalRecord]]] = {}

    def __len__(self) -> int:
        return self._count

    def add(self, record: IntervalRecord) -> None:
        """Append ``record``; its seq must follow every earlier one.

        Sets ``record.spans`` to its write set's spans tuple, and shares
        the runs tuple of that set's latest record when the runs are
        equal."""
        seq = record.seq
        if seq <= self._last_seq:
            raise ValueError(f"interval seq {seq} for proc {self.proc} is not "
                             f"after seq {self._last_seq}")
        self._last_seq = seq
        self._count += 1
        pages = spans(record.runs)
        key = tuple([b for span in pages for b in (span.start, span.stop)])
        entry = self._sets.get(key)
        if entry is None:
            self._sets[key] = (key, [seq], [record])
            record.spans = pages
            return
        _, seqs, records = entry
        last = records[-1]
        record.spans = last.spans
        if last.runs == record.runs:
            record.runs = last.runs
        seqs.append(seq)
        records.append(record)

    def records_for(
        self, page: int, from_seq_exclusive: int, to_seq_inclusive: int
    ) -> List[IntervalRecord]:
        """Intervals that wrote ``page`` with seq in ``(from, to]`` (ascending)."""
        out: List[IntervalRecord] = []
        for bounds, seqs, records in self._sets.values():
            if bisect_right(bounds, page) & 1:
                lo = bisect_right(seqs, from_seq_exclusive)
                hi = bisect_right(seqs, to_seq_inclusive, lo)
                if lo == hi:
                    continue
                if out:
                    out += records[lo:hi]
                    out.sort(key=_seq)  # a second write set: interleave by seq
                else:
                    out = records[lo:hi]
        return out

    def diffs_for(
        self,
        page: int,
        from_seq_exclusive: int,
        to_seq_inclusive: int,
        encode: Optional[Callable[[IntervalRecord, int], Optional[Diff]]] = None,
    ) -> List[Diff]:
        """All diffs of ``page`` in intervals ``(from, to]`` (ascending seq).

        A traced diff is wrapped from the record's ``diff_runs`` the first
        time it is asked for.  A record whose page skipped eager encoding
        (single-writer at close, demoted since) gets its diff from
        ``encode(record, page)``, if given; either way the diff is kept in
        the record, so the page is encoded once.
        """
        out = []
        for rec in self.records_for(page, from_seq_exclusive, to_seq_inclusive):
            diff = rec.diffs.get(page)
            if diff is None:
                run = run_at(rec.diff_runs, page)
                if run is not None:
                    diff = Diff(rec.proc, rec.seq, page, rec.vc, run[2])
                elif encode is None:
                    continue
                else:
                    diff = encode(rec, page)
                    if diff is None:
                        continue
                rec.diffs[page] = diff
            out.append(diff)
        return out

    def clear(self) -> None:
        """Drop everything (garbage collection)."""
        self._count = self._last_seq = 0
        self._sets.clear()

    def drop_diffs(self) -> None:
        """Drop every record's diff payloads (the run is over); the
        records, their seqs, ``runs`` and ``diff_runs`` stay."""
        for _, _, records in self._sets.values():
            for rec in records:
                rec.diffs.clear()
