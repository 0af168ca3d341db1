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
order; ``offsets``, the page offset of each of those bytes in a narrow
unsigned dtype (uint16 for pages up to 64 KiB); and the number of runs
the offsets form, which is all the wire size needs.  No ``(start, end)``
tuple exists per run — a Jacobi page is ~440 runs — until somebody reads
``Diff.ranges``.  Application is one scatter, ``page[offsets] = buf``.
A traced diff is its declared range list and nothing else.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .ranges import RUN_HEADER_BYTES, Range, coalesce, count_runs, total_bytes
from .vectorclock import VectorClock


class Diff:
    """The encoded writes of one interval to one page.

    Two shapes share the ``(proc, seq, page, vc)`` header:

    * *traced*: the declared dirty ``ranges`` are the diff; ``buf`` and
      ``offsets`` are ``None``.
    * *materialized*: ``buf`` holds the changed bytes in page order and
      ``offsets`` their page offsets, parallel to ``buf`` in the smallest
      unsigned dtype that holds ``page_size - 1``.  Only the run *count*
      is kept; ``ranges`` run-length encodes ``offsets`` on demand.

    ``dirty_bytes`` and ``wire_size = dirty_bytes + RUN_HEADER_BYTES *
    runs`` are computed once at construction (they sit on the
    DIFF_REQ/REPLY accounting hot path) and are the same numbers in both
    shapes.  Equality is identity: ``(proc, seq, page)`` names a diff.
    """

    __slots__ = ("proc", "seq", "page", "vc", "buf", "offsets", "runs",
                 "dirty_bytes", "wire_size", "_ranges", "_key")

    def __init__(
        self,
        proc: int,
        seq: int,
        page: int,
        vc: VectorClock,
        ranges: Optional[List[Range]] = None,
        buf: Optional[np.ndarray] = None,
        offsets: Optional[np.ndarray] = None,
    ):
        self.proc = proc
        self.seq = seq
        self.page = page
        self.vc = vc
        self.buf = buf
        self.offsets = offsets
        self._ranges = ranges
        self._key = None
        if offsets is not None:
            runs, dirty = count_runs(offsets), buf.size
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
        return ranges if ranges is not None else coalesce(self.offsets)

    def apply(self, page_buffer: np.ndarray) -> None:
        """Write the diff's bytes into a page-sized uint8 buffer."""
        if self.buf is None:
            raise ValueError("cannot apply a traced-mode diff to real data")
        # Widened explicitly: numpy's own cast of a narrow index array
        # inside the scatter is slower than this copy plus the scatter.
        page_buffer[self.offsets.astype(np.intp)] = self.buf

    def sort_key(self):
        """Happens-before-consistent application order (cached)."""
        key = self._key
        if key is None:
            key = self._key = (*self.vc.sort_key(), self.proc, self.seq)
        return key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Diff(proc={self.proc}, seq={self.seq}, page={self.page}, "
                f"runs={self.runs}, dirty_bytes={self.dirty_bytes})")


class WriteNotice:
    """Advertisement that ``proc``'s interval ``seq`` wrote ``page``.

    A per-page *view* of an :class:`IntervalNotice` for tests, traces and
    inspection; the protocol stores, ships and dedupes whole intervals.
    """

    __slots__ = ("proc", "seq", "page", "vc")

    def __init__(self, proc: int, seq: int, page: int, vc: Optional[VectorClock]):
        self.proc = proc
        self.seq = seq
        self.page = page
        self.vc = vc

    def covered_by(self, applied: VectorClock) -> bool:
        """True if the advertised writes are already in a copy with ``applied``."""
        return applied.covers_interval(self.proc, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WriteNotice(proc={self.proc}, seq={self.seq}, "
                f"page={self.page})")


class IntervalNotice:
    """The write notices of one closed interval, as one object.

    ``(proc, seq)`` names the interval, ``vc`` is its interned clock
    snapshot (shared with the interval's diffs) and ``pages`` the sorted
    page ids it wrote.  Created once at the writer's ``close_interval``;
    every receiver indexes, dedupes and forwards this same object, so the
    per-notice work of a synchronization is per *interval* except for the
    page-state stores of the pages it names.
    """

    __slots__ = ("proc", "seq", "vc", "pages")

    def __init__(self, proc: int, seq: int, vc: VectorClock, pages: Tuple[int, ...]):
        self.proc = proc
        self.seq = seq
        self.vc = vc
        self.pages = pages

    def notices(self) -> List[WriteNotice]:
        """Per-page views, ascending page."""
        return [WriteNotice(self.proc, self.seq, p, self.vc) for p in self.pages]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"IntervalNotice(proc={self.proc}, seq={self.seq}, "
                f"pages={len(self.pages)})")


class NoticeBatch:
    """The notice payload of one synchronization message.

    ``intervals`` are grouped by writer, each writer's run normally in
    ascending seq.  ``len(batch)`` is the number of (interval, page)
    write notices — what the wire is charged for
    (``DsmProcess.notice_wire_bytes``) — and iteration yields them as
    :class:`WriteNotice` views.
    """

    __slots__ = ("intervals", "count")

    def __init__(self, intervals: Iterable[IntervalNotice] = ()):
        self.intervals = list(intervals)
        self.count = sum([len(iv.pages) for iv in self.intervals])

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for iv in self.intervals:
            yield from iv.notices()


@dataclass(slots=True)
class IntervalRecord:
    """One closed interval of one process (kept by the writer until GC)."""

    proc: int
    seq: int
    vc: VectorClock
    #: page id -> dirty byte ranges within the page.
    write_ranges: Dict[int, List[Range]] = field(default_factory=dict)
    #: page id -> encoded diff (multiple-writer pages only).  In traced
    #: mode the declared ranges ARE the diff, so the value starts as the
    #: page's range list and :meth:`IntervalLog.diffs_for` wraps it in a
    #: :class:`Diff` only if a reader ever asks (most are never asked for).
    diffs: Dict[int, Union[Diff, List[Range]]] = field(default_factory=dict)

    def notices(self) -> List[WriteNotice]:
        """The write notices advertising this interval."""
        return [
            WriteNotice(proc=self.proc, seq=self.seq, page=page, vc=self.vc)
            for page in sorted(self.write_ranges)
        ]


class IntervalLog:
    """Per-process store of closed intervals for the current GC epoch.

    Besides the primary seq -> record map, the log keeps a per-page index
    of the (seq-ascending) intervals that wrote each page — parallel
    ``(seqs, records)`` lists — so diff lookups for a seq window bisect a
    short page-local int list instead of probing every seq in the window.
    """

    def __init__(self, proc: int):
        self.proc = proc
        self._by_seq: Dict[int, IntervalRecord] = {}
        #: page id -> ascending (seqs, records) of the intervals writing it.
        self._by_page: Dict[int, Tuple[List[int], List[IntervalRecord]]] = {}

    def __len__(self) -> int:
        return len(self._by_seq)

    def add(self, record: IntervalRecord) -> None:
        seq = record.seq
        if seq in self._by_seq:
            raise ValueError(f"duplicate interval seq {seq} for proc {self.proc}")
        self._by_seq[seq] = record
        by_page = self._by_page
        for page in record.write_ranges:
            bucket = by_page.get(page)
            if bucket is None:
                by_page[page] = ([seq], [record])
                continue
            seqs, records = bucket
            if seqs[-1] < seq:
                seqs.append(seq)
                records.append(record)
            else:
                k = bisect_left(seqs, seq)
                seqs.insert(k, seq)
                records.insert(k, record)

    def get(self, seq: int) -> IntervalRecord:
        return self._by_seq[seq]

    def pages(self) -> List[int]:
        """Pages with at least one live record (prune-candidate keys)."""
        return list(self._by_page)

    def records_for(
        self, page: int, from_seq_exclusive: int, to_seq_inclusive: int
    ) -> List[IntervalRecord]:
        """Intervals that wrote ``page`` with seq in ``(from, to]`` (ascending)."""
        bucket = self._by_page.get(page)
        if bucket is None:
            return []
        seqs, records = bucket
        lo = bisect_right(seqs, from_seq_exclusive)
        return records[lo:bisect_right(seqs, to_seq_inclusive, lo)]

    def diffs_for(self, page: int, from_seq_exclusive: int, to_seq_inclusive: int) -> List[Diff]:
        """All diffs of ``page`` in intervals ``(from, to]`` (ascending seq)."""
        out = []
        for rec in self.records_for(page, from_seq_exclusive, to_seq_inclusive):
            diff = rec.diffs.get(page)
            if diff is not None:
                if type(diff) is list:
                    diff = rec.diffs[page] = Diff(rec.proc, rec.seq, page, rec.vc, diff)
                out.append(diff)
        return out

    def prune_covered(self, cover: Dict[int, int]) -> int:
        """Drop records every peer's applied clock already covers.

        ``cover[page]`` is the *cover frontier* for this writer on
        ``page``: the minimum, over all peers, of the seq up to which the
        peer has applied this writer's diffs on that page (0 when a peer
        has no mapping yet — a later notice would lazily map the page
        with a zero applied clock and request diffs from seq 0).  A
        record is dead once **every** page it wrote is covered at or
        beyond its seq: no DIFF_REQ can ever name it again, because
        requests ask for ``(applied[writer], to]`` windows.

        Returns the number of records dropped.  Purely host-side
        bookkeeping — no messages, no simulated time — so pruning never
        changes simulated results (see ``tests/dsm/test_interval_prune.py``).
        """
        if not self._by_seq:
            return 0
        dead = [
            seq for seq, rec in self._by_seq.items()
            if all(cover.get(page, 0) >= seq for page in rec.write_ranges)
        ]
        for seq in dead:
            rec = self._by_seq.pop(seq)
            by_page = self._by_page
            for page in rec.write_ranges:
                bucket = by_page.get(page)
                if bucket is None:
                    continue
                seqs, records = bucket
                lo = bisect_left(seqs, seq)
                if lo < len(seqs) and seqs[lo] == seq:
                    del seqs[lo], records[lo]
                if not seqs:
                    del by_page[page]
        return len(dead)

    def clear(self) -> None:
        """Drop everything (garbage collection)."""
        self._by_seq.clear()
        self._by_page.clear()
