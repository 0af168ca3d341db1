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

Diff payloads are stored *contiguously*: one uint8 buffer holding every
changed byte, plus an int64 ``(starts, ends, offsets)`` index derived from
``ranges``.  Application is a single scatter (or a short run of slice
assignments for few-range diffs) instead of a Python loop over chunk
objects, and several same-page diffs can be squashed into one scatter by
concatenating their position/value arrays (see
:func:`repro.dsm.diffs.apply_diffs_in_order`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .ranges import RUN_HEADER_BYTES, Range, total_bytes
from .vectorclock import VectorClock


@dataclass(slots=True)
class Diff:
    """The encoded writes of one interval to one page.

    ``ranges`` always holds the dirty byte ranges (exact in both modes);
    ``buf`` additionally holds the real bytes in materialized mode — all
    changed bytes concatenated in range order into one contiguous uint8
    array.  ``dirty_bytes``/``wire_size`` are computed once at
    construction (they sit on the DIFF_REQ/REPLY accounting hot path).
    """

    proc: int
    seq: int
    page: int
    vc: VectorClock
    ranges: List[Range]
    buf: Optional[np.ndarray] = None
    dirty_bytes: int = field(default=-1, compare=False)
    wire_size: int = field(default=-1, compare=False)
    _index: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _positions: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _key: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dirty_bytes < 0:
            buf = self.buf
            if buf is not None:
                self.dirty_bytes = int(buf.size)
            elif len(self.ranges) == 1:
                # Traced single-run diffs dominate interval closes; skip
                # the generator expression inside total_bytes for them.
                s, e = self.ranges[0]
                self.dirty_bytes = e - s
            else:
                self.dirty_bytes = total_bytes(self.ranges)
        if self.wire_size < 0:
            self.wire_size = self.dirty_bytes + RUN_HEADER_BYTES * len(self.ranges)

    @property
    def data(self) -> Optional[List[np.ndarray]]:
        """Per-range views of the payload (compatibility accessor).

        The storage is the contiguous ``buf``; this slices it back into
        the historical list-of-chunks shape.  ``None`` for traced diffs.
        """
        if self.buf is None:
            return None
        out = []
        off = 0
        for start, end in self.ranges:
            ln = end - start
            out.append(self.buf[off : off + ln])
            off += ln
        return out

    def index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, offsets)`` int64 arrays; ``offsets[i]`` is the
        position of range ``i``'s first byte within ``buf``.  Cached."""
        idx = self._index
        if idx is None:
            n = len(self.ranges)
            starts = np.empty(n, dtype=np.int64)
            ends = np.empty(n, dtype=np.int64)
            for i, (s, e) in enumerate(self.ranges):
                starts[i] = s
                ends[i] = e
            offsets = np.empty(n, dtype=np.int64)
            if n:
                offsets[0] = 0
                np.cumsum(ends[:-1] - starts[:-1], out=offsets[1:])
            idx = self._index = (starts, ends, offsets)
        return idx

    def positions(self) -> np.ndarray:
        """Flat page offsets of every dirty byte, in range order.  Cached;
        parallel to ``buf`` so ``page[positions()] = buf`` applies the diff."""
        pos = self._positions
        if pos is None:
            starts, ends, offsets = self.index()
            lens = ends - starts
            total = self.dirty_bytes
            # positions = for each range, start + [0..len): one vectorized
            # arange shifted per-range by (start - offset_into_buf).
            pos = np.arange(total, dtype=np.int64)
            if len(self.ranges) > 1 or (len(self.ranges) == 1 and starts[0] != 0):
                pos += np.repeat(starts - offsets, lens)
            self._positions = pos
        return pos

    def apply(self, page_buffer: np.ndarray) -> None:
        """Write the diff's bytes into a page-sized uint8 buffer."""
        buf = self.buf
        if buf is None:
            raise ValueError("cannot apply a traced-mode diff to real data")
        ranges = self.ranges
        if len(ranges) <= 8:
            off = 0
            for start, end in ranges:
                ln = end - start
                page_buffer[start:end] = buf[off : off + ln]
                off += ln
        else:
            page_buffer[self.positions()] = buf

    def sort_key(self):
        """Happens-before-consistent application order (cached)."""
        key = self._key
        if key is None:
            key = self._key = (*self.vc.sort_key(), self.proc, self.seq)
        return key


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
