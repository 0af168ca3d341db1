"""Vector timestamps for lazy release consistency.

Every process increments its own entry when it closes an *interval* (at a
release: barrier arrival or lock release).  Happens-before between
intervals is vector-clock dominance.  Garbage collection (§4.1) discards
all interval bookkeeping, so clocks are reset at every GC *epoch* — this is
the property the adaptive system exploits to keep adaptation cheap, and it
also means a clock only ever spans one epoch with a fixed team size.

Clocks are *interned* on the protocol hot path: :meth:`snapshot` returns a
frozen view sharing the owner's entry list, and every mutator is
copy-on-write, detaching the owner from outstanding snapshots before
writing.  One interval's diffs, write notices, and sync payloads all share
a single snapshot instead of the one-copy-per-object scheme this replaces
(~34k list copies per quick Gauss run).  The derived sort key is cached
per clock and invalidated by mutation, so happens-before ordering of large
diff sets stops re-reducing the entry list.  A version stamp lets a merge
with a clock we already cover, or one that covers us, skip the scan.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

#: Fresh lineages and versions: process-wide, so no stamp is issued twice.
#: Only their equality and order within a lineage matter, never a value.
_stamps = itertools.count(1)


class VectorClock:
    """A fixed-width vector timestamp with copy-on-write snapshots.

    Each clock also carries a ``(lineage, version)`` stamp.  A clock owns
    one lineage (``_own``) and is the only clock that issues versions on
    it; every mutation is monotone and issues a fresh version, so within a
    lineage a newer version never holds a smaller entry.  Snapshots and
    :meth:`merge`'s adoptions copy a stamp together with the entry list it
    names, which is what lets ``merge`` skip or adopt without a scan.
    """

    __slots__ = ("entries", "_shared", "_key", "_own", "_lineage", "_version")

    def __init__(self, entries: Iterable[int]):
        self.entries = list(entries)
        self._shared = False
        self._key = None
        self._own = self._lineage = next(_stamps)
        self._version = 0

    @classmethod
    def zeros(cls, width: int) -> "VectorClock":
        """The zero clock for a team of ``width`` processes."""
        return cls([0] * width)

    @property
    def width(self) -> int:
        return len(self.entries)

    def copy(self) -> "VectorClock":
        """An independent (never-shared) copy."""
        return VectorClock(self.entries)

    def snapshot(self) -> "VectorClock":
        """A frozen view of the current value, sharing storage and stamp.

        The snapshot stays valid forever: every mutator on this clock (or
        on any other snapshot of it) copies the entry list first.  This is
        what diffs, write notices, and sync payloads carry instead of a
        private copy.
        """
        self._shared = True
        snap = VectorClock.__new__(VectorClock)
        snap.entries = self.entries
        snap._shared = True
        snap._key = self._key
        snap._own = next(_stamps)
        snap._lineage = self._lineage
        snap._version = self._version
        return snap

    def tick(self, slot: int) -> None:
        """Increment our own entry (interval close)."""
        entries = self.entries
        if self._shared:
            entries = self.entries = list(entries)
            self._shared = False
        entries[slot] += 1
        self._key = None
        self._lineage = self._own
        self._version = next(_stamps)

    def merge(self, other: "VectorClock") -> None:
        """Elementwise max with ``other`` (seen-knowledge union).

        A stamp on our lineage decides without a scan: an older version is
        covered (no-op), a newer one covers us (adopt its list).  Otherwise
        the max is computed; if it is ours nothing changes, and if it is
        ``other``'s we adopt ``other``'s list and stamp.  Adopting shares
        the list, so both sides are marked for copy-on-write.
        """
        theirs = other.entries
        if len(theirs) != len(self.entries):
            raise ValueError(f"clock width mismatch: {self.width} vs {other.width}")
        if other._lineage == self._lineage:
            if other._version > self._version:
                self._adopt(other)
            return
        ours = self.entries
        # Conditional expression instead of max(): this runs once per
        # received sync message and the call dispatch dominates.
        merged = [a if a >= b else b for a, b in zip(ours, theirs)]
        if merged == ours:
            return
        if merged == theirs:
            self._adopt(other)
            return
        # Rebinds the list, so outstanding snapshots keep the old value.
        self.entries = merged
        self._shared = False
        self._key = None
        self._lineage = self._own
        self._version = next(_stamps)

    def _adopt(self, other: "VectorClock") -> None:
        """Take ``other``'s (dominating) value by sharing its list and stamp."""
        other._shared = self._shared = True
        self.entries = other.entries
        self._key = other._key
        self._lineage = other._lineage
        self._version = other._version

    def advance(self, slot: int, seq: int) -> None:
        """Raise one entry to at least ``seq`` (diff/notice application)."""
        entries = self.entries
        if entries[slot] >= seq:
            return
        if self._shared:
            entries = self.entries = list(entries)
            self._shared = False
        entries[slot] = seq
        self._key = None
        self._lineage = self._own
        self._version = next(_stamps)

    def covers(self, other: "VectorClock") -> bool:
        """True if every entry >= the other's (other happened-before-or-equal)."""
        if other.width != self.width:
            raise ValueError(f"clock width mismatch: {self.width} vs {other.width}")
        return all(a >= b for a, b in zip(self.entries, other.entries))

    def covers_interval(self, proc: int, seq: int) -> bool:
        """True if interval ``seq`` of process ``proc`` is reflected here."""
        return self.entries[proc] >= seq

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(tuple(self.entries))

    def __repr__(self) -> str:
        return f"VC{self.entries}"

    def sort_key(self) -> Sequence[int]:
        """Deterministic total order consistent with happens-before.

        Concurrent clocks are ordered by entry tuple; concurrent intervals
        in our protocol have disjoint write ranges, so any consistent order
        is a correct diff application order.  Cached per clock value
        (mutators invalidate), which matters when ordering thousands of
        diffs that share a handful of interval snapshots.
        """
        key = self._key
        if key is None:
            key = self._key = (sum(self.entries), tuple(self.entries))
        return key
