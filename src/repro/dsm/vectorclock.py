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
with a clock we already cover, or one that covers us, skip the scan, and
a clock that remembers the foreign stamp it last left (and the slots it
wrote since) merges with a clock derived from the same value in
O(slots written): the fork/join round trip never scans.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

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

    ``_from`` is the stamp of the foreign value the clock last left by a
    write (a tick, an advance or a merge's slot write), and ``_dirty``
    the slots written since: the value is ``_from``'s, raised at those
    slots only.  A clock that never held a foreign value has no ``_from``
    and tracks no slots.  Snapshots and adoptions copy both with the
    stamp, so a clock derived from a value we cover differs from it only
    where it says.
    """

    __slots__ = ("entries", "_shared", "_key", "_own", "_lineage", "_version",
                 "_from", "_dirty")

    def __init__(self, entries: Iterable[int]):
        self.entries = list(entries)
        self._shared = False
        self._key = None
        self._own = self._lineage = next(_stamps)
        self._version = 0
        self._from: Optional[Tuple[int, int]] = None
        self._dirty: Tuple[int, ...] = ()

    @classmethod
    def zeros(cls, width: int) -> "VectorClock":
        """The zero clock for a team of ``width`` processes."""
        return cls([0] * width)

    @property
    def width(self) -> int:
        return len(self.entries)

    @property
    def stamp(self) -> Tuple[int, int]:
        """``(lineage, version)``: equal stamps name equal values."""
        return self._lineage, self._version

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
        snap._from = self._from
        snap._dirty = self._dirty
        return snap

    def _wrote(self, slots: Tuple[int, ...]) -> None:
        """Stamp a write of ``slots``: a fresh version on our own lineage,
        leaving the foreign value we held (``_from``) if we held one."""
        if self._lineage != self._own:
            self._from = (self._lineage, self._version)
            self._dirty = slots
        elif self._from is not None:
            dirty = self._dirty
            for slot in slots:
                if slot not in dirty:
                    dirty += (slot,)
            self._dirty = dirty
        self._key = None
        self._lineage = self._own
        self._version = next(_stamps)

    def _writable(self) -> List[int]:
        """Our entry list, detached from any snapshot sharing it."""
        entries = self.entries
        if self._shared:
            entries = self.entries = list(entries)
            self._shared = False
        return entries

    def tick(self, slot: int) -> None:
        """Increment our own entry (interval close)."""
        self._writable()[slot] += 1
        self._wrote((slot,))

    def _holds(self, stamp: Optional[Tuple[int, int]]) -> bool:
        """True if our value is known, by stamps alone, to cover the value
        ``stamp`` names: it is on our lineage or on the one we left, no
        newer than we hold there."""
        if stamp is None:
            return False
        lineage, version = stamp
        if lineage == self._lineage:
            return version <= self._version
        held = self._from
        return held is not None and held[0] == lineage and version <= held[1]

    def merge(self, other: "VectorClock") -> None:
        """Elementwise max with ``other`` (seen-knowledge union).

        Stamps decide without a scan when one side's value is known to
        cover the other's (no-op, or adopt its list).  If we cover the
        value ``other`` left, only its written slots can raise ours (the
        master folding a JOIN_DONE); if ``other`` covers the value we
        left, the union is ``other`` raised at our written slots (a slave
        taking the fork clock).  Otherwise :meth:`_merge_scan`.  Adopting
        shares the list, so both sides are marked for copy-on-write.
        """
        theirs = other.entries
        if len(theirs) != len(self.entries):
            raise ValueError(f"clock width mismatch: {self.width} vs {other.width}")
        lineage, held = self._lineage, self._from
        their_lineage, their_held = other._lineage, other._from
        # Inline stamp tests first: this runs once per received sync
        # message.
        if their_lineage == lineage:
            if other._version > self._version:
                self._adopt(other)
            return
        if held is not None and held[0] == their_lineage \
                and other._version <= held[1]:
            return
        if their_held is not None and their_held[0] == lineage \
                and self._version <= their_held[1]:
            self._adopt(other)
            return
        # Loops, not comprehensions: the slot lists are a slot or two.
        ours = self.entries
        if self._holds(their_held):
            raised = ()
            for slot in other._dirty:
                if theirs[slot] > ours[slot]:
                    raised += (slot,)
            if raised:
                self._raise(raised, theirs)
        elif other._holds(held):
            kept = ()
            for slot in self._dirty:
                if ours[slot] > theirs[slot]:
                    kept += (slot,)
            self._adopt(other)
            if kept:
                self._raise(kept, ours)
        else:
            self._merge_scan(other)

    def _merge_scan(self, other: "VectorClock") -> None:
        """:meth:`merge` by an elementwise scan: nothing changes if the max
        is ours, we adopt ``other`` if it is ``other``'s, and otherwise
        the slots ``other`` raised are written."""
        ours, theirs = self.entries, other.entries
        raised = tuple([s for s, (a, b) in enumerate(zip(ours, theirs)) if b > a])
        if not raised:
            return
        if all(a <= b for a, b in zip(ours, theirs)):
            self._adopt(other)
        else:
            self._raise(raised, theirs)

    def _raise(self, slots: Tuple[int, ...], source: List[int]) -> None:
        """Write ``source``'s entries (each a raise) at ``slots``."""
        entries = self._writable()
        for slot in slots:
            entries[slot] = source[slot]
        self._wrote(slots)

    def _adopt(self, other: "VectorClock") -> None:
        """Take ``other``'s (dominating) value by sharing its list and stamp."""
        other._shared = self._shared = True
        self.entries = other.entries
        self._key = other._key
        self._lineage = other._lineage
        self._version = other._version
        self._from = other._from
        self._dirty = other._dirty

    def advance(self, slot: int, seq: int) -> None:
        """Raise one entry to at least ``seq`` (diff/notice application)."""
        if self.entries[slot] >= seq:
            return
        self._writable()[slot] = seq
        self._wrote((slot,))

    def covers(self, other: "VectorClock") -> bool:
        """True if every entry >= the other's (other happened-before-or-equal)."""
        if other.width != self.width:
            raise ValueError(f"clock width mismatch: {self.width} vs {other.width}")
        if self._holds((other._lineage, other._version)):
            return True
        return all(a >= b for a, b in zip(self.entries, other.entries))

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
