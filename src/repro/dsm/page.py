"""Per-process page state, as dense columns indexed by page id.

A DSM process tracks, for every shared page, whether it holds a base copy
(*valid*), the access mode (read-only vs write with a twin), the page's
protocol, which process holds a guaranteed-complete copy (*owner*), the
*applied* sequence number per writer (whose intervals' writes our copy
reflects) and the *pending* sequence number per writer (the latest write
notice from that writer that invalidated the page and is not applied
yet).  :class:`PageTable` stores each of these as one column over the
whole address space instead of one object graph per page: the access
fast path is two index loads, notice ingestion is a few list stores per
page, and garbage collection resets whole columns at once.  The
per-writer columns are allocated on first use, so a process pays only
for the writers it has heard from.

Page *protocols* follow §4.1's page-location map ("what protocol is used,
single or multiple writer"):

* ``MULTIPLE_WRITER`` — concurrent writers allowed; faults on a stale copy
  fetch diffs (twin-based).  Used for Jacobi's non-page-aligned partitions.
* ``SINGLE_WRITER`` — one writer per epoch; faults always fetch the full
  page from the current owner; no twins or diffs.  Used for Gauss/FFT/NBF,
  which is why Table 1 reports zero diffs for them.

Only the newest pending interval per writer matters: diff requests fetch
the whole ``(applied, latest]`` range from each writer, and the
single-writer refresh needs the most recent writer's clock, which that
interval's notice carries.  One cell per (writer, page) is therefore the
complete invalidation state; ``npending[page]`` counts the page's
non-zero pending cells so "anything outstanding?" is one load.

Pages are *mapped* lazily, on first touch (:meth:`PageTable.map`): the
mapped-page count sizes the migration image (§5.3), and whether the
first-touch copy is valid depends on who owns the page at that moment.
:class:`PageTableEntry` is a cold-path view of one page's cells for
tests, traces and ``repro.core``.
"""

from __future__ import annotations

import enum
from operator import gt
from typing import Dict, Iterator, List

from ..errors import DsmError


class Protocol(enum.Enum):
    """Consistency protocol of a page (fixed per shared segment)."""

    SINGLE_WRITER = "single_writer"
    MULTIPLE_WRITER = "multiple_writer"


class AccessMode(enum.Enum):
    """Current access mode of a local page copy."""

    NONE = 0
    READ = 1
    WRITE = 2


#: Cell encodings of the ``protocol`` and ``mode`` columns (bytearrays).
SW, MW = 0, 1
MODE_NONE, MODE_READ, MODE_WRITE = 0, 1, 2
PROTOCOL_CODE = {Protocol.SINGLE_WRITER: SW, Protocol.MULTIPLE_WRITER: MW}
_PROTOCOLS = (Protocol.SINGLE_WRITER, Protocol.MULTIPLE_WRITER)
_MODES = (AccessMode.NONE, AccessMode.READ, AccessMode.WRITE)


class PageTable:
    """Column store of one process's page state (see the module docstring).

    Columns span the whole address space; the space extends them whenever
    a segment is allocated (:meth:`grow`).  Resets rewrite columns in
    place, so a column bound to a local name stays current.
    """

    __slots__ = (
        "proc_name", "space", "n_mapped", "mapped", "valid", "mode",
        "protocol", "owner", "last_access", "npending", "applied", "pending",
        "__weakref__",
    )

    def __init__(self, proc_name: str, space):
        self.proc_name = proc_name
        self.space = space
        self.n_mapped = 0
        self.mapped = bytearray()
        self.valid = bytearray()
        self.mode = bytearray()
        self.protocol = bytearray()
        #: Process holding a guaranteed-complete copy (mapped pages only).
        self.owner: List[int] = []
        #: GC epoch of this process's last access to the page (§5.4 c5).
        self.last_access: List[int] = []
        #: Number of non-zero ``pending`` cells of the page.
        self.npending: List[int] = []
        #: writer pid -> per-page seq of that writer reflected in our copy.
        self.applied: Dict[int, List[int]] = {}
        #: writer pid -> per-page seq of its latest un-applied notice (0: none).
        self.pending: Dict[int, List[int]] = {}
        space.tables.add(self)
        self.grow()

    def grow(self) -> None:
        """Extend every column to the address space's current size."""
        extra = self.space.total_pages - len(self.mapped)
        if extra <= 0:
            return
        for col in (self.mapped, self.valid, self.mode):
            col.extend(bytes(extra))
        self.protocol.extend(self.space.protocols[len(self.protocol):])
        self.last_access.extend([-1] * extra)
        for col in (self.owner, self.npending, *self.applied.values(),
                    *self.pending.values()):
            col.extend([0] * extra)

    # -- mapping -----------------------------------------------------------
    def __len__(self) -> int:
        return self.n_mapped

    def __contains__(self, page: int) -> bool:
        return 0 <= page < len(self.mapped) and bool(self.mapped[page])

    def __iter__(self) -> Iterator["PageTableEntry"]:
        """Views of the mapped pages, ascending."""
        return (PageTableEntry(self, p) for p, m in enumerate(self.mapped) if m)

    def entry(self, page: int) -> "PageTableEntry":
        """The view for ``page``; raises if the page was never mapped."""
        if page not in self:
            raise DsmError(f"{self.proc_name}: page {page} not mapped")
        return PageTableEntry(self, page)

    def map(self, page: int, owner: int, valid: bool) -> None:
        """First touch of ``page``: record its owner and initial validity."""
        self.mapped[page] = 1
        self.n_mapped += 1
        self.owner[page] = owner
        self.valid[page] = valid

    # -- per-writer cells --------------------------------------------------
    def column(self, cols: Dict[int, List[int]], writer: int) -> List[int]:
        """``cols[writer]`` (``applied`` or ``pending``), allocated on first use."""
        col = cols.get(writer)
        if col is None:
            col = cols[writer] = [0] * len(self.mapped)
        return col

    def add_pending(self, page: int, writer: int, seq: int) -> bool:
        """Record that ``writer``'s interval ``seq`` invalidated ``page``.

        Idempotent; False when our copy already reflects the interval.
        ``DsmProcess.apply_notices`` inlines this per page.
        """
        applied = self.applied.get(writer)
        if applied is not None and applied[page] >= seq:
            return False
        pend = self.column(self.pending, writer)
        prev = pend[page]
        if prev < seq:
            if not prev:
                self.npending[page] += 1
            pend[page] = seq
        self.mode[page] = MODE_NONE  # next access faults
        return True

    def pending_of(self, page: int) -> Dict[int, int]:
        """``writer -> pending seq`` of ``page``, ascending writer."""
        if not self.npending[page]:
            return {}
        pending = self.pending
        return {w: pending[w][page] for w in sorted(pending) if pending[w][page]}

    def applied_of(self, page: int) -> Dict[int, int]:
        """``writer -> applied seq`` of ``page`` (its non-zero cells)."""
        return {w: col[page] for w, col in self.applied.items() if col[page]}

    def advance(self, page: int, writer: int, seq: int) -> None:
        """Raise ``applied[writer][page]`` to at least ``seq``."""
        col = self.column(self.applied, writer)
        if col[page] < seq:
            col[page] = seq

    def prune_pending(self, page: int) -> None:
        """Drop the page's pending cells its applied cells now cover."""
        if not self.npending[page]:
            return
        applied = self.applied
        for writer, pend in self.pending.items():
            seq = pend[page]
            if seq:
                col = applied.get(writer)
                if col is not None and col[page] >= seq:
                    pend[page] = 0
                    self.npending[page] -= 1

    def clear_pending(self, page: int) -> None:
        """Drop all of the page's pending cells (after fetching them)."""
        if self.npending[page]:
            for pend in self.pending.values():
                pend[page] = 0
            self.npending[page] = 0

    # -- whole-table resets ------------------------------------------------
    def reset_epoch(self) -> None:
        """GC (§4.1): copies with anything pending become invalid, then
        every applied/pending cell, mode and demotion is dropped."""
        n = len(self.mapped)
        # valid is 0/1: valid > npending  <=>  valid and nothing pending
        self.valid[:] = bytes(map(gt, self.valid, self.npending))
        self.npending[:] = [0] * n
        self.mode[:] = bytes(n)
        # A fresh epoch restores the segments' protocol hints (pages
        # demoted by transient write sharing become single-writer again).
        self.protocol[:] = self.space.protocols
        self.applied.clear()
        self.pending.clear()

    def remap_owners(self, remap: Dict[int, int], default: int) -> None:
        """Translate every owner cell through ``remap`` (adaptation)."""
        owner = self.owner
        lut = [remap.get(pid, default) for pid in range(max(owner, default=0) + 1)]
        owner[:] = map(lut.__getitem__, owner)


class PageTableEntry:
    """Cold-path view of one page's cells in a :class:`PageTable`."""

    __slots__ = ("table", "page")

    def __init__(self, table: PageTable, page: int):
        self.table = table
        self.page = page

    @property
    def valid(self) -> bool:
        return bool(self.table.valid[self.page])

    @property
    def mode(self) -> AccessMode:
        return _MODES[self.table.mode[self.page]]

    @property
    def protocol(self) -> Protocol:
        return _PROTOCOLS[self.table.protocol[self.page]]

    @property
    def owner(self) -> int:
        return self.table.owner[self.page]

    @property
    def last_access_epoch(self) -> int:
        return self.table.last_access[self.page]

    @property
    def applied(self) -> Dict[int, int]:
        return self.table.applied_of(self.page)

    @property
    def pending(self) -> list:
        """Pending notices, one (the latest) per writer, as
        :class:`~repro.dsm.intervals.WriteNotice` views without clocks."""
        from .intervals import WriteNotice

        return [WriteNotice(w, seq, self.page, None)
                for w, seq in self.table.pending_of(self.page).items()]

    @property
    def readable(self) -> bool:
        """A fault-free read is possible: valid copy with nothing pending."""
        return self.valid and not self.table.npending[self.page]

    def add_notice(self, notice) -> None:
        self.table.add_pending(self.page, notice.proc, notice.seq)

    def prune_pending(self) -> None:
        self.table.prune_pending(self.page)
