"""Shared-memory address space and per-process backing store.

:class:`AddressSpace` is the global page-id allocator: every shared
segment (array) occupies a page-aligned run of global page ids.  It is
metadata only — actual bytes live in each process's :class:`LocalStore`
(materialized mode) because every DSM process has its *own copy* of every
page it maps, exactly like nodes of a real DSM.

Like a real DSM node's mapping of the shared region, a store is demand
zero: each (process, segment) buffer is one private anonymous ``mmap``,
so a page takes memory only once something writes it, and the whole
mapping is returned to the kernel as soon as the last view of it dies.
"""

from __future__ import annotations

import bisect
import mmap
import weakref
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import AllocationError
from .page import PROTOCOL_CODE, Protocol

#: Page ids stay below this bound (8 GB of shared segments at the default
#: page size — far beyond any simulated NOW): every process keeps dense
#: per-page columns over the whole space (:class:`repro.dsm.page.PageTable`).
MAX_PAGES = 1 << 21


@dataclass(frozen=True)
class SharedSegment:
    """A page-aligned shared allocation (one logical array)."""

    seg_id: int
    name: str
    nbytes: int
    page0: int
    npages: int
    protocol: Protocol
    dtype: str = "uint8"
    shape: Tuple[int, ...] = ()

    @property
    def pages(self) -> range:
        """Global page ids of this segment."""
        return range(self.page0, self.page0 + self.npages)

    def page_window(self, page: int, page_size: int) -> Tuple[int, int]:
        """Byte window ``[lo, hi)`` of ``page`` within the segment."""
        idx = page - self.page0
        if not 0 <= idx < self.npages:
            raise AllocationError(f"page {page} not in segment {self.name!r}")
        lo = idx * page_size
        return lo, min(lo + page_size, self.nbytes)

    def pages_for_range(self, lo: int, hi: int) -> range:
        """Global page ids overlapping segment byte range ``[lo, hi)``."""
        if not (0 <= lo <= hi <= self.nbytes):
            raise AllocationError(
                f"byte range [{lo}, {hi}) outside segment {self.name!r} of {self.nbytes}B"
            )
        if lo == hi:
            return range(0)
        page_size = self._page_size_hint
        return range(self.page0 + lo // page_size, self.page0 + (hi - 1) // page_size + 1)

    # Set by AddressSpace.alloc (a frozen dataclass; use object.__setattr__).
    _page_size_hint: int = 4096


class AddressSpace:
    """Global allocator of page-aligned shared segments."""

    def __init__(self, page_size: int):
        self.page_size = page_size
        self.segments: Dict[int, SharedSegment] = {}
        self._by_name: Dict[str, int] = {}
        self._starts: List[int] = []  # sorted page0 list for page->segment lookup
        self._start_ids: List[int] = []
        self._next_page = 0
        self._next_seg = 0
        #: Protocol code of every allocated page (the per-process page
        #: tables' ``protocol`` column starts as, and resets to, a copy).
        self.protocols = bytearray()
        #: Live page tables over this space; grown on every allocation.
        self.tables = weakref.WeakSet()
        # Access-plan memo shared by every process of this address space
        # (imported lazily to avoid a cycle with plans -> memory).
        from .plans import PlanCache

        self.plan_cache = PlanCache()

    @property
    def total_pages(self) -> int:
        return self._next_page

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self.segments.values())

    def alloc(
        self,
        name: str,
        nbytes: int,
        protocol: Protocol = Protocol.MULTIPLE_WRITER,
        dtype: str = "uint8",
        shape: Tuple[int, ...] = (),
    ) -> SharedSegment:
        """Allocate a page-aligned segment of ``nbytes``."""
        if nbytes <= 0:
            raise AllocationError(f"segment {name!r}: nbytes must be positive")
        if name in self._by_name:
            raise AllocationError(f"segment name {name!r} already allocated")
        npages = -(-nbytes // self.page_size)
        if self._next_page + npages > MAX_PAGES:
            raise AllocationError(
                f"segment {name!r}: page ids would exceed {MAX_PAGES} - 1"
            )
        seg = SharedSegment(
            seg_id=self._next_seg,
            name=name,
            nbytes=nbytes,
            page0=self._next_page,
            npages=npages,
            protocol=protocol,
            dtype=dtype,
            shape=shape,
        )
        object.__setattr__(seg, "_page_size_hint", self.page_size)
        self.segments[seg.seg_id] = seg
        self._by_name[name] = seg.seg_id
        self._starts.append(seg.page0)
        self._start_ids.append(seg.seg_id)
        self._next_page += npages
        self._next_seg += 1
        self.protocols.extend(bytes([PROTOCOL_CODE[protocol]]) * npages)
        for table in self.tables:
            table.grow()
        return seg

    def segment_of_page(self, page: int) -> SharedSegment:
        """The segment containing global page id ``page``."""
        if not 0 <= page < self._next_page:
            raise AllocationError(f"page {page} outside allocated space")
        i = bisect.bisect_right(self._starts, page) - 1
        return self.segments[self._start_ids[i]]


class LocalStore:
    """Materialized-mode byte storage of one process.

    One padded uint8 buffer per segment; page copies and application data
    are views into it, so applying a diff updates what the app reads.
    Each buffer views its own anonymous private mapping: pages nobody
    writes stay the kernel's shared zero page.
    """

    def __init__(self, space: AddressSpace):
        self.space = space
        self._buffers: Dict[int, np.ndarray] = {}

    def buffer(self, seg: SharedSegment) -> np.ndarray:
        """The full padded buffer for ``seg`` (mapped zeroed on first use)."""
        buf = self._buffers.get(seg.seg_id)
        if buf is None:
            size = seg.npages * self.space.page_size
            buf = np.frombuffer(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE),
                                dtype=np.uint8)
            self._buffers[seg.seg_id] = buf
        return buf

    def page_view(self, page: int) -> np.ndarray:
        """Mutable uint8 view of one page's bytes (padded to page size)."""
        seg = self.space.segment_of_page(page)
        idx = page - seg.page0
        ps = self.space.page_size
        return self.buffer(seg)[idx * ps : (idx + 1) * ps]

    def pages_view(self, start: int, stop: int) -> np.ndarray:
        """Mutable uint8 view of the pages ``[start, stop)`` of one segment."""
        seg = self.space.segment_of_page(start)
        ps = self.space.page_size
        return self.buffer(seg)[(start - seg.page0) * ps : (stop - seg.page0) * ps]

    def array_view(self, seg: SharedSegment) -> np.ndarray:
        """The segment's data viewed with its declared dtype/shape."""
        flat = self.buffer(seg)[: seg.nbytes].view(seg.dtype)
        return flat.reshape(seg.shape) if seg.shape else flat
