"""Cached access plans for shared-region accesses.

``TmkProcess.access`` / ``access_batch`` translate byte ranges of a shared
segment into the set of pages to touch and the per-page local write
ranges.  For iterative applications (Jacobi sweeps, Gauss rows) the same
(segment, ranges) tuples recur every iteration, so this pure computation
is memoized here.

An :class:`AccessPlan` is a *pure function* of

* the segment geometry (element size, page alignment, length),
* the requested read/write byte ranges, and
* the system page size,

none of which change during normal execution.  The cache is therefore
bitwise-neutral: a hit returns exactly what the miss path would have
computed.  Team changes (join / leave / migration) repartition segments
conceptually, so :class:`PlanCache.invalidate` bumps an epoch that lazily
discards all cached plans; ``TmkProcess.adapt_reset`` calls it on every
adaptation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .memory import SharedSegment
from .ranges import Range, clip, normalize

#: Plans kept before the cache is dropped wholesale (plans are tiny; the
#: cap only bounds pathological key diversity).
PLAN_CACHE_CAPACITY = 8192

#: Cache key: (segment id, read ranges, write ranges, page size).
PlanKey = Tuple[int, Tuple[Range, ...], Tuple[Range, ...], int]


class AccessPlan:
    """Precomputed page set and per-page write ranges for one access."""

    __slots__ = ("pages", "write_ranges", "steps")

    def __init__(
        self,
        pages: Tuple[Tuple[int, bool], ...],
        write_ranges: Dict[int, List[Range]],
    ):
        #: ``(page, is_write)`` sorted by page number — the fault order.
        self.pages = pages
        #: page -> normalized page-local write ranges (read-only; copy
        #: before mutating).
        self.write_ranges = write_ranges
        #: ``(page, is_write, write_ranges_or_None)`` — the same walk with
        #: the per-page range list pre-joined, so the access fast path
        #: does one tuple unpack instead of a dict lookup per written
        #: page.  The lists are the ``write_ranges`` values themselves:
        #: read-only by the same contract.
        self.steps: Tuple[Tuple[int, bool, List[Range] | None], ...] = tuple(
            (page, is_write, write_ranges.get(page)) for page, is_write in pages
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AccessPlan pages={len(self.pages)}>"


def build_plan(
    seg: SharedSegment,
    reads: Tuple[Range, ...],
    writes: Tuple[Range, ...],
    page_size: int,
) -> AccessPlan:
    """Compute one access plan (the :class:`PlanCache` miss path).

    Pages are the union of read and write page sets, visited in ascending
    page order; each written page carries its page-local normalized write
    ranges.
    """
    write_pages: Dict[int, List[Range]] = {}
    for lo, hi in writes:
        for page in seg.pages_for_range(lo, hi):
            wlo, whi = seg.page_window(page, page_size)
            local = [(s - wlo, e - wlo) for s, e in clip([(lo, hi)], wlo, whi)]
            prev = write_pages.get(page)
            if prev is None:
                write_pages[page] = normalize(local)
            else:
                write_pages[page] = normalize(prev + local)
    read_pages = set()
    for lo, hi in reads:
        read_pages.update(seg.pages_for_range(lo, hi))
    pages = tuple(
        (page, page in write_pages)
        for page in sorted(read_pages | set(write_pages))
    )
    return AccessPlan(pages=pages, write_ranges=write_pages)


class PlanCache:
    """Epoch-invalidated memo of :class:`AccessPlan` objects.

    Shared by all processes of one address space (the plan depends only on
    segment geometry, not on the asking process).  ``invalidate()`` is
    O(1): it bumps the epoch and the next lookup clears the table.
    """

    __slots__ = ("capacity", "epoch", "hits", "misses", "_plans", "_plans_epoch")

    def __init__(self, capacity: int = PLAN_CACHE_CAPACITY):
        self.capacity = capacity
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self._plans: Dict[PlanKey, AccessPlan] = {}
        self._plans_epoch = 0

    def invalidate(self) -> None:
        """Discard all plans (team membership / partition changed)."""
        self.epoch += 1

    def lookup(
        self,
        seg: SharedSegment,
        reads: Tuple[Range, ...],
        writes: Tuple[Range, ...],
        page_size: int,
    ) -> AccessPlan:
        """Cached plan for this access, building it on a miss."""
        plans = self._plans
        if self._plans_epoch != self.epoch:
            plans.clear()
            self._plans_epoch = self.epoch
        key = (seg.seg_id, reads, writes, page_size)
        plan = plans.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        # Not cached on failure: build first, insert after.
        plan = build_plan(seg, reads, writes, page_size)
        self.misses += 1
        if len(plans) >= self.capacity:
            plans.clear()
        plans[key] = plan
        return plan
