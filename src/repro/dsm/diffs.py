"""Twin/diff creation and application.

In materialized mode a diff is computed by comparing the page against its
*twin* (the pristine copy made at the first write of the interval) —
vectorized with numpy.  In traced mode the diff carries only the declared
dirty ranges; its wire size is identical because the declared ranges are
exact.

The encode path works directly from the boolean change mask: the changed
bytes are gathered into the diff's contiguous ``buf`` with one masked
read, and the flat dirty positions (``np.flatnonzero``) are kept on the
diff so application is a single scatter.  Fetching several diffs of the
same page *squashes* them: positions/values of all diffs are concatenated
in happens-before order and deduplicated last-writer-wins, so the page is
written once regardless of how many intervals touched it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .intervals import Diff
from .ranges import Range, normalize
from .vectorclock import VectorClock


def changed_ranges(twin: np.ndarray, current: np.ndarray) -> List[Range]:
    """Byte ranges where ``current`` differs from ``twin`` (coalesced runs)."""
    if twin.shape != current.shape:
        raise ValueError("twin/page shape mismatch")
    neq = twin != current
    if not neq.any():
        return []
    # Run-length encode the boolean mask: starts where 0->1, ends where 1->0.
    padded = np.empty(neq.size + 2, dtype=np.int8)
    padded[0] = padded[-1] = 0
    padded[1:-1] = neq
    edges = np.flatnonzero(np.diff(padded))
    starts, ends = edges[0::2], edges[1::2]
    return list(zip(starts.tolist(), ends.tolist()))


def _ranges_from_positions(positions: np.ndarray) -> List[Range]:
    """Coalesce sorted flat positions into (start, end) runs."""
    gaps = np.flatnonzero(positions[1:] != positions[:-1] + 1)
    starts = np.concatenate(([positions[0]], positions[gaps + 1]))
    ends = np.concatenate((positions[gaps], [positions[-1]])) + 1
    return list(zip(starts.tolist(), ends.tolist()))


def make_diff(
    proc: int,
    seq: int,
    page: int,
    vc: VectorClock,
    declared_ranges: List[Range],
    twin: Optional[np.ndarray] = None,
    current: Optional[np.ndarray] = None,
    declared_normalized: bool = False,
    vc_is_snapshot: bool = False,
) -> Optional[Diff]:
    """Encode the diff of one page for one interval.

    Materialized mode (``twin``/``current`` given): the real changed bytes
    are compared; the result is clipped to actual changes (a write of the
    same value produces no run, matching real TreadMarks).  Traced mode:
    the declared ranges stand in for the comparison.

    ``declared_normalized`` lets callers that already hold normalized
    ranges (interval write sets are ``merge`` outputs) skip the
    re-normalization on the traced-mode path.

    The stored clock is a frozen snapshot of ``vc``'s current value.
    Callers that already hold a frozen snapshot (the interval record's
    clock) pass ``vc_is_snapshot=True`` to intern it — every diff and
    notice of one interval then shares a single clock object.

    Returns ``None`` when nothing changed.
    """
    if not vc_is_snapshot:
        vc = vc.snapshot()
    if twin is not None and current is not None:
        mask = twin != current
        positions = np.flatnonzero(mask)
        if not positions.size:
            return None
        diff = Diff(
            proc=proc,
            seq=seq,
            page=page,
            vc=vc,
            ranges=_ranges_from_positions(positions),
            buf=current[mask],
        )
        diff._positions = positions
        return diff
    ranges = declared_ranges if declared_normalized else normalize(declared_ranges)
    if not ranges:
        return None
    # No twin (single-writer page later demoted to multiple-writer): the
    # declared write ranges stand in; with real bytes available, ship them.
    buf = None
    if current is not None:
        chunks = [current[s:e] for s, e in ranges]
        buf = np.concatenate(chunks) if len(chunks) > 1 else chunks[0].copy()
    return Diff(proc=proc, seq=seq, page=page, vc=vc, ranges=ranges, buf=buf)


def apply_diffs_in_order(
    diffs: List[Diff], page_buffer: Optional[np.ndarray]
) -> List[Diff]:
    """Apply ``diffs`` in happens-before order; returns the sorted list.

    ``page_buffer`` may be ``None`` in traced mode (ordering still
    computed, since callers use it to update applied clocks).

    Multiple materialized diffs are squashed into one scatter:
    positions/values are concatenated in application order and
    deduplicated last-writer-wins, which is bitwise-identical to applying
    them one after another.  A lone diff, or a batch holding a diff with
    no byte buffer (which :meth:`Diff.apply` rejects), goes through
    :meth:`Diff.apply` per diff.
    """
    ordered = sorted(diffs, key=Diff.sort_key) if len(diffs) > 1 else list(diffs)
    if page_buffer is None:
        return ordered
    if len(ordered) > 1 and all(d.buf is not None for d in ordered):
        positions = np.concatenate([d.positions() for d in ordered])
        values = np.concatenate([d.buf for d in ordered])
        # np.unique keeps the first occurrence; reversing first makes that
        # the *last* write in application order (last-writer-wins).
        rev_positions = positions[::-1]
        uniq, first_in_rev = np.unique(rev_positions, return_index=True)
        page_buffer[uniq] = values[::-1][first_in_rev]
        return ordered
    for diff in ordered:
        diff.apply(page_buffer)
    return ordered
