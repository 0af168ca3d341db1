"""Twin/diff creation and application.

In materialized mode a diff is computed by comparing the page against its
*twin* (the pristine copy made at the first write of the interval) —
vectorized with numpy.  In traced mode the diff carries only the declared
dirty ranges; its wire size is identical because the declared ranges are
exact.

Encoding keeps what the comparison yields and nothing derived from it:
the offsets of the changed bytes (narrowed to the page's offset dtype),
the bytes gathered at those offsets, and the run count the wire size
needs (see :class:`~repro.dsm.intervals.Diff`).  Fetching several diffs
of one page applies them one after another in happens-before order, so a
byte written by several intervals ends up with the last writer's value.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .intervals import Diff
from .ranges import Range, coalesce, normalize
from .vectorclock import VectorClock


def changed_ranges(twin: np.ndarray, current: np.ndarray) -> List[Range]:
    """Byte ranges where ``current`` differs from ``twin`` (coalesced runs)."""
    if twin.shape != current.shape:
        raise ValueError("twin/page shape mismatch")
    return coalesce(np.flatnonzero(twin != current))


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
        # flatnonzero without its ravel: pages are 1-D.
        positions = (twin != current).nonzero()[0]
        if not positions.size:
            return None
    else:
        ranges = declared_ranges if declared_normalized else normalize(declared_ranges)
        if not ranges:
            return None
        if current is None:
            return Diff(proc, seq, page, vc, ranges)
        # No twin (single-writer page later demoted to multiple-writer): the
        # declared write ranges stand in for the comparison and the current
        # bytes are shipped.  Normalized ranges are non-adjacent, so their
        # offsets form exactly ``len(ranges)`` runs.
        positions = np.concatenate([np.arange(s, e) for s, e in ranges])
    return Diff(
        proc, seq, page, vc,
        buf=current[positions],
        offsets=positions.astype(np.min_scalar_type(current.size - 1)),
    )


def apply_diffs_in_order(
    diffs: List[Diff], page_buffer: Optional[np.ndarray]
) -> List[Diff]:
    """Apply ``diffs`` in happens-before order; returns the sorted list.

    ``page_buffer`` may be ``None`` in traced mode (ordering still
    computed, since callers use it to update applied clocks).
    """
    ordered = sorted(diffs, key=Diff.sort_key) if len(diffs) > 1 else list(diffs)
    if page_buffer is not None:
        for diff in ordered:
            diff.apply(page_buffer)
    return ordered
