"""Byte-range arithmetic used for write sets and diff sizing.

A *range list* is a sorted list of disjoint, non-adjacent ``(start, end)``
half-open byte intervals within one page.  Write sets are tracked as range
lists so that traced-mode runs (no real bytes stored) still produce exact
diff sizes, and materialized-mode runs can cross-check real twin/page
comparisons against the declared ranges.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

Range = Tuple[int, int]

#: Bytes charged per (offset, length) run header in a diff's wire encoding.
RUN_HEADER_BYTES = 8


def normalize(ranges: Iterable[Range]) -> List[Range]:
    """Sort and coalesce overlapping/adjacent ranges; drop empties."""
    rs = ranges if type(ranges) is list else list(ranges)
    # Hot path: the overwhelmingly common cases are zero or one range
    # (per-page write sets of contiguous row updates).
    if not rs:
        return []
    if len(rs) == 1:
        start, end = rs[0]
        return [(start, end)] if start < end else []
    out: List[Range] = []
    for start, end in sorted(r for r in rs if r[0] < r[1]):
        if out and start <= out[-1][1]:
            prev = out[-1]
            out[-1] = (prev[0], max(prev[1], end))
        else:
            out.append((start, end))
    return out


def merge(a: Iterable[Range], b: Iterable[Range]) -> List[Range]:
    """Union of two range lists."""
    a = a if type(a) is list else list(a)
    b = b if type(b) is list else list(b)
    if not a:
        return normalize(b)
    if not b:
        return normalize(a)
    return normalize(a + b)


def _gaps(offsets: np.ndarray) -> np.ndarray:
    """True at ``i`` where ``offsets[i + 1]`` opens a new run.  Strictly
    ascending input keeps ``offsets[:-1] + 1`` inside any unsigned dtype."""
    return offsets[1:] != offsets[:-1] + 1


def count_runs(offsets: np.ndarray) -> int:
    """Number of maximal runs of consecutive values in ascending ``offsets``."""
    if not offsets.size:
        return 0
    return int(np.count_nonzero(_gaps(offsets))) + 1


def coalesce(offsets: np.ndarray) -> List[Range]:
    """Run-length encode strictly ascending ``offsets`` into ``(start, end)``
    ranges — the one coalescing helper behind ``changed_ranges``,
    ``Diff.ranges`` and ``SharedArray.element_set``."""
    if not offsets.size:
        return []
    wide = offsets.astype(np.int64)  # ``last + 1`` may not fit a narrow dtype
    breaks = np.flatnonzero(_gaps(wide))
    starts = np.concatenate((wide[:1], wide[breaks + 1]))
    ends = np.concatenate((wide[breaks], wide[-1:])) + 1
    return list(zip(starts.tolist(), ends.tolist()))


def total_bytes(ranges: Iterable[Range]) -> int:
    """Sum of range lengths."""
    return sum(end - start for start, end in ranges)


def clip(ranges: Iterable[Range], lo: int, hi: int) -> List[Range]:
    """Intersect a range list with the window ``[lo, hi)``."""
    out = []
    for start, end in ranges:
        s, e = max(start, lo), min(end, hi)
        if s < e:
            out.append((s, e))
    return out


def intersects(a: Iterable[Range], b: Iterable[Range]) -> bool:
    """True if any byte is in both range lists (assumed normalized)."""
    a = list(a)
    b = list(b)
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][1] <= b[j][0]:
            i += 1
        elif b[j][1] <= a[i][0]:
            j += 1
        else:
            return True
    return False


def diff_wire_size(ranges: Iterable[Range], run_header_bytes: int = RUN_HEADER_BYTES) -> int:
    """Wire size of a diff covering ``ranges``.

    TreadMarks encodes a diff as a sequence of (offset, length, data) runs;
    we charge ``run_header_bytes`` per run plus the raw bytes.
    """
    ranges = list(ranges)
    return total_bytes(ranges) + run_header_bytes * len(ranges)
