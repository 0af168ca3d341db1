"""Garbage collection (§4.1).

GC removes all consistency bookkeeping (twins, diffs, write notices,
intervals) and leaves every page either valid and up-to-date at a process,
or invalid with its owner field naming a process that holds a complete
copy.  The paper's adaptive system triggers a GC at every adaptation point
precisely because this state is cheap to describe to a joining process and
cheap to hand off at a leave.

The *new-owner rule* is a pure function of the epoch's write notices, so
every process computes the same owners locally — no extra messages are
needed to agree on them.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .intervals import IntervalNotice


def gc_new_owners(intervals: Iterable[IntervalNotice]) -> List[Tuple[range, int]]:
    """Owner changes implied by this epoch's write notices, as page runs.

    For every written page the new owner is the writer of the *latest*
    interval in happens-before order (vector-clock sort key, computed
    once per interval; concurrent multi-writer intervals tie-break
    deterministically toward the lower pid).  The result is every
    interval's written runs with their writer, ``(pages, pid)``, in
    ascending key: storing them in that order onto an owner column
    leaves the latest writer on every written page and unwritten pages
    as they were.
    """
    out: List[Tuple[range, int]] = []
    for iv in sorted(intervals, key=lambda iv: (*iv.vc.sort_key(), -iv.proc)):
        proc = iv.proc
        out.extend([(pages, proc) for pages in iv.runs])
    return out
