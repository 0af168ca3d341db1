"""Garbage collection (§4.1).

GC removes all consistency bookkeeping (twins, diffs, write notices,
intervals) and leaves every page either valid and up-to-date at a process,
or invalid with its owner field naming a process that holds a complete
copy.  The paper's adaptive system triggers a GC at every adaptation point
precisely because this state is cheap to describe to a joining process and
cheap to hand off at a leave.

The *new-owner rule* is a pure function of the epoch's write notices, so
every process computes the same owner map locally — no extra messages are
needed to agree on it.
"""

from __future__ import annotations

from typing import Dict, Iterable

from .intervals import IntervalNotice


def gc_new_owners(intervals: Iterable[IntervalNotice]) -> Dict[int, int]:
    """Owner map changes implied by this epoch's write notices.

    For every written page the new owner is the writer of the *latest*
    interval in happens-before order (vector-clock sort key, computed
    once per interval; concurrent multi-writer intervals tie-break
    deterministically toward the lower pid).  Unwritten pages keep their
    current owner and do not appear in the result, whose pages are in
    the order ``intervals`` first names them.

    Work is per run: the intervals are visited in ascending key and each
    run overwrites its pages' winner, so the latest interval's writer is
    left on every page.
    """
    intervals = list(intervals)
    order: Dict[int, int] = {}
    for iv in intervals:
        for pages in iv.runs:
            order.update(dict.fromkeys(pages))
    winner: Dict[int, int] = {}
    for iv in sorted(intervals, key=lambda iv: (*iv.vc.sort_key(), -iv.proc)):
        for pages in iv.runs:
            winner.update(dict.fromkeys(pages, iv.proc))
    order.update(winner)
    return order
